"""The one stepping kernel, `transfer.step_blocks`, against the one-step
loops it replaced.

Each oracle below is the loop as it was written before the kernel: one
`UlamOperator.apply` per step and 1-D reductions on every step's density.
The ported loops must match them bit for bit at horizons on both sides of a
block boundary.
"""
import itertools
import tracemalloc

import numpy as np
import pytest

from nonstat_dyn.birkhoff import covariance_decay, observable
from nonstat_dyn.densities import GridDensity, quasi_holder_seminorm, seminorms
from nonstat_dyn.maps import doubling_family, instantiate, lsv_family, pm_family
from nonstat_dyn.seeding import substream
from nonstat_dyn.sequences import (ParameterSequence, adversarial_demo,
                                   doubling_gap_schedule, evolve_density,
                                   gen_sequence)
from nonstat_dyn.transfer import (STEP_BLOCK, LasotaYorkeFit, apply_sequence,
                                  build_ulam, fixed_density,
                                  iterated_bound_margin, operator_cache,
                                  perturbation_probe, step_blocks)

B = STEP_BLOCK
HORIZONS = (1, B - 1, B, B + 1, 3 * B + 5)
CELLS = 128


def step_density(n_cells, seed):
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.integers(0, n_cells, 8))
    levels = rng.uniform(0.2, 2.0, 9)
    vals = np.repeat(levels, np.diff(np.concatenate(([0], edges, [n_cells]))))
    return GridDensity(vals / vals.mean())


# --- the one-step oracles ----------------------------------------------------

def evolve_oracle(family, gammas, phi0, n, checkpoint_every, reference, alpha,
                  eps0=0.05, quadrature=32):
    operator = operator_cache(family, phi0.n_cells, quadrature)
    steps, masses = [0], [phi0.mass]
    dists = [float(np.mean(np.abs(phi0.values - reference.values)))]
    semis = [quasi_holder_seminorm(phi0, alpha, eps0).seminorm]
    cur = phi0
    for k in range(1, n + 1):
        cur = operator(float(gammas[k - 1])).apply(cur)
        if k % checkpoint_every == 0 or k == n:
            vals = cur.values
            steps.append(k)
            masses.append(float(vals.mean()))
            dists.append(float(np.mean(np.abs(vals - reference.values))))
            semis.append(quasi_holder_seminorm(
                GridDensity(np.clip(vals, 0.0, None)), alpha, eps0).seminorm)
    return (np.array(steps), np.array(masses), np.array(dists),
            np.array(semis), np.clip(cur.values, 0.0, None))


def mass_below_oracle(values, w):
    n = values.size
    full = int(np.floor(w * n))
    mass = values[:full].sum() / n
    frac = w * n - full
    if full < n and frac > 0:
        mass += values[full] * frac / n
    return float(mass)


def adversarial_oracle(family, eps, schedule, phi0, n_max, w=0.05,
                       quadrature=32):
    phi_plus = fixed_density(build_ulam(instantiate(family, eps),
                                        phi0.n_cells, quadrature))
    gammas = gen_sequence(ParameterSequence.adversarial(eps, schedule), n_max)
    operator = operator_cache(family, phi0.n_cells, quadrature, unsafe=True)
    cur = phi0
    mass_low, dist_plus = np.empty(n_max), np.empty(n_max)
    for k in range(n_max):
        cur = operator(float(gammas[k])).apply(cur)
        mass_low[k] = mass_below_oracle(cur.values, w)
        dist_plus[k] = float(np.mean(np.abs(cur.values - phi_plus.values)))
    return mass_low, dist_plus


def probe_curve_oracle(family, gamma_hat, delta, n_max, phi, seq_seed,
                       quadrature=32):
    rng = substream(seq_seed, "perturbation-probe")
    gammas = rng.uniform(gamma_hat - delta, gamma_hat + delta, n_max)
    gammas = np.clip(gammas, *family.gamma_range)
    operator = operator_cache(family, phi.n_cells, quadrature)
    base = operator(float(gamma_hat))
    cur_seq = cur_const = phi
    curve = np.zeros(n_max + 1)
    for k in range(1, n_max + 1):
        cur_seq = operator(float(gammas[k - 1])).apply(cur_seq)
        cur_const = base.apply(cur_const)
        curve[k] = float(np.mean(np.abs(cur_seq.values - cur_const.values)))
    return curve


def spectral_means_oracle(family, gammas, psi, quadrature=32):
    operator = operator_cache(family, psi.n_cells, quadrature)
    dens = GridDensity.uniform(psi.n_cells)
    means = [float(np.mean(psi.values))]
    for g in gammas:
        dens = operator(float(g)).apply(dens)
        means.append(float(np.mean(psi.values * dens.values)))
    return np.array(means)


def margin_oracle(op, phi, fit, n_powers, slack=0.05):
    x0 = quasi_holder_seminorm(phi, fit.alpha, fit.eps0).seminorm
    z0 = float(np.mean(np.abs(phi.values)))
    worst, cur = 0.0, phi
    for n in range(1, n_powers + 1):
        cur = op.apply(cur)
        lhs = quasi_holder_seminorm(cur, fit.alpha, fit.eps0).seminorm
        rhs = (fit.eta_hat ** n * x0 +
               fit.c_hat / (1.0 - fit.eta_hat) * z0) * (1.0 + slack)
        worst = max(worst, lhs / rhs if rhs > 0 else np.inf)
    return worst


# --- the ported loops, bit for bit ---------------------------------------------

@pytest.mark.parametrize("n", HORIZONS)
@pytest.mark.parametrize("family", [pm_family(0.5), lsv_family(0.5)],
                         ids=["pm", "lsv"])
def test_evolve_density_matches_one_step_oracle(family, n):
    phi0 = step_density(CELLS, n)
    reference = fixed_density(build_ulam(instantiate(family, 0.1), CELLS))
    gammas = gen_sequence(ParameterSequence.iid(0.1, 0.01, n), n)
    trace = evolve_density(family, gammas, phi0, n, checkpoint_every=7,
                           reference=reference, track_seminorm=True, alpha=0.5)
    steps, masses, dists, semis, final = evolve_oracle(
        family, gammas, phi0, n, 7, reference, 0.5)
    assert np.array_equal(trace.steps, steps)
    assert np.array_equal(trace.masses, masses)
    assert np.array_equal(trace.distances, dists)
    assert np.array_equal(trace.seminorms, semis)
    assert np.array_equal(trace.final.values, final)


def test_evolve_density_zero_steps_keeps_initial_state():
    phi0 = step_density(CELLS, 0)
    trace = evolve_density(pm_family(0.5), [], phi0, 0, track_seminorm=True)
    assert trace.steps.tolist() == [0]
    assert np.array_equal(trace.final.values, phi0.values)
    assert len(trace.seminorms) == 1


@pytest.mark.filterwarnings("ignore:schedule completes fewer")
@pytest.mark.parametrize("n", HORIZONS)
def test_adversarial_demo_matches_one_step_oracle(n):
    # the -eps steps take the unsafe pm path
    fam = pm_family(0.5)
    schedule = (0, 5, 11, 3 * B, 4 * B)
    phi0 = step_density(CELLS, n)
    run = adversarial_demo(fam, 0.1, schedule, phi0=phi0, n_max=n,
                           n_cells=CELLS)
    mass_low, dist_plus = adversarial_oracle(fam, 0.1, schedule, phi0, n)
    assert np.array_equal(run.mass_low, mass_low)
    assert np.array_equal(run.dist_plus, dist_plus)


@pytest.mark.parametrize("n", HORIZONS)
@pytest.mark.parametrize("family,gamma_hat",
                         [(doubling_family(), 0.0), (pm_family(0.5), 0.1)],
                         ids=["doubling", "pm"])
def test_perturbation_probe_matches_one_step_oracle(family, gamma_hat, n):
    phi = step_density(CELLS, n)
    probe = perturbation_probe(family, gamma_hat, 0.02, n, phi, seq_seed=n)
    want = probe_curve_oracle(family, gamma_hat, 0.02, n, phi, n)
    assert np.array_equal(probe.curve, want)


@pytest.mark.parametrize("n", HORIZONS)
@pytest.mark.parametrize("family,gamma_hat",
                         [(doubling_family(), 0.0), (pm_family(0.5), 0.1)],
                         ids=["doubling", "pm"])
def test_covariance_spectral_means_match_one_step_oracle(family, gamma_hat, n):
    seq = ParameterSequence.iid(gamma_hat, 0.01, n)
    psi = observable("cos", CELLS)
    cov = covariance_decay(family, seq, psi, (0, n), ensemble=20, seed=n)
    want = spectral_means_oracle(family, gen_sequence(seq, n), psi)
    assert np.array_equal(cov.means_spectral, want)


@pytest.mark.parametrize("n", (0,) + HORIZONS)
def test_apply_sequence_matches_chained_apply(n):
    rng = np.random.default_rng(n)
    fams = (doubling_family(), pm_family(0.5))
    ops = [build_ulam(instantiate(fams[k % 2], float(g)), CELLS)
           for k, g in enumerate(rng.uniform(0.05, 0.15, n))]
    phi = step_density(CELLS, n)
    want = phi
    for op in ops:
        want = op.apply(want)
    got = apply_sequence(ops, phi)
    assert np.array_equal(got.values, want.values)
    assert not got.values.flags.writeable


@pytest.mark.parametrize("n", HORIZONS)
@pytest.mark.parametrize("circle", [True, False])
def test_iterated_bound_margin_matches_one_step_oracle(n, circle):
    op = build_ulam(instantiate(pm_family(0.5), 0.1), CELLS)
    phi = GridDensity(step_density(CELLS, n).values, circle=circle)
    fit = LasotaYorkeFit(eta_hat=0.6, c_hat=3.0, c_least_squares=2.5,
                         satisfied_fraction=1.0, alpha=0.5, eps0=0.05,
                         n_test=1)
    assert iterated_bound_margin(op, phi, fit, n) == margin_oracle(op, phi,
                                                                   fit, n)


@pytest.mark.parametrize("circle", [True, False])
@pytest.mark.parametrize("n_cells,eps0", [(128, 0.05), (16, 0.5)])
def test_block_seminorms_match_one_density_seminorm(circle, n_cells, eps0):
    # 16 cells with eps0 = 0.5: the widest windows cover the whole circle
    rows = np.array([step_density(n_cells, s).values for s in range(5)])
    got = seminorms(rows, 0.5, eps0, circle)
    want = [quasi_holder_seminorm(GridDensity(r, circle=circle), 0.5,
                                  eps0).seminorm for r in rows]
    assert np.array_equal(got, want)


# --- the kernel's contract -------------------------------------------------------

def test_step_blocks_overwrites_one_read_only_buffer():
    # a held block is read-only, and the next block is written over it
    op = build_ulam(instantiate(pm_family(0.5), 0.1), CELLS)
    phi = step_density(CELLS, 1)
    blocks = step_blocks(itertools.repeat(op, 2 * B + 3), phi.values)
    first = next(blocks)
    held = first.copy()
    assert first.shape == (B, CELLS)
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    second = next(blocks)
    assert np.shares_memory(first, second)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, held)
    assert [len(b) for b in blocks] == [3]
    # the rows are the chained single steps
    cur = phi
    for k in range(2 * B):
        cur = op.apply(cur)
        if k == B - 1:
            assert np.array_equal(held[-1], cur.values)
    assert np.array_equal(second[-1], cur.values)


def test_adversarial_memory_flat_in_horizon():
    # beyond the two n_max output arrays, the peak must not grow with n_max
    fam = pm_family(0.5)

    def peak_beyond_outputs(n_max):
        tracemalloc.start()
        try:
            adversarial_demo(fam, 0.1, doubling_gap_schedule(64, n_max),
                             n_max=n_max, n_cells=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - 2 * 8 * n_max

    peak_beyond_outputs(500)   # warm the package's own lazy caches
    short, long = peak_beyond_outputs(2000), peak_beyond_outputs(8000)
    assert abs(long - short) <= 0.1 * short
