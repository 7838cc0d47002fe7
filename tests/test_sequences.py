import tracemalloc

import numpy as np
import pytest

from nonstat_dyn import transfer
from nonstat_dyn.densities import GridDensity, GridMismatchError, l1_distance
from nonstat_dyn.maps import doubling_family, pm_family, instantiate
from nonstat_dyn.sequences import (ParameterSequence, adversarial_demo,
                                   doubling_gap_schedule, evolve_density,
                                   gen_sequence, post_transient_worst,
                                   stability_experiment)
from nonstat_dyn.transfer import build_ulam, fixed_density


def test_constant_sequence():
    spec = ParameterSequence.constant(0.3)
    assert np.array_equal(gen_sequence(spec, 5), np.full(5, 0.3))


def test_adversarial_schedule_values():
    # (0, 3, 5): steps 1-3 at +eps, steps 4-5 at -eps
    run = adversarial_demo(pm_family(0.5), 0.1, (0, 3, 5), n_max=5,
                           n_cells=64)
    assert run.block_ends == ((3, "+"), (5, "-"))


def test_adversarial_requires_increasing_schedule():
    fam = pm_family(0.5)
    for bad in [(0, 5, 3), (1, 5), (0,)]:
        with pytest.raises(ValueError, match="must start at 0 and strictly"):
            adversarial_demo(fam, 0.1, bad, n_max=3, n_cells=64)
    with pytest.raises(ValueError, match="schedule too short"):
        adversarial_demo(fam, 0.1, (0, 3, 5), n_max=9, n_cells=64)
    with pytest.raises(ValueError, match="unknown sequence kind"):
        ParameterSequence(kind="adversarial")


def test_iid_deterministic_and_supported():
    spec = ParameterSequence.iid(0.1, 0.01, seed=42)
    a = gen_sequence(spec, 100)
    b = gen_sequence(spec, 100)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a - 0.1) <= 0.01)


def test_doubling_gap_schedule():
    ks = doubling_gap_schedule(64, 10000)
    gaps = np.diff(ks)
    assert ks[0] == 0
    assert all(gaps[i + 1] == 2 * gaps[i] for i in range(len(gaps) - 1))
    assert ks[-1] >= 10000


def test_evolve_constant_sequence_converges_to_fixed_density():
    fam = pm_family(0.5)
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), 256), tol=1e-13)
    trace = evolve_density(fam, ParameterSequence.constant(0.1),
                           GridDensity.uniform(256), 400,
                           checkpoint_every=100, reference=phi_hat)
    assert trace.distances[-1] < 1e-9
    assert np.max(np.abs(trace.masses - 1.0)) <= 1e-9


def test_evolve_mass_conserved_and_nonnegative():
    fam = doubling_family()
    trace = evolve_density(fam, ParameterSequence.iid(0.0, 0.01, 3),
                           GridDensity.indicator(0, 0.5, 256, height=2.0),
                           200, checkpoint_every=20)
    assert np.max(np.abs(trace.masses - 1.0)) <= 1e-9
    assert np.all(trace.final.values >= 0)


def test_evolve_seminorm_settles_below_ly_level():
    fam = pm_family(0.5)
    from nonstat_dyn.cli import random_step_density
    rng = np.random.default_rng(1)
    test_set = [random_step_density(256, rng) for _ in range(30)]
    from nonstat_dyn.transfer import lasota_yorke_fit
    fit = lasota_yorke_fit(fam, 0.1, 0.5, test_set)
    assert fit.eta_hat < 1.0
    level = fit.c_hat / (1.0 - fit.eta_hat)
    trace = evolve_density(fam, ParameterSequence.iid(0.1, 0.01, 5),
                           GridDensity.indicator(0, 0.5, 256, height=2.0),
                           300, checkpoint_every=50, track_seminorm=True,
                           alpha=0.5)
    assert np.all(trace.seminorms[2:] <= level * 1.5)


def test_memory_loss_of_density_pairs():
    fam = doubling_family()
    rng = np.random.default_rng(7)
    gammas = rng.uniform(-0.01, 0.01, 100)
    v = GridDensity.indicator(0, 0.5, 128, height=2.0).values.copy()
    w = GridDensity.indicator(0.25, 0.75, 128, height=2.0).values.copy()
    diffs = [np.mean(np.abs(v - w))]
    for g in gammas:
        op = build_ulam(instantiate(fam, float(g)), 128)
        v = op.matrix @ v
        w = op.matrix @ w
        diffs.append(np.mean(np.abs(v - w)))
    assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-3
    n_star = next(i for i, d in enumerate(diffs) if d < 1e-3)
    assert n_star < 100


def test_evolve_memory_bounded_in_horizon():
    # every step of an iid sequence is a new parameter; the operator cache
    # is bounded, so the peak stays flat instead of growing ~0.2 MiB a step
    tracemalloc.start()
    try:
        evolve_density(pm_family(0.5), ParameterSequence.iid(0.1, 0.01, 0),
                       GridDensity.uniform(256), 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_evolve_steps_skip_scans_and_revalidation(monkeypatch):
    # a new parameter at every step: the step must not copy and re-check
    # the densities it built itself (operators it builds are never
    # checked, as `UlamOperator(...)` takes no arrays)
    fam = pm_family(0.5)
    seq = ParameterSequence.iid(0.1, 0.01, 0)
    phi0 = GridDensity.uniform(128)
    want = evolve_density(fam, seq, phi0, 50).final.values
    calls = []
    original = GridDensity.__post_init__

    def validate(self):
        calls.append(self)
        original(self)
    monkeypatch.setattr(GridDensity, "__post_init__", validate)
    got = evolve_density(fam, seq, phi0, 50).final.values
    assert calls == []
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ref_cells", (1, 32))
def test_evolve_reference_on_another_grid_rejected_before_any_step(
        monkeypatch, ref_cells):
    # a 1-cell reference used to broadcast against every row, a 32-cell one
    # to fail in numpy with a generic ValueError
    def no_step(*args, **kwargs):
        raise AssertionError("an operator was built")
    monkeypatch.setattr(transfer, "instantiate", no_step)
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        evolve_density(pm_family(0.5), ParameterSequence.iid(0.1, 0.01, 0),
                       GridDensity.uniform(64), 3,
                       reference=GridDensity.uniform(ref_cells))


def test_post_transient_worst_picks_plateau():
    d = np.array([1.0, 0.5, 0.2, 0.11, 0.1, 0.12, 0.1, 0.11])
    n_bar, worst = post_transient_worst(d)
    assert n_bar == 3  # first within 10% of the floor 0.1
    assert worst == 0.12


def test_stability_experiment_zero_delta_row():
    fam = pm_family(0.5)
    table = stability_experiment(fam, 0.1, [0.0], GridDensity.uniform(128),
                                 200, 2, seed=0, checkpoint_every=50)
    row = table.rows[0]
    assert row.stationary_distance <= 1e-12
    assert row.worst_post_transient <= 1e-8


def test_stability_experiment_monotone_in_delta():
    fam = pm_family(0.5)
    table = stability_experiment(fam, 0.1, [0.04, 0.01], GridDensity.uniform(128),
                                 400, 3, seed=1, checkpoint_every=50)
    d_big, d_small = table.rows[0], table.rows[1]
    assert d_small.worst_post_transient < d_big.worst_post_transient
    assert d_small.stationary_distance < d_big.stationary_distance


def test_point_mass_distance_bounded_by_ball_radius_effect():
    # a point mass inside the ball behaves like the averaged system row
    fam = pm_family(0.5)
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), 256))
    phi_gamma = fixed_density(build_ulam(instantiate(fam, 0.11), 256))
    table = stability_experiment(fam, 0.1, [0.01], GridDensity.uniform(256),
                                 300, 2, seed=2)
    d_point = l1_distance(phi_gamma, phi_hat)
    assert d_point <= 4 * max(table.rows[0].stationary_distance,
                              table.rows[0].worst_post_transient)


def test_adversarial_demo_short_schedule_warns():
    fam = pm_family(0.5)
    with pytest.warns(UserWarning):
        adversarial_demo(fam, 0.1, (0, 120), n_max=100, n_cells=128)


def test_adversarial_demo_requires_covering_schedule():
    fam = pm_family(0.5)
    with pytest.raises(ValueError):
        adversarial_demo(fam, 0.1, (0, 50), n_max=100, n_cells=128)


def test_adversarial_plus_only_converges():
    # expanding segments alone pull the density to the +eps fixed density
    fam = pm_family(0.5)
    phi_plus = fixed_density(build_ulam(instantiate(fam, 0.1), 256))
    trace = evolve_density(fam, ParameterSequence.constant(0.1),
                           GridDensity.uniform(256), 300,
                           checkpoint_every=25, reference=phi_plus)
    diffs = trace.distances
    assert diffs[-1] < 1e-6
    assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))


def test_adversarial_demo_two_regimes_small():
    fam = pm_family(0.5)
    ks = doubling_gap_schedule(32, 2000)
    run = adversarial_demo(fam, 0.1, ks, n_max=2000, n_cells=512)
    minus_ends = [k for k, kind in run.block_ends if kind == "-"]
    plus_ends = [k for k, kind in run.block_ends if kind == "+"]
    assert run.mass_low[minus_ends[-1] - 1] > 0.5
    assert run.dist_plus[plus_ends[-1] - 1] < 0.1


def test_stability_ball_outside_range_rejected_before_any_step(monkeypatch):
    from nonstat_dyn import sequences

    def no_step(*args, **kwargs):
        raise AssertionError("an operator was built")
    monkeypatch.setattr(sequences, "build_ulam", no_step)
    monkeypatch.setattr(sequences, "instantiate", no_step)
    with pytest.raises(ValueError, match=r"ball \[-9.99999999999994e-05, "
                                         r"0.0199\] is not inside"):
        stability_experiment(pm_family(0.5), 0.0099, [0.0, 0.01],
                             GridDensity.uniform(64), 50, 1, 0)
