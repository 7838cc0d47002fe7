"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are fixed here and nowhere else; experiments use the stated
parameters with explicit seeds so every run is reproducible.
"""
import hashlib
import json
import os
import time

import numpy as np

from nonstat_dyn.birkhoff import (band_pass_check, birkhoff_averages,
                                  covariance_decay, lln_summability,
                                  lp_distance, observable, orbit_points,
                                  quasi_birkhoff_band)
from nonstat_dyn.cli import main as cli_main
from nonstat_dyn.cli import random_step_density
from nonstat_dyn.cones import (ConeParams, cone_image_check,
                               contraction_and_diameter, sample_cone_density,
                               theta_holder, theta_plus)
from nonstat_dyn.densities import (GridDensity, l1_distance, l1_norm,
                                   quasi_holder_seminorm)
from nonstat_dyn.maps import (breakpoint_family, circle_family,
                              doubling_family, instantiate, lsv_family,
                              pm_family, tent_family)
from nonstat_dyn.seeding import substream
from nonstat_dyn.sequences import (ParameterSequence, adversarial_demo,
                                   doubling_gap_schedule,
                                   post_transient_worst)
from nonstat_dyn.transfer import (AveragingLaw, apply_sequence,
                                  averaged_operator,
                                  build_ulam, fit_decay_envelope,
                                  fixed_density, iterated_bound_margin,
                                  lasota_yorke_fit, perturbation_probe)


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_golden_invariant_density():
    start = time.perf_counter()
    op = build_ulam(instantiate(doubling_family(), 0.0), 1024)
    phi = fixed_density(op, tol=1e-13)
    residual = l1_distance(op.apply(phi), phi)
    err = l1_distance(phi, GridDensity.uniform(1024))
    elapsed = time.perf_counter() - start
    report(1, err <= 1e-10 and residual <= 1e-12 and elapsed < 1.0,
           f"doubling/1024 uniform error {err:.2e}, residual {residual:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_operator_axioms():
    families = [
        (doubling_family(), (-0.05, 0.0, 0.1)),
        (pm_family(0.5), (0.05, 0.1, 0.3)),
        (lsv_family(0.5), (0.05, 0.1, 0.3)),
        (breakpoint_family(), (-0.05, 0.0, 0.1)),
        (tent_family(), (-0.1, 0.0, 0.1)),
        (circle_family(), (-0.3, 0.0, 0.3)),
    ]
    rng = substream(0, "axioms")
    worst_mass, worst_contract = 0.0, 0.0
    for family, gammas in families:
        for gamma in gammas:
            op = build_ulam(instantiate(family, gamma), 128)
            for _ in range(100):
                vals = rng.uniform(0.05, 2.0, 128)
                phi = GridDensity(vals / vals.mean())
                out = op.apply(phi)
                assert np.all(out.values >= 0.0)            # P1 exact
                worst_mass = max(worst_mass, abs(out.mass - phi.mass))
                worst_contract = max(worst_contract,
                                     l1_norm(out) / l1_norm(phi))
    a = build_ulam(instantiate(doubling_family(), 0.0), 64)
    b = build_ulam(instantiate(tent_family(), 0.0), 64)
    phi = GridDensity(rng.uniform(0.5, 1.5, 64))
    p4 = np.array_equal(apply_sequence([a, b], phi).values,
                        b.apply(a.apply(phi)).values)
    report(2, worst_mass <= 1e-10 and worst_contract <= 1 + 1e-12 and p4,
           f"P1-P3 on 18 operators x 100 densities (mass err {worst_mass:.1e}, "
           f"contraction {worst_contract - 1:.1e}), P4 bit-exact={p4}")


def test_criterion_03_stationary_stability_trend():
    start = time.perf_counter()
    fam = pm_family(0.5)
    cells = 512
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), cells))
    dist = {}
    for delta in (0.02, 0.01, 0.005):
        nu = AveragingLaw(center=0.1, radius=delta, law="uniform",
                          n_samples=64)
        phi_nu = fixed_density(averaged_operator(fam, nu, cells))
        dist[delta] = l1_distance(phi_nu, phi_hat)
    elapsed = time.perf_counter() - start
    ok = (dist[0.005] < dist[0.01] < dist[0.02]
          and dist[0.005] <= 0.6 * dist[0.02] and elapsed < 60.0)
    report(3, ok, "||phi_nu - phi_hat||_1 = "
           + ", ".join(f"{d}:{v:.4f}" for d, v in dist.items())
           + f" (ratio {dist[0.005] / dist[0.02]:.2f}, {elapsed:.0f}s)")


def test_criterion_04_evolution_robustness():
    fam = pm_family(0.5)
    cells = 512
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), cells))
    starts = [GridDensity.uniform(cells).values,
              GridDensity.indicator(0.0, 0.5, cells, height=2.0).values]
    worst = {}
    mass_ok = True
    for delta in (0.02, 0.01, 0.005):
        w = 0.0
        for s in range(20):
            rng = substream(0, "criterion4", repr(delta), s)
            gammas = np.clip(rng.uniform(0.1 - delta, 0.1 + delta, 2000),
                             *fam.gamma_range)
            vecs = [v.copy() for v in starts]
            dists = [[], []]
            for k, g in enumerate(gammas, start=1):
                op = build_ulam(instantiate(fam, float(g)), cells)
                for i in range(2):
                    vecs[i] = op.matrix @ vecs[i]
                    if k % 50 == 0:
                        dists[i].append(
                            float(np.mean(np.abs(vecs[i] - phi_hat.values))))
                        mass_ok &= abs(vecs[i].mean() - 1.0) <= 1e-9
            for d in dists:
                _, wd = post_transient_worst(np.array(d))
                w = max(w, wd)
        worst[delta] = w
    ok = worst[0.005] <= 0.6 * worst[0.02] and mass_ok
    report(4, ok, "post-transient worst = "
           + ", ".join(f"{d}:{v:.4f}" for d, v in worst.items())
           + f" (ratio {worst[0.005] / worst[0.02]:.2f}, mass ok={mass_ok})")


def test_criterion_05_perturbation_bound_shape():
    fam = pm_family(0.5)
    phi = GridDensity.uniform(512)
    norm_alpha = quasi_holder_seminorm(phi, 0.5).norm_alpha
    means, spreads = {}, {}
    for delta in (0.02, 0.01):
        curves = [perturbation_probe(fam, 0.1, delta, 30, phi,
                                     seq_seed=s, alpha=0.5).curve
                  for s in range(10)]
        means[delta] = np.mean(curves, axis=0)
        spreads[delta] = np.std(curves, axis=0)
    tol = 2.0 * np.maximum(spreads[0.02], spreads[0.01])
    shrink = bool(np.all(means[0.01] <= means[0.02] + tol + 1e-12))
    resid_ok, dominated = True, True
    resids = {}
    for delta, curve in means.items():
        env = fit_decay_envelope(curve, norm_alpha)
        resids[delta] = env.rel_residual
        resid_ok &= env.rel_residual < 0.20
        bound = env.c_dominating * norm_alpha * env.s_fit ** np.arange(31)
        dominated &= bool(np.all(curve <= bound + 1e-12))
    report(5, shrink and resid_ok and dominated,
           f"curves shrink={shrink}, dominated={dominated}, residuals "
           + ", ".join(f"{d}:{r:.3f}" for d, r in resids.items()))


def test_criterion_06_lasota_yorke():
    fam = doubling_family()
    cells = 512
    rng = substream(0, "criterion6")
    test_set = [random_step_density(cells, rng) for _ in range(100)]
    fit = lasota_yorke_fit(fam, 0.0, 0.5, test_set)
    op = build_ulam(instantiate(fam, 0.0), cells)
    worst_margin = max(iterated_bound_margin(op, phi, fit, n_powers=10,
                                             slack=0.05)
                       for phi in test_set)
    ok = fit.eta_hat < 1.0 and worst_margin <= 1.0
    report(6, ok, f"eta_hat={fit.eta_hat:.3f} < 1, iterated bound margin "
           f"{worst_margin:.3f} <= 1 for n<=10 on 100 densities")


def test_criterion_07_cone_machinery():
    cone = ConeParams(a=2.0, nu=0.5, rho0=0.25, lam=0.75)
    rng = substream(0, "criterion7")
    n = 256

    def positive(rng):
        vals = np.exp(rng.uniform(-0.5, 0.5, n))
        return GridDensity(vals / vals.mean())

    axioms = True
    for _ in range(100):
        a, b, c = positive(rng), positive(rng), positive(rng)
        tab, tba = theta_plus(a, b).theta, theta_plus(b, a).theta
        axioms &= abs(tab - tba) < 1e-9
        axioms &= theta_plus(a, c).theta <= tab + theta_plus(b, c).theta + 1e-9
        axioms &= theta_plus(a, a.scaled(float(rng.uniform(0.5, 3)))).theta < 1e-9
    inner = ConeParams(a=cone.lam * cone.a, nu=cone.nu, rho0=cone.rho0)
    comparison = True
    for _ in range(100):
        p1 = sample_cone_density(n, inner, rng)
        p2 = sample_cone_density(n, inner, rng)
        th = theta_holder(p1, p2, cone)
        if th.finite:
            comparison &= theta_plus(p1, p2).theta <= th.theta + 1e-9
    op = build_ulam(instantiate(doubling_family(), 0.0), n)
    image = cone_image_check(op, cone, samples=100, seed=7)
    contraction = contraction_and_diameter([op], cone, pairs=100, seed=7)
    bound_ok = (contraction.q_hat < 1.0 and
                contraction.q_hat <= 1.0 - np.exp(-contraction.diameter_hat)
                + 0.05)
    ok = axioms and comparison and image.passed and bound_ok
    report(7, ok, f"theta axioms={axioms}, plus<=holder={comparison}, "
           f"image check passed={image.passed} (worst {image.worst_a_min:.3f} "
           f"<= {image.target:.3f}), q_hat={contraction.q_hat:.3f} <= "
           f"1-exp(-D)={1 - np.exp(-contraction.diameter_hat):.3f}+0.05")


def test_criterion_08_quasi_birkhoff_band():
    start = time.perf_counter()
    fam = pm_family(0.5)
    cells = 1024
    psis = [observable("x", cells), observable("cos", cells)]
    seq = ParameterSequence.iid(0.1, 0.01, seed=11)
    result = birkhoff_averages(fam, seq, 100, psis, 100000, seed=11)
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), cells))
    fracs = {}
    for j, psi in enumerate(psis):
        band = quasi_birkhoff_band(psi, phi_hat, 0.05)
        fracs[psi.name] = band_pass_check(result, band, obs_index=j).fraction
    elapsed = time.perf_counter() - start
    ok = all(f >= 0.95 for f in fracs.values()) and elapsed < 120.0
    report(8, ok, "band pass fractions "
           + ", ".join(f"{k}:{v:.2f}" for k, v in fracs.items())
           + f" (>=0.95, {elapsed:.0f}s)")


def test_criterion_09_covariance_decay():
    dfam = doubling_family()
    cov = covariance_decay(dfam, ParameterSequence.constant(0.0),
                           observable("cos", 512), (4, 14), ensemble=10000,
                           seed=5)
    ortho = True
    for i in range(15):
        for j in range(15):
            if 1 <= abs(i - j) <= 10:
                ortho &= abs(cov.R[i, j]) < 3.0 * cov.se[i, j]
    fam = pm_family(0.5)
    covp = covariance_decay(fam, ParameterSequence.iid(0.1, 0.01, 6),
                            observable("x", 512), (4, 14), ensemble=10000,
                            seed=6)
    lln = lln_summability(covp)
    identity = abs(lln.unit_partial_sum - (-np.log1p(-covp.q_fit)))
    ok = (ortho and covp.q_fit < 1.0 and lln.verdict == "summable"
          and identity < 1e-6)
    report(9, ok, f"orthogonality(3se)={ortho}, pm q_hat={covp.q_fit:.3f}, "
           f"verdict={lln.verdict}, |sum - closed form| = {identity:.1e}")


def test_criterion_10_adversarial_counterexample():
    fam = pm_family(0.5)
    ks = doubling_gap_schedule(64, 10000)
    run = adversarial_demo(fam, 0.1, ks, n_max=10000, n_cells=1024)
    k2 = run.block_ends[1][0]
    tail = run.dist_plus[k2:]
    two_regimes = tail.max() > 0.5 and tail.min() < 0.1
    ok = run.reached_concentration and run.reached_return and two_regimes
    minus = max(run.mass_low[k - 1] for k, kind in run.block_ends
                if kind == "-")
    plus = min(run.dist_plus[k - 1] for k, kind in run.block_ends
               if kind == "+")
    report(10, ok, f"-eps block-end mass {minus:.3f} > 0.9, +eps block-end "
           f"distance {plus:.3f} < 0.1, post-block range "
           f"[{tail.min():.3f}, {tail.max():.3f}] straddles (0.1, 0.5)")


def test_criterion_11_levy_prokhorov():
    fam = doubling_family()
    seq = ParameterSequence.iid(0.0, 0.01, seed=4)
    orbit = orbit_points(fam, seq, np.array([0.37]), 100000, seed=4)
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.0), 1024))
    rep = lp_distance(orbit[:, 0], phi_hat, ball_count=64)
    atoms = ((np.arange(1024) + 0.5) / 1024, phi_hat.values / 1024)
    self_rep = lp_distance(atoms, phi_hat, ball_count=64)
    ok = rep.estimate < 0.05 and self_rep.estimate <= self_rep.ball_radius
    report(11, ok, f"orbit LP estimate {rep.estimate:.4f} < 0.05, "
           f"self-distance {self_rep.estimate:.4f} <= ball radius "
           f"{self_rep.ball_radius:.4f}")


def test_criterion_12_network_marginals():
    from nonstat_dyn.network import (NetworkSystem, gen_schedule,
                                     simulate_ensemble)
    start = time.perf_counter()
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("bursty", 8, horizon=10000, seed=7, p=0.9,
                         fail_rate=0.05)
    system = NetworkSystem(node_map=node, n_nodes=8, alpha_c=0.01)
    summary = simulate_ensemble(system, sched, ensemble=10000, n_steps=10000,
                                seed=3, n_bins=64)
    elapsed = time.perf_counter() - start
    control = NetworkSystem(node_map=node, n_nodes=8, alpha_c=0.0)
    summary0 = simulate_ensemble(control, sched, ensemble=10000,
                                 n_steps=2000, seed=3, n_bins=64)
    coupled_ok = bool(np.all(summary.max_distance < 0.1))
    control_ok = bool(np.all(summary0.max_distance < 2 * summary0.noise_floor))
    ok = coupled_ok and control_ok and elapsed < 300.0
    report(12, ok, f"coupled max marginal distance "
           f"{summary.max_distance.max():.4f} < 0.1 at every checkpoint, "
           f"control {summary0.max_distance.max():.4f} < 2x floor "
           f"{2 * summary0.noise_floor:.4f}, {elapsed:.0f}s")


def test_criterion_13_reproducibility(tmp_path):
    def digests(outdir):
        out = {}
        for name in sorted(os.listdir(outdir)):
            if name == "run_manifest.json":
                continue
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    runs = {
        "invariant": ["invariant", "--family", "doubling", "--cells", "256"],
        "evolve": ["evolve", "--family", "pm", "--kappa", "0.5",
                   "--gamma-hat", "0.1", "--delta", "0.01", "--cells", "128",
                   "--n", "200", "--seed", "5"],
        "cone": ["cone", "--family", "doubling", "--cells", "128",
                 "--samples", "25", "--seed", "2"],
        "network": ["network", "--family", "doubling", "--nodes", "4",
                    "--alpha-c", "0.01", "--n", "200", "--ensemble", "500",
                    "--seed", "9"],
    }
    ok = True
    for name, args in runs.items():
        a = tmp_path / f"{name}-a"
        b = tmp_path / f"{name}-b"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        same = digests(a) == digests(b)
        ma = json.load(open(a / "run_manifest.json"))
        mb = json.load(open(b / "run_manifest.json"))
        ok &= same and ma["artifacts"] == mb["artifacts"]
    report(13, ok, "byte-identical artifact checksums across reruns of "
           "invariant, evolve, cone, network")
