import numpy as np
import pytest

from nonstat_dyn.densities import (GridDensity, l1_distance, l1_norm,
                                   quasi_holder_seminorm)
from nonstat_dyn.maps import (breakpoint_family, circle_family,
                              doubling_family, instantiate, lsv_family,
                              pm_family, tent_family)
from nonstat_dyn.transfer import (AveragingLaw, NonConvergenceError,
                                  UlamOperator, apply_sequence,
                                  averaged_operator, build_ulam,
                                  fit_decay_envelope, fixed_density,
                                  iterated_bound_margin, lasota_yorke_fit,
                                  perturbation_probe, spectral_summary)


def random_density(rng, n):
    vals = rng.uniform(0.1, 2.0, n)
    return GridDensity(vals / vals.mean())


def affine_ulam_oracle(instance, n):
    """Exact Ulam entries of a piecewise-affine map by interval intersection."""
    mat = np.zeros((n, n))
    for piece in instance.pieces:
        a, b = piece.affine
        for j in range(n):
            lo, hi = max(j / n, piece.lo), min((j + 1) / n, piece.hi)
            if hi <= lo:
                continue
            y0, y1 = sorted((a * lo + b, a * hi + b))
            for c in range(int(np.floor(y0 * n)), int(np.ceil(y1 * n))):
                ov = min(y1, (c + 1) / n) - max(y0, c / n)
                if ov > 0:
                    mat[c % n, j] += n * ov / abs(a)
    return mat


def test_doubling_two_cell_matrix_exact():
    op = build_ulam(instantiate(doubling_family(), 0.0), 2)
    assert np.array_equal(op.matrix.toarray(), np.full((2, 2), 0.5))


def test_doubling_uniform_fixed_at_high_resolution():
    op = build_ulam(instantiate(doubling_family(), 0.0), 1024)
    uni = GridDensity.uniform(1024)
    assert l1_distance(op.apply(uni), uni) < 1e-14


def test_tent_matches_interval_oracle():
    inst = instantiate(tent_family(), 0.0)
    for n in (4, 16):
        op = build_ulam(inst, n)
        assert np.abs(op.matrix.toarray() - affine_ulam_oracle(inst, n)).max() < 1e-12


@pytest.mark.parametrize("family,gamma", [
    (doubling_family(), 1.0),        # slope 3: every cell's image spans 3+ cells
    (breakpoint_family(), 0.0),
    (breakpoint_family(), 0.1),
])
def test_steep_images_match_interval_oracle(family, gamma):
    # one chord per cell, so each image spans several target cells
    inst = instantiate(family, gamma)
    for n in (16, 64):
        op = build_ulam(inst, n, quadrature=1)
        assert np.abs(op.matrix.toarray() - affine_ulam_oracle(inst, n)).max() < 1e-12


@pytest.mark.parametrize("family,gammas", [
    (doubling_family(), (-0.05, 0.0, 0.1)),
    (pm_family(0.5), (0.05, 0.1, 0.3)),
    (lsv_family(0.5), (0.05, 0.1, 0.3)),
    (breakpoint_family(), (-0.05, 0.0, 0.1)),
    (circle_family(), (-0.3, 0.0, 0.3)),
])
def test_operator_axioms(family, gammas):
    rng = np.random.default_rng(10)
    for gamma in gammas:
        op = build_ulam(instantiate(family, gamma), 128)
        assert op.column_sum_error() <= 1e-10
        for _ in range(100):
            phi = random_density(rng, 128)
            out = op.apply(phi)
            assert np.all(out.values >= 0)                       # positivity
            assert abs(out.mass - phi.mass) <= 1e-10             # mass
            assert l1_norm(out) <= l1_norm(phi) * (1 + 1e-12)    # contraction
        # signed functions contract too
        diff = GridDensity(rng.uniform(-1, 1, 128), density=False)
        out = GridDensity(op.matrix @ diff.values, density=False)
        assert l1_norm(out) <= l1_norm(diff) * (1 + 1e-12)


def test_apply_sequence_identity_and_composition():
    rng = np.random.default_rng(11)
    phi = random_density(rng, 64)
    assert apply_sequence([], phi) is phi
    a = build_ulam(instantiate(doubling_family(), 0.0), 64)
    b = build_ulam(instantiate(tent_family(), 0.0), 64)
    seq = apply_sequence([a, b], phi)
    manual = b.apply(a.apply(phi))
    assert np.array_equal(seq.values, manual.values)  # bit-for-bit


def test_apply_sequence_two_cell_example():
    phi = GridDensity.indicator(0.0, 0.5, 2, height=2.0)
    out = apply_sequence([build_ulam(instantiate(doubling_family(), 0.0), 2)],
                         phi)
    assert l1_distance(out, GridDensity.uniform(2)) == 0.0


def test_composition_order_matters():
    rng = np.random.default_rng(12)
    phi = random_density(rng, 4)
    a = build_ulam(instantiate(breakpoint_family(), 0.0), 4)
    b = build_ulam(instantiate(tent_family(), 0.0), 4)
    ab = apply_sequence([a, b], phi)
    ba = apply_sequence([b, a], phi)
    assert l1_distance(ab, ba) > 1e-6


def test_averaged_point_mass_equals_member():
    fam = pm_family(0.5)
    member = build_ulam(instantiate(fam, 0.1), 64)
    avg = averaged_operator(fam, AveragingLaw(center=0.1, law="point"), 64)
    assert np.array_equal(avg.matrix.toarray(), member.matrix.toarray())


def test_averaged_two_point_is_midpoint():
    fam = doubling_family()
    m1 = build_ulam(instantiate(fam, -0.01), 32).matrix.toarray()
    m2 = build_ulam(instantiate(fam, 0.01), 32).matrix.toarray()
    avg = averaged_operator(fam, AveragingLaw(center=0.0, radius=0.01,
                                              law="two_point"), 32)
    assert np.abs(avg.matrix.toarray() - 0.5 * (m1 + m2)).max() < 1e-15


def test_averaged_quadrature_refinement():
    # entries are piecewise linear in the parameter for affine families, so
    # doubling the midpoint rule changes them only near the kinks
    fam = doubling_family()
    a64 = averaged_operator(fam, AveragingLaw(0.0, 0.01, "uniform", 64), 32)
    a128 = averaged_operator(fam, AveragingLaw(0.0, 0.01, "uniform", 128), 32)
    assert np.abs(a64.matrix.toarray() - a128.matrix.toarray()).max() < 1e-6


def test_averaged_operator_axioms():
    fam = pm_family(0.5)
    nu = AveragingLaw(center=0.1, radius=0.02, law="uniform", n_samples=16)
    op = averaged_operator(fam, nu, 64)
    assert op.column_sum_error() <= 1e-10
    assert np.all(op.matrix.toarray() >= 0)


def test_fixed_density_doubling_uniform():
    op = build_ulam(instantiate(doubling_family(), 0.0), 256)
    phi = fixed_density(op, tol=1e-13)
    assert l1_distance(phi, GridDensity.uniform(256)) < 1e-12


def test_fixed_density_pm_peaks_near_zero():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 512)
    phi = fixed_density(op, tol=1e-12)
    assert l1_distance(op.apply(phi), phi) <= 1e-12
    assert np.argmax(phi.values) < 16
    # cross-check against a dense eigensolve
    w, v = np.linalg.eig(op.matrix.toarray())
    lead = np.real(v[:, np.argmax(np.abs(w))])
    lead = np.abs(lead)
    lead = lead / lead.mean()
    assert l1_distance(phi, GridDensity(lead)) < 1e-8


def test_fixed_density_different_start_same_answer():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 256)
    tol = 1e-11
    a = fixed_density(op, tol=tol)
    vals = np.linspace(0.5, 1.5, 256)
    start = GridDensity(vals / vals.mean())
    cur = start
    for _ in range(20000):
        nxt = op.apply(cur)
        if l1_distance(nxt, cur) <= tol:
            cur = nxt
            break
        cur = nxt
    assert l1_distance(a, cur) <= 10 * tol


def test_fixed_density_nonconvergence_reports_residual():
    # column-stochastic but periodic: mass bounces between the first two
    # cells forever, so power iteration from uniform cannot settle
    osc = np.array([[0.0, 1.0, 1.0],
                    [1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0]])
    with pytest.raises(NonConvergenceError) as err:
        fixed_density(UlamOperator(matrix=osc), tol=1e-13, max_iter=50)
    assert "residual" in str(err.value)


def test_averaged_small_radius_close_to_member_fixed_density():
    fam = pm_family(0.5)
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), 256))
    prev = np.inf
    for delta in (0.02, 0.01, 0.005):
        nu = AveragingLaw(center=0.1, radius=delta, law="uniform", n_samples=32)
        d = l1_distance(fixed_density(averaged_operator(fam, nu, 256)), phi_hat)
        assert d < prev
        prev = d


def test_spectral_summary_doubling():
    op = build_ulam(instantiate(doubling_family(), 0.0), 64)
    summ = spectral_summary(op, k=5)
    assert abs(abs(summ.eigenvalues[0]) - 1.0) < 1e-8
    assert abs(summ.eigenvalues[1]) <= 0.5 + 0.05
    assert summ.has_gap
    assert l1_distance(summ.leading_density, GridDensity.uniform(64)) < 1e-8


def test_spectral_summary_rotation_no_gap():
    rot = np.zeros((8, 8))
    for i in range(8):
        rot[(i + 3) % 8, i] = 1.0
    summ = spectral_summary(UlamOperator(matrix=rot), k=3)
    assert not summ.has_gap


def test_spectral_summary_averaged_gap_close():
    fam = pm_family(0.5)
    base = spectral_summary(build_ulam(instantiate(fam, 0.1), 128), k=3)
    nu = AveragingLaw(center=0.1, radius=0.01, law="uniform", n_samples=16)
    avg = spectral_summary(averaged_operator(fam, nu, 128), k=3)
    assert abs(base.gap - avg.gap) < 0.1


def test_lasota_yorke_constant_density_isolates_offset():
    fam = doubling_family()
    op = build_ulam(instantiate(fam, 0.0), 256)
    fit = lasota_yorke_fit(fam, 0.0, 0.5,
                           [GridDensity.uniform(256),
                            GridDensity.indicator(0.0, 0.5, 256, height=2.0)])
    l1_img = quasi_holder_seminorm(op.apply(GridDensity.uniform(256)),
                                   0.5).seminorm
    assert fit.c_hat >= l1_img - 1e-12


def test_lasota_yorke_degenerate_test_set():
    fam = doubling_family()
    with pytest.raises(ValueError):
        lasota_yorke_fit(fam, 0.0, 0.5, [GridDensity.uniform(64)])


def test_lasota_yorke_doubling_contraction():
    rng = np.random.default_rng(13)
    from nonstat_dyn.cli import random_step_density
    fam = doubling_family()
    test_set = [random_step_density(512, rng) for _ in range(40)]
    fit = lasota_yorke_fit(fam, 0.0, 0.5, test_set)
    assert fit.eta_hat < 1.0
    assert 0.0 < fit.satisfied_fraction <= 1.0
    # the inflated envelope covers every test pair
    op = build_ulam(instantiate(fam, 0.0), 512)
    for phi in test_set:
        lhs = quasi_holder_seminorm(op.apply(phi), 0.5).seminorm
        rhs = (fit.eta_hat * quasi_holder_seminorm(phi, 0.5).seminorm
               + fit.c_hat * l1_norm(phi))
        assert lhs <= rhs + 1e-9
    worst = max(iterated_bound_margin(op, phi, fit, n_powers=10)
                for phi in test_set[:10])
    assert worst <= 1.0


def test_perturbation_probe_zero_radius_is_zero():
    fam = doubling_family()
    phi = GridDensity.indicator(0.0, 0.5, 128, height=2.0)
    probe = perturbation_probe(fam, 0.0, 0.0, 10, phi, seq_seed=0)
    assert np.all(probe.curve == 0.0)
    assert probe.dominated


def test_perturbation_probe_bounded_and_shrinking():
    fam = doubling_family()
    phi = GridDensity.indicator(0.0, 0.5, 256, height=2.0)
    means = {}
    for delta in (0.02, 0.01, 0.005):
        curves = [perturbation_probe(fam, 0.0, delta, 30, phi, seq_seed=s).curve
                  for s in range(10)]
        means[delta] = np.mean(curves, axis=0)
        assert means[delta].max() < 0.2
    assert means[0.01].mean() < means[0.02].mean()
    assert means[0.005].mean() < means[0.01].mean()


def test_probe_dominated_by_envelope():
    fam = pm_family(0.5)
    phi = GridDensity.uniform(256)
    probe = perturbation_probe(fam, 0.1, 0.01, 30, phi, seq_seed=1)
    env = probe.envelope
    assert probe.dominated
    bound = env.c_dominating * probe.norm_alpha * env.s_fit ** np.arange(31)
    assert np.all(probe.curve <= bound + 1e-12)


def test_fit_decay_envelope_exact_geometric():
    curve = 0.3 * 0.8 ** np.arange(20)
    env = fit_decay_envelope(curve, 1.0)
    assert abs(env.s_fit - 0.8) < 0.02
    assert env.rel_residual < 0.02

