import tracemalloc

import numpy as np
import pytest

from nonstat_dyn.cones import (PROPORTIONAL_TOL, ConeExitError, ConeParams,
                               GATHER_BLOCK, _holder_alphas, _offsets,
                               _row_blocks, _shifted_rows,
                               cone_image_check, contraction_and_diameter,
                               log_holder_constant, sample_cone_density,
                               theta_holder, theta_plus)
from nonstat_dyn.densities import GridDensity
from nonstat_dyn.maps import circle_family, doubling_family, instantiate, \
    pm_family
from nonstat_dyn.seeding import substream
from nonstat_dyn.transfer import build_ulam, fixed_density

CONE = ConeParams(a=2.0, nu=0.5, rho0=0.25, lam=0.75)


def positive_density(rng, n):
    vals = np.exp(rng.uniform(-0.5, 0.5, n))
    return GridDensity(vals / vals.mean())


def test_constant_density_membership():
    assert log_holder_constant(GridDensity.uniform(128), CONE.nu,
                               CONE.rho0) == 0.0


def test_zero_cell_not_in_positive_cone():
    phi = GridDensity(np.concatenate([[0.0], np.ones(31)]))
    assert log_holder_constant(phi, CONE.nu, CONE.rho0) == np.inf


def test_log_holder_constant_oracle():
    # exp(b d(x, 0)^nu) with d the circle distance: the worst log ratio is b,
    # for pairs with one point at 0 (d(x, y)^nu is subadditive)
    n = 2048
    b, nu = 1.3, 0.5
    phi = GridDensity.from_callable(
        lambda x: np.exp(b * np.minimum(x, 1.0 - x) ** nu), n)
    a_min = log_holder_constant(phi, nu, rho0=0.25)
    # cell centers miss x=0 where the ratio is extremal, so the discrete
    # constant sits just below b
    assert b * 0.95 <= a_min <= b + 1e-9


def test_theta_plus_identity_and_projectivity():
    rng = substream(0, "theta")
    phi = positive_density(rng, 64)
    assert theta_plus(phi, phi).theta == 0.0
    assert theta_plus(phi, phi.scaled(3.0)).theta < 1e-12


def test_theta_plus_linear_example():
    n = 4096
    one = GridDensity.uniform(n)
    lin = GridDensity.from_callable(lambda x: 2 + x, n)
    rep = theta_plus(one, lin)
    assert abs(rep.theta - np.log(1.5)) < 5e-4
    assert abs(rep.alpha_val - 2.0) < 1e-3
    assert abs(rep.beta_val - 3.0) < 1e-3


def test_theta_plus_metric_axioms_on_triples():
    rng = substream(1, "triples")
    for _ in range(100):
        a, b, c = (positive_density(rng, 48) for _ in range(3))
        tab = theta_plus(a, b).theta
        tba = theta_plus(b, a).theta
        tac = theta_plus(a, c).theta
        tbc = theta_plus(b, c).theta
        assert abs(tab - tba) < 1e-9                 # symmetry
        assert tac <= tab + tbc + 1e-9               # triangle inequality


def test_theta_holder_projectivity():
    rng = substream(2, "holder")
    phi = sample_cone_density(128, CONE, rng)
    assert theta_holder(phi, phi, CONE).theta < 1e-12
    rep = theta_holder(phi, phi.scaled(2.5), CONE)
    assert rep.theta < 1e-10


def test_metric_comparison_plus_below_holder():
    # the positive cone is larger, so its projective metric is smaller
    rng = substream(3, "compare")
    inner = ConeParams(a=CONE.lam * CONE.a, nu=CONE.nu, rho0=CONE.rho0)
    for _ in range(100):
        p1 = sample_cone_density(96, inner, rng)
        p2 = sample_cone_density(96, inner, rng)
        tp = theta_plus(p1, p2).theta
        th = theta_holder(p1, p2, CONE)
        if th.finite:
            assert tp <= th.theta + 1e-9


def test_theta_holder_infinite_is_reported_not_raised():
    # a pair at the cone boundary: second density saturates the Holder bound
    n = 256
    cone = ConeParams(a=1.0, nu=1.0, rho0=0.3)
    xs = (np.arange(n) + 0.5) / n
    extremal = np.exp(1.0 * np.minimum(xs, 1 - xs))
    phi1 = GridDensity.uniform(n)
    phi2 = GridDensity(extremal / extremal.mean())
    rep = theta_holder(phi1, phi2, cone)
    assert isinstance(rep.finite, bool)


def test_sampled_members_are_members():
    rng = substream(4, "samples")
    for _ in range(25):
        phi = sample_cone_density(200, CONE, rng)
        assert log_holder_constant(phi, CONE.nu, CONE.rho0) <= CONE.a
        assert abs(phi.mass - 1.0) < 1e-12


def test_cone_image_check_doubling():
    op = build_ulam(instantiate(doubling_family(), 0.0), 256)
    rep = cone_image_check(op, CONE, samples=100, seed=5)
    assert rep.passed
    assert rep.worst_a_min <= rep.target


def test_cone_image_extremal_member_halves_constant():
    # the doubling transfer operator halves distances, so log-Holder
    # constants contract by 2^{-nu} plus grid slack
    op = build_ulam(instantiate(doubling_family(), 0.0), 512)
    rng = substream(6, "extremal")
    worst = 0.0
    for _ in range(20):
        phi = sample_cone_density(512, CONE, rng, fill=0.99)
        a_img = log_holder_constant(op.apply(phi), CONE.nu, CONE.rho0)
        worst = max(worst, a_img)
    assert worst <= CONE.a * 2 ** (-CONE.nu) * 1.1


def test_cone_image_check_fails_for_contracting_map():
    fam = pm_family(0.5)
    inst = instantiate(fam, -0.2, unsafe=True)
    op = build_ulam(inst, 256)
    rep = cone_image_check(op, ConeParams(a=2.0, nu=0.5, rho0=0.25, lam=0.5),
                           samples=30, seed=7)
    assert not rep.passed          # reported, not raised
    assert rep.failures > 0


def test_contraction_and_diameter_doubling():
    op = build_ulam(instantiate(doubling_family(), 0.0), 256)
    rep = contraction_and_diameter([op], CONE, pairs=100, seed=8)
    assert rep.q_hat < 1.0
    assert rep.q_hat <= 1.0 - np.exp(-rep.diameter_hat) + 0.05


def test_contraction_uniform_across_small_ball():
    # ball centered away from gamma=0: the exactly grid-aligned doubling map
    # has no chord blur and is a discretization-singular outlier
    fam = circle_family()
    ops = [build_ulam(instantiate(fam, g), 192)
           for g in np.linspace(0.29, 0.31, 5)]
    rep = contraction_and_diameter(ops, CONE, pairs=60, seed=9)
    qs = rep.per_operator_q
    assert max(qs) < 1.0
    assert max(qs) - min(qs) < 0.05


def test_contraction_rejects_proportional_pairs_only():
    op = build_ulam(instantiate(doubling_family(), 0.0), 64)
    cone = ConeParams(a=2.0, nu=0.5, rho0=0.25)
    with pytest.raises(ValueError):
        # zero pairs sampled means no usable ratios
        contraction_and_diameter([op], cone, pairs=0, seed=10)


def test_contraction_images_leaving_cone_is_numeric_failure():
    # every image pair has an infinite Hilbert distance: not a config error
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 1024)
    with pytest.raises(ConeExitError, match="left the cone") as err:
        contraction_and_diameter([op], CONE, pairs=10, seed=3)
    assert isinstance(err.value, ArithmeticError)
    assert not isinstance(err.value, ValueError)


def test_theta_plus_exponential_convergence_toward_uniform():
    op = build_ulam(instantiate(doubling_family(), 0.0), 256)
    rep = contraction_and_diameter([op], CONE, pairs=60, seed=11)
    rng = substream(12, "converge")
    uni = GridDensity.uniform(256)
    for _ in range(5):
        phi = sample_cone_density(256, CONE, rng)
        cur = phi
        for n in range(1, 31):
            cur = op.apply(cur)
            theta = theta_plus(cur, uni).theta
            assert theta <= rep.diameter_hat * rep.q_hat ** n + 1e-9
        assert np.max(np.abs(cur.values - 1.0)) < 1e-6


def test_smooth_family_supnorm_convergence_under_sequences():
    # evolved cone densities approach the unperturbed invariant density in
    # the sup norm for every sampled small-ball sequence
    fam = circle_family()
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.0), 256))
    rng = substream(13, "supnorm")
    for trial in range(3):
        phi = sample_cone_density(256, CONE, rng)
        vals = phi.values.copy()
        gammas = rng.uniform(-0.01, 0.01, 60)
        for g in gammas:
            vals = build_ulam(instantiate(fam, float(g)), 256).matrix @ vals
        assert np.max(np.abs(vals - phi_hat.values)) < 0.05


def test_cone_metrics_bits_pinned():
    # reprs recorded with the per-offset np.roll loops; the blocked
    # gather must give the same floats, types included
    rng = substream(5, "pin-cone")
    p1 = sample_cone_density(96, CONE, rng)
    p2 = sample_cone_density(96, CONE, rng)
    rough = GridDensity(np.exp(substream(6, "rough").uniform(-1, 1, 96)))
    got = [f"{log_holder_constant(p1, 0.5, 0.25)!r} "
           f"{log_holder_constant(p2, 1.0, 0.3)!r}",
           repr(theta_holder(p1, p2, CONE)),
           repr(theta_holder(p1, p2, ConeParams(a=40.0, nu=1.0, rho0=0.125))),
           repr(theta_holder(p1, rough, CONE))]
    assert got == [
        "np.float64(1.7999999999999994) np.float64(17.63632614803886)",
        "HilbertDistanceReport(alpha_val=0.1283978135792585, "
        "beta_val=10.244085666399064, theta=4.379322446965137, finite=True)",
        "HilbertDistanceReport(alpha_val=0.4633283615288124, "
        "beta_val=2.0087795616309636, theta=1.4668466264888316, finite=True)",
        "HilbertDistanceReport(alpha_val=0.0, beta_val=inf, theta=inf, "
        "finite=False)"]
    op = build_ulam(instantiate(doubling_family(), 0.0), 128)
    assert repr(cone_image_check(op, CONE, samples=20, seed=2)) == (
        "ConeImageReport(passed=True, worst_a_min=np.float64(1.3020001931442986), "
        "target=1.5750000000000002, n_samples=20, failures=0)")
    ops = [op, build_ulam(instantiate(pm_family(0.5), 0.1), 128)]
    assert repr(contraction_and_diameter(ops, CONE, pairs=12, seed=2)) == (
        "ContractionReport(q_hat=0.4994895950030784, diameter_hat=2.3636055158889047, "
        "bound_ok=True, per_operator_q=(0.4994895950030784, 0.0), n_pairs=12)")
    # 1024 cells span many gather blocks
    rng = substream(8, "pin-big")
    p1 = sample_cone_density(1024, CONE, rng)
    p2 = sample_cone_density(1024, CONE, rng)
    assert (repr(log_holder_constant(p1, 0.5, 0.25)),
            repr(theta_holder(p1, p2, CONE))) == (
        "np.float64(1.8000000000000032)",
        "HilbertDistanceReport(alpha_val=0.09330934574188018, "
        "beta_val=12.108023979582633, theta=4.865703379053925, finite=True)")


def test_theta_holder_memory_bounded():
    # 1024 offsets x 2 signs x 4096 cells would be 64 MiB per gathered array
    rng = substream(0, "mem")
    p1 = sample_cone_density(4096, CONE, rng)
    p2 = sample_cone_density(4096, CONE, rng)
    tracemalloc.start()
    try:
        theta_holder(p1, p2, CONE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def loop_log_holder_constant(phi, nu, rho0):
    """Reference: one offset at a time, np.roll on the circle."""
    logs = np.log(phi.values)
    n = phi.n_cells
    worst = 0.0
    for k in _offsets(n, rho0, strict=False):
        d = min(k / n, 1.0 - k / n)
        gaps = np.abs(logs - np.roll(logs, -k))
        worst = max(worst, float(np.max(gaps)) / d ** nu)
    return worst


def loop_holder_alpha(phi1, phi2, cone):
    """Reference: one offset and direction at a time."""
    v1, v2 = phi1.values, phi2.values
    n = phi1.n_cells
    alpha = float(np.min(v2 / v1))
    for k in _offsets(n, cone.rho0, strict=True):
        d = min(k / n, 1.0 - k / n)
        if d <= 0 or d >= cone.rho0:
            continue
        e = np.exp(cone.a * d ** cone.nu)
        for sign in (1, -1):
            den = e * v1 - np.roll(v1, -k * sign)
            num = e * v2 - np.roll(v2, -k * sign)
            mask = den > PROPORTIONAL_TOL
            if np.any(mask):
                alpha = min(alpha, float(np.min(num[mask] / den[mask])))
            if np.any((~mask) & (num < -PROPORTIONAL_TOL)):
                return 0.0
    return alpha


def test_gathered_metrics_equal_offset_loops():
    rng = substream(11, "gather-vs-loop")
    # rho0 just under 1/3: at n = 3 and 99 the largest offset is 1/3 >= rho0.
    # At 640, 1000 and 1024 cells the shifted rows span several blocks, the
    # last one short (CONE's 249 offsets at 1000 cells leave 25 rows of 32)
    block = GATHER_BLOCK // 1000
    assert len(_offsets(1000, CONE.rho0, strict=True)) % block == 25
    for n in (3, 7, 16, 99, 100, 257, 640, 1000, 1024):
        for cone in (CONE, ConeParams(a=6.0, nu=1.0, rho0=0.5),
                     ConeParams(a=0.5, nu=0.3, rho0=0.1),
                     ConeParams(a=3.0, nu=0.7, rho0=1 / 3 - 1e-14)):
            phis = [sample_cone_density(n, cone, rng) for _ in range(2)]
            phis.append(GridDensity(np.exp(rng.uniform(-1, 1, n))))
            for phi in phis:
                got = log_holder_constant(phi, cone.nu, cone.rho0)
                want = loop_log_holder_constant(phi, cone.nu, cone.rho0)
                assert repr(got) == repr(want)
            for p1, p2 in ((phis[0], phis[1]), (phis[1], phis[0]),
                           (phis[0], phis[2])):
                assert_alpha_pair_equals_loops(p1, p2, cone)


def test_shifted_rows_equal_the_gather():
    # row r of the strided view is v shifted by first + sign * r cells, up
    # to half the circle either way, and the view cannot be written
    for n in (1, 2, 5, 8, 9):
        v = substream(n, "shifted").uniform(0.5, 2.0, n)
        count = max(n // 2, 1)
        for sign in (1, -1):
            rows = _shifted_rows(v, sign, count, sign)
            ks = sign * np.arange(1, count + 1)
            want = v[(np.arange(n) + ks[:, None]) % n]
            assert rows.tobytes() == want.tobytes()
            assert not rows.flags.writeable


def assert_alpha_pair_equals_loops(p1, p2, cone):
    got = _holder_alphas(p1, p2, cone)
    want = (loop_holder_alpha(p1, p2, cone), loop_holder_alpha(p2, p1, cone))
    assert repr(got) == repr(want)
    return want


def test_one_pass_alpha_pair_equals_loops_in_both_directions():
    # at n = 1024 the 255 offsets of CONE fill 8 blocks of shifted rows in
    # each direction, 16 in all
    n = 1024
    assert 2 * len(_row_blocks(len(_offsets(n, CONE.rho0, strict=True)),
                               n)) == 16
    rng = substream(12, "alpha-pair")
    member = sample_cone_density(n, CONE, rng)
    other = sample_cone_density(n, CONE, rng)
    # values below PROPORTIONAL_TOL leave every denominator vanishing, so
    # the direction whose numerators go negative leaves the cone; a log
    # ramp of slope 6.3 breaks the (2, 1/2) Holder bound only beyond
    # d = 0.1, i.e. in a later block than the first
    tiny = GridDensity(1e-14 * member.values)
    x = (np.arange(n) + 0.5) / n
    ramp = GridDensity(np.exp(6.3 * np.minimum(x, 1.0 - x)))
    spike = GridDensity(np.where(np.arange(n) == 300, 50.0, 1.0)
                        * other.values)
    # tiny and ramp on opposite halves: both directions leave, and the
    # fold stops after the later of the two exits
    front = np.arange(n) < n // 2
    split = GridDensity(np.where(front, 1e-14, ramp.values))
    mirror = GridDensity(np.where(front, ramp.values, 1e-14))
    seen = set()
    for p1, p2 in ((member, other), (tiny, ramp), (tiny, spike),
                   (member, spike), (split, mirror)):
        for a, b in ((p1, p2), (p2, p1)):
            forward, swapped = assert_alpha_pair_equals_loops(a, b, CONE)
            seen.add((forward == 0.0, swapped == 0.0))
    # exits in neither direction, in each one alone, and in both
    assert seen == {(False, False), (True, False), (False, True),
                    (True, True)}
