import numpy as np
import pytest

from nonstat_dyn.cones import (ConeParams, cone_image_check, cone_membership,
                               contraction_and_diameter, log_holder_constant,
                               sample_cone_density, theta_holder, theta_plus)
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
    rep = cone_membership(GridDensity.uniform(128), CONE)
    assert rep.member
    assert rep.a_min == 0.0


def test_zero_cell_not_in_positive_cone():
    phi = GridDensity(np.concatenate([[0.0], np.ones(31)]))
    rep = cone_membership(phi, ConeParams(a=1, nu=0.5, rho0=0.2, kind="positive"))
    assert not rep.member
    rep2 = cone_membership(phi, CONE)
    assert not rep2.member


def test_log_holder_constant_oracle():
    # exp(b x^nu) on the interval metric: the worst log ratio is b (pairs at 0)
    n = 2048
    b, nu = 1.3, 0.5
    phi = GridDensity.from_callable(lambda x: np.exp(b * x ** nu), n,
                                    circle=False)
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
        rep = cone_membership(phi, CONE)
        assert rep.member
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
