import re

import numpy as np
import pytest

from nonstat_dyn.densities import EPS0
from nonstat_dyn.maps import (ExpansionError, boundary_complexity,
                              branch_preimages, breakpoint_family,
                              circle_distance, circle_family, doubling_family,
                              family_by_name, instantiate, lsv_family, mod1,
                              pm_family, tent_family, validate_family)

ALL_FAMILIES = {
    "doubling": (doubling_family(), (-0.05, 0.0, 0.1)),
    "pm": (pm_family(0.5), (0.05, 0.1, 0.3)),
    "lsv": (lsv_family(0.5), (0.05, 0.1, 0.3)),
    "breakpoint": (breakpoint_family(), (-0.05, 0.0, 0.1)),
    "tent": (tent_family(), (-0.1, 0.0, 0.1)),
    "circle": (circle_family(), (-0.3, 0.0, 0.3)),
}


def scan_min_abs_derivative(pieces, n_grid=4096):
    """min |F'| sampled on n_grid points per piece: the oracle for the
    closed forms that families declare as `min_expansion`."""
    best = np.inf
    for p in pieces:
        xs = np.linspace(p.lo, p.hi, n_grid, endpoint=False)
        best = min(best, float(np.min(np.abs(p.dlift(xs)))))
    return best


# parameters where the pieces are defined and strictly monotone, most of
# them outside the declared expanding range
EXPANSION_GRIDS = {
    "doubling": (doubling_family(), np.linspace(-1.5, 3.0, 46)),
    "pm": (pm_family(0.5), np.linspace(-0.99, 1.5, 84)),
    "pm_kappa": (pm_family(0.3), np.linspace(-0.99, 1.5, 84)),
    "lsv": (lsv_family(0.5), np.linspace(-0.99, 1.5, 84)),
    "breakpoint": (breakpoint_family(), np.linspace(-0.39, 0.59, 50)),
    "tent": (tent_family(), np.linspace(-1.5, 1.5, 61)),
    "circle": (circle_family(), np.linspace(-1.9, 1.9, 77)),
}


@pytest.mark.parametrize("name", sorted(EXPANSION_GRIDS))
def test_declared_expansion_matches_scan(name):
    fam, gammas = EXPANSION_GRIDS[name]
    for gamma in gammas:
        scan = scan_min_abs_derivative(fam.pieces_for(gamma))
        assert abs(fam.min_expansion(gamma) - scan) <= 1e-12, gamma


@pytest.mark.parametrize("name", sorted(EXPANSION_GRIDS))
def test_instantiate_verdicts_follow_scan(name):
    # the rule instantiate applied with the scan: inside the structural
    # range, expanding iff in the declared range and min |F'| > 1
    fam, gammas = EXPANSION_GRIDS[name]
    lo, hi = fam.structural_range or fam.gamma_range
    for gamma in [float(g) for g in gammas] + [lo, hi]:
        if not lo <= gamma <= hi:
            for unsafe in (False, True):
                with pytest.raises(ExpansionError, match="structurally"):
                    instantiate(fam, gamma, unsafe=unsafe)
            continue
        scan = scan_min_abs_derivative(fam.pieces_for(gamma))
        in_range = fam.gamma_range[0] <= gamma <= fam.gamma_range[1]
        instantiate(fam, gamma, unsafe=True)
        if in_range and scan > 1.0:
            inst = instantiate(fam, gamma)
            assert inst.contraction_factor() == 1.0 / scan
        else:
            with pytest.raises(ExpansionError,
                               match=re.escape(f"min |F'| = {scan:.6g} ")):
                instantiate(fam, gamma)


def test_doubling_two_branches_slope_two():
    inst = instantiate(doubling_family(), 0.0)
    for x in (0.0, 0.3, 0.9):
        pre = branch_preimages(inst, x)
        assert [y for y, _ in pre] == [x / 2, (x + 1) / 2]
        assert [jac for _, jac in pre] == [0.5, 0.5]


def test_pm_accepts_expanding_parameter():
    inst = instantiate(pm_family(0.5), 0.1)
    assert inst.contraction_factor() == 1.0 / 1.1


def test_pm_rejects_contracting_parameter():
    with pytest.raises(ExpansionError) as err:
        instantiate(pm_family(0.5), -0.05)
    assert "expansion" in str(err.value)
    assert "0.95" in str(err.value)


def test_pm_unsafe_flag_allows_contracting_parameter():
    inst = instantiate(pm_family(0.5), -0.05, unsafe=True)
    assert inst.contraction_factor() > 1.0


def test_instantiate_deterministic():
    fam = pm_family(0.5)
    a = instantiate(fam, 0.1)
    b = instantiate(fam, 0.1)
    for x in np.linspace(0.0, 1.0, 16, endpoint=False):
        assert branch_preimages(a, float(x)) == branch_preimages(b, float(x))


def test_doubling_preimages_of_half():
    inst = instantiate(doubling_family(), 0.0)
    pre = branch_preimages(inst, 0.5)
    assert sorted((round(y, 12), round(j, 12)) for y, j in pre) == \
        [(0.25, 0.5), (0.75, 0.5)]


def test_pm_preimage_includes_neutralish_fixed_point():
    inst = instantiate(pm_family(0.5), 0.1)
    pre = branch_preimages(inst, 0.0)
    ys = [y for y, _ in pre]
    jacs = [j for y, j in pre if abs(y) < 1e-9]
    assert jacs and abs(jacs[0] - 1 / 1.1) < 1e-9


def test_preimage_at_piece_end_is_exact():
    # the pm lift maps 0 to 0 exactly; a bisection from that end would stop
    # near y = 1e-32, where (1.3) y^0.3 ~ 3e-10 still moves the Jacobian
    inst = instantiate(pm_family(0.3), 0.05)
    assert branch_preimages(inst, 0.0)[0] == (0.0, 1 / 1.05)


def test_lsv_preimages_forward_residual():
    inst = instantiate(lsv_family(0.5), 0.1)
    for x in np.linspace(0.01, 0.99, 23):
        pre = branch_preimages(inst, float(x))
        # the lifts run from 0 to 1.05 and from 0.05 to 1.1
        assert len(pre) == (3 if x < 0.1 else 2)
        for y, jac in pre:
            fy = float(inst.evaluate(np.array([y]))[0])
            assert abs(fy - x) < 1e-10
            assert jac > 0


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_preimage_roundtrip_all_families(name):
    fam, gammas = ALL_FAMILIES[name]
    rng = np.random.default_rng(3)
    for gamma in gammas:
        inst = instantiate(fam, gamma)
        for x in rng.uniform(0, 1, 17):
            for y, _ in branch_preimages(inst, float(x)):
                fy = float(inst.evaluate(np.array([y]))[0])
                assert min(abs(fy - x), 1 - abs(fy - x)) < 1e-10


@pytest.mark.parametrize("name,gamma", [("pm", 0.05), ("pm", 0.3),
                                        ("circle", 0.3)])
def test_preimages_of_branch_ends(name, gamma):
    # these instances have a branch starting where the lift crosses an
    # integer, and one ending at the piece end's image
    inst = instantiate(ALL_FAMILIES[name][0], gamma)
    (piece,) = inst.pieces
    end = float(mod1(piece.lift(np.float64(1.0))))
    for x in list(np.linspace(0.0, 1.0, 200, endpoint=False)) + [end]:
        pre = branch_preimages(inst, float(x))
        assert len(pre) == (3 if x < end else 2)
        for y, _ in pre:
            fy = float(inst.evaluate(np.array([y]))[0])
            assert float(circle_distance(fy, x)) <= 1e-10


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_expansion_hypothesis_all_families(name):
    fam, gammas = ALL_FAMILIES[name]
    for gamma in gammas:
        inst = instantiate(fam, gamma)
        s = inst.contraction_factor()
        assert s < 1.0
        assert scan_min_abs_derivative(inst.pieces) >= 1.0 / s - 1e-9


def test_validate_identical_parameters_zero_distance():
    rep = validate_family(doubling_family(), 0.0, 0.0)
    assert rep.c1_distance == 0.0
    assert rep.domain_symdiff == 0.0


def test_validate_doubling_c1_distance_from_slopes():
    rep = validate_family(doubling_family(), 0.0, 0.02)
    assert abs(rep.c1_distance - 0.02) < 1e-12


def test_validate_breakpoint_symdiff_exact():
    # breakpoint moved by 0.01 changes both domains by 0.01 each
    rep = validate_family(breakpoint_family(), 0.0, 0.01)
    assert abs(rep.domain_symdiff - 0.02) < 1e-12


def test_validate_c1_monotone_in_parameter_gap():
    for fam, _ in ALL_FAMILIES.values():
        lo, hi = fam.gamma_range
        base = max(lo, 0.05) if lo > 0 else 0.0
        gaps = [0.01, 0.02, 0.04]
        vals = [validate_family(fam, base, base + g).c1_distance for g in gaps]
        assert vals[0] <= vals[1] <= vals[2]


def test_validate_distortion_zero_for_affine():
    rep = validate_family(doubling_family(), 0.0, 0.01)
    assert rep.distortion_c < 1e-10
    rep_pm = validate_family(pm_family(0.5), 0.1, 0.12)
    assert rep_pm.distortion_c > 0


def test_boundary_complexity_doubling_order_one():
    inst = instantiate(doubling_family(), 0.0)
    prof = boundary_complexity(inst, [0.01, 0.02, 0.04])
    # preimage arcs of width eps around each branch endpoint, window of
    # width eps: the covering ratio is O(1)
    assert np.all(prof.g_values > 0.3)
    assert np.all(prof.g_values < 1.5)


def test_boundary_complexity_periodic_full_cover_vanishes():
    inst = instantiate(doubling_family(), 0.0)
    prof = boundary_complexity(inst, [0.01, 0.02, 0.04], alpha=1.0,
                               periodic=True)
    assert np.all(prof.g_values == 0.0)
    assert abs(prof.expression - prof.s) < 1e-12
    assert prof.ok  # s^alpha = 1/2 < 1


def test_boundary_complexity_oracle_doubling():
    # direct arc computation: per branch, preimage of the eps-neighborhood
    # of the image endpoints is two arcs of width eps/slope at the ends of
    # the branch domain; the worst window of width 2*(1-s)*eps at the shared
    # boundary 1/2 is fully covered by two adjacent arcs
    inst = instantiate(doubling_family(), 0.0)
    eps = 0.01
    prof = boundary_complexity(inst, [eps], fine=65536)
    assert abs(prof.g_values[0] - 1.0) < 0.05


def test_boundary_complexity_rejects_empty_and_large_eps():
    inst = instantiate(doubling_family(), 0.0)
    with pytest.raises(ValueError):
        boundary_complexity(inst, [])
    with pytest.raises(ValueError):
        boundary_complexity(inst, [0.2])


def test_family_by_name_unknown():
    with pytest.raises(ValueError):
        family_by_name("nope")


def test_breakpoint_piece_count_stable():
    fam = breakpoint_family()
    assert len(instantiate(fam, 0.0).pieces) == len(instantiate(fam, 0.1).pieces)


def test_tent_has_decreasing_branch():
    inst = instantiate(tent_family(), 0.0)
    rising, falling = inst.pieces
    assert falling.lift(0.6) > falling.lift(0.7)
    assert branch_preimages(inst, 0.4) == [(0.2, 0.5), (0.8, 0.5)]
    assert scan_min_abs_derivative(inst.pieces) == 2.0


def test_mod1_matches_remainder_bitwise():
    rng = np.random.default_rng(12)
    edges = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e16, -1e16,
                      5e-324, -5e-324, -1e-17, -1e-300, -2.0 ** -54,
                      -2.0 ** -53, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
                      0.5, -0.5, 123456.75, -123456.75])
    values = np.concatenate([
        edges,
        rng.uniform(-4.0, 4.0, 400_000),
        rng.uniform(-1e-15, 1e-15, 100_000),
        np.ldexp(rng.uniform(-1.0, 1.0, 500_000), rng.integers(-60, 60, 500_000)),
    ])
    expected = (values % 1.0).view(np.uint64)
    assert np.array_equal(mod1(values).view(np.uint64), expected)
    assert mod1(-1e-17) == 1.0 == -1e-17 % 1.0


SPLIT_FAMILIES = {
    "pm0.5": pm_family(0.5), "pm0.3": pm_family(0.3),
    "lsv0.5": lsv_family(0.5), "lsv0.3": lsv_family(0.3),
    "lsv0.7": lsv_family(0.7),
}


@pytest.mark.parametrize("name", sorted(SPLIT_FAMILIES))
def test_declared_split_matches_lift_bitwise(name):
    # pm at kappa 0.3 and lsv take the np.power path, pm at 0.5 the sqrt one
    from nonstat_dyn.transfer import _chord_nodes
    family = SPLIT_FAMILIES[name]
    rng = np.random.default_rng(7)
    split_pieces = 0
    for gamma in (1e-6, 0.05, 0.1, 0.3, 1.0):
        for piece in instantiate(family, gamma).pieces:
            if piece.split is None:
                continue
            split_pieces += 1
            slope, shape = piece.split
            xs = [_chord_nodes(n * q, piece.lo, piece.hi)
                  for n in (2, 3, 7, 100, 333, 2048) for q in (1, 3, 32)]
            xs.append(rng.uniform(piece.lo, piece.hi, 10001))
            for x in xs:
                assert np.array_equal(slope * x + shape(x), piece.lift(x))
    assert split_pieces == 5


def test_recreated_family_shares_its_shape():
    # assembly caches a shape's values, so a family made again must hand
    # out the same shape object
    for make in (pm_family, lsv_family):
        shapes = {make(0.5).pieces_for(0.1)[0].split[1] for _ in range(10)}
        assert len(shapes) == 1
    assert (pm_family(0.3).pieces_for(0.1)[0].split[1]
            is not pm_family(0.5).pieces_for(0.1)[0].split[1])


# the estimators' outputs on three families, pinned bit for bit (distortion
# to 1e-12: its inverses are bisected on the whole piece)
@pytest.mark.parametrize("family,gamma,expression", [
    (pm_family(0.5), 0.09, 4.9790936463322595),
    (doubling_family(), -0.05, 4.722318868083671),
    (breakpoint_family(0.4), 0.0, 0.6),
], ids=["pm", "doubling", "breakpoint"])
def test_boundary_expression_pinned(family, gamma, expression):
    prof = boundary_complexity(instantiate(family, gamma),
                               [EPS0 / 4, EPS0 / 2, EPS0], periodic=True)
    assert prof.expression == expression


def test_validate_family_pinned():
    rep = validate_family(pm_family(0.5), 0.09, 0.11)
    assert rep.c1_distance == 0.020000000000000462
    assert rep.domain_symdiff == 0.0
    assert rep.s_gamma == (0.9174311926605504, 0.9009009009009008)
    assert rep.distortion_c == pytest.approx(0.5159914533115624, rel=1e-12)
