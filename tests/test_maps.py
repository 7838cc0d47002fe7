import numpy as np
import pytest

from nonstat_dyn import maps
from nonstat_dyn.birkhoff import orbit_points
from nonstat_dyn.maps import (ExpansionError, boundary_complexity,
                              branch_preimages, breakpoint_family,
                              circle_family, doubling_family, family_by_name,
                              instantiate, lsv_family, mod1, pm_family,
                              tent_family, validate_family)
from nonstat_dyn.sequences import ParameterSequence

ALL_FAMILIES = {
    "doubling": (doubling_family(), (-0.05, 0.0, 0.1)),
    "pm": (pm_family(0.5), (0.05, 0.1, 0.3)),
    "lsv": (lsv_family(0.5), (0.05, 0.1, 0.3)),
    "breakpoint": (breakpoint_family(), (-0.05, 0.0, 0.1)),
    "tent": (tent_family(), (-0.1, 0.0, 0.1)),
    "circle": (circle_family(), (-0.3, 0.0, 0.3)),
}


def test_doubling_two_branches_slope_two():
    inst = instantiate(doubling_family(), 0.0)
    assert len(inst.branches) == 2
    for br in inst.branches:
        assert br.piece.affine[0] == 2.0
    assert [(br.lo, br.hi) for br in inst.branches] == [(0.0, 0.5), (0.5, 1.0)]


def test_step_loops_never_cut_branches(monkeypatch):
    cuts = []
    original = maps._cut_branches

    def counting(pieces):
        cuts.append(len(pieces))
        return original(pieces)

    monkeypatch.setattr(maps, "_cut_branches", counting)
    fam = pm_family(0.5)
    orbit_points(fam, ParameterSequence.iid(0.1, 0.01, 0),
                 np.linspace(0.0, 1.0, 8, endpoint=False), 50)
    assert cuts == []
    inst = instantiate(fam, 0.1)
    assert inst.branches is inst.branches
    assert len(cuts) == 1


def test_pm_accepts_expanding_parameter():
    inst = instantiate(pm_family(0.5), 0.1)
    assert inst.min_abs_derivative() >= 1.1 - 1e-12


def test_pm_rejects_contracting_parameter():
    with pytest.raises(ExpansionError) as err:
        instantiate(pm_family(0.5), -0.05)
    assert "expansion" in str(err.value)
    assert "0.95" in str(err.value)


def test_pm_unsafe_flag_allows_contracting_parameter():
    inst = instantiate(pm_family(0.5), -0.05, unsafe=True)
    assert inst.unsafe
    assert inst.min_abs_derivative() < 1.0


def test_instantiate_deterministic():
    fam = pm_family(0.5)
    a = instantiate(fam, 0.1)
    b = instantiate(fam, 0.1)
    assert [(br.lo, br.hi, br.offset) for br in a.branches] == \
        [(br.lo, br.hi, br.offset) for br in b.branches]


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


def test_lsv_preimages_forward_residual():
    inst = instantiate(lsv_family(0.5), 0.1)
    for x in np.linspace(0.01, 0.99, 23):
        pre = branch_preimages(inst, float(x))
        assert 1 <= len(pre) <= len(inst.branches)
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
    # integer, so round-off leaves the root finder with no sign change
    inst = instantiate(ALL_FAMILIES[name][0], gamma)
    for x in np.linspace(0.0, 1.0, 200, endpoint=False):
        for br in inst.branches:
            if br.covers(float(x)):
                assert abs(br.forward(br.inverse(float(x))) - x) <= 1e-10


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_expansion_hypothesis_all_families(name):
    fam, gammas = ALL_FAMILIES[name]
    for gamma in gammas:
        inst = instantiate(fam, gamma)
        s = inst.contraction_factor()
        assert s < 1.0
        assert inst.min_abs_derivative() >= 1.0 / s - 1e-9


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
    assert any(not br.increasing for br in inst.branches)
    assert inst.min_abs_derivative() == 2.0


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
