import re

import numpy as np
import pytest

from nonstat_dyn.maps import (ExpansionError, breakpoint_family,
                              circle_family, doubling_family, family_by_name,
                              instantiate, lsv_family, mod1, pm_family,
                              tent_family)

ALL_FAMILIES = {
    "doubling": (doubling_family(), (-0.05, 0.0, 0.1)),
    "pm": (pm_family(0.5), (0.05, 0.1, 0.3)),
    "lsv": (lsv_family(0.5), (0.05, 0.1, 0.3)),
    "breakpoint": (breakpoint_family(), (-0.05, 0.0, 0.1)),
    "tent": (tent_family(), (-0.1, 0.0, 0.1)),
    "circle": (circle_family(), (-0.3, 0.0, 0.3)),
}


def _constant(value):
    return lambda x: np.full_like(x, value)


def _intermittent(kappa, scale, gamma):
    """F' of an intermittent left piece (1 + gamma) x + scale x^(1 + kappa),
    with scale 1 (pm) or 2^kappa (lsv)."""
    return lambda x: (1.0 + gamma) + scale * (1.0 + kappa) * np.power(x, kappa)


def _breakpoint_derivatives(gamma, b0=0.4):
    b = b0 + gamma
    return [_constant(1.0 / b), _constant(1.0 / (1.0 - b))]


# F' on each piece of a family's instance at gamma, in closed form, by the
# family's name
PIECE_DERIVATIVES = {
    "doubling": lambda gamma: [_constant(2.0 + gamma)],
    "pm(kappa=0.5)": lambda gamma: [_intermittent(0.5, 1.0, gamma)],
    "pm(kappa=0.3)": lambda gamma: [_intermittent(0.3, 1.0, gamma)],
    "lsv(kappa=0.5)": lambda gamma: [_intermittent(0.5, 2.0 ** 0.5, gamma),
                                     _constant(2.0 + gamma)],
    "breakpoint(b0=0.4)": _breakpoint_derivatives,
    # the falling edge from the peak (2 + gamma) / 2 back to 0
    "tent": lambda gamma: [_constant(2.0 + gamma), _constant(-(2.0 + gamma))],
    "circle": lambda gamma: [
        lambda x: 2.0 + gamma * np.cos(2.0 * np.pi * x)],
}


def scan_min_abs_derivative(family, gamma, n_grid=4096):
    """min |F'| sampled on n_grid points per piece of the instance at gamma,
    from `PIECE_DERIVATIVES`: the oracle for the closed forms that families
    declare as `min_expansion`."""
    pieces = family.pieces_for(gamma)
    derivatives = PIECE_DERIVATIVES[family.name](gamma)
    assert len(derivatives) == len(pieces)
    best = np.inf
    for p, dlift in zip(pieces, derivatives):
        xs = np.linspace(p.lo, p.hi, n_grid, endpoint=False)
        best = min(best, float(np.min(np.abs(dlift(xs)))))
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
        scan = scan_min_abs_derivative(fam, gamma)
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
        scan = scan_min_abs_derivative(fam, gamma)
        in_range = fam.gamma_range[0] <= gamma <= fam.gamma_range[1]
        instantiate(fam, gamma, unsafe=True)
        if in_range and scan > 1.0:
            instantiate(fam, gamma)
            assert 1.0 / fam.min_expansion(gamma) == 1.0 / scan
        else:
            with pytest.raises(ExpansionError,
                               match=re.escape(f"min |F'| = {scan:.6g} ")):
                instantiate(fam, gamma)


def test_pm_accepts_expanding_parameter():
    family = pm_family(0.5)
    instantiate(family, 0.1)
    assert 1.0 / family.min_expansion(0.1) == 1.0 / 1.1


def test_pm_rejects_contracting_parameter():
    with pytest.raises(ExpansionError) as err:
        instantiate(pm_family(0.5), -0.05)
    assert "expansion" in str(err.value)
    assert "0.95" in str(err.value)


def test_pm_unsafe_flag_allows_contracting_parameter():
    family = pm_family(0.5)
    instantiate(family, -0.05, unsafe=True)
    assert 1.0 / family.min_expansion(-0.05) > 1.0


def test_instantiate_deterministic():
    fam = pm_family(0.5)
    a = instantiate(fam, 0.1)
    b = instantiate(fam, 0.1)
    xs = np.linspace(0.0, 1.0, 16, endpoint=False)
    assert np.array_equal(a.evaluate(xs).view(np.uint64),
                          b.evaluate(xs).view(np.uint64))


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_expansion_hypothesis_all_families(name):
    fam, gammas = ALL_FAMILIES[name]
    for gamma in gammas:
        inst = instantiate(fam, gamma)
        s = 1.0 / fam.min_expansion(gamma)
        assert s < 1.0
        assert scan_min_abs_derivative(fam, gamma) >= 1.0 / s - 1e-9


def test_family_by_name_unknown():
    with pytest.raises(ValueError):
        family_by_name("nope")


def test_breakpoint_piece_count_stable():
    fam = breakpoint_family()
    assert len(instantiate(fam, 0.0).pieces) == len(instantiate(fam, 0.1).pieces)


@pytest.mark.parametrize("b0", [0.05, 0.95])
def test_breakpoint_b0_range_ends_are_in(b0):
    # an end of the range leaves gamma = 0 on an end of the expanding range
    fam = breakpoint_family(b0)
    assert 0.0 in fam.gamma_range
    assert instantiate(fam, 0.0).pieces[0].hi == b0


@pytest.mark.parametrize("b0", [0.04, 0.96, float("nan")])
def test_breakpoint_b0_out_of_range_is_rejected(b0):
    with pytest.raises(ValueError,
                       match=re.escape(f"b0 must lie in [0.05, 0.95], got {b0}")):
        breakpoint_family(b0)


def test_tent_has_decreasing_branch():
    inst = instantiate(tent_family(), 0.0)
    rising, falling = inst.pieces
    assert falling.lift(0.6) > falling.lift(0.7)
    assert inst.evaluate(np.array([0.2, 0.8])) == pytest.approx([0.4, 0.4],
                                                               rel=0, abs=1e-15)
    assert scan_min_abs_derivative(inst.family, inst.gamma) == 2.0


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
