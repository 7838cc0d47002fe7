"""Property-based checks of the operator axioms and the bit-for-bit oracles.

The axioms hold for every operator `build_ulam` makes, and each other
property holds a fast path to the plain numpy expression it replaces, bit
for bit, over inputs that hypothesis draws.  Every run draws the same
cases (`derandomize=True`) and writes no example database, so the suite
stays deterministic.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nonstat_dyn import maps, network, transfer
from nonstat_dyn.birkhoff import (DITHER_BLOCK, _circ_measure,
                                  _union_measure, orbit_points)
from nonstat_dyn.cones import _shifted_rows
from nonstat_dyn.densities import GridDensity, _window_extremes
from nonstat_dyn.maps import (BUILTIN_FAMILIES, family_by_name, instantiate,
                              mod1, pm_family)
from nonstat_dyn.seeding import substream
from nonstat_dyn.sequences import ParameterSequence, gen_sequence
from nonstat_dyn.transfer import STEP_BLOCK, build_ulam, step_blocks
from test_transfer import operator_bytes, whole_array_build


def checked(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


def float_arrays(elements, max_dims=2, max_side=40):
    return hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=1, max_dims=max_dims,
                                       min_side=1, max_side=max_side),
                      elements=elements)


# every float64, NaN and infinities included, mixed with values in the
# range the network's trig arguments take
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
TRIG_ARGUMENTS = st.one_of(ANY_FLOAT, st.floats(0.0, 2 * np.pi))
FINITE_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


def with_warnings(f, *args):
    """f(*args) and the (category, message) of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = f(*args)
    return result, [(w.category, str(w.message)) for w in caught]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@checked(300)
@given(float_arrays(TRIG_ARGUMENTS))
def test_grouped_sin_cos_equals_plain_trig(c):
    cos = c.copy()
    sin, got_warnings = with_warnings(network._grouped_sin_cos, cos)
    (want_sin, want_cos), want_warnings = with_warnings(
        lambda a: (np.sin(a), np.cos(a)), c)
    assert np.array_equal(bits(sin), bits(want_sin))
    assert np.array_equal(bits(cos), bits(want_cos))
    assert got_warnings == want_warnings


@checked(400)
@given(float_arrays(FINITE_FLOAT, max_dims=1, max_side=200))
def test_mod1_equals_remainder(y):
    assert np.array_equal(bits(mod1(y)), bits(y % 1.0))
    assert np.array_equal(bits(mod1(y[0])), bits(y[0] % 1.0))


@st.composite
def shifts(draw):
    """(v, first, count, sign) with every shift first + sign * r, r <
    count, within n cells either way."""
    n = draw(st.integers(1, 64))
    v = draw(hnp.arrays(np.float64, n, elements=ANY_FLOAT))
    sign = draw(st.sampled_from((1, -1)))
    first = draw(st.integers(-n, n))
    # the last shift, first + sign * (count - 1), stays within [-n, n]
    room = n - first if sign == 1 else first + n
    count = draw(st.integers(1, room + 1))
    return v, first, count, sign


@checked(300)
@given(shifts())
def test_shifted_rows_equal_the_index_gather(case):
    v, first, count, sign = case
    n = v.size
    ks = first + sign * np.arange(count)
    want = v[(np.arange(n) + ks[:, None]) % n]
    rows = _shifted_rows(v, first, count, sign)
    assert rows.shape == (count, n)
    assert rows.tobytes() == want.tobytes()
    assert not rows.flags.writeable


@st.composite
def ulam_cases(draw):
    """(instance, n_cells, quadrature): a built-in family at its default
    settings and any gamma in its expanding range, on 2 to 300 cells with 1
    to 40 quadrature nodes."""
    family = family_by_name(draw(st.sampled_from(sorted(BUILTIN_FAMILIES))))
    gamma = draw(st.floats(*family.gamma_range))
    n_cells = draw(st.integers(2, 300))
    quadrature = draw(st.integers(1, 40))
    return instantiate(family, gamma), n_cells, quadrature


@checked(600)
@given(ulam_cases())
def test_built_operators_satisfy_the_axioms(case):
    op = build_ulam(*case)
    mat = op.matrix
    n = op.n_cells
    assert mat.shape == (n, n)
    # canonical CSR: each row's columns strictly ascending, within the grid
    assert op.indptr[0] == 0 and op.indptr[-1] == op.data.size
    assert np.all(np.diff(op.indptr) >= 0)
    row_of = np.repeat(np.arange(n), np.diff(op.indptr))
    same_row = row_of[1:] == row_of[:-1]
    assert np.all(np.diff(op.indices)[same_row] > 0)
    assert op.indices.min() >= 0 and op.indices.max() < n
    assert np.all(op.data > 0)
    column_sums = np.bincount(op.indices, weights=op.data, minlength=n)
    assert np.max(np.abs(column_sums - 1.0)) <= 1e-12


@checked(600)
@given(ulam_cases(), st.integers(1, 2 * STEP_BLOCK + 8),
       st.integers(0, 2 ** 32 - 1))
def test_step_blocks_rows_equal_chained_matrix_products(case, steps, seed):
    op = build_ulam(*case)
    v = np.random.default_rng(seed).uniform(0.0, 2.0, op.n_cells)
    rows = np.concatenate([block.copy()
                           for block in step_blocks([op] * steps, v)])
    assert rows.shape == (steps, op.n_cells)
    for row in rows:
        v = op.matrix @ v
        assert np.array_equal(bits(row), bits(v))


@checked(300)
@given(ulam_cases(),
       st.one_of(st.integers(1, 64), st.just(transfer.CHORD_CHUNK)))
def test_chunked_builds_equal_whole_array_builds(case, chunk):
    # a small chunk puts chunk edges all along every piece, off-grid piece
    # ends and falling pieces included
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(transfer, "CHORD_CHUNK", chunk)
        got = operator_bytes(build_ulam(*case))
    assert got == operator_bytes(whole_array_build(*case))


@st.composite
def window_cases(draw):
    """(values, q_max, qs): 1 to 3 rows of 1 to 60 cells, or one 1-D row, and
    the ascending q of each eps `_osc_integrals` would take, the largest
    being the table's q."""
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from([(n,), (1, n), (2, n), (3, n)]))
    values = draw(hnp.arrays(np.float64, shape,
                             elements=st.floats(allow_nan=False)))
    qs = sorted(draw(st.lists(st.integers(1, 2 * n + 3), min_size=1,
                              max_size=4)))
    return values, qs[-1], qs


@checked(200)
@given(window_cases())
def test_window_extremes_equal_brute_force_windows(case):
    values, q_max, qs = case
    n = values.shape[-1]
    extremes = _window_extremes(values, q_max)
    # the windows of (-q - 1, q), (-q, q), (-q, q + 1) and (-q - 1, q + 1),
    # in the order `_osc_integrals` asks for them at each q
    for q in qs:
        for lo, hi in ((-q - 1, q), (-q, q), (-q, q + 1), (-q - 1, q),
                       (-q - 1, q + 1), (-q, q + 1)):
            size = hi - lo + 1
            start = -lo - 2 * (size // 2)
            cells = (np.arange(n)[:, None] + start + np.arange(size)) % n
            window = values[..., cells]
            mx, mn = extremes(lo, hi)
            assert mx.shape == mn.shape == values.shape
            assert mx.flags.c_contiguous and mn.flags.c_contiguous
            assert mx.tobytes() == window.max(axis=-1).tobytes(), (lo, hi)
            assert mn.tobytes() == window.min(axis=-1).tobytes(), (lo, hi)


def union_measure_oracle(cdf_at, lo, hi):
    """`lp_distance`'s positive-surplus union as it was written before
    `_union_measure`: the arcs sorted, merged by a Python loop, and each
    merged arc measured by its own call."""
    ivals = sorted(zip(lo, hi))
    merged = [list(ivals[0])]
    for lo_i, hi_i in ivals[1:]:
        if lo_i <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi_i)
        else:
            merged.append([lo_i, hi_i])
    return sum(float(_circ_measure(cdf_at, a, b)) for a, b in merged)


@st.composite
def surplus_cases(draw):
    """(cdf_at, lo, hi): a random step density's distribution function, and
    the enlarged cover balls of a random nonempty surplus set, for J from 8
    to 256 balls and s on `lp_distance`'s grid for J."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8)
    values[rng.integers(n)] += 1.0
    ref = GridDensity(values / values.mean())
    cdf = np.concatenate([[0.0], np.cumsum(ref.values) / n])
    edges = np.arange(n + 1) / n
    J = draw(st.integers(8, 256))
    s_grid = np.unique(np.concatenate([
        np.geomspace(0.25 / J, 0.06, 24),
        np.arange(0.06, 0.5, 0.25 / J), [0.5]]))
    # small s and sparse surpluses give many merged arcs to sum
    s = s_grid[draw(st.one_of(st.integers(0, 8),
                              st.integers(0, s_grid.size - 1)))]
    chosen = np.flatnonzero(rng.random(J) < draw(st.floats(0.0, 1.0)))
    if chosen.size == 0:
        chosen = rng.integers(J, size=1)
    lo = (np.arange(J) / J - s)[chosen]
    hi = ((np.arange(J) + 1) / J + s)[chosen]
    return (lambda q: np.interp(q, edges, cdf)), lo, hi


@checked(200)
@given(surplus_cases())
def test_union_measure_equals_the_merge_loop(case):
    cdf_at, lo, hi = case
    assert (_union_measure(cdf_at, lo, hi).hex()
            == union_measure_oracle(cdf_at, lo, hi).hex())


def per_step_orbit_points(family, gammas, x0, seed):
    """`orbit_points` with the dither drawn by one `rng.uniform` call of
    the points' shape at every step."""
    rng = substream(seed, "orbit-dither")
    half = 0.5 * maps.DITHER
    rows = [x0]
    for gamma in gammas:
        fx = instantiate(family, float(gamma)).evaluate(rows[-1])
        fx += rng.uniform(-half, half, x0.shape)
        rows.append(mod1(fx))
    return np.array(rows)


@checked(200)
@given(st.one_of(st.integers(1, 64), st.integers(1, 2 ** 15)), st.data())
def test_orbit_block_dither_equals_per_step_draws(points, data):
    # horizons shorter than one block of draws, and, where a block is a
    # few steps, past three blocks; at most 2^18 values per orbit
    block = max(1, DITHER_BLOCK // points)
    n = data.draw(st.integers(1, min(3 * block + 2, 2 ** 18 // points, 400)))
    seed = data.draw(st.integers(0, 2 ** 16))
    family, seq = pm_family(0.5), ParameterSequence.iid(0.1, 0.01, seed)
    x0 = substream(seed, "orbit-start").uniform(0.0, 1.0, points)
    got = orbit_points(family, seq, x0, n, seed=seed)
    want = per_step_orbit_points(family, gen_sequence(seq, n), x0, seed)
    assert got.tobytes() == want.tobytes()
