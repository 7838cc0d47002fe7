"""Property-based checks of the operator axioms and the bit-for-bit oracles.

The axioms hold for every operator `build_ulam` makes, and each other
property holds a fast path to the plain numpy expression it replaces, bit
for bit, over inputs that hypothesis draws.  Every run draws the same
cases (`derandomize=True`) and writes no example database, so the suite
stays deterministic.
"""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nonstat_dyn import network
from nonstat_dyn.cones import _shifted_rows
from nonstat_dyn.maps import (BUILTIN_FAMILIES, family_by_name, instantiate,
                              mod1)
from nonstat_dyn.transfer import STEP_BLOCK, build_ulam, step_blocks


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
