"""Property-based checks of the bit-for-bit oracles.

Each property holds a fast path to the plain numpy expression it replaces,
bit for bit, over inputs that hypothesis draws.  Every run draws the same
cases (`derandomize=True`) and writes no example database, so the suite
stays deterministic and leaves no `.hypothesis/` directory behind.
"""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nonstat_dyn import network
from nonstat_dyn.cones import _shifted_rows
from nonstat_dyn.maps import mod1


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
