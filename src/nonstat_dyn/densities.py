"""Cell-averaged densities on [0,1), L1 geometry, oscillation and quasi-Holder seminorms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Locality scale of the quasi-Holder seminorm: the largest sampled ball radius
EPS0 = 0.05
#: Scales sampled by the seminorm, geometric from one cell width to EPS0
N_EPS = 16


class GridMismatchError(ValueError):
    """Two grid functions with different resolutions were combined."""


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant function on a uniform partition of the circle [0,1).

    `values[i]` is the cell average over [i/n, (i+1)/n).  With
    ``density=True`` the values must be nonnegative.  Every ball-based
    computation uses the wrap-around metric of the circle.
    """

    values: np.ndarray
    density: bool = True

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a nonempty 1-D array")
        if self.density and np.any(vals < 0):
            raise ValueError("density values must be nonnegative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, values: np.ndarray,
                 density: bool = True) -> "GridDensity":
        """Wrap a fresh, valid 1-D float array computed in this package and
        owned by the caller: no copy and no sign scan."""
        values.flags.writeable = False
        phi = object.__new__(cls)
        object.__setattr__(phi, "values", values)
        object.__setattr__(phi, "density", density)
        return phi

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def mass(self) -> float:
        return float(np.mean(self.values))

    def assert_probability(self, tol: float = 1e-12):
        if abs(self.mass - 1.0) > tol:
            raise ValueError(f"not a probability density: mass = {self.mass!r}")

    def scaled(self, c: float) -> "GridDensity":
        return GridDensity(self.values * c, density=self.density and c >= 0)

    @staticmethod
    def uniform(n_cells: int) -> "GridDensity":
        return GridDensity(np.ones(n_cells))

    @staticmethod
    def indicator(lo: float, hi: float, n_cells: int,
                  height: float = 1.0) -> "GridDensity":
        """Cell averages of height * 1_[lo,hi); partial cells get fractional values."""
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError("need 0 <= lo < hi <= 1")
        edges = np.arange(n_cells + 1) / n_cells
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        vals = height * np.clip(overlap, 0.0, None) * n_cells
        return GridDensity(vals)

    @staticmethod
    def from_callable(fn, n_cells: int) -> "GridDensity":
        """Sample a function at cell centers (midpoint approximation of cell averages)."""
        return GridDensity(np.asarray(fn(cell_centers(n_cells)), dtype=float))


def cell_centers(n_cells: int) -> np.ndarray:
    return (np.arange(n_cells) + 0.5) / n_cells


def _check_same_grid(phi: GridDensity, psi: GridDensity):
    if phi.n_cells != psi.n_cells:
        raise GridMismatchError(
            f"grid mismatch: {phi.n_cells} vs {psi.n_cells} cells (no silent resampling)")


def l1_distance(phi: GridDensity, psi: GridDensity) -> float:
    """L1 distance of two grid functions on the same partition."""
    _check_same_grid(phi, psi)
    return float(np.mean(np.abs(phi.values - psi.values)))


def l1_norm(phi: GridDensity) -> float:
    return float(np.mean(np.abs(phi.values)))


def _window_extremes(values: np.ndarray, q: int):
    """`extremes(lo, hi)`: the (max, min) of `values` over a circular window
    of size = hi - lo + 1 cells at every cell i along the last axis, as
    fresh C-ordered arrays, for -q - 1 <= lo < hi <= q + 1.

    The window is the one `scipy.ndimage`'s `maximum_filter1d` and
    `minimum_filter1d` read with mode "wrap" and origin lo + size // 2,
    which computed the seminorm before: it starts at cell
    i - lo - 2 * (size // 2).  That is [i + lo, i + hi] for (-q, q),
    (-q - 1, q) and (-q - 1, q + 1), but [i - q - 2, i + q - 1] for
    (-q, q + 1).  Each window has the right size and the mean over the
    circle is shift-invariant, so every osc integral stays exact; aligning
    them would change the bits of every seminorm.

    Extremes over 2^k cells are built by doubling from one circularly
    indexed copy, and a window of size cells is two overlapping 2^k-cell
    windows, 2^k <= size < 2^(k+1).  Levels are built on first use and
    those below k - 1 dropped once level k is built, so windows asked for
    in growing size, as `_osc_integrals` asks, keep at most three levels
    beside the copy: `seminorms` of 16 rows at 3072 cells peaks at 4.3 MiB
    (tracemalloc), against 9.2 MiB keeping all nine levels.
    """
    n = values.shape[-1]
    first = -q - 2          # the lowest cell any window reads, from i
    # C-ordered rows: `mean(axis=-1)` over the windows then sums in the
    # same order as over ndimage's output
    ext = np.take(values, np.arange(first, n + q + 1) % n, axis=-1)
    levels = {0: (ext, ext)}    # k: (max, min) over 2^k cells

    def level(k: int) -> tuple:
        if k not in levels:
            j = max(j for j in levels if j < k)
            mx, mn = levels[j]
            for j in range(j, k):
                w = 1 << j
                mx = np.maximum(mx[..., :-w], mx[..., w:])
                mn = np.minimum(mn[..., :-w], mn[..., w:])
                levels[j + 1] = mx, mn
            for j in [j for j in levels if 0 < j < k - 1]:
                del levels[j]
        return levels[k]

    def extremes(lo: int, hi: int) -> tuple:
        size = hi - lo + 1
        k = size.bit_length() - 1
        a = -lo - 2 * (size // 2) - first
        b = a + size - (1 << k)
        mx, mn = level(k)
        return (np.maximum(mx[..., a:a + n], mx[..., b:b + n]),
                np.minimum(mn[..., a:a + n], mn[..., b:b + n]))
    return extremes


def _cells(eps: float, n: int) -> tuple:
    """(q, r) with eps * n = q + r cells, q whole and 0 <= r < 1."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps * n < 1.0 - 1e-12:
        raise ValueError(
            f"eps={eps} is below the grid resolution 1/{n}; use a finer grid")
    q = int(np.floor(eps * n + 1e-12))
    return q, eps * n - q


def osc_integral(phi: GridDensity, eps: float) -> float:
    """Integral over x of osc(phi, B_eps(x)).

    Exact for the piecewise-constant representative: the set of cells met
    by B_eps(x) is piecewise constant in x, so the integral reduces to a
    weighted sum of three sliding-window oscillations.
    """
    return float(_osc_integrals(phi.values, (eps,))[0])


def _osc_integrals(v: np.ndarray, eps_values) -> list:
    """`osc_integral` at each eps in turn, of each row of v (or of v itself
    when 1-D), from one table of window extremes."""
    n = v.shape[-1]
    cells = [_cells(eps, n) for eps in eps_values]
    extremes = _window_extremes(v, max(q for q, _ in cells))

    def osc(lo, hi):
        mx, mn = extremes(lo, hi)
        return mx - mn

    out = []
    for q, r in cells:
        if r < 1e-12:
            out.append(np.mean(osc(-q, q), axis=-1))
        elif r <= 0.5:
            oa = osc(-q - 1, q)
            om = osc(-q, q)
            ob = osc(-q, q + 1)
            out.append(np.mean(r * oa + (1.0 - 2.0 * r) * om + r * ob,
                               axis=-1))
        else:
            oa = osc(-q - 1, q)
            om = osc(-q - 1, q + 1)
            ob = osc(-q, q + 1)
            out.append(np.mean((1.0 - r) * oa + (2.0 * r - 1.0) * om
                               + (1.0 - r) * ob, axis=-1))
    return out


@dataclass(frozen=True)
class SeminormReport:
    """Sampled oscillation seminorm of a grid function."""

    alpha: float
    eps_values: np.ndarray
    per_eps: np.ndarray          # eps^{-alpha} * osc_integral(phi, eps)
    seminorm: float              # max over sampled eps
    l1: float
    norm_alpha: float            # seminorm + l1
    ess_sup_bound: float         # norm_alpha / (2 EPS0)


def quasi_holder_seminorm(phi: GridDensity, alpha: float) -> SeminormReport:
    """Estimate the oscillation seminorm sup_eps eps^{-alpha} * int osc(phi, B_eps) dm.

    The sup over a continuum of scales is sampled on a geometric grid of
    N_EPS points between one cell width and EPS0, so the reported value
    is a lower bound of the true seminorm.
    """
    eps_values, per_eps = _scaled_osc(phi.values, alpha)
    seminorm = float(per_eps.max())
    l1 = l1_norm(phi)
    norm_alpha = seminorm + l1
    # max(1, EPS0^alpha) / (2 EPS0) * norm_alpha, and EPS0 < 1
    bound = 1.0 / (2.0 * EPS0) * norm_alpha
    return SeminormReport(alpha=alpha, eps_values=eps_values,
                          per_eps=per_eps, seminorm=seminorm, l1=l1,
                          norm_alpha=norm_alpha, ess_sup_bound=bound)


def seminorms(rows: np.ndarray, alpha: float) -> np.ndarray:
    """`quasi_holder_seminorm(...).seminorm` of each row of a 2-D block of
    cell values, bit for bit, with one table of window extremes for the
    block."""
    return _scaled_osc(rows, alpha)[1].max(axis=0)


def _scaled_osc(values: np.ndarray, alpha: float) -> tuple:
    """(eps grid, eps^{-alpha} * osc_integral at each eps, one column per row
    of a 2-D `values`)."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    n = values.shape[-1]
    if EPS0 * n < 1.0 - 1e-12:
        raise ValueError(f"EPS0={EPS0} below grid resolution 1/{n}; use a finer grid")
    eps_values = np.geomspace(1.0 / n, EPS0, N_EPS)
    return eps_values, np.array([
        osc / e ** alpha
        for osc, e in zip(_osc_integrals(values, eps_values), eps_values)])
