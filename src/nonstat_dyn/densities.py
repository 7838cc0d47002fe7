"""Cell-averaged densities on [0,1), L1 geometry, oscillation and quasi-Holder seminorms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

#: default locality scale for oscillation-based seminorms
DEFAULT_EPS0 = 0.05


class GridMismatchError(ValueError):
    """Two grid functions with different resolutions were combined."""


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant function on a uniform partition of [0,1).

    `values[i]` is the cell average over [i/n, (i+1)/n).  With
    ``density=True`` the values must be nonnegative.  ``circle=True``
    selects the wrap-around metric for all ball-based computations.
    """

    values: np.ndarray
    circle: bool = True
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
    def _trusted(cls, values: np.ndarray, circle: bool = True,
                 density: bool = True) -> "GridDensity":
        """Wrap a fresh, valid 1-D float array computed in this package and
        owned by the caller: no copy and no sign scan."""
        values.flags.writeable = False
        phi = object.__new__(cls)
        object.__setattr__(phi, "values", values)
        object.__setattr__(phi, "circle", circle)
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
        return GridDensity(self.values * c, circle=self.circle,
                           density=self.density and c >= 0)

    @staticmethod
    def uniform(n_cells: int, circle: bool = True) -> "GridDensity":
        return GridDensity(np.ones(n_cells), circle=circle)

    @staticmethod
    def indicator(lo: float, hi: float, n_cells: int, height: float = 1.0,
                  circle: bool = True) -> "GridDensity":
        """Cell averages of height * 1_[lo,hi); partial cells get fractional values."""
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError("need 0 <= lo < hi <= 1")
        edges = np.arange(n_cells + 1) / n_cells
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        vals = height * np.clip(overlap, 0.0, None) * n_cells
        return GridDensity(vals, circle=circle)

    @staticmethod
    def from_callable(fn, n_cells: int, circle: bool = True,
                      density: bool = True) -> "GridDensity":
        """Sample a function at cell centers (midpoint approximation of cell averages)."""
        centers = (np.arange(n_cells) + 0.5) / n_cells
        return GridDensity(np.asarray(fn(centers), dtype=float),
                           circle=circle, density=density)


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


def _window_osc(values: np.ndarray, lo: int, hi: int, circle: bool) -> np.ndarray:
    """osc over cells [i+lo, i+hi] for every i, with wrap or edge clipping."""
    n = values.size
    size = hi - lo + 1
    if size >= n and circle:
        return np.full(n, values.max() - values.min())
    mode = "wrap" if circle else "nearest"
    origin = lo + size // 2
    mx = maximum_filter1d(values, size=size, mode=mode, origin=origin)
    mn = minimum_filter1d(values, size=size, mode=mode, origin=origin)
    return mx - mn


def osc_integral(phi: GridDensity, eps: float) -> float:
    """Integral over x of osc(phi, B_eps(x)).

    Exact for the piecewise-constant representative: the set of cells met
    by B_eps(x) is piecewise constant in x, so the integral reduces to a
    weighted sum of three sliding-window oscillations.
    """
    n = phi.n_cells
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps * n < 1.0 - 1e-12:
        raise ValueError(
            f"eps={eps} is below the grid resolution 1/{n}; use a finer grid")
    v = phi.values
    q = int(np.floor(eps * n + 1e-12))
    r = eps * n - q
    if r < 1e-12:
        return float(np.mean(_window_osc(v, -q, q, phi.circle)))
    if r <= 0.5:
        oa = _window_osc(v, -q - 1, q, phi.circle)
        om = _window_osc(v, -q, q, phi.circle)
        ob = _window_osc(v, -q, q + 1, phi.circle)
        return float(np.mean(r * oa + (1.0 - 2.0 * r) * om + r * ob))
    oa = _window_osc(v, -q - 1, q, phi.circle)
    om = _window_osc(v, -q - 1, q + 1, phi.circle)
    ob = _window_osc(v, -q, q + 1, phi.circle)
    return float(np.mean((1.0 - r) * oa + (2.0 * r - 1.0) * om + (1.0 - r) * ob))


@dataclass(frozen=True)
class SeminormReport:
    """Sampled oscillation seminorm of a grid function."""

    alpha: float
    eps0: float
    eps_values: np.ndarray
    per_eps: np.ndarray          # eps^{-alpha} * osc_integral(phi, eps)
    seminorm: float              # max over sampled eps
    l1: float
    norm_alpha: float            # seminorm + l1
    ess_sup_bound: float         # max(1, eps0^alpha)/(2 eps0) * norm_alpha


def quasi_holder_seminorm(phi: GridDensity, alpha: float,
                          eps0: float = DEFAULT_EPS0,
                          n_eps: int = 16) -> SeminormReport:
    """Estimate the oscillation seminorm sup_eps eps^{-alpha} * int osc(phi, B_eps) dm.

    The sup over a continuum of scales is sampled on a geometric grid of
    `n_eps` points between one cell width and `eps0`, so the reported value
    is a lower bound of the true seminorm.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if n_eps < 4:
        raise ValueError("n_eps must be at least 4")
    n = phi.n_cells
    if eps0 * n < 1.0 - 1e-12:
        raise ValueError(f"eps0={eps0} below grid resolution 1/{n}; use a finer grid")
    eps_values = np.geomspace(1.0 / n, eps0, n_eps)
    per_eps = np.array([osc_integral(phi, e) / e ** alpha for e in eps_values])
    seminorm = float(per_eps.max())
    l1 = l1_norm(phi)
    norm_alpha = seminorm + l1
    bound = max(1.0, eps0 ** alpha) / (2.0 * eps0) * norm_alpha
    return SeminormReport(alpha=alpha, eps0=eps0, eps_values=eps_values,
                          per_eps=per_eps, seminorm=seminorm, l1=l1,
                          norm_alpha=norm_alpha, ess_sup_bound=bound)

