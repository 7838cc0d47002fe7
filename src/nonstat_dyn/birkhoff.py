"""Birkhoff averages along nonautonomous orbits, covariance decay, the
summability criterion for the strong law, and a Levy-Prokhorov estimator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import maps
from .densities import GridDensity, cell_centers
from .maps import MapFamily, instantiate, mod1
from .seeding import substream
from .sequences import _as_gammas
from .transfer import per_run, step_blocks, ulam_operators

DITHER_BLOCK = 1 << 14     # orbit dither values per draw: 128 KiB
WILSON_Z = 1.96            # the 95% normal quantile of `wilson_interval`
SUMMABILITY_TERMS = 1000   # terms of the partial sums in `lln_summability`


@dataclass(frozen=True)
class Observable:
    """Scalar observable: `fn` evaluates along orbits and `values` are
    cell-center samples used for grid integrals."""

    fn: Callable
    values: np.ndarray
    name: str = "psi"

    @staticmethod
    def from_callable(fn, n_cells: int, name: str = "psi") -> "Observable":
        vals = np.asarray(fn(cell_centers(n_cells)), dtype=float)
        return Observable(fn=fn, values=vals, name=name)

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def norm_l1(self) -> float:
        return float(np.mean(np.abs(self.values)))


BUILTIN_OBSERVABLES = {
    "x": lambda x: np.asarray(x, dtype=float),
    "cos": lambda x: np.cos(2.0 * np.pi * np.asarray(x, dtype=float)),
    "sin": lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float)),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


def observable(name: str, n_cells: int) -> Observable:
    if name not in BUILTIN_OBSERVABLES:
        raise ValueError(f"unknown observable {name!r}; known: "
                         f"{sorted(BUILTIN_OBSERVABLES)}")
    return Observable.from_callable(BUILTIN_OBSERVABLES[name], n_cells, name=name)


# --- orbits ----------------------------------------------------------------

def _orbit(family: MapFamily, gammas, x: np.ndarray, rng):
    """The points F_{gamma_k} o ... o F_{gamma_1}(x) for k = 1, 2, ...: each
    step evaluates the map, adds uniform noise of width `maps.DITHER` drawn
    from `rng`, and wraps mod 1.  Every yielded array is fresh.

    The noise of a block of steps, about DITHER_BLOCK values and at most
    the horizon, is drawn in one `rng.uniform` call; it fills in C order
    from the same stream, so row j is bit for bit the per-step draw of step
    j.  The values drawn past the last step advance `rng` beyond where
    per-step draws would leave it: every caller passes a substream of its
    own that nothing reads after the orbit."""
    dither = maps.DITHER
    steps = max(1, min(len(gammas), DITHER_BLOCK // max(x.size, 1)))
    noise, j = (), 0
    for instance in per_run(lambda gamma: instantiate(family, gamma), gammas):
        fx = instance.evaluate(x)
        if j == len(noise):
            noise, j = rng.uniform(-0.5 * dither, 0.5 * dither,
                                   (steps,) + x.shape), 0
        fx += noise[j]
        j += 1
        x = mod1(fx)
        yield x


def orbit_points(family: MapFamily, seq, x0, n: int,
                 seed: int = 0) -> np.ndarray:
    """Full trajectory (n+1 rows) of one or more initial points under the
    nonautonomous composition, with per-step dithering."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    out = np.empty((n + 1,) + x.shape)
    out[0] = x
    for k, x in enumerate(_orbit(family, _as_gammas(seq, n), x,
                                 substream(seed, "orbit-dither")), 1):
        out[k] = x
    return out


@dataclass(frozen=True)
class BirkhoffResult:
    averages: np.ndarray       # (n_obs, points) final running averages
    tail_min: np.ndarray       # (n_obs, points) min running average, last 10%
    tail_max: np.ndarray


def birkhoff_averages(family: MapFamily, seq, initial_points: int, psi,
                      n: int, seed: int = 0) -> BirkhoffResult:
    """Running Birkhoff averages S_n(psi)(x)/n for Lebesgue-sampled points.

    `psi` may be a single Observable or a sequence of them; all observables
    share one orbit ensemble.  Tail extrema over the final 10% of steps
    proxy the limit superior/inferior of the averages.
    """
    obs = [psi] if isinstance(psi, Observable) else list(psi)
    if n < 1:
        raise ValueError("n must be at least 1")
    rng_init = substream(seed, "birkhoff-init")
    x = rng_init.uniform(0.0, 1.0, initial_points)
    gammas = _as_gammas(seq, max(n - 1, 0))
    rng = substream(seed, "birkhoff-dither")
    sums = np.zeros((len(obs), initial_points))
    for j, o in enumerate(obs):
        sums[j] = o.fn(x)
    tail_start = int(np.floor(0.9 * n))
    tail_min = np.full((len(obs), initial_points), np.inf)
    tail_max = np.full((len(obs), initial_points), -np.inf)
    avg = np.empty_like(sums)
    if tail_start <= 1:
        np.divide(sums, 1.0, out=avg)
        np.minimum(tail_min, avg, out=tail_min)
        np.maximum(tail_max, avg, out=tail_max)
    for t, x in enumerate(_orbit(family, gammas, x, rng), 2):
        for j, o in enumerate(obs):
            sums[j] += o.fn(x)
        if t >= tail_start:
            np.divide(sums, t, out=avg)
            np.minimum(tail_min, avg, out=tail_min)
            np.maximum(tail_max, avg, out=tail_max)
    return BirkhoffResult(averages=sums / n, tail_min=tail_min,
                          tail_max=tail_max)


@dataclass(frozen=True)
class QuasiBirkhoffBand:
    center: float      # integral of psi against the reference density
    lo: float
    hi: float


def quasi_birkhoff_band(psi: Observable, phi_ref: GridDensity,
                        eps: float) -> QuasiBirkhoffBand:
    """Band [int psi phi_ref dm - eps ||psi||_1, ... + eps ||psi||_1]."""
    phi_ref.assert_probability(1e-9)
    center = float(np.mean(psi.values * phi_ref.values))
    half = eps * psi.norm_l1
    return QuasiBirkhoffBand(center=center, lo=center - half, hi=center + half)


def wilson_interval(successes: int, total: int) -> tuple:
    if total == 0:
        return (0.0, 1.0)
    z, p = WILSON_Z, successes / total
    den = 1.0 + z * z / total
    mid = (p + z * z / (2 * total)) / den
    spread = z * np.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / den
    return (max(0.0, mid - spread), min(1.0, mid + spread))


@dataclass(frozen=True)
class BandCheck:
    fraction: float
    inside: np.ndarray
    wilson: tuple


def band_pass_check(result: BirkhoffResult, band: QuasiBirkhoffBand,
                    obs_index: int = 0) -> BandCheck:
    """Fraction of points whose tail extrema both lie inside the band."""
    inside = ((result.tail_min[obs_index] >= band.lo) &
              (result.tail_max[obs_index] <= band.hi))
    frac = float(np.mean(inside))
    return BandCheck(fraction=frac, inside=inside,
                     wilson=wilson_interval(int(inside.sum()), inside.size))


# --- covariance decay and the strong-law criterion --------------------------

@dataclass(frozen=True)
class CovarianceTable:
    R: np.ndarray                # covariance estimates over the window
    se: np.ndarray               # Monte-Carlo standard errors
    means_ensemble: np.ndarray
    means_spectral: np.ndarray
    c_fit: float
    q_fit: float


def covariance_decay(family: MapFamily, seq, psi: Observable, window: tuple,
                     ensemble: int = 10000,
                     seed: int = 0) -> CovarianceTable:
    """Monte-Carlo covariances of psi_i = psi o F_{gamma_i} o ... o F_{gamma_1}
    over a Lebesgue ensemble, with spectrally computed means as cross-check,
    and a geometric fit |R_ij| <= C q^{|j-i|}."""
    i_max, j_max = window
    if not (0 <= i_max <= j_max) or j_max < 1:
        raise ValueError("window must satisfy 0 <= i_max <= j_max and "
                         "j_max >= 1")
    gammas = _as_gammas(seq, j_max)
    rng_init = substream(seed, "covariance-init")
    x = rng_init.uniform(0.0, 1.0, ensemble)
    rng = substream(seed, "covariance-dither")
    n_cells = psi.n_cells
    samples = np.empty((j_max + 1, ensemble))
    samples[0] = psi.fn(x)
    for k, x in enumerate(_orbit(family, gammas, x, rng), 1):
        samples[k] = psi.fn(x)
    # spectral means: int psi L_{gamma_k} ... L_{gamma_1} 1 dm
    operators = ulam_operators(family, gammas, n_cells)
    means_spectral = np.empty(j_max + 1)
    means_spectral[0] = float(np.mean(psi.values))
    k = 1
    for rows in step_blocks(operators, np.ones(n_cells)):
        means_spectral[k:k + len(rows)] = (psi.values * rows).mean(axis=1)
        k += len(rows)
    means_ens = samples.mean(axis=1)
    centered = samples - means_ens[:, None]
    R = np.empty((j_max + 1, j_max + 1))
    se = np.empty_like(R)
    for i in range(j_max + 1):
        prod = centered * centered[i][None, :]
        R[i] = prod.mean(axis=1)
        se[i] = prod.std(axis=1) / np.sqrt(ensemble)
    lags = np.arange(1, j_max + 1)
    r_of_lag = np.array([np.max(np.abs(np.diagonal(R, offset=k)))
                         for k in lags])
    # geometric fit on positive lags, log-linear least squares
    usable = r_of_lag > 0
    if np.count_nonzero(usable) >= 2:
        coeffs = np.polyfit(lags[usable], np.log(r_of_lag[usable]), 1)
        q_fit = float(np.exp(coeffs[0]))
        c_fit = float(np.exp(coeffs[1]))
    else:
        q_fit, c_fit = 1.0, float(r_of_lag.max(initial=0.0))
    q_fit = min(q_fit, 1.0)
    c_fit = max(c_fit, float(np.max(r_of_lag / np.power(q_fit, lags))))
    return CovarianceTable(R=R, se=se, means_ensemble=means_ens,
                           means_spectral=means_spectral,
                           c_fit=c_fit, q_fit=q_fit)


@dataclass(frozen=True)
class SummabilityReport:
    verdict: str               # "summable" or "inconclusive"
    partial_sum: float         # sum_{k<=K} C q^k / k, K = SUMMABILITY_TERMS
    unit_partial_sum: float    # sum_{k<=K} q^k / k
    closed_form: float         # -C log(1 - q) for q < 1


def lln_summability(cov: CovarianceTable) -> SummabilityReport:
    """Partial sums of r(k)/k with the fitted geometric envelope; the strong
    law's criterion holds whenever the fitted rate is below one."""
    q, c = cov.q_fit, cov.c_fit
    ks = np.arange(1, SUMMABILITY_TERMS + 1)
    if q >= 1.0:
        partial = float(np.sum(c / ks))
        return SummabilityReport(verdict="inconclusive", partial_sum=partial,
                                 unit_partial_sum=float(np.sum(1.0 / ks)),
                                 closed_form=np.inf)
    powers = np.power(q, ks)
    partial = float(np.sum(c * powers / ks))
    unit = float(np.sum(powers / ks))
    closed = float(-c * np.log1p(-q))
    return SummabilityReport(verdict="summable", partial_sum=partial,
                             unit_partial_sum=unit, closed_form=closed)


# --- Levy-Prokhorov estimator ------------------------------------------------

@dataclass(frozen=True)
class LPReport:
    estimate: float
    ball_radius: float
    ball_count: int


def _cdf_from_density(phi: GridDensity) -> np.ndarray:
    # cumulative integral at cell edges 0, 1/n, ..., 1
    return np.concatenate([[0.0], np.cumsum(phi.values) / phi.n_cells])


def lp_distance(empirical, mu_ref: GridDensity,
                ball_count: int = 64) -> LPReport:
    """Levy-Prokhorov estimate via a finite cover of equal balls.

    The defining inequality mu(A) <= nu(A_s) + s is tested (both ways) on
    all contiguous unions of cover balls plus the positive-surplus union;
    the estimate is the smallest grid s passing every test.  Restricting to
    a finite family underestimates the true distance by at most one ball
    diameter, while the piecewise-constant reference biases it upward for
    measures smoother than the cover.

    `empirical` is an array of sample points, each of weight 1/size, or a
    `(points, weights)` pair of equal shapes with finite nonnegative
    weights of positive total, normalized here.
    """
    if ball_count < 8:
        raise ValueError("ball_count must be at least 8")
    if isinstance(empirical, tuple):
        points, weights = (np.asarray(a, dtype=float) for a in empirical)
        if points.shape != weights.shape:
            raise ValueError("points and weights must have the same shape")
    else:
        points, weights = np.asarray(empirical, dtype=float), None
    if points.size == 0:
        raise ValueError("empirical sample must be nonempty")
    if not np.isfinite(points).all():
        raise ValueError("empirical points must be finite")
    points = mod1(points)
    if weights is None:
        weights = np.full(points.size, 1.0 / points.size)
    else:
        if not (np.isfinite(weights).all() and (weights >= 0).all()):
            raise ValueError("weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not 0 < total < np.inf:
            raise ValueError("weights must have a positive finite total")
        weights = weights / total
    J = ball_count
    mu_ball = np.bincount(np.minimum((points * J).astype(int), J - 1),
                          weights=weights, minlength=J)
    ref_cdf = _cdf_from_density(mu_ref)
    ref_edges = np.arange(mu_ref.n_cells + 1) / mu_ref.n_cells
    order = np.argsort(points, kind="stable")
    pts_sorted = points[order]
    emp_cum = np.concatenate([[0.0], np.cumsum(weights[order])])

    def ref_at(q):
        return np.interp(q, ref_edges, ref_cdf)

    def emp_at(q):
        return emp_cum[np.searchsorted(pts_sorted, q, side="left")]

    def circ_measure(cdf_at, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        full = (hi - lo) >= 1.0
        lo_m = lo % 1.0
        hi_m = hi % 1.0
        plain = cdf_at(hi_m) - cdf_at(lo_m)
        wrapped = 1.0 - cdf_at(lo_m) + cdf_at(hi_m)
        return np.where(full, 1.0, np.where(lo_m <= hi_m, plain, wrapped))

    nu_ball = np.asarray(circ_measure(ref_at, np.arange(J) / J,
                                      (np.arange(J) + 1) / J))
    radius = 0.5 / J
    s_grid = np.unique(np.concatenate([
        np.geomspace(0.25 / J, 0.06, 24),
        np.arange(0.06, 0.5, 0.25 / J), [0.5]]))
    # all contiguous unions of cover balls
    starts = np.repeat(np.arange(J), J)
    lengths = np.tile(np.arange(1, J + 1), J)
    mu_cum2 = np.concatenate([[0.0], np.cumsum(np.tile(mu_ball, 2))])
    nu_cum2 = np.concatenate([[0.0], np.cumsum(np.tile(nu_ball, 2))])
    mu_arc = mu_cum2[starts + lengths] - mu_cum2[starts]
    nu_arc = nu_cum2[starts + lengths] - nu_cum2[starts]
    arc_lo = starts / J
    arc_hi = (starts + lengths) / J

    worst_per_s = []
    for s in s_grid:
        worst = float(np.max(mu_arc - circ_measure(ref_at, arc_lo - s,
                                                   arc_hi + s)))
        worst = max(worst, float(np.max(
            nu_arc - circ_measure(emp_at, arc_lo - s, arc_hi + s))))
        # positive-surplus union of balls (mu -> nu), enlarged intervals merged
        ball_lo = np.arange(J) / J - s
        ball_hi = (np.arange(J) + 1) / J + s
        surplus = mu_ball - circ_measure(ref_at, ball_lo, ball_hi)
        chosen = np.nonzero(surplus > 0)[0]
        if chosen.size:
            ivals = sorted((ball_lo[i], ball_hi[i]) for i in chosen)
            merged = [list(ivals[0])]
            for lo_i, hi_i in ivals[1:]:
                if lo_i <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi_i)
                else:
                    merged.append([lo_i, hi_i])
            nu_union = min(sum(float(circ_measure(ref_at, a, b))
                               for a, b in merged), 1.0)
            worst = max(worst, float(mu_ball[chosen].sum()) - nu_union)
        worst_per_s.append(worst)
    worst_per_s = np.array(worst_per_s)
    passing = np.nonzero(worst_per_s <= s_grid)[0]
    estimate = float(s_grid[passing[0]]) if passing.size else float(s_grid[-1])
    return LPReport(estimate=estimate, ball_radius=radius, ball_count=J)
