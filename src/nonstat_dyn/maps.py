"""Parameterized families of expanding circle maps, given by analytic pieces.

A family is described by analytic *pieces*: monotone lifts g_i on subintervals
of [0,1) whose mod-1 reduction is the map.  A realized instance is its
pieces.  An injective *branch* is a piece and an integer offset m: the points
where m <= lift < m + 1, mapped by lift - m, with its image read from the
lift's values at the piece's ends and its inverse solved on the whole piece.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .densities import EPS0

BISECT_TOL = 1e-13


def mod1(y):
    """y mod 1 as y - floor(y).

    For float64 this equals `y % 1.0` bit for bit: integers and -0.0 give
    +0.0, and a tiny negative such as -1e-17 gives 1.0 in both forms,
    since y + 1 rounds up. The difference is written over the floor, so an
    array costs one allocation, and it takes a fraction of the time of `%`.
    """
    floor = np.floor(y)
    return np.subtract(y, floor,
                       out=floor if isinstance(floor, np.ndarray) else None)


def circle_distance(x, y):
    d = np.abs(np.asarray(x, dtype=float) - y)
    return np.minimum(d, 1.0 - d)


class ExpansionError(ValueError):
    """A parameter outside the uniformly expanding range was requested."""


class InverseBranchError(RuntimeError):
    """The inverse-branch root finder failed to converge."""


@dataclass(frozen=True)
class Piece:
    """One analytic branch map: a strictly monotone lift on [lo, hi)."""

    lo: float
    hi: float
    lift: Callable
    dlift: Callable
    affine: Optional[tuple] = None   # (slope, intercept) when lift(x) = slope*x + intercept
    # (slope, shape) when lift(x) = slope*x + shape(x) with a gamma-free shape
    # shared by the family's instances; assembly evaluates it once per grid
    split: Optional[tuple] = None


@dataclass(frozen=True)
class MapFamily:
    """A parameterized collection {F_gamma} of piecewise monotone circle maps.

    `gamma_range` is the declared uniformly-expanding range; parameters in
    `structural_range` outside it can only be instantiated with the unsafe
    flag (used by the alternating-perturbation counterexample).
    `min_expansion(gamma)` is min |F_gamma'| in closed form, exact on the
    structural range; it decides uniform expansion.
    """

    name: str
    gamma_range: tuple
    pieces_for: Callable[[float], Sequence[Piece]]
    min_expansion: Callable[[float], float]
    holder_exponent: float = 1.0
    structural_range: Optional[tuple] = None

    def check_ball(self, gamma_hat: float, delta: float) -> None:
        """Raise ValueError unless [gamma_hat - |delta|, gamma_hat + |delta|]
        lies inside `gamma_range`, so no draw from the ball is out of range."""
        lo, hi = self.gamma_range
        ball = (float(gamma_hat - abs(delta)), float(gamma_hat + abs(delta)))
        if not (lo <= ball[0] and ball[1] <= hi):
            raise ValueError(
                f"the ball [{ball[0]!r}, {ball[1]!r}] is not inside "
                f"{self.name}'s parameter range [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class MapInstance:
    family: MapFamily
    gamma: float
    pieces: tuple

    def evaluate(self, x):
        """Vectorized map evaluation, values in [0, 1)."""
        x = np.asarray(x, dtype=float)
        if len(self.pieces) == 1:
            return mod1(self.pieces[0].lift(x))
        uppers = np.array([p.hi for p in self.pieces[:-1]])
        idx = np.searchsorted(uppers, x, side="right")
        out = np.empty_like(x)
        for k, p in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = p.lift(x[mask])
        return mod1(out)

    def contraction_factor(self) -> float:
        """sup over the domain of 1/|F'|; below one iff uniformly expanding."""
        return 1.0 / self.family.min_expansion(self.gamma)


# --- instantiation -------------------------------------------------------

def instantiate(family: MapFamily, gamma: float, unsafe: bool = False) -> MapInstance:
    """Realize F_gamma; rejects parameters outside the expanding range.

    With ``unsafe=True`` the expansion check is bypassed (the map must still
    be structurally valid, i.e. built of strictly monotone pieces).
    """
    structural = family.structural_range or family.gamma_range
    if not (structural[0] <= gamma <= structural[1]):
        raise ExpansionError(
            f"{family.name}: gamma={gamma} outside the structurally valid "
            f"range {structural}")
    in_range = family.gamma_range[0] <= gamma <= family.gamma_range[1]
    instance = MapInstance(family=family, gamma=gamma,
                           pieces=tuple(family.pieces_for(gamma)))
    if not unsafe:
        min_d = family.min_expansion(gamma)
        if min_d <= 1.0 or not in_range:
            raise ExpansionError(
                f"{family.name}: uniform expansion hypothesis violated at "
                f"gamma={gamma}: min |F'| = {min_d:.6g} "
                f"(declared expanding range {family.gamma_range})")
    return instance


# --- branches: a piece and an integer offset ---------------------------

def _solve_lift(piece: Piece, target: float) -> float:
    """Solve lift(x) = target on the whole monotone piece: exact for affine
    lifts and at a piece end the lift meets exactly, else bisection and a
    Newton polish. With no sign change (a root at an end, moved by
    round-off), the end of smaller residual is polished."""
    if piece.affine is not None:
        a, b = piece.affine
        return (target - b) / a
    lo, hi = piece.lo, piece.hi
    flo = float(piece.lift(np.float64(lo))) - target
    fhi = float(piece.lift(np.float64(hi))) - target
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo * fhi > 0:
        x = lo if abs(flo) <= abs(fhi) else hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = float(piece.lift(np.float64(mid))) - target
            if (fmid <= 0) == (flo <= 0):
                lo, flo = mid, fmid
            else:
                hi = mid
            if hi - lo < BISECT_TOL:
                break
        x = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish
        d = piece.dlift(x)
        if d == 0:
            break
        x = min(max(x - (piece.lift(x) - target) / d, piece.lo), piece.hi)
    return x


def _end_values(piece: Piece) -> tuple:
    """The lift's values at the piece's two ends."""
    return (float(piece.lift(np.float64(piece.lo))),
            float(piece.lift(np.float64(piece.hi))))


def _branches(piece: Piece):
    """The piece's branches in order of x: each is an integer offset m with
    the image [img_lo, img_hi] of lift - m on the points where
    m <= lift < m + 1, read from the lift's values at the piece's ends."""
    v0, v1 = _end_values(piece)
    a, b = min(v0, v1), max(v0, v1)
    offsets = range(math.floor(a), math.ceil(b))
    for m in (offsets if v0 <= v1 else reversed(offsets)):
        yield m, min(max(a - m, 0.0), 1.0), min(max(b - m, 0.0), 1.0)


def branch_preimages(instance: MapInstance, x: float) -> list:
    """All preimages of x with inverse Jacobians 1/|F'(y)|.

    Each returned y satisfies F(y) = x to within 1e-10; there is at most one
    per branch, and they come in order of y.
    """
    if not (0.0 <= x < 1.0):
        raise ValueError("query point must lie in [0, 1)")
    out = []
    for piece in instance.pieces:
        for m, img_lo, img_hi in _branches(piece):
            if not img_lo - 1e-12 <= x < img_hi - 1e-12:
                continue
            y = _solve_lift(piece, x + m)
            residual = abs(piece.lift(y) - m - x)
            if residual > 1e-10:
                raise InverseBranchError(
                    f"offset {m} on [{piece.lo}, {piece.hi}): inverse solve "
                    f"residual {residual:.3e} at x={x}")
            out.append((float(y), 1.0 / abs(float(piece.dlift(np.float64(y))))))
    return out


# --- built-in families ---------------------------------------------------

DOUBLING_RANGE = (-0.9, 2.0)
INTERMITTENT_RANGE = (1e-6, 1.0)   # pm and lsv: f'(0) = 1 + gamma > 1
CIRCLE_RANGE = (-0.95, 0.95)


def doubling_family() -> MapFamily:
    """Linear full-branch family f_gamma(x) = (2+gamma) x mod 1."""
    def pieces_for(gamma):
        a = 2.0 + gamma
        return [Piece(0.0, 1.0, lambda x, a=a: a * x,
                      lambda x, a=a: np.full_like(np.asarray(x, dtype=float), a),
                      affine=(a, 0.0))]
    return MapFamily(name="doubling", gamma_range=DOUBLING_RANGE,
                     pieces_for=pieces_for,
                     min_expansion=lambda gamma: abs(2.0 + gamma),
                     holder_exponent=1.0)


# The gamma-free parts of the intermittent lifts: one function per kappa, so a
# family made again shares the values assembly has cached for the last one.
# Each writes its result over its one temporary (a product of two floats is
# the same in either order), so the cached values cost no second array.

@functools.lru_cache(maxsize=8)
def _pm_shape(kappa: float) -> Callable:
    if kappa != 0.5:
        return lambda x: np.power(x, 1.0 + kappa)

    def shape(x):   # x * sqrt(x)
        out = np.sqrt(x)
        out *= x
        return out
    return shape


@functools.lru_cache(maxsize=8)
def _lsv_shape(kappa: float) -> Callable:
    scale = 2.0 ** kappa

    def shape(x):   # scale * x^(1 + kappa)
        out = np.power(x, 1.0 + kappa)
        out *= scale
        return out
    return shape


def pm_family(kappa: float = 0.5) -> MapFamily:
    """Perturbed intermittent-type circle maps f_gamma(x) = x + x^(1+kappa) + gamma x mod 1.

    Uniformly expanding only for gamma > 0 (f'(0) = 1 + gamma); negative
    gamma is reachable through the unsafe flag only.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")

    shape = _pm_shape(kappa)

    def pieces_for(gamma):
        c = 1.0 + gamma

        def lift(x, c=c):
            x = np.asarray(x, dtype=float)
            return c * x + shape(x)

        def dlift(x, c=c):
            x = np.asarray(x, dtype=float)
            return c + (1.0 + kappa) * np.power(x, kappa)
        return [Piece(0.0, 1.0, lift, dlift, split=(c, shape))]

    return MapFamily(name=f"pm(kappa={kappa})",
                     gamma_range=INTERMITTENT_RANGE,
                     pieces_for=pieces_for,
                     min_expansion=lambda gamma: 1.0 + gamma,   # f'(0)
                     holder_exponent=kappa,
                     structural_range=(-0.99, INTERMITTENT_RANGE[1]))


def lsv_family(kappa: float = 0.5) -> MapFamily:
    """Two-piece intermittent-type circle maps.

    Left piece x(1 + 2^kappa x^kappa) + gamma x on [0, 1/2), right piece
    2x - 1 + gamma x on [1/2, 1); the mod-1 map is continuous on the circle.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    scale = 2.0 ** kappa
    shape = _lsv_shape(kappa)

    def pieces_for(gamma):
        c = 1.0 + gamma

        def lift_l(x, c=c):
            x = np.asarray(x, dtype=float)
            return c * x + shape(x)

        def dlift_l(x, c=c):
            x = np.asarray(x, dtype=float)
            return c + scale * (1.0 + kappa) * np.power(x, kappa)

        a = 2.0 + gamma
        return [
            Piece(0.0, 0.5, lift_l, dlift_l, split=(c, shape)),
            Piece(0.5, 1.0, lambda x, a=a: a * x - 1.0,
                  lambda x, a=a: np.full_like(np.asarray(x, dtype=float), a),
                  affine=(a, -1.0)),
        ]

    return MapFamily(name=f"lsv(kappa={kappa})",
                     gamma_range=INTERMITTENT_RANGE,
                     pieces_for=pieces_for,
                     min_expansion=lambda gamma: 1.0 + gamma,   # f'(0)
                     holder_exponent=kappa,
                     structural_range=(-0.99, INTERMITTENT_RANGE[1]))


def breakpoint_family(b0: float = 0.4) -> MapFamily:
    """Two full affine branches with a moving breakpoint b0 + gamma.

    Exercises the domain-overlap continuity of branch partitions: moving
    the breakpoint by d changes both domains by measure d.
    """
    margin = 0.05
    lo = -(b0 - margin)
    hi = (1.0 - margin) - b0

    def pieces_for(gamma):
        b = b0 + gamma
        a1 = 1.0 / b
        a2 = 1.0 / (1.0 - b)
        return [
            Piece(0.0, b, lambda x, a=a1: a * x,
                  lambda x, a=a1: np.full_like(np.asarray(x, dtype=float), a),
                  affine=(a1, 0.0)),
            Piece(b, 1.0, lambda x, a=a2, b=b: a * (x - b),
                  lambda x, a=a2: np.full_like(np.asarray(x, dtype=float), a),
                  affine=(a2, -a2 * b)),
        ]

    def min_expansion(gamma):
        b = b0 + gamma
        return min(1.0 / b, 1.0 / (1.0 - b))

    return MapFamily(name=f"breakpoint(b0={b0})", gamma_range=(lo, hi),
                     pieces_for=pieces_for, min_expansion=min_expansion,
                     holder_exponent=1.0)


def tent_family() -> MapFamily:
    """Tent maps with slope 2 +/- gamma on the rising edge (gamma=0: classic tent)."""
    def pieces_for(gamma):
        a = 2.0 + gamma
        top = 0.5 * a  # value at the peak x=1/2
        return [
            Piece(0.0, 0.5, lambda x, a=a: a * x,
                  lambda x, a=a: np.full_like(np.asarray(x, dtype=float), a),
                  affine=(a, 0.0)),
            Piece(0.5, 1.0, lambda x, t=top: t - (2.0 * t) * (x - 0.5),
                  lambda x, t=top: np.full_like(np.asarray(x, dtype=float), -2.0 * t),
                  affine=(-2.0 * top, 2.0 * top)),
        ]
    return MapFamily(name="tent", gamma_range=(-0.5, 0.5), pieces_for=pieces_for,
                     min_expansion=lambda gamma: abs(2.0 + gamma),
                     holder_exponent=1.0)


def circle_family() -> MapFamily:
    """Smooth degree-2 expanding circle maps f_gamma(x) = 2x + gamma sin(2 pi x)/(2 pi).

    Node map of the coupled-network experiments; derivative 2 + gamma cos(2 pi x)
    stays above 2 - |gamma| > 1.
    """
    two_pi = 2.0 * np.pi

    def pieces_for(gamma):
        def lift(x, g=gamma):
            x = np.asarray(x, dtype=float)
            return 2.0 * x + g * np.sin(two_pi * x) / two_pi

        def dlift(x, g=gamma):
            x = np.asarray(x, dtype=float)
            return 2.0 + g * np.cos(two_pi * x)
        return [Piece(0.0, 1.0, lift, dlift)]

    return MapFamily(name="circle", gamma_range=CIRCLE_RANGE,
                     pieces_for=pieces_for,
                     min_expansion=lambda gamma: 2.0 - abs(gamma),
                     holder_exponent=1.0)


BUILTIN_FAMILIES = {
    "doubling": doubling_family,
    "pm": pm_family,
    "lsv": lsv_family,
    "breakpoint": breakpoint_family,
    "tent": tent_family,
    "circle": circle_family,
}


def family_by_name(name: str, **kwargs) -> MapFamily:
    if name not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {sorted(BUILTIN_FAMILIES)}")
    return BUILTIN_FAMILIES[name](**kwargs)


# --- family validation ---------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Empirical continuity / regularity diagnostics for a parameter pair."""

    c1_distance: float
    domain_symdiff: float
    distortion_c: float
    s_gamma: tuple
    piece_count: int


def _interval_symdiff(a: tuple, b: tuple) -> float:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    overlap = max(0.0, hi - lo)
    return (a[1] - a[0]) + (b[1] - b[0]) - 2.0 * overlap


def _distortion_estimate(instance: MapInstance, alpha: float, n_z: int = 64) -> float:
    """Holder constant of the inverse Jacobian along branch images (empirical)."""
    eps = EPS0 / 2.0
    worst = 0.0
    for piece in instance.pieces:
        for m, img_lo, img_hi in _branches(piece):
            if img_hi - img_lo < 4.0 * eps:
                continue
            for z in np.linspace(img_lo + eps, img_hi - eps, n_z):
                ys = [_solve_lift(piece, w + m)
                      for w in (z - eps / 2, z, z + eps / 2)]
                jacs = [1.0 / abs(float(piece.dlift(np.float64(y)))) for y in ys]
                num = max(jacs) - min(jacs)
                worst = max(worst, num / (jacs[1] * eps ** alpha))
    return worst


def validate_family(family: MapFamily, gamma1: float, gamma2: float,
                    grid: int = 2048) -> ValidationReport:
    """Estimate C1 distance between matching pieces, the measure of the
    symmetric differences of their domains, the Holder distortion constant,
    and the contraction factors of both instances."""
    inst1 = instantiate(family, gamma1)
    inst2 = instantiate(family, gamma2)
    if len(inst1.pieces) != len(inst2.pieces):
        raise ValueError(
            f"piece count mismatch: {len(inst1.pieces)} vs {len(inst2.pieces)} "
            "(the branch count is fixed across the parameter range)")
    c1 = 0.0
    symdiff = 0.0
    for p1, p2 in zip(inst1.pieces, inst2.pieces):
        lo = max(p1.lo, p2.lo)
        hi = min(p1.hi, p2.hi)
        if hi > lo:
            xs = np.linspace(lo, hi, grid, endpoint=False)
            c1 = max(c1, float(np.max(np.abs(p1.lift(xs) - p2.lift(xs)))),
                     float(np.max(np.abs(p1.dlift(xs) - p2.dlift(xs)))))
        symdiff += _interval_symdiff((p1.lo, p1.hi), (p2.lo, p2.hi))
    alpha = min(family.holder_exponent, 1.0)
    distortion = max(_distortion_estimate(inst1, alpha),
                     _distortion_estimate(inst2, alpha))
    s_pair = (inst1.contraction_factor(), inst2.contraction_factor())
    return ValidationReport(c1_distance=c1, domain_symdiff=symdiff,
                            distortion_c=distortion, s_gamma=s_pair,
                            piece_count=len(inst1.pieces))


# --- boundary complexity -------------------------------------------------

@dataclass(frozen=True)
class BoundaryProfile:
    """Estimated boundary-complexity profile G(eps) and the contraction-vs-
    complexity expression sup_d [s^alpha + 2 sup_{eps<=d} (G(eps)/eps^alpha) d^alpha]."""

    eps_values: np.ndarray
    g_values: np.ndarray
    s: float
    alpha: float
    expression: float
    ok: bool


def boundary_complexity(instance: MapInstance, eps_list: Sequence[float],
                        alpha: Optional[float] = None, fine: int = 16384,
                        periodic: bool = False) -> BoundaryProfile:
    """Estimate G(eps) = sup_x of the local boundary-mass ratio on a fine grid.

    For each branch, the boundary of the branch image is its two endpoints;
    with ``periodic=True`` a branch whose image covers the whole circle
    contributes nothing (endpoints identified away).  The ratio compares the
    preimage of an eps-neighborhood of the image boundary against the ball
    B_{(1-s)eps}(x), with the ball centered at the ratio's base point.
    """
    if len(eps_list) == 0:
        raise ValueError("eps_list must be nonempty")
    eps_arr = np.sort(np.asarray(eps_list, dtype=float))
    if np.any(eps_arr <= 0) or np.any(eps_arr > EPS0 + 1e-12):
        raise ValueError(f"eps values must lie in (0, EPS0={EPS0}]")
    s = instance.contraction_factor()
    if alpha is None:
        alpha = min(instance.family.holder_exponent, 1.0)
    z = (np.arange(fine) + 0.5) / fine
    from scipy.ndimage import uniform_filter1d

    # each grid point's distance from the image ends of its branch: offset
    # m = floor(lift(z)), forward value lift(z) - m in [0, 1)
    dmin = np.full(fine, np.inf)
    for piece in instance.pieces:
        a, b = sorted(_end_values(piece))
        mask = (z >= piece.lo) & (z < piece.hi)
        lift = piece.lift(z[mask])
        m = np.floor(lift)
        img_lo = np.clip(a - m, 0.0, 1.0)
        img_hi = np.clip(b - m, 0.0, 1.0)
        fz = lift - m
        d = np.minimum(circle_distance(fz, mod1(img_lo)),
                       circle_distance(fz, mod1(img_hi)))
        if periodic:
            d[img_hi - img_lo >= 1.0 - 1e-9] = np.inf
        dmin[mask] = d

    g_values = []
    for eps in eps_arr:
        window = 2.0 * max(1.0 - s, 1e-9) * eps
        w_cells = max(int(round(window * fine)), 1)
        if window * fine < 2.0:
            raise ValueError(
                f"eps={eps} unresolvable at fine={fine}; increase `fine`")
        indic = (dmin < eps).astype(float)
        counts = uniform_filter1d(indic, size=w_cells, mode="wrap") * w_cells
        g_values.append(float(counts.max()) / (window * fine))
    g_values = np.array(g_values)

    ratios = g_values / eps_arr ** alpha
    best = 0.0
    for j, delta in enumerate(eps_arr):
        inner = float(np.max(ratios[: j + 1]))
        best = max(best, s ** alpha + 2.0 * inner * delta ** alpha)
    return BoundaryProfile(eps_values=eps_arr, g_values=g_values, s=s,
                           alpha=alpha, expression=best, ok=best < 1.0)
