"""Parameterized families of expanding circle maps with explicit branch structure.

A family is described by analytic *pieces*: monotone lifts g_i on subintervals
of [0,1) whose mod-1 reduction is the map.  A realized instance is its
pieces; on first use of `MapInstance.branches` each piece is cut at the
integer crossings of its lift into injective *branches* with known image
intervals, exact or root-solved inverses, and derivatives.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

BISECT_TOL = 1e-13
MIN_BRANCH_WIDTH = 1e-12


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


@dataclass(frozen=True)
class BranchSpec:
    """Maximal subinterval of a piece on which the mod-1 map is injective."""

    piece: Piece
    lo: float
    hi: float
    offset: int
    increasing: bool
    img_lo: float
    img_hi: float

    def forward(self, x):
        return self.piece.lift(x) - self.offset

    def deriv(self, x):
        return self.piece.dlift(x)

    def covers(self, y: float) -> bool:
        return self.img_lo - 1e-12 <= y < self.img_hi - 1e-12

    def inverse(self, y: float) -> float:
        """Solve forward(x) = y on [lo, hi]; exact for affine lifts."""
        target = y + self.offset
        x = _solve_lift(self.piece, target, self.lo, self.hi)
        if self.piece.affine is not None:
            return x
        for _ in range(3):  # Newton polish
            d = self.piece.dlift(x)
            if d == 0:
                break
            x = min(max(x - (self.piece.lift(x) - target) / d, self.lo), self.hi)
        return x


@dataclass(frozen=True)
class MapFamily:
    """A parameterized collection {F_gamma} of piecewise monotone circle maps.

    `gamma_range` is the declared uniformly-expanding range; parameters in
    `structural_range` outside it can only be instantiated with the unsafe
    flag (used by the alternating-perturbation counterexample).
    """

    name: str
    gamma_range: tuple
    pieces_for: Callable[[float], Sequence[Piece]]
    holder_exponent: float = 1.0
    eps0: float = 0.05
    structural_range: Optional[tuple] = None


@dataclass(frozen=True)
class MapInstance:
    family: MapFamily
    gamma: float
    pieces: tuple
    unsafe: bool = False

    @functools.cached_property
    def branches(self) -> tuple:
        """Injective branches, cut from the pieces on first access."""
        return _cut_branches(self.pieces)

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

    def min_abs_derivative(self, n_grid: int = 4096) -> float:
        best = np.inf
        for p in self.pieces:
            xs = np.linspace(p.lo, p.hi, n_grid, endpoint=False)
            best = min(best, float(np.min(np.abs(p.dlift(xs)))))
        return best

    def contraction_factor(self, n_grid: int = 4096) -> float:
        """sup over the domain of 1/|F'|; below one iff uniformly expanding."""
        return 1.0 / self.min_abs_derivative(n_grid)


# --- instantiation -------------------------------------------------------

def _integer_crossings(piece: Piece) -> list:
    """Sorted points in (lo, hi) where the lift crosses an integer."""
    glo = float(piece.lift(np.float64(piece.lo)))
    ghi = float(piece.lift(np.float64(piece.hi)))
    a, b = (glo, ghi) if glo <= ghi else (ghi, glo)
    cuts = []
    m = math.floor(a) + 1
    while m < b - 1e-12:
        if m > a + 1e-12:
            cuts.append(_solve_lift(piece, float(m), piece.lo, piece.hi))
        m += 1
    return sorted(cuts)


def _solve_lift(piece: Piece, target: float, lo: float, hi: float) -> float:
    """Solve lift(x) = target on [lo, hi]: exact for affine lifts, else bisection.

    When lift - target has the same sign at both ends (a root at an end,
    displaced by round-off), the end with the smaller residual is returned.
    """
    if piece.affine is not None:
        a, b = piece.affine
        return (target - b) / a
    flo = float(piece.lift(np.float64(lo))) - target
    fhi = float(piece.lift(np.float64(hi))) - target
    if flo * fhi > 0:
        return lo if abs(flo) <= abs(fhi) else hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = float(piece.lift(np.float64(mid))) - target
        if (fmid <= 0) == (flo <= 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < BISECT_TOL:
            break
    return 0.5 * (lo + hi)


def _cut_branches(pieces: Sequence[Piece]) -> tuple:
    branches = []
    for piece in pieces:
        cuts = [piece.lo] + _integer_crossings(piece) + [piece.hi]
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            if c1 - c0 < MIN_BRANCH_WIDTH:
                continue
            v0 = float(piece.lift(np.float64(c0)))
            v1 = float(piece.lift(np.float64(c1)))
            mid = float(piece.lift(np.float64(0.5 * (c0 + c1))))
            offset = math.floor(mid)
            lo_v, hi_v = (v0, v1) if v0 <= v1 else (v1, v0)
            img_lo = min(max(lo_v - offset, 0.0), 1.0)
            img_hi = min(max(hi_v - offset, 0.0), 1.0)
            branches.append(BranchSpec(
                piece=piece, lo=c0, hi=c1, offset=offset,
                increasing=v1 >= v0, img_lo=img_lo, img_hi=img_hi))
    return tuple(branches)


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
    pieces = tuple(family.pieces_for(gamma))
    instance = MapInstance(family=family, gamma=gamma, pieces=pieces,
                           unsafe=unsafe and not in_range)
    if not unsafe:
        min_d = instance.min_abs_derivative()
        if min_d <= 1.0 or not in_range:
            raise ExpansionError(
                f"{family.name}: uniform expansion hypothesis violated at "
                f"gamma={gamma}: min |F'| = {min_d:.6g} "
                f"(declared expanding range {family.gamma_range})")
    return instance


def branch_preimages(instance: MapInstance, x: float) -> list:
    """All preimages of x with inverse Jacobians 1/|F'(y)|.

    Each returned y satisfies F(y) = x to within 1e-10; the count is at
    most the number of branches.
    """
    if not (0.0 <= x < 1.0):
        raise ValueError("query point must lie in [0, 1)")
    out = []
    for idx, br in enumerate(instance.branches):
        if not br.covers(x):
            continue
        y = br.inverse(x)
        residual = abs(br.forward(y) - x)
        if residual > 1e-10:
            raise InverseBranchError(
                f"branch {idx}: inverse solve residual {residual:.3e} at x={x}")
        jac_inv = 1.0 / abs(float(br.deriv(np.float64(y))))
        out.append((float(y), jac_inv))
    return out


# --- built-in families ---------------------------------------------------

def doubling_family(gamma_lo: float = -0.9, gamma_hi: float = 2.0) -> MapFamily:
    """Linear full-branch family f_gamma(x) = (2+gamma) x mod 1."""
    def pieces_for(gamma):
        a = 2.0 + gamma
        return [Piece(0.0, 1.0, lambda x, a=a: a * x,
                      lambda x, a=a: np.full_like(np.asarray(x, dtype=float), a),
                      affine=(a, 0.0))]
    return MapFamily(name="doubling", gamma_range=(gamma_lo, gamma_hi),
                     pieces_for=pieces_for, holder_exponent=1.0)


def pm_family(kappa: float = 0.5, gamma_min: float = 1e-6,
              gamma_max: float = 1.0) -> MapFamily:
    """Perturbed intermittent-type circle maps f_gamma(x) = x + x^(1+kappa) + gamma x mod 1.

    Uniformly expanding only for gamma > 0 (f'(0) = 1 + gamma); negative
    gamma is reachable through the unsafe flag only.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")

    def pieces_for(gamma):
        c = 1.0 + gamma
        if kappa == 0.5:
            def lift(x, c=c):
                x = np.asarray(x, dtype=float)
                return c * x + x * np.sqrt(x)
        else:
            def lift(x, c=c):
                x = np.asarray(x, dtype=float)
                return c * x + np.power(x, 1.0 + kappa)

        def dlift(x, c=c):
            x = np.asarray(x, dtype=float)
            return c + (1.0 + kappa) * np.power(x, kappa)
        return [Piece(0.0, 1.0, lift, dlift)]

    return MapFamily(name=f"pm(kappa={kappa})",
                     gamma_range=(gamma_min, gamma_max),
                     pieces_for=pieces_for, holder_exponent=kappa,
                     structural_range=(-0.99, gamma_max))


def lsv_family(kappa: float = 0.5, gamma_min: float = 1e-6,
               gamma_max: float = 1.0) -> MapFamily:
    """Two-piece intermittent-type circle maps.

    Left piece x(1 + 2^kappa x^kappa) + gamma x on [0, 1/2), right piece
    2x - 1 + gamma x on [1/2, 1); the mod-1 map is continuous on the circle.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    scale = 2.0 ** kappa

    def pieces_for(gamma):
        c = 1.0 + gamma

        def lift_l(x, c=c):
            x = np.asarray(x, dtype=float)
            return c * x + scale * np.power(x, 1.0 + kappa)

        def dlift_l(x, c=c):
            x = np.asarray(x, dtype=float)
            return c + scale * (1.0 + kappa) * np.power(x, kappa)

        a = 2.0 + gamma
        return [
            Piece(0.0, 0.5, lift_l, dlift_l),
            Piece(0.5, 1.0, lambda x, a=a: a * x - 1.0,
                  lambda x, a=a: np.full_like(np.asarray(x, dtype=float), a),
                  affine=(a, -1.0)),
        ]

    return MapFamily(name=f"lsv(kappa={kappa})",
                     gamma_range=(gamma_min, gamma_max),
                     pieces_for=pieces_for, holder_exponent=kappa,
                     structural_range=(-0.99, gamma_max))


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

    return MapFamily(name=f"breakpoint(b0={b0})", gamma_range=(lo, hi),
                     pieces_for=pieces_for, holder_exponent=1.0)


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
                     holder_exponent=1.0)


def circle_family(gamma_abs_max: float = 0.95) -> MapFamily:
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

    return MapFamily(name="circle", gamma_range=(-gamma_abs_max, gamma_abs_max),
                     pieces_for=pieces_for, holder_exponent=1.0)


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
    eps = instance.family.eps0 / 2.0
    worst = 0.0
    for br in instance.branches:
        width = br.img_hi - br.img_lo
        if width < 4.0 * eps:
            continue
        zs = np.linspace(br.img_lo + eps, br.img_hi - eps, n_z)
        for z in zs:
            ys = [br.inverse(z - eps / 2), br.inverse(z), br.inverse(z + eps / 2)]
            jacs = [1.0 / abs(float(br.deriv(np.float64(y)))) for y in ys]
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
    s_pair = (inst1.contraction_factor(grid), inst2.contraction_factor(grid))
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
    if np.any(eps_arr <= 0) or np.any(eps_arr > instance.family.eps0 + 1e-12):
        raise ValueError(f"eps values must lie in (0, eps0={instance.family.eps0}]")
    s = instance.contraction_factor()
    if alpha is None:
        alpha = min(instance.family.holder_exponent, 1.0)
    z = (np.arange(fine) + 0.5) / fine
    from scipy.ndimage import uniform_filter1d

    g_values = []
    for eps in eps_arr:
        window = 2.0 * max(1.0 - s, 1e-9) * eps
        w_cells = max(int(round(window * fine)), 1)
        if window * fine < 2.0:
            raise ValueError(
                f"eps={eps} unresolvable at fine={fine}; increase `fine`")
        indic = np.zeros(fine)
        for br in instance.branches:
            if periodic and (br.img_hi - br.img_lo) >= 1.0 - 1e-9:
                continue
            mask = (z >= br.lo) & (z < br.hi)
            if not np.any(mask):
                continue
            fz = br.forward(z[mask])
            dmin = np.minimum(circle_distance(fz, br.img_lo % 1.0),
                              circle_distance(fz, br.img_hi % 1.0))
            vals = np.zeros(fine)
            vals[mask] = (dmin < eps).astype(float)
            indic += vals
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
