"""Parameterized families of expanding circle maps, given by analytic pieces.

A family is described by analytic *pieces*: monotone lifts g_i on subintervals
of [0,1) whose mod-1 reduction is the map.  A realized instance is its
pieces; `instantiate` realizes one only where the family's closed-form
`min_expansion` exceeds one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


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


#: Width of the uniform noise added to every orbit and network state after
#: each step.  x -> 2x is exact in float64, so without it every doubling
#: orbit (gamma = 0, uncoupled) reaches 0 within ~53 steps.
DITHER = 1e-12


class ExpansionError(ValueError):
    """A parameter outside the uniformly expanding range was requested."""


@dataclass(frozen=True)
class Piece:
    """One analytic branch map: a strictly monotone lift on [lo, hi)."""

    lo: float
    hi: float
    lift: Callable
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


# --- built-in families ---------------------------------------------------

DOUBLING_RANGE = (-0.9, 2.0)
INTERMITTENT_RANGE = (1e-6, 1.0)   # pm and lsv: f'(0) = 1 + gamma > 1
CIRCLE_RANGE = (-0.95, 0.95)


def doubling_family() -> MapFamily:
    """Linear full-branch family f_gamma(x) = (2+gamma) x mod 1."""
    def pieces_for(gamma):
        a = 2.0 + gamma
        return [Piece(0.0, 1.0, lambda x, a=a: a * x)]
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
        return [Piece(0.0, 1.0, lift, split=(c, shape))]

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
    shape = _lsv_shape(kappa)

    def pieces_for(gamma):
        c = 1.0 + gamma

        def lift_l(x, c=c):
            x = np.asarray(x, dtype=float)
            return c * x + shape(x)

        a = 2.0 + gamma
        return [
            Piece(0.0, 0.5, lift_l, split=(c, shape)),
            Piece(0.5, 1.0, lambda x, a=a: a * x - 1.0),
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
    if not margin <= b0 <= 1.0 - margin:
        raise ValueError(f"b0 must lie in [{margin}, {1.0 - margin}], got {b0}")
    lo = -(b0 - margin)
    hi = (1.0 - margin) - b0

    def pieces_for(gamma):
        b = b0 + gamma
        a1 = 1.0 / b
        a2 = 1.0 / (1.0 - b)
        return [
            Piece(0.0, b, lambda x, a=a1: a * x),
            Piece(b, 1.0, lambda x, a=a2, b=b: a * (x - b)),
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
            Piece(0.0, 0.5, lambda x, a=a: a * x),
            Piece(0.5, 1.0, lambda x, t=top: t - (2.0 * t) * (x - 0.5)),
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
        return [Piece(0.0, 1.0, lift)]

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
