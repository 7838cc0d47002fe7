"""Cones of positive densities, the projective metric, and contraction probes."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import GridDensity
from .seeding import substream
from .transfer import UlamOperator

PROPORTIONAL_TOL = 1e-12
GATHER_BLOCK = 1 << 15   # cell pairs per gathered block: 256 KiB per array


@dataclass(frozen=True)
class ConeParams:
    """Cone of positive functions whose logarithm is locally nu-Holder with
    constant a at scales below rho0; lam is the expected image-cone shrink."""

    a: float
    nu: float
    rho0: float
    lam: float = 0.75
    kind: str = "holder"   # "holder" for C(a, nu), "positive" for the positive cone

    def __post_init__(self):
        if self.kind == "holder":
            if self.a <= 0:
                raise ValueError("a must be positive")
            if not (0.0 < self.nu <= 1.0):
                raise ValueError("nu must lie in (0, 1]")
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lam must lie in (0, 1)")


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    positive: bool
    a_min: float     # smallest constant a' with phi in C(a', nu)


@dataclass(frozen=True)
class HilbertDistanceReport:
    alpha_val: float
    beta_val: float
    theta: float
    finite: bool


def _offsets(n: int, rho0: float, circle: bool, strict: bool) -> np.ndarray:
    if circle:
        k_max = min(int(np.floor(rho0 * n + 1e-12)), n // 2)
    else:
        k_max = min(int(np.floor(rho0 * n + 1e-12)), n - 1)
    if strict and k_max >= 1 and abs(k_max / n - rho0) < 1e-15:
        k_max -= 1
    return np.arange(1, k_max + 1)


def _partner_blocks(n: int, shifts: np.ndarray, circle: bool):
    """Blocks of at most GATHER_BLOCK pairs (x, y = x + shift cells), one
    row per shift: yields (rows, partner, valid) with partner[r, i] the
    cell paired with cell i. On the circle partners wrap and valid is
    None. On the interval partners past an end are clipped to it and
    valid marks the pairs inside [0, n); callers drop the rest, so the
    pairs are exactly those of one slice per offset."""
    cells = np.arange(n)
    step = max(1, GATHER_BLOCK // n)
    for lo in range(0, len(shifts), step):
        rows = slice(lo, lo + step)
        partner = cells + shifts[rows, None]
        if circle:
            yield rows, np.remainder(partner, n, out=partner), None
        else:
            valid = (partner >= 0) & (partner < n)
            yield rows, np.clip(partner, 0, n - 1, out=partner), valid


def log_holder_constant(phi: GridDensity, nu: float, rho0: float) -> float:
    """Smallest a with log phi locally (nu, a)-Holder at scales <= rho0."""
    if np.any(phi.values <= 0):
        return np.inf
    logs = np.log(phi.values)
    n = phi.n_cells
    ks = _offsets(n, rho0, phi.circle, strict=False)
    # scalar powers, one per offset: an array power may round differently
    scale = np.array([(min(k / n, 1.0 - k / n) if phi.circle else k / n) ** nu
                      for k in ks])
    worst = 0.0
    for rows, partner, valid in _partner_blocks(n, ks, phi.circle):
        gaps = np.abs(logs - logs[partner])
        if valid is not None:
            gaps[~valid] = 0.0
        worst = max(worst, np.max(gaps.max(axis=1) / scale[rows]))
    return worst


def cone_membership(phi: GridDensity, cone: ConeParams) -> MembershipReport:
    """Check membership in the cone and report the minimal Holder constant."""
    positive = bool(np.all(phi.values > 0))
    if cone.kind == "positive":
        return MembershipReport(member=positive, positive=positive,
                                a_min=0.0 if positive else np.inf)
    if not positive:
        return MembershipReport(member=False, positive=False, a_min=np.inf)
    a_min = log_holder_constant(phi, cone.nu, cone.rho0)
    return MembershipReport(member=a_min <= cone.a, positive=True, a_min=a_min)


def theta_plus(phi1: GridDensity, phi2: GridDensity) -> HilbertDistanceReport:
    """Projective distance in the positive cone: log of the ratio spread."""
    if np.any(phi1.values <= 0) or np.any(phi2.values <= 0):
        raise ValueError("theta_plus needs strictly positive inputs")
    ratios = phi2.values / phi1.values
    alpha = float(ratios.min())
    beta = float(ratios.max())
    theta = float(np.log(beta / alpha))
    return HilbertDistanceReport(alpha_val=alpha, beta_val=beta,
                                 theta=theta, finite=True)


def _holder_alpha(phi1: GridDensity, phi2: GridDensity, cone: ConeParams) -> float:
    """inf over pointwise ratios and the two-point Holder ratios (may be <= 0)."""
    v1, v2 = phi1.values, phi2.values
    n = phi1.n_cells
    alpha = float(np.min(v2 / v1))
    # scalar exp and power, one per offset: array ones may round differently
    ks, factors = [], []
    for k in _offsets(n, cone.rho0, phi1.circle, strict=True):
        d = min(k / n, 1.0 - k / n) if phi1.circle else k / n
        if 0 < d < cone.rho0:
            ks.append(int(k))
            factors.append(np.exp(cone.a * d ** cone.nu))
    # every offset in both directions: y = x + k and y = x - k cells
    shifts = np.array(ks + [-k for k in ks], dtype=np.int64)
    factors = np.array(factors + factors)
    for rows, partner, valid in _partner_blocks(n, shifts, phi1.circle):
        e = factors[rows, None]
        den = e * v1 - v1[partner]
        num = e * v2 - v2[partner]
        # vanishing denominators with positive numerators give +inf ratios
        # and never bind the infimum; negative numerators there mean phi2
        # leaves the cone, i.e. alpha <= 0
        mask = den > PROPORTIONAL_TOL
        bad = ~mask & (num < -PROPORTIONAL_TOL)
        if valid is not None:
            mask &= valid
            bad &= valid
        if np.any(bad):
            return 0.0
        if np.any(mask):
            alpha = min(alpha, float(np.min(num[mask] / den[mask])))
    return alpha


def theta_holder(phi1: GridDensity, phi2: GridDensity,
                 cone: ConeParams) -> HilbertDistanceReport:
    """Projective distance in the log-Holder cone.

    alpha is the infimum of pointwise and two-point ratios; beta is obtained
    from the swap relation beta(v1, v2) = 1/alpha(v2, v1).  A nonpositive
    alpha yields an infinite distance, reported as non-finite.
    """
    for phi in (phi1, phi2):
        if np.any(phi.values <= 0):
            raise ValueError("cone members must be strictly positive")
    alpha = _holder_alpha(phi1, phi2, cone)
    alpha_swapped = _holder_alpha(phi2, phi1, cone)
    if alpha <= 0 or alpha_swapped <= 0:
        return HilbertDistanceReport(alpha_val=max(alpha, 0.0),
                                     beta_val=np.inf, theta=np.inf, finite=False)
    beta = 1.0 / alpha_swapped
    return HilbertDistanceReport(alpha_val=alpha, beta_val=beta,
                                 theta=float(np.log(beta / alpha)), finite=True)


# --- random cone members --------------------------------------------------

def _midpoint_displacement(n: int, nu: float, rng: np.random.Generator) -> np.ndarray:
    """Periodic nu-Holder-ish field by midpoint displacement, resampled to n cells."""
    m = 4
    g = rng.uniform(-1.0, 1.0, m)
    while m < 2 * n:
        spacing = 1.0 / m
        mids = 0.5 * (g + np.roll(g, -1)) + rng.uniform(-1.0, 1.0, m) * spacing ** nu
        out = np.empty(2 * m)
        out[0::2] = g
        out[1::2] = mids
        g = out
        m *= 2
    centers = (np.arange(n) + 0.5) / n
    pos = centers * m
    idx = np.floor(pos).astype(int) % m
    frac = pos - np.floor(pos)
    return (1.0 - frac) * g[idx] + frac * g[(idx + 1) % m]


def sample_cone_density(n_cells: int, cone: ConeParams, rng: np.random.Generator,
                        fill: float = 0.9) -> GridDensity:
    """Random member of C(a, nu): exp of a rough field rescaled so the
    measured log-Holder constant is `fill * a` (membership by construction)."""
    g = _midpoint_displacement(n_cells, cone.nu, rng)
    g = g - g.mean()
    phi = GridDensity(np.exp(g))
    a_raw = log_holder_constant(phi, cone.nu, cone.rho0)
    if a_raw > 0:
        g = g * (fill * cone.a / a_raw)
    vals = np.exp(g)
    return GridDensity(vals / vals.mean())


# --- operator-level probes -------------------------------------------------

@dataclass(frozen=True)
class ConeImageReport:
    passed: bool
    worst_a_min: float
    target: float        # lam * a * (1 + slack)
    n_samples: int
    failures: int


def cone_image_check(op: UlamOperator, cone: ConeParams, samples: int = 100,
                     seed: int = 0, grid_slack: float = 0.05) -> ConeImageReport:
    """Push random cone members through the operator and verify the images
    lie in the shrunken cone C(lam * a, nu), up to grid slack."""
    rng = substream(seed, "cone-image")
    target = cone.lam * cone.a * (1.0 + grid_slack)
    worst = 0.0
    failures = 0
    for _ in range(samples):
        phi = sample_cone_density(op.n_cells, cone, rng)
        image = op.apply(phi)
        if np.any(image.values <= 0):
            a_img = np.inf
        else:
            a_img = log_holder_constant(image, cone.nu, cone.rho0)
        worst = max(worst, a_img)
        if a_img > target:
            failures += 1
    return ConeImageReport(passed=failures == 0, worst_a_min=worst,
                           target=target, n_samples=samples, failures=failures)


@dataclass(frozen=True)
class ContractionReport:
    q_hat: float
    diameter_hat: float
    bound_ok: bool
    per_operator_q: tuple
    n_pairs: int


def contraction_and_diameter(ops: Sequence[UlamOperator], cone: ConeParams,
                             pairs: int = 100, seed: int = 0,
                             tolerance: float = 0.05) -> ContractionReport:
    """Sampled contraction ratio of the projective metric and sampled image
    diameter, with the q <= 1 - exp(-D) consistency check.

    The same sampled pairs are pushed through every operator, so the spread
    of the per-operator ratios reflects operator differences rather than
    sampling noise. The first pair compares a sample with the uniform
    density."""
    rng = substream(seed, "cone-contraction")
    n = ops[0].n_cells
    pair_list = []
    for p in range(pairs):
        phi1 = sample_cone_density(n, cone, rng)
        if p == 0:
            phi2 = GridDensity.uniform(n)
        else:
            phi2 = sample_cone_density(n, cone, rng)
        before = theta_holder(phi1, phi2, cone)
        if before.finite and before.theta >= PROPORTIONAL_TOL:
            pair_list.append((phi1, phi2, before.theta))
    per_op = []
    diameter = 0.0
    used = 0
    for op in ops:
        worst_ratio = 0.0
        for phi1, phi2, theta_in in pair_list:
            after = theta_holder(op.apply(phi1), op.apply(phi2), cone)
            if not after.finite:
                continue
            used += 1
            diameter = max(diameter, after.theta)
            worst_ratio = max(worst_ratio, after.theta / theta_in)
        per_op.append(worst_ratio)
    if used == 0:
        raise ValueError("no valid pairs: all sampled pairs were proportional")
    q_hat = max(per_op)
    bound_ok = q_hat <= 1.0 - np.exp(-diameter) + tolerance
    return ContractionReport(q_hat=q_hat, diameter_hat=diameter,
                             bound_ok=bool(bound_ok), per_operator_q=tuple(per_op),
                             n_pairs=pairs)
