"""Perturbation-sequence generation and nonautonomous density-evolution experiments."""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .densities import (DEFAULT_EPS0, GridDensity, l1_distance,
                        quasi_holder_seminorm, seminorms)
from .maps import MapFamily, instantiate
from .seeding import substream
from .transfer import (AveragingLaw, averaged_operator, build_ulam,
                       fixed_density, operator_cache, step_blocks)


@dataclass(frozen=True)
class ParameterSequence:
    """Reproducible generator of gamma_1, gamma_2, ...

    kinds: 'constant' (gamma_hat forever), 'iid' (uniform in the delta-ball
    around gamma_hat, seeded), 'adversarial' (+eps / -eps blocks switching
    at the k-schedule), 'explicit' (a fixed list).
    """

    kind: str
    gamma_hat: float = 0.0
    delta: float = 0.0
    seed: int = 0
    eps: float = 0.0
    k_schedule: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "iid", "adversarial", "explicit"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "adversarial":
            ks = tuple(int(k) for k in self.k_schedule)
            if len(ks) < 2 or ks[0] != 0 or any(b <= a for a, b in zip(ks, ks[1:])):
                raise ValueError(
                    "adversarial k-schedule must start at 0 and be strictly increasing")
            object.__setattr__(self, "k_schedule", ks)

    @staticmethod
    def constant(gamma_hat: float) -> "ParameterSequence":
        return ParameterSequence(kind="constant", gamma_hat=gamma_hat)

    @staticmethod
    def iid(gamma_hat: float, delta: float, seed: int) -> "ParameterSequence":
        return ParameterSequence(kind="iid", gamma_hat=gamma_hat,
                                 delta=delta, seed=seed)

    @staticmethod
    def adversarial(eps: float, k_schedule) -> "ParameterSequence":
        return ParameterSequence(kind="adversarial", eps=eps,
                                 k_schedule=tuple(k_schedule))

    @staticmethod
    def explicit(values) -> "ParameterSequence":
        return ParameterSequence(kind="explicit",
                                 values=tuple(float(v) for v in values))


def gen_sequence(spec: ParameterSequence, n: int) -> np.ndarray:
    """Materialize the first n parameters of the sequence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if spec.kind == "constant":
        return np.full(n, spec.gamma_hat)
    if spec.kind == "iid":
        rng = substream(spec.seed, "parameter-sequence")
        return rng.uniform(spec.gamma_hat - spec.delta,
                           spec.gamma_hat + spec.delta, n)
    if spec.kind == "explicit":
        if n > len(spec.values):
            raise ValueError(f"explicit sequence has only {len(spec.values)} values")
        return np.array(spec.values[:n])
    ks = spec.k_schedule
    if n > ks[-1]:
        raise ValueError(
            f"adversarial schedule ends at k={ks[-1]} < n={n}; extend the schedule")
    out = np.empty(n)
    for j in range(len(ks) - 1):
        lo, hi = ks[j], min(ks[j + 1], n)
        if lo >= n:
            break
        out[lo:hi] = spec.eps if j % 2 == 0 else -spec.eps
    return out


def doubling_gap_schedule(first_gap: int, n_max: int) -> tuple:
    """k-schedule with gaps doubling (k_{i+1} - k_i = 2 (k_i - k_{i-1}))
    extended until it covers n_max."""
    if first_gap < 1:
        raise ValueError("first_gap must be positive")
    ks = [0, first_gap]
    gap = first_gap
    while ks[-1] < n_max:
        gap *= 2
        ks.append(ks[-1] + gap)
    return tuple(ks)


# --- density evolution ----------------------------------------------------

@dataclass(frozen=True)
class EvolutionTrace:
    steps: np.ndarray            # checkpoint indices (0 = initial state)
    masses: np.ndarray
    distances: Optional[np.ndarray]      # L1 distance to the reference, per checkpoint
    seminorms: Optional[np.ndarray]
    final: GridDensity


def _as_gammas(seq, n: int) -> np.ndarray:
    if isinstance(seq, ParameterSequence):
        return gen_sequence(seq, n)
    arr = np.asarray(seq, dtype=float)
    if arr.size < n:
        raise ValueError(f"sequence of length {arr.size} shorter than n={n}")
    return arr[:n]


def evolve_density(family: MapFamily, seq, phi0: GridDensity, n: int,
                   checkpoint_every: int = 50,
                   reference: Optional[GridDensity] = None,
                   track_seminorm: bool = False, alpha: Optional[float] = None,
                   eps0: float = DEFAULT_EPS0,
                   quadrature: int = 32) -> EvolutionTrace:
    """Push phi0 through L_{gamma_n} ... L_{gamma_1}, recording mass, distance
    to a reference density, and (optionally) the oscillation seminorm at
    checkpoints."""
    gammas = _as_gammas(seq, n)
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")
    if alpha is None:
        alpha = min(family.holder_exponent, 1.0)
    operator = operator_cache(family, phi0.n_cells, quadrature)
    steps, masses, dists, semis = [[0]], [[phi0.mass]], [], []
    if reference is not None:
        dists.append([float(np.mean(np.abs(phi0.values - reference.values)))])
    if track_seminorm:
        semis.append([quasi_holder_seminorm(phi0, alpha, eps0).seminorm])
    last, k = phi0.values, 0
    for rows in step_blocks(map(operator, map(float, gammas)), phi0.values):
        last = rows[-1]
        ks = np.arange(k + 1, k + 1 + len(rows))
        k += len(rows)
        keep = (ks % checkpoint_every == 0) | (ks == n)
        picked = rows[keep]
        steps.append(ks[keep])
        masses.append(picked.mean(axis=1))
        if reference is not None:
            dists.append(np.abs(picked - reference.values).mean(axis=1))
        if track_seminorm and len(picked):
            semis.append(seminorms(np.clip(picked, 0.0, None), alpha, eps0))
    return EvolutionTrace(
        steps=np.concatenate(steps), masses=np.concatenate(masses),
        distances=np.concatenate(dists) if reference is not None else None,
        seminorms=np.concatenate(semis) if track_seminorm else None,
        final=GridDensity._trusted(np.clip(last, 0.0, None)))


def post_transient_worst(distances: np.ndarray) -> tuple:
    """(index of the end of the transient, worst distance after it).

    The transient ends at the first checkpoint whose distance is within 10%
    of the global minimum over the horizon; the worst is taken over strictly
    later checkpoints (or the last one if none are later).
    """
    d = np.asarray(distances, dtype=float)
    floor = d.min()
    n_bar = int(np.argmax(d <= 1.1 * floor + 1e-15))
    tail = d[n_bar + 1:]
    worst = float(tail.max()) if tail.size else float(d[-1])
    return n_bar, worst


@dataclass(frozen=True)
class StabilityRow:
    delta: float
    worst_post_transient: float
    stationary_distance: float
    n_sequences: int


@dataclass(frozen=True)
class StabilityTable:
    gamma_hat: float
    rows: tuple
    n_steps: int
    n_cells: int


def stability_experiment(family: MapFamily, gamma_hat: float,
                         delta_list: Sequence[float], phi0: GridDensity,
                         n: int, n_seqs: int, seed: int,
                         checkpoint_every: int = 50, quadrature: int = 32,
                         stationary_nodes: int = 64) -> StabilityTable:
    """Worst post-transient deviation over random sequences per delta, plus
    the stationary-density deviation of the uniform averaged operator."""
    deltas = list(delta_list)
    if any(d < 0 for d in deltas):
        raise ValueError("deltas must be nonnegative")
    ref_op = build_ulam(instantiate(family, gamma_hat), phi0.n_cells, quadrature)
    phi_hat = fixed_density(ref_op)
    rows = []
    for delta in deltas:
        worst = 0.0
        for s in range(n_seqs):
            child = substream(seed, "stability", repr(delta), s)
            gammas = child.uniform(gamma_hat - delta, gamma_hat + delta, n)
            lo, hi = family.gamma_range
            gammas = np.clip(gammas, lo, hi)
            trace = evolve_density(family, gammas, phi0, n,
                                   checkpoint_every=checkpoint_every,
                                   reference=phi_hat, quadrature=quadrature)
            _, w = post_transient_worst(trace.distances)
            worst = max(worst, w)
        if delta == 0:
            stat_dist = l1_distance(phi_hat, phi_hat)
        else:
            nu = AveragingLaw(center=gamma_hat, radius=delta, law="uniform",
                              n_samples=stationary_nodes)
            op_nu = averaged_operator(family, nu, phi0.n_cells, quadrature)
            stat_dist = l1_distance(fixed_density(op_nu), phi_hat)
        rows.append(StabilityRow(delta=delta, worst_post_transient=worst,
                                 stationary_distance=stat_dist,
                                 n_sequences=n_seqs))
    return StabilityTable(gamma_hat=gamma_hat, rows=tuple(rows), n_steps=n,
                          n_cells=phi0.n_cells)


# --- the alternating-perturbation counterexample ---------------------------

@dataclass(frozen=True)
class AdversarialRun:
    steps: np.ndarray            # 1..n
    mass_low: np.ndarray         # mass in [0, w) after each step
    dist_plus: np.ndarray        # L1 distance to the +eps fixed density
    block_ends: tuple            # (step, '+'|'-') for completed blocks
    w: float
    phi_plus: GridDensity
    reached_concentration: bool  # some -eps block end with mass_low > 0.9
    reached_return: bool         # some +eps block end with dist_plus < 0.1


def _mass_below(rows: np.ndarray, w: float) -> np.ndarray:
    """Mass in [0, w) of each row of a block of densities."""
    n = rows.shape[-1]
    full = int(np.floor(w * n))
    mass = rows[:, :full].sum(axis=1) / n
    frac = w * n - full
    if full < n and frac > 0:
        mass += rows[:, full] * frac / n
    return mass


def adversarial_demo(family: MapFamily, eps: float, k_schedule,
                     phi0: Optional[GridDensity] = None, n_max: int = 10000,
                     n_cells: int = 1024, w: float = 0.05,
                     quadrature: int = 32) -> AdversarialRun:
    """Evolve Lebesgue mass under the alternating +eps / -eps composition.

    The -eps segments use the unsafe instantiation (the map has an attracting
    fixed point at 0, so mass drains toward it); +eps segments are uniformly
    expanding and pull mass back toward the +eps invariant density.
    """
    spec = ParameterSequence.adversarial(eps, k_schedule)
    ks = spec.k_schedule
    if ks[-1] < n_max:
        raise ValueError("schedule too short for n_max; extend the k-schedule")
    n_blocks_done = sum(1 for k in ks[1:] if k <= n_max)
    if n_blocks_done < 2:
        warnings.warn("schedule completes fewer than two blocks before n_max; "
                      "both regimes may not be exhibited")
    if phi0 is None:
        phi0 = GridDensity.uniform(n_cells)
    phi_plus = fixed_density(build_ulam(instantiate(family, eps),
                                        phi0.n_cells, quadrature))
    operator = operator_cache(family, phi0.n_cells, quadrature, unsafe=True)
    # one operator per block of the schedule, repeated lazily: no array of
    # n_max parameters
    ops = itertools.chain.from_iterable(
        itertools.repeat(operator(eps if j % 2 == 0 else -eps),
                         min(hi, n_max) - lo)
        for j, (lo, hi) in enumerate(zip(ks, ks[1:])) if lo < n_max)
    mass_low = np.empty(n_max)
    dist_plus = np.empty(n_max)
    k = 0
    for rows in step_blocks(ops, phi0.values):
        mass_low[k:k + len(rows)] = _mass_below(rows, w)
        dist_plus[k:k + len(rows)] = np.abs(rows - phi_plus.values).mean(axis=1)
        k += len(rows)
    block_ends = tuple((k, "+" if j % 2 == 0 else "-")
                       for j, k in enumerate(ks[1:]) if k <= n_max)
    reached_conc = any(kind == "-" and mass_low[k - 1] > 0.9
                       for k, kind in block_ends)
    reached_ret = any(kind == "+" and dist_plus[k - 1] < 0.1
                      for k, kind in block_ends)
    return AdversarialRun(steps=np.arange(1, n_max + 1), mass_low=mass_low,
                          dist_plus=dist_plus, block_ends=block_ends, w=w,
                          phi_plus=phi_plus,
                          reached_concentration=reached_conc,
                          reached_return=reached_ret)
