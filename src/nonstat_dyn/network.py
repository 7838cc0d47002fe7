"""Coupled expanding maps on a directed network with time-varying adjacency."""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import maps
from .maps import MapInstance, mod1
from .seeding import substream
from .transfer import _can_fork, _fork_helper, _reap, build_ulam, fixed_density

TWO_PI = 2.0 * np.pi
#: State values per stepped tile, 64 KiB per temporary: with the trig
#: grouped, 2^12 and 2^14 tiles still lost `cli` `wall_s` (+8%, +5% in the
#: median of 8 pairs).
TILE_VALUES = 1 << 13
#: Rows x nodes x steps above which `simulate_ensemble` forks a helper: the
#: fork and its pipe cost what one process takes for 2-4 x 10^5 (pm, 4
#: nodes, median of 9 runs: 9.7 ms forked against 8.6 ms alone at 192,000,
#: 15.1 against 16.6 ms at 400,000, on a host where a fork took ~4 ms). No
#: benchmark workload runs near it, so it was left at 2^17.
FORK_MIN_VALUES = 1 << 17


def diffusive_coupling(xj, xi):
    """sin-coupling h(x_j, x_i) = sin(2 pi (x_j - x_i)) / (2 pi); Lipschitz 1."""
    return np.sin(TWO_PI * (xj - xi)) / TWO_PI


@dataclass(frozen=True)
class AdjacencySchedule:
    """Precomputed stream of 0/1 adjacency matrices with zero diagonal."""

    n_nodes: int
    matrices: np.ndarray   # (horizon, n, n) uint8

    def __post_init__(self):
        given = np.asarray(self.matrices)
        if given.ndim != 3 or given.shape[1] != self.n_nodes or given.shape[2] != self.n_nodes:
            raise ValueError("matrices must have shape (horizon, n, n)")
        # checked before the cast, which would turn 0.5 into 0 and 257 into 1
        if not np.all((given == 0) | (given == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        mats = np.asarray(given, dtype=np.uint8)
        if np.any(mats[:, np.arange(self.n_nodes), np.arange(self.n_nodes)] != 0):
            raise ValueError("adjacency diagonal must be zero")
        object.__setattr__(self, "matrices", mats)

    @property
    def horizon(self) -> int:
        return self.matrices.shape[0]

    def matrix_at(self, t: int) -> np.ndarray:
        if t >= self.horizon:
            raise IndexError(f"schedule horizon {self.horizon} exceeded at t={t}")
        return self.matrices[t]

    def mean_failure_run_length(self) -> float:
        """Mean length of contiguous absent-edge runs over the horizon
        (edges absent for the entire horizon are ignored)."""
        n = self.n_nodes
        present = self.matrices.reshape(self.horizon, n * n).astype(bool)
        absent = ~present[:, present.any(axis=0) & ~present.all(axis=0)]
        # a run starts at an absent step that is the first or follows a
        # present one
        runs = (np.count_nonzero(absent[:1])
                + np.count_nonzero(absent[1:] & ~absent[:-1]))
        return float(np.count_nonzero(absent) / runs) if runs else 0.0


def _complete(n: int) -> np.ndarray:
    return (np.ones((n, n)) - np.eye(n)).astype(np.uint8)


def gen_schedule(kind: str, n_nodes: int, horizon: int, seed: int = 0,
                 p: float = 0.9, fail_rate: float = 0.05,
                 period: int = 2) -> AdjacencySchedule:
    """Adjacency schedules: 'static', 'periodic-failure' (the edge (0, 1)
    present one step in every `period`) or 'bursty' (edges fail
    independently and stay failed for geometric runs with persistence p).
    A given stream of matrices is an `AdjacencySchedule` made directly.
    Every parameter is checked for every kind, read or not."""
    if n_nodes < 2:
        raise ValueError("n_nodes must be at least 2")
    if not (0.0 < p < 1.0):
        raise ValueError("persistence p must lie in (0, 1)")
    if not (0.0 <= fail_rate < 1.0):
        raise ValueError("fail_rate must lie in [0, 1)")
    if period < 2:
        raise ValueError("period must be at least 2")
    base_mat = _complete(n_nodes)
    if kind == "static":
        mats = np.repeat(base_mat[None, :, :], horizon, axis=0)
    elif kind == "periodic-failure":
        mats = np.repeat(base_mat[None, :, :], horizon, axis=0)
        mats[np.arange(horizon) % period != 0, 0, 1] = 0
    elif kind == "bursty":
        rng = substream(seed, "bursty-schedule")
        mats = np.empty((horizon, n_nodes, n_nodes), dtype=np.uint8)
        state = base_mat.copy().astype(bool)   # True = edge working
        offdiag = base_mat.astype(bool)
        for t in range(horizon):
            u = rng.random((n_nodes, n_nodes))
            fail_now = state & offdiag & (u < fail_rate)
            recover = (~state) & offdiag & (u >= p)
            state = (state & ~fail_now) | recover
            mats[t] = (state & offdiag).astype(np.uint8)
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    return AdjacencySchedule(n_nodes=n_nodes, matrices=mats)


@dataclass(frozen=True)
class NetworkSystem:
    """Identical expanding node maps with diffusive pairwise coupling
    (`diffusive_coupling`, Lipschitz 1) of strength alpha_c; alpha_c = 0
    leaves the nodes uncoupled. Construction enforces the per-node expansion
    budget min |f'| - |alpha_c| * (n_nodes - 1) > 1, the degree of the
    complete graph bounding every schedule's in-degree."""

    node_map: MapInstance
    n_nodes: int
    alpha_c: float

    def __post_init__(self):
        min_deriv = self.node_map.family.min_expansion(self.node_map.gamma)
        budget = min_deriv - abs(self.alpha_c) * (self.n_nodes - 1)
        if budget <= 1.0:
            raise ValueError(
                f"coupling too strong: min |f'| - |alpha_c| * degree "
                f"= {budget:.4g} <= 1; reduce alpha_c")


def _grouped_sin_cos(c: np.ndarray) -> np.ndarray:
    """sin(c), with the C-contiguous `c` overwritten by cos(c).

    glibc's `sin` and `cos` branch on the argument's range. Fresh chaotic
    states come in random order, so those branches miss about half the
    time, which doubles the cost of the trig (145 against 61 us for 8192
    fresh values). So both are taken over the arguments grouped by one
    byte of their exponent and top mantissa bits, an integer key that
    raises no warning on NaN or inf, and put back in their places: each
    value is the one `np.sin(c)` and `np.cos(c)` give, bit for bit."""
    flat = c.reshape(-1)
    order = np.argsort((flat.view(np.uint64) >> 47).astype(np.uint8),
                       kind="stable")
    grouped = flat[order]
    sin_grouped = np.sin(grouped)
    flat[order] = np.cos(grouped, out=grouped)
    grouped[order] = sin_grouped    # reused: four tile-sized arrays at most
    return grouped.reshape(c.shape)


def _diffusive_sum(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Rows of sum_j A_ij sin(2 pi (x_j - x_i)) / (2 pi).

    The sine is expanded so the pairwise sum becomes two node-space matmuls
    instead of an (ensemble, n, n) tensor. The in-place steps evaluate
    (c * (s @ A.T) - s * (c @ A.T)) / TWO_PI in that order, with
    s, c = sin, cos(2 pi x), taken in an order grouped by the argument's
    range (`_grouped_sin_cos`) so that glibc's branches predict."""
    c = np.multiply(TWO_PI, x, order="C")
    s = _grouped_sin_cos(c)
    total = s @ A.T
    total *= c
    cos_sum = c @ A.T
    cos_sum *= s
    total -= cos_sum
    total /= TWO_PI
    return total


def step_network(system: NetworkSystem, state: np.ndarray, t: int,
                 schedule: AdjacencySchedule) -> np.ndarray:
    """One synchronous update x_i <- f(x_i) + alpha_c sum_j A_ij(t) h(x_j, x_i), mod 1.

    `state` has shape (n_nodes,) or (ensemble, n_nodes)."""
    x = np.atleast_2d(np.asarray(state, dtype=float))
    coupled = system.alpha_c != 0.0
    if coupled:
        # summed before f(x) is evaluated, so that at most five
        # ensemble-sized arrays are alive at once
        coupling = _diffusive_sum(x, schedule.matrix_at(t).astype(float))
        coupling *= system.alpha_c
    fx = system.node_map.evaluate(x.ravel()).reshape(x.shape)
    if coupled:
        fx += coupling
    out = mod1(fx)
    return out if np.asarray(state).ndim == 2 else out[0]


@dataclass(frozen=True)
class NetworkSummary:
    checkpoints: np.ndarray
    counts: np.ndarray             # (n_checkpoints, n_nodes, n_bins) histogram counts
    distances: np.ndarray          # (n_checkpoints, n_nodes) L1 to the invariant density
    max_distance: np.ndarray       # per checkpoint, max over nodes
    noise_floor: float             # expected L1 of a size-E multinomial sample
    n_bins: int


def histogram_noise_floor(ensemble: int, n_bins: int) -> float:
    """Expected L1 distance of an iid uniform sample's histogram density
    from uniform (normal approximation)."""
    return float(np.sqrt(2.0 * n_bins / (np.pi * ensemble)))


def simulate_ensemble(system: NetworkSystem, schedule: AdjacencySchedule,
                      ensemble: int, n_steps: int, seed: int = 0,
                      n_bins: int = 64,
                      checkpoint_every: Optional[int] = None) -> NetworkSummary:
    """Evolve an iid-uniform ensemble and compare per-node marginals against
    the uncoupled invariant density at every checkpoint.

    Rows are independent, so where rows x nodes x steps exceeds
    FORK_MIN_VALUES and `transfer._can_fork` finds a second CPU usable, a
    forked helper process steps the upper half of the rows while this
    process steps the lower half; the helper sends its rows' histogram
    counts at every checkpoint through a pipe, and they are added to this
    process's own, exactly.  Each side runs `_walk_rows`, so every row gets
    the float operations, and the dither, of a one-process run: the bits
    do not depend on the split.  If the helper stops early, its rows are
    stepped here from their initial states instead, with the same result.
    Otherwise this process steps every row itself."""
    if ensemble < 1:
        raise ValueError("ensemble must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if checkpoint_every is None:
        checkpoint_every = max(n_steps // 20, 1)
    elif checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")
    if schedule.n_nodes != system.n_nodes:
        raise ValueError("schedule and system disagree on the node count")
    if schedule.horizon < n_steps:
        raise ValueError(f"schedule horizon {schedule.horizon} is shorter "
                         f"than n_steps {n_steps}")
    rng_init = substream(seed, "network-init")
    x = rng_init.uniform(0.0, 1.0, (ensemble, system.n_nodes))
    invariant = fixed_density(build_ulam(system.node_map, n_bins))
    checkpoints = [t for t in range(1, n_steps + 1)
                   if t % checkpoint_every == 0 or t == n_steps]
    walk = functools.partial(_walk_rows, system, schedule, x, checkpoints,
                             seed, n_bins)
    half = ensemble // 2
    helper = None    # (pid, pipe) of the helper stepping rows [half, ensemble)
    if (half and ensemble * system.n_nodes * n_steps > FORK_MIN_VALUES
            and _can_fork()):
        helper = _fork_helper(functools.partial(_send_counts,
                                                walk(half, ensemble)))
    upper = None     # the upper rows' counts, if stepped here
    counts = []
    try:
        for index, cnt in enumerate(walk(0, half if helper else ensemble)):
            if helper is not None:
                part = _read_counts(helper[1], cnt.shape)
                if part is None:
                    # the helper stopped; this process's copy of its rows
                    # still holds their initial states, so they are stepped
                    # here from the start, past the checkpoints read already
                    _reap(helper)
                    helper = None
                    upper = itertools.islice(walk(half, ensemble), index,
                                             None)
                else:
                    cnt += part
            if upper is not None:
                cnt += next(upper)
            counts.append(cnt)
    finally:
        if helper is not None:
            _reap(helper)
    counts = np.array(counts)
    dists = np.array([[float(np.mean(np.abs(c * (n_bins / ensemble)
                                            - invariant.values)))
                       for c in cnt] for cnt in counts])
    return NetworkSummary(checkpoints=np.array(checkpoints), counts=counts,
                          distances=dists, max_distance=dists.max(axis=1),
                          noise_floor=histogram_noise_floor(ensemble, n_bins),
                          n_bins=n_bins)


def _walk_rows(system, schedule, x, checkpoints, seed, n_bins, lo, hi):
    """Step rows [lo, hi) of the ensemble `x` in place up to the last of the
    ascending `checkpoints`, yielding their (n_nodes, n_bins) int64
    histogram counts after each checkpoint step.

    The dither of a step is these rows' share of one full-shape draw of
    `substream(seed, "network-dither")`: the stream is advanced past the
    rows before and after them, and their values are drawn into a buffer
    with `rng.random(out=...)`, scaled and shifted in place, the same
    values as `rng.uniform(-DITHER / 2, DITHER / 2, x.shape)[lo:hi]` (with
    `maps.DITHER`), bit for bit.  The rows are stepped in tiles whose
    temporaries stay in cache and are small enough for the allocator to
    reuse, not map afresh every step; each tile is dithered and wrapped
    mod 1 while it is still in cache."""
    ensemble, n_nodes = x.shape
    own = x[lo:hi]
    rng = substream(seed, "network-dither")
    dither = maps.DITHER
    noise = np.empty_like(own)
    tile = max(TILE_VALUES // n_nodes, 1)
    marks = set(checkpoints)
    for t in range(checkpoints[-1]):
        rng.bit_generator.advance(lo * n_nodes)
        rng.random(out=noise)
        noise *= dither
        noise -= 0.5 * dither
        rng.bit_generator.advance((ensemble - hi) * n_nodes)
        for start in range(0, hi - lo, tile):
            rows = slice(start, start + tile)
            stepped = step_network(system, own[rows], t, schedule)
            stepped += noise[rows]
            own[rows] = mod1(stepped)
        if t + 1 in marks:
            cnt = np.empty((n_nodes, n_bins), dtype=np.int64)
            for i in range(n_nodes):
                cnt[i] = np.bincount(
                    np.minimum((own[:, i] * n_bins).astype(int), n_bins - 1),
                    minlength=n_bins)
            yield cnt


def _send_counts(walk, pipe) -> None:
    """The helper of `simulate_ensemble`: write the raw bytes of each
    checkpoint's counts from `walk` to `pipe` as they come."""
    for cnt in walk:
        pipe.write(cnt)
        pipe.flush()


def _read_counts(pipe, shape) -> Optional[np.ndarray]:
    """The next checkpoint's counts on `pipe`, or None if they come up
    short."""
    cnt = np.empty(shape, dtype=np.int64)
    return cnt if pipe.readinto(cnt) == cnt.nbytes else None
