"""Coupled expanding maps on a directed network with time-varying adjacency."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .maps import MapInstance, mod1
from .seeding import substream
from .transfer import build_ulam, fixed_density

TWO_PI = 2.0 * np.pi
TILE_VALUES = 1 << 14   # state values per stepped tile: 128 KiB per temporary


def diffusive_coupling(xj, xi):
    """sin-coupling h(x_j, x_i) = sin(2 pi (x_j - x_i)) / (2 pi); Lipschitz 1."""
    return np.sin(TWO_PI * (xj - xi)) / TWO_PI


@dataclass(frozen=True)
class AdjacencySchedule:
    """Precomputed stream of 0/1 adjacency matrices with zero diagonal."""

    n_nodes: int
    matrices: np.ndarray   # (horizon, n, n) uint8

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=np.uint8)
        if mats.ndim != 3 or mats.shape[1] != self.n_nodes or mats.shape[2] != self.n_nodes:
            raise ValueError("matrices must have shape (horizon, n, n)")
        if np.any(mats > 1):
            raise ValueError("adjacency entries must be 0 or 1")
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


def _diffusive_sum(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Rows of sum_j A_ij sin(2 pi (x_j - x_i)) / (2 pi).

    The sine is expanded so the pairwise sum becomes two node-space matmuls
    instead of an (ensemble, n, n) tensor. The in-place steps evaluate
    (c * (s @ A.T) - s * (c @ A.T)) / TWO_PI in that order, with
    s, c = sin, cos(2 pi x)."""
    c = TWO_PI * x
    s = np.sin(c)
    np.cos(c, out=c)
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
                      n_bins: int = 64, checkpoint_every: Optional[int] = None,
                      dither: float = 1e-12) -> NetworkSummary:
    """Evolve an iid-uniform ensemble and compare per-node marginals against
    the uncoupled invariant density at every checkpoint.

    The ensemble's two row halves are stepped on two threads, each calling
    `step_network` on its own rows, one tile of at most `TILE_VALUES`
    values at a time."""
    if ensemble < 1:
        raise ValueError("ensemble must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if checkpoint_every is None:
        checkpoint_every = max(n_steps // 20, 1)
    elif checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")
    if not dither >= 0:
        raise ValueError("dither must be nonnegative")
    if schedule.n_nodes != system.n_nodes:
        raise ValueError("schedule and system disagree on the node count")
    rng_init = substream(seed, "network-init")
    x = rng_init.uniform(0.0, 1.0, (ensemble, system.n_nodes))
    rng = substream(seed, "network-dither")
    invariant = fixed_density(build_ulam(system.node_map, n_bins))
    checkpoints, counts, dists = [], [], []

    def record(t, x):
        cnt = np.empty((system.n_nodes, n_bins), dtype=np.int64)
        dst = np.empty(system.n_nodes)
        for i in range(system.n_nodes):
            cnt[i] = np.bincount(np.minimum((x[:, i] * n_bins).astype(int),
                                            n_bins - 1), minlength=n_bins)
            marginal = cnt[i] * (n_bins / ensemble)
            dst[i] = float(np.mean(np.abs(marginal - invariant.values)))
        checkpoints.append(t)
        counts.append(cnt)
        dists.append(dst)

    # the dither is drawn into two buffers in turn, not a fresh array every
    # step: the same stream as rng.uniform(-dither / 2, dither / 2, x.shape)
    buffers = [np.empty_like(x), np.empty_like(x)] if dither > 0 else None

    def draw(t):
        noise = buffers[t % 2]
        rng.random(out=noise)
        noise *= dither
        noise -= 0.5 * dither
        return noise

    # Rows are independent, so the two row halves advance on two threads
    # (the target machine has two cores), each writing its own rows back;
    # every row sees a one-thread step's float operations, so its bits.
    # A half is stepped in tiles whose temporaries stay in cache and are
    # small enough for the allocator to reuse, not map afresh every step;
    # each tile is dithered and wrapped mod 1 while it is still in cache.
    half = ensemble // 2
    tile = max(TILE_VALUES // system.n_nodes, 1)

    def advance(lo, hi, t, noise):
        for start in range(lo, hi, tile):
            rows = slice(start, min(start + tile, hi))
            stepped = step_network(system, x[rows], t, schedule)
            if noise is None:
                x[rows] = stepped
            else:
                stepped += noise[rows]
                x[rows] = mod1(stepped)

    noise = draw(0) if buffers else None
    with ThreadPoolExecutor(max_workers=1) as worker:
        for t in range(n_steps):
            upper = worker.submit(advance, half, ensemble, t, noise)
            # the next step's dither is drawn while the worker steps
            ahead = draw(t + 1) if buffers and t + 1 < n_steps else None
            advance(0, half, t, noise)
            upper.result()
            noise = ahead
            if (t + 1) % checkpoint_every == 0 or t + 1 == n_steps:
                record(t + 1, x)
    counts = np.array(counts)
    dists = np.array(dists)
    return NetworkSummary(checkpoints=np.array(checkpoints), counts=counts,
                          distances=dists, max_distance=dists.max(axis=1),
                          noise_floor=histogram_noise_floor(ensemble, n_bins),
                          n_bins=n_bins)
