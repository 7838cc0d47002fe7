"""Discretized transfer operators: construction, composition, averaging,
fixed densities, and empirical operator inequalities."""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _helpers
from .densities import (GridDensity, GridMismatchError, l1_norm,
                        quasi_holder_seminorm, seminorms)
from .maps import MapFamily, MapInstance, instantiate
from .seeding import substream

#: Gamma-free lift parts whose chord-node values assembly keeps: one per
#: (shape, grid, piece), ~130 KiB each at 512 cells and quadrature 32.  It
#: also bounds the chord grids kept, one per grid size.
SHAPE_CACHE_SIZE = 8

#: Densities per block of `step_blocks`: 128 KiB of rows at 1024 cells.
#: At 8, 16, 32, 64, 128 and 512 rows the adversarial demo (pm, 1024 cells,
#: 10^4 steps) took 39.5, 37.0, 33.8, 35.5, 38.4 and 43.7 ms, and
#: `evolve_density` with a seminorm after each of 2000 steps 285, 301, 321,
#: 330, 380 and 386 ms (median of 5-7 runs, 2-core VM): 16 is near the best
#: of both.
STEP_BLOCK = 16

#: Chord nodes per call when assembly evaluates a piece's lift itself: 64
#: KiB per temporary, under glibc's default 128 KiB mmap threshold, so a
#: build maps no fresh pages for them (`network.TILE_VALUES` is 2^13 for the
#: same reason).  A lift is elementwise, so the chunks give its bits.
CHORD_CHUNK = 1 << 13

#: The run at which `ulam_operators` first asks for a build helper, then at
#: its doubles: streams of 64 iid pm runs lost with a helper from run 1 (in
#: 10 and 7 of 10 pairs at 512 and 1024 cells), and of 128 won 2 and 10.
FIRST_HELPER_RUN = 64

MAX_POWER_STEPS = 20000    # products before `fixed_density` gives up


def _load_sparsetools():
    """scipy's compiled sparse routines, loaded from their extension file
    alone.  `import scipy.sparse` would also load scipy's array-API stack,
    ~22 MiB of RSS and ~0.15 s per process for a few C loops; this file
    alone adds ~0.14 MiB.  A process that has imported scipy.sparse already
    gets its module.  A module lacking one of the four routines the
    package calls raises `ImportError` naming it, not an `AttributeError`
    at first use."""
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        # find_spec of a top-level package does not import it
        scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(scipy_dir, "sparse", "_sparsetools" + suffix)
            if os.path.exists(path):
                break
        else:
            raise ImportError(f"no compiled {name} under {scipy_dir}")
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
    missing = [f for f in ("csr_matvec", "coo_tocsr", "csr_sum_duplicates",
                           "csr_plus_csr") if not hasattr(module, f)]
    if missing:
        from importlib.metadata import version
        raise ImportError(f"{name} of scipy {version('scipy')} lacks "
                          f"{', '.join(missing)}")
    return module


# scipy's compiled CSR routines, the C loops that `csr_array @ vector`,
# `coo_array.tocsr()`, `sum_duplicates()` and `csr_array + csr_array` end
# in: called straight they give the same bits without scipy.sparse or its
# Python dispatch.  Private, but with these signatures in every
# scipy >= 1.10.
_sparsetools = _load_sparsetools()
csr_matvec = _sparsetools.csr_matvec


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""


def _on_grid(values: np.ndarray, n_cells: int) -> np.ndarray:
    """`values` as the float64, C-contiguous (n_cells,) vector a product
    reads: another dtype or layout is converted once, and a vector on
    another grid raises `GridMismatchError`."""
    if values.shape != (n_cells,):
        raise GridMismatchError(
            f"grid mismatch: operator {n_cells}, density of shape {values.shape}")
    if values.dtype != np.float64 or not values.flags.c_contiguous:
        values = values.astype(np.float64, order="C", casting="same_kind")
    return values


class UlamOperator:
    """Finite-rank transfer operator on cell averages.

    Entries M[i][j] approximate m(U_j ∩ F^{-1} U_i)/m(U_j); columns sum to
    one, so the action on cell-average vectors preserves mass and L1-contracts.
    The operator is its read-only CSR arrays `indptr`, `indices` and `data`
    on `n_cells` cells, in canonical form (sorted, distinct column indices
    per row).  Every product with it is one call of scipy's compiled CSR
    kernel, the loop `matrix @ v` ends in, into a zeroed output: the same
    bits, with no `scipy.sparse` import and none of its Python dispatch.
    `apply` and `fixed_density` call it through `_step`, which checks the
    vector against the grid; `step_blocks` checks its start vector once and
    writes each product into its row of a block buffer.

    Operators are built by `build_ulam` and `averaged_operator` only: the
    kernel checks no bounds, so arrays from elsewhere are not taken.
    `matrix` is the operator as a read-only `scipy.sparse.csr_array` on the
    same arrays, built on first use.
    """

    __slots__ = ("indptr", "indices", "data", "n_cells", "_matrix")

    def __init__(self, *args, **kwargs):
        raise TypeError("UlamOperator is not built from a matrix: use "
                        "build_ulam or averaged_operator")

    @classmethod
    def _trusted(cls, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, n_cells: int) -> "UlamOperator":
        """Wrap square, canonical, nonnegative CSR arrays built in this
        package and owned by the caller: no copy and no re-validation."""
        op = object.__new__(cls)
        for arr in (indptr, indices, data):
            arr.flags.writeable = False
        for name, value in (("indptr", indptr), ("indices", indices),
                            ("data", data), ("n_cells", n_cells),
                            ("_matrix", None)):
            object.__setattr__(op, name, value)
        return op

    def __setattr__(self, name, value):
        raise AttributeError(f"UlamOperator is read-only: cannot set {name!r}")

    @property
    def matrix(self):
        """The operator as a read-only `scipy.sparse.csr_array` sharing
        `indptr`, `indices` and `data`, with no copy: built, and
        `scipy.sparse` imported, on first use."""
        if self._matrix is None:
            import scipy.sparse
            # the arrays are canonical already, so the public constructor's
            # format checks are skipped: the wrap sets the five attributes
            # that constructor sets in scipy 1.17, as a test checks
            mat = object.__new__(scipy.sparse.csr_array)
            mat._shape = (int(self.n_cells), int(self.n_cells))
            mat.maxprint = scipy.sparse._base.MAXPRINT
            mat.indptr, mat.indices, mat.data = (self.indptr, self.indices,
                                                 self.data)
            object.__setattr__(self, "_matrix", mat)
        return self._matrix

    def apply(self, phi: GridDensity) -> GridDensity:
        # the product is fresh, and nonnegative whenever phi is
        return GridDensity._trusted(self._step(phi.values),
                                    density=phi.density)

    def _step(self, values: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """The product `matrix @ values`, bit for bit, written into `out`
        (a float64 (n_cells,) vector, not `values`) or into a fresh array.
        The kernel adds each row's products to its entry of the output, so
        the output is zeroed first, as scipy's `@` does; it checks no
        bounds, so `values` is checked against the grid before the call."""
        n = self.n_cells
        values = _on_grid(values, n)
        if out is None:
            out = np.zeros(n)
        else:
            out.fill(0.0)
        csr_matvec(n, n, self.indptr, self.indices, self.data, values, out)
        return out


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _chord_grid(nq: int) -> np.ndarray:
    """Read-only k / nq for k = 0..nq; each piece's chord nodes are a slice."""
    grid = np.arange(nq + 1) / nq
    grid.flags.writeable = False
    return grid


def _chord_nodes(nq: int, lo: float, hi: float) -> np.ndarray:
    """The chord grid inside [lo, hi] plus the ends not on it: a read-only
    view of the cached grid when both ends are chord nodes."""
    grid = _chord_grid(nq)
    xs = grid[math.ceil(lo * nq - 1e-12):math.floor(hi * nq + 1e-12) + 1]
    chunks = [xs]
    if xs.size == 0 or lo < xs[0] - 1e-15:
        chunks.insert(0, [lo])
    if xs.size == 0 or hi > xs[-1] + 1e-15:
        chunks.append([hi])
    return xs if len(chunks) == 1 else np.concatenate(chunks)


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_values(shape, nq: int, lo: float, hi: float) -> np.ndarray:
    """Read-only values of a piece's gamma-free lift part at its chord nodes."""
    vals = np.asarray(shape(_chord_nodes(nq, lo, hi)), dtype=float)
    vals.flags.writeable = False
    return vals


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _chord_buffer(nq: int, thread: int) -> np.ndarray:
    """The buffer that one thread's builds on a grid of nq chord
    subintervals write each piece's chord values into: nq + 1 floats, the
    most nodes a piece in [0, 1] has.  At 1024 cells and up a fresh array
    per build passes glibc's mmap threshold and maps fresh pages; keyed by
    `threading.get_ident()`, no two threads share one."""
    return np.empty(nq + 1)


def _chord_values(piece, xs: np.ndarray, n: int, nq: int) -> np.ndarray:
    """n times the piece's lift at its chord nodes `xs` (in target cells),
    in this thread's chord buffer: valid until the next call on the grid.
    A split lift is slope * xs plus its cached shape values; any other is
    called on `CHORD_CHUNK` nodes at a time."""
    ys = _chord_buffer(nq, threading.get_ident())[:xs.size]
    if piece.split is None:
        for i in range(0, xs.size, CHORD_CHUNK):
            chunk = slice(i, i + CHORD_CHUNK)
            np.multiply(np.asarray(piece.lift(xs[chunk]), dtype=float), n,
                        out=ys[chunk])
    else:
        slope, shape = piece.split
        np.multiply(slope, xs, out=ys)
        ys += _shape_values(shape, nq, piece.lo, piece.hi)
        ys *= n
    return ys


def _entries(instance: MapInstance, n_cells: int, quadrature: int) -> tuple:
    """The chord-rule entries of a realized map's transfer operator, as
    (targets, sources, weights) in cut order: int32 target cells wrapped mod
    n_cells, int32 source cells and float64 values.  An entry met more than
    once (a cell straddling a piece boundary, or an image wrapping onto a
    target cell twice on a small grid) is listed each time.

    Each piece's lift is replaced by its chord interpolant through the
    edges of `quadrature` equal subintervals per cell.  Entry (i, j) is
    n_cells times the measure of the points of cell j whose interpolated
    image lies in cell i (mod 1), computed exactly by cutting each piece at
    the cell edges and at the interpolant's preimages of the cell edges.
    Both cut lists are sorted, so one merge labels every interval: each
    cell edge passed moves it to the next source cell, each level passed to
    the next target cell (the previous one on a falling piece).  The rule is
    exact for affine branches, columns sum to one, and entries are
    continuous in the map parameter, unlike point binning.  A piece that
    declares its lift as slope*x + shape(x) reads the shape's values at its
    chord nodes from a cache, and every piece's lift values are written
    into one reused buffer (`_chord_values`).  The cell edges k / n_cells
    are every `quadrature`-th node of the cached chord grid: both are the
    correctly rounded quotient, so the same floats.
    """
    if n_cells < 2:
        raise ValueError("n_cells must be at least 2")
    if quadrature < 1:
        raise ValueError("quadrature must be at least 1")
    n, q = n_cells, quadrature
    nq = n * q
    targets, sources, weights = [], [], []
    for piece in instance.pieces:
        xs = _chord_nodes(nq, piece.lo, piece.hi)
        ys = _chord_values(piece, xs, n, nq)
        x0, x1 = float(xs[0]), float(xs[-1])
        y0, y1 = float(ys[0]), float(ys[-1])
        up = y1 >= y0
        levels = np.arange(math.floor(min(y0, y1)) + 1.0, math.ceil(max(y0, y1)))
        preimages = (np.interp(levels, ys, xs) if up
                     else np.interp(levels, ys[::-1], xs[::-1]))
        cell = math.floor(x0 * n)
        edges = _chord_grid(nq)[(cell + 1) * q:math.ceil(x1 * n) * q:q]
        inner_cuts = np.concatenate([edges, preimages])
        order = np.argsort(inner_cuts, kind="stable")
        m = order.size + 1    # intervals
        cuts = np.empty(m + 1)
        cuts[0], cuts[-1] = x0, x1
        np.take(inner_cuts, order, out=cuts[1:-1])
        width = cuts[1:] - cuts[:-1]
        keep = width > 1e-15
        width *= n
        # the interval after k cuts has passed src[k] edges and k - src[k]
        # levels
        src = np.empty(m, dtype=np.int32)
        src[0] = 0
        np.cumsum(order < edges.size, dtype=np.int32, out=src[1:])
        tgt = np.arange(m, dtype=np.int32)
        tgt -= src
        if up:
            tgt += math.floor(y0)
        else:
            np.subtract(math.ceil(y0) - 1, tgt, out=tgt)
        tgt %= n
        src += cell
        if not keep.all():
            tgt, src, width = tgt[keep], src[keep], width[keep]
        targets.append(tgt)
        sources.append(src)
        weights.append(width)
    if len(targets) == 1:
        return targets[0], sources[0], weights[0]
    return (np.concatenate(targets), np.concatenate(sources),
            np.concatenate(weights))


def build_ulam(instance: MapInstance, n_cells: int, quadrature: int = 32) -> UlamOperator:
    """Discretize the transfer operator of a realized map by the chord rule
    (see `_entries`) into a read-only CSR `UlamOperator` with int32 indices.

    `_entries` gives each entry's target and source cell as int32 already,
    so scipy's `coo_tocsr` lays them out row by row as they come, and
    `csr_sum_duplicates` sums each repeated entry in the order it was met.
    """
    n = n_cells
    target, source, weights = _entries(instance, n, quadrature)
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(weights.size, dtype=np.int32)
    data = np.empty(weights.size)
    # Cuts run left to right, across pieces too, so the source never
    # decreases along the entries; coo_tocsr is a stable counting sort by
    # row, so each row comes out with its columns ascending and its repeats
    # adjacent, in cut order: canonical once the repeats are summed.
    _sparsetools.coo_tocsr(n, n, weights.size, target, source, weights,
                           indptr, indices, data)
    _sparsetools.csr_sum_duplicates(n, n, indptr, indices, data)
    nnz = indptr[-1]
    if nnz < weights.size:
        # trimmed to arrays of their own: scipy's csr_array copies a view of
        # a much larger array, and `matrix` shares the operator's arrays
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return UlamOperator._trusted(indptr, indices, data, n)


def per_run(make: Callable[[float], object], params: Iterable) -> Iterator:
    """make(gamma) for each parameter in turn, called once per run of equal
    consecutive parameters: a constant stream builds once, an iid stream at
    every step, and no item outlives its run, so memory stays flat in the
    horizon.  `ulam_operators` gives this with `build_ulam`, sharing the
    builds with a helper process."""
    for gamma, run in itertools.groupby(map(float, params)):
        item = make(gamma)
        for _ in run:
            yield item


def ulam_operators(family: MapFamily, params: Iterable,
                   n_cells: int) -> Iterator:
    """The `UlamOperator` of each parameter in turn, for `step_blocks`: one
    `build_ulam` per run of equal consecutive parameters, as `per_run`.

    The builds are independent, so a stream of more than `FIRST_HELPER_RUN`
    runs shares them with a helper process, forked when a run begins if
    `_helpers.can_fork` and a CPU of the machine is idle
    (`_helpers.cpu_idle`).  That is tested at run `FIRST_HELPER_RUN` (runs
    count from 0) and, while it fails, again at its doubles: a momentary
    load does not keep a long stream in one process, and at ~30 us a test
    costs at most ~0.2 ms per 2000 runs.  The helper goes on through its
    own copy of the parameter iterator and builds the run at which it was
    forked and every other run after it by the same call, in the same
    process image, so their bits are the parent's; it sends each one as a
    frame, `_build_every_other_run`.
    The parent builds the runs before the fork and every other run after it,
    and reads the helper's.  The pipe is the only queue: the helper blocks
    while it is full, and the parent holds only the current operator, so
    memory stays flat in the horizon.  A frame that comes up short (the
    helper stopped, say at a parameter out of range), or that was built for
    another parameter than the parent's (a copied iterator need not yield
    what the original does: `random` is reseeded in a forked child), hands
    that run and every later one back to the parent, whose own build then
    raises as the in-process one would, after as many operators; no helper
    is forked again.  Closing or exhausting the stream closes the pipe and
    reaps the helper.
    """
    def make(gamma):
        return build_ulam(instantiate(family, gamma), n_cells)

    runs = itertools.groupby(map(float, params))
    helper = None    # (pid, pipe) of the process building every other run
    test_at = FIRST_HELPER_RUN   # the next run to test at; 0 for none
    forked_at = 0
    try:
        for index, (gamma, run) in enumerate(runs):
            op = None
            if index == test_at:
                test_at *= 2
                if _helpers.can_fork() and _helpers.cpu_idle():
                    test_at, forked_at = 0, index
                    helper = _helpers.fork(
                        _build_every_other_run(make, gamma, runs))
            if helper is not None and (index - forked_at) % 2 == 0:
                op = _read_frame(helper, gamma, n_cells)
                if op is None:
                    _helpers.reap(helper)
                    helper = None
            if op is None:
                op = make(gamma)
            for _ in run:
                yield op
    finally:
        if helper is not None:
            _helpers.reap(helper)


def _build_every_other_run(make, gamma: float, runs) -> Iterator[tuple]:
    """The frames of `ulam_operators`' helper: the run it was forked at
    (parameter `gamma`) and every other run after it in `runs`, the rest of
    the groupby, each operator as its parameter (float64) and nnz (int64),
    then `indptr`, `indices` (both int32) and `data`."""
    gammas = itertools.chain([gamma], (g for g, _ in runs))
    for gamma in itertools.islice(gammas, 0, None, 2):
        op = make(gamma)
        yield (np.array([gamma]), np.array([op.data.size], dtype=np.int64),
               op.indptr, op.indices, op.data)


def _read_frame(helper: tuple, gamma: float,
                n_cells: int) -> Optional[UlamOperator]:
    """The operator of the helper's next frame, in fresh arrays, or None if
    the frame comes up short or was built for another parameter than
    `gamma` (compared bit for bit)."""
    param, nnz = np.empty(1), np.empty(1, dtype=np.int64)
    if (not _helpers.receive(helper, param, nnz)
            or param.tobytes() != np.float64(gamma).tobytes()):
        return None
    arrays = (np.empty(n_cells + 1, dtype=np.int32),
              np.empty(nnz[0], dtype=np.int32), np.empty(nnz[0]))
    if not _helpers.receive(helper, *arrays):
        return None
    return UlamOperator._trusted(*arrays, n_cells)


def step_blocks(ops: Iterable[UlamOperator],
                values: np.ndarray) -> Iterator[np.ndarray]:
    """Push `values` through `ops` in time order, yielding the densities
    after steps 1, 2, ... as the rows of read-only (STEP_BLOCK, n_cells)
    blocks; the last block may be shorter.

    Every step is one call of scipy's compiled CSR kernel, bit for bit
    `op.matrix @ v`, written straight into its row of the block buffer:
    no vector is allocated or copied per step.  `values` is checked once
    against the first operator's grid (`_on_grid`); an operator on another
    grid raises `GridMismatchError` before its product, after the rows of
    the operators before it.  So each row equals the chain of
    `UlamOperator.apply` calls bit for bit, and row-wise reductions over a
    block (`rows.mean(axis=1)`) equal the 1-D calls on each row.  Each
    block is a view of one buffer that the next block overwrites: reduce
    it, or copy the rows to keep, before asking for the next.  Memory stays
    O(STEP_BLOCK * n_cells) whatever the horizon.
    """
    ops = iter(ops)
    first = next(ops, None)
    if first is None:
        return
    n = first.n_cells
    cur = _on_grid(values, n)
    buf = np.empty((STEP_BLOCK, n))
    rows = buf.view()
    rows.flags.writeable = False
    outs = list(buf)
    i = 0
    for op in itertools.chain((first,), ops):
        if op.n_cells != n:
            _on_grid(cur, op.n_cells)    # raises GridMismatchError
        out = outs[i]
        out.fill(0.0)    # the kernel adds to its output
        csr_matvec(n, n, op.indptr, op.indices, op.data, cur, out)
        cur = out
        i += 1
        if i == STEP_BLOCK:
            yield rows
            i = 0
    if i:
        yield rows[:i]


def _row_distances(rows: np.ndarray, ref: np.ndarray, scratch: np.ndarray,
                  out: np.ndarray) -> None:
    """`np.abs(rows - ref[:len(rows)]).mean(axis=1)` written into `out`, bit
    for bit, with `scratch` (a float64 array of at least `rows`' shape) as
    the one temporary: the L1 distance of each row of a `step_blocks` block
    to the same row of `ref`."""
    diff = scratch[:len(rows)]
    np.subtract(rows, ref[:len(rows)], out=diff)
    np.abs(diff, out=diff)
    np.add.reduce(diff, axis=1, out=out)
    out /= rows.shape[1]


def apply_sequence(ops: Sequence[UlamOperator], phi: GridDensity) -> GridDensity:
    """Compose operators in time order: L_{gamma_n} ... L_{gamma_1} phi."""
    if not ops:
        return phi
    *_, rows = step_blocks(ops, phi.values)
    return GridDensity._trusted(rows[-1].copy(), density=phi.density)


# --- averaging over a perturbation law -----------------------------------

@dataclass(frozen=True)
class AveragingLaw:
    """The uniform law on [center - radius, center + radius], sampled by the
    midpoint rule on `n_samples` nodes; 'uniform' is the only law."""

    center: float
    radius: float
    law: str = "uniform"
    n_samples: int = 64

    def nodes(self):
        if self.law != "uniform":
            raise ValueError(f"unknown averaging law {self.law!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        k = np.arange(self.n_samples)
        nodes = self.center - self.radius + (2.0 * self.radius) * (k + 0.5) / self.n_samples
        return nodes, np.full(self.n_samples, 1.0 / self.n_samples)


def averaged_operator(family: MapFamily, nu: AveragingLaw,
                      n_cells: int) -> UlamOperator:
    """Entrywise average of member operators over the law nu.

    A convex combination of column-stochastic nonnegative matrices, so all
    operator properties are inherited; one node at radius 0 reproduces the
    member operator exactly.  The members are added in node order by
    scipy's `csr_plus_csr`, the loop `acc + w * member.matrix` ends in, so
    the result is that left fold bit for bit; the first term is `w * data`
    alone, as `0 + matrix` is a copy.  The sum drops exact zeros, and none
    arise: every entry of every member is positive.  Each member is dropped
    once added, and the sums alternate between two output buffers, so
    memory does not grow with the number of nodes.
    """
    n = n_cells
    nodes, weights = nu.nodes()
    acc = held = spare = None
    for gamma, w in zip(nodes, weights):
        member = build_ulam(instantiate(family, float(gamma)), n)
        data = w * member.data
        if acc is None:
            acc = member.indptr, member.indices, data
            continue
        need = acc[1].size + data.size
        if spare is None or spare[1].size < need:
            # exactly the need: buffers of twice it, which the union's slow
            # growth seldom outgrew, held ~0.7 MiB more at 3072 cells x 8
            # nodes and were no faster
            spare = (np.empty(n + 1, dtype=np.int32),
                     np.empty(need, dtype=np.int32), np.empty(need))
        _sparsetools.csr_plus_csr(n, n, *acc, member.indptr, member.indices,
                                  data, *spare)
        nnz = spare[0][-1]
        acc = (spare[0], spare[1][:nnz], spare[2][:nnz])
        held, spare = spare, held
    indptr, indices, data = acc
    # arrays of their own, as in build_ulam
    return UlamOperator._trusted(indptr, indices.copy(), data.copy(), n)


# --- fixed densities -----------------------------------------------------

def fixed_density(op: UlamOperator, tol: float = 1e-12) -> GridDensity:
    """Power iteration from the uniform start; returns a probability density
    with residual ||M phi - phi||_1 <= tol, or raises `NonConvergenceError`
    after `MAX_POWER_STEPS` products."""
    n = op.n_cells
    # two iterates swapped each step and one scratch vector; `mean` is
    # `add.reduce / n`, so every step keeps the bits of `nxt / nxt.mean()`
    # and of the residual `mean(abs(nxt - vals))`
    vals, nxt, diff = np.ones(n), np.empty(n), np.empty(n)
    residual = np.inf
    for _ in range(MAX_POWER_STEPS):
        op._step(vals, nxt)
        m = np.add.reduce(nxt) / n
        if m <= 0:
            raise NonConvergenceError("mass vanished during power iteration")
        np.divide(nxt, m, out=nxt)
        np.subtract(nxt, vals, out=diff)
        np.abs(diff, out=diff)
        residual = float(np.add.reduce(diff) / n)
        vals, nxt = nxt, vals
        if residual <= tol:
            return GridDensity(np.clip(vals, 0.0, None))
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} in {MAX_POWER_STEPS} steps "
        f"(final residual {residual:.3e}); the spectral gap may be too small "
        "or the operator invalid")


# --- empirical operator inequalities -------------------------------------

@dataclass(frozen=True)
class LasotaYorkeFit:
    """Fitted one-step envelope |L phi|_alpha <= eta |phi|_alpha + C ||phi||_1."""

    eta_hat: float
    c_hat: float                 # inflated so the envelope covers the test set
    c_least_squares: float
    satisfied_fraction: float    # fraction covered by the raw least-squares fit
    alpha: float
    iterated_margin: Optional[float] = None  # worst ratio against the n-step bound


def lasota_yorke_fit(family: MapFamily, gamma: float, alpha: float,
                     test_set: Sequence[GridDensity],
                     n_powers: int = 0) -> LasotaYorkeFit:
    """Fit the regularity-contraction envelope on a set of test densities.

    The coefficients are empirical surrogates obtained by nonnegative least
    squares plus an inflation of C so every test pair satisfies the bound.
    With `n_powers` > 0 the iterated bound
    eta^n |phi|_alpha + C/(1-eta) ||phi||_1 is also checked for n up to
    n_powers on the whole test set, and the worst margin is reported.
    """
    if not test_set:
        raise ValueError("test_set must be nonempty")
    n_cells = test_set[0].n_cells
    op = build_ulam(instantiate(family, gamma), n_cells)
    xs, zs, ys = [], [], []
    for phi in test_set:
        xs.append(quasi_holder_seminorm(phi, alpha).seminorm)
        zs.append(l1_norm(phi))
        ys.append(quasi_holder_seminorm(op.apply(phi), alpha).seminorm)
    xs = np.array(xs)
    zs = np.array(zs)
    ys = np.array(ys)
    if np.all(xs == 0):
        raise ValueError("degenerate test set: all seminorms vanish")
    import scipy.optimize
    design = np.column_stack([xs, zs])
    coef, _ = scipy.optimize.nnls(design, ys)
    eta, c_ls = float(coef[0]), float(coef[1])
    satisfied = float(np.mean(ys <= eta * xs + c_ls * zs + 1e-12))
    with np.errstate(divide="ignore", invalid="ignore"):
        c_needed = np.where(zs > 0, (ys - eta * xs) / zs, 0.0)
    c_hat = max(c_ls, float(np.max(c_needed)))
    fit = LasotaYorkeFit(eta_hat=eta, c_hat=c_hat, c_least_squares=c_ls,
                         satisfied_fraction=satisfied, alpha=alpha)
    if n_powers > 0 and eta < 1.0:
        margin = max(iterated_bound_margin(op, phi, fit, n_powers)
                     for phi in test_set)
        fit = replace(fit, iterated_margin=margin)
    return fit


def iterated_bound_margin(op: UlamOperator, phi: GridDensity, fit: LasotaYorkeFit,
                          n_powers: int, slack: float = 0.05) -> float:
    """Worst ratio of |L^n phi|_alpha against the iterated envelope
    eta^n |phi|_alpha + C/(1-eta) ||phi||_1, for n = 1..n_powers."""
    if fit.eta_hat >= 1.0:
        raise ValueError("iterated bound needs eta_hat < 1")
    x0 = quasi_holder_seminorm(phi, fit.alpha).seminorm
    z0 = l1_norm(phi)
    worst = 0.0
    n = 0
    for rows in step_blocks(itertools.repeat(op, n_powers), phi.values):
        for lhs in seminorms(rows, fit.alpha).tolist():
            n += 1
            rhs = (fit.eta_hat ** n * x0 +
                   fit.c_hat / (1.0 - fit.eta_hat) * z0) * (1.0 + slack)
            worst = max(worst, lhs / rhs if rhs > 0 else np.inf)
    return worst


@dataclass(frozen=True)
class DecayEnvelope:
    c_fit: float
    s_fit: float
    c_dominating: float
    rel_residual: float


def fit_decay_envelope(curve: np.ndarray, scale: float) -> DecayEnvelope:
    """Fit curve_n ~ C s^n * scale with s in (0,1] by least squares over a
    grid of rates, then inflate C so the envelope dominates the curve."""
    curve = np.asarray(curve, dtype=float)
    ns = np.arange(len(curve))
    mask = ns >= 1
    y = curve[mask]
    if np.all(y <= 0) or scale <= 0:
        return DecayEnvelope(0.0, 1.0, 0.0, 0.0)
    best = None
    for s in np.linspace(0.50, 1.0, 51):
        basis = scale * s ** ns[mask]
        c = float(np.dot(basis, y) / np.dot(basis, basis))
        resid = float(np.sqrt(np.mean((y - c * basis) ** 2)))
        if best is None or resid < best[0]:
            best = (resid, c, s)
    resid, c_fit, s_fit = best
    rel = resid / float(np.sqrt(np.mean(y ** 2)))
    with np.errstate(divide="ignore"):
        needed = curve[mask] / (scale * s_fit ** ns[mask])
    c_dom = max(c_fit, float(np.max(needed)))
    return DecayEnvelope(c_fit=c_fit, s_fit=s_fit, c_dominating=c_dom,
                         rel_residual=rel)


@dataclass(frozen=True)
class PerturbationProbe:
    deltas_used: np.ndarray      # the sampled parameter sequence
    curve: np.ndarray            # n -> ||L^n_seq phi - L^n_const phi||_1
    norm_alpha: float


def perturbation_probe(family: MapFamily, gamma_hat: float, delta: float,
                       n_max: int, phi: GridDensity, seq_seed: int,
                       alpha: Optional[float] = None) -> PerturbationProbe:
    """Deviation curve between one random perturbed composition and the
    constant composition at gamma_hat, with the norm ||phi||_alpha that
    scales its geometric envelope C s^n ||phi||_alpha (`fit_decay_envelope`).
    The delta-ball must lie inside the family's range."""
    family.check_ball(gamma_hat, delta)
    if alpha is None:
        alpha = min(family.holder_exponent, 1.0)
    rng = substream(seq_seed, "perturbation-probe")
    gammas = rng.uniform(gamma_hat - delta, gamma_hat + delta, n_max)
    base = build_ulam(instantiate(family, float(gamma_hat)), phi.n_cells)
    curve = np.zeros(n_max + 1)
    scratch = np.empty((STEP_BLOCK, phi.n_cells))
    k = 1
    for seq, const in zip(
            step_blocks(ulam_operators(family, gammas, phi.n_cells),
                        phi.values),
            step_blocks(itertools.repeat(base, n_max), phi.values)):
        _row_distances(seq, const, scratch, curve[k:k + len(seq)])
        k += len(seq)
    norm_alpha = quasi_holder_seminorm(phi, alpha).norm_alpha
    return PerturbationProbe(deltas_used=gammas, curve=curve,
                             norm_alpha=norm_alpha)

