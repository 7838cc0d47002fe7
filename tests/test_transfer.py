import dataclasses
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
import scipy
import scipy.sparse

from nonstat_dyn.densities import (GridDensity, GridMismatchError,
                                   l1_distance, l1_norm,
                                   quasi_holder_seminorm)
from nonstat_dyn.maps import (ExpansionError, breakpoint_family,
                              circle_family, doubling_family, instantiate,
                              lsv_family, pm_family, tent_family)
from nonstat_dyn import transfer
from nonstat_dyn.transfer import (AveragingLaw, LasotaYorkeFit,
                                  NonConvergenceError, UlamOperator,
                                  apply_sequence, averaged_operator,
                                  build_ulam, fit_decay_envelope,
                                  fixed_density, iterated_bound_margin,
                                  lasota_yorke_fit, perturbation_probe,
                                  step_blocks)


def random_density(rng, n):
    vals = rng.uniform(0.1, 2.0, n)
    return GridDensity(vals / vals.mean())


def _breakpoint_affine(gamma, b0=0.4):
    b = b0 + gamma
    a1, a2 = 1.0 / b, 1.0 / (1.0 - b)
    return [(a1, 0.0), (a2, -a2 * b)]


# (slope, intercept) of each piece of an affine family's instance at gamma,
# by the family's name
PIECE_AFFINE = {
    "doubling": lambda gamma: [(2.0 + gamma, 0.0)],
    "breakpoint(b0=0.4)": _breakpoint_affine,
    "tent": lambda gamma: [(2.0 + gamma, 0.0), (-(2.0 + gamma), 2.0 + gamma)],
}


def affine_ulam_oracle(instance, n):
    """Exact Ulam entries of a piecewise-affine map by interval intersection."""
    mat = np.zeros((n, n))
    affine = PIECE_AFFINE[instance.family.name](instance.gamma)
    assert len(affine) == len(instance.pieces)
    for piece, (a, b) in zip(instance.pieces, affine):
        for j in range(n):
            lo, hi = max(j / n, piece.lo), min((j + 1) / n, piece.hi)
            if hi <= lo:
                continue
            y0, y1 = sorted((a * lo + b, a * hi + b))
            for c in range(int(np.floor(y0 * n)), int(np.ceil(y1 * n))):
                ov = min(y1, (c + 1) / n) - max(y0, c / n)
                if ov > 0:
                    mat[c % n, j] += n * ov / abs(a)
    return mat


def interp_ulam_oracle(instance, n_cells, quadrature=32):
    """The chord-rule assembly read from an interp over the chord grid.

    Targets come from interpolating every interval's midpoint and entries
    are summed through np.unique; build_ulam must give the same CSR arrays
    bit for bit."""
    n, nq = n_cells, n_cells * quadrature
    targets, sources, weights = [], [], []
    for piece in instance.pieces:
        k0 = int(np.ceil(piece.lo * nq - 1e-12))
        k1 = int(np.floor(piece.hi * nq + 1e-12))
        inner = np.arange(k0, k1 + 1) / nq
        chunks = [inner]
        if inner.size == 0 or piece.lo < inner[0] - 1e-15:
            chunks.insert(0, np.array([piece.lo]))
        if inner.size == 0 or piece.hi > inner[-1] + 1e-15:
            chunks.append(np.array([piece.hi]))
        xs = np.concatenate(chunks)
        ys = np.asarray(piece.lift(xs), dtype=float) * n
        up = ys[-1] >= ys[0]
        levels = np.arange(np.floor(min(ys[0], ys[-1])) + 1.0,
                           np.ceil(max(ys[0], ys[-1])))
        preimages = (np.interp(levels, ys, xs) if up
                     else np.interp(levels, ys[::-1], xs[::-1]))
        edges = np.arange(np.floor(xs[0] * n) + 1.0, np.ceil(xs[-1] * n)) / n
        cuts = np.sort(np.concatenate([xs[:1], edges, xs[-1:], preimages]))
        width = np.diff(cuts)
        keep = width > 1e-15
        mid = 0.5 * (cuts[:-1] + cuts[1:])[keep]
        sources.append(np.minimum((mid * n).astype(np.int64), n - 1))
        targets.append(np.floor(np.interp(mid, xs, ys)).astype(np.int64) % n)
        weights.append(width[keep] * n)
    keys, where = np.unique(np.concatenate(targets) * n + np.concatenate(sources),
                            return_inverse=True)
    data = np.bincount(where, weights=np.concatenate(weights))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
    return scipy.sparse.csr_array((data, keys % n, indptr), shape=(n, n))


ORACLE_GRID = {
    "doubling": (doubling_family(), (-0.05, 1.0), False),
    "pm": (pm_family(0.5), (0.05, 0.3), False),
    "pm_unsafe": (pm_family(0.5), (-0.5, -0.1, -0.05), True),
    "lsv": (lsv_family(0.5), (0.1, 0.3), False),
    "breakpoint": (breakpoint_family(), (0.0, 0.1), False),
    "tent": (tent_family(), (-0.1, 0.1), False),
    "circle": (circle_family(), (-0.3, 0.3), False),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRID))
def test_merged_assembly_matches_interp_oracle_bitwise(name):
    # tent has a falling piece and lsv two pieces; every family repeats an
    # entry (an image wrapping twice, or a cell across a piece boundary) on
    # some small grid, so the summing of repeats is checked too, and drops
    # a sliver on some grid, so both ways out of a piece's cuts are checked
    family, gammas, unsafe = ORACLE_GRID[name]
    repeats = slivers = 0
    for gamma in gammas:
        inst = instantiate(family, gamma, unsafe=unsafe)
        for n in (2, 3, 7, 100, 333, 2048):
            for q in (1, 3, 32):
                got = build_ulam(inst, n, q).matrix
                want = interp_ulam_oracle(inst, n, q)
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field),
                                          getattr(want, field)), (gamma, n, q, field)
                targets, sources, _ = transfer._entries(inst, n, q)
                keys = targets.astype(np.int64) * n + sources
                repeats += np.unique(keys).size < keys.size
                slivers += keys.size < sum(
                    _cut_intervals(piece, n, q) for piece in inst.pieces)
    assert repeats > 0
    assert slivers > 0


def _cut_intervals(piece, n, q):
    """The intervals a piece's cuts make before slivers are dropped: one
    more than its inner cell edges and levels, from the lift values
    `_entries` takes."""
    xs = transfer._chord_nodes(n * q, piece.lo, piece.hi)
    if piece.split is None:
        ys = np.asarray(piece.lift(xs), dtype=float) * n
    else:
        slope, shape = piece.split
        ys = (slope * xs + shape(xs)) * n
    lo, hi = sorted((ys[0], ys[-1]))
    return (1 + np.arange(np.floor(xs[0] * n) + 1.0, np.ceil(xs[-1] * n)).size
            + np.arange(np.floor(lo) + 1.0, np.ceil(hi)).size)


def assert_products_match_public_matmul(op, v):
    """`_step`, `apply` and two `step_blocks` rows against scipy's public
    `matrix @ v`, which shares no code with them but the compiled kernel."""
    want = op.matrix @ v
    want2 = op.matrix @ want
    assert op._step(v).tobytes() == want.tobytes()
    assert op.apply(GridDensity(v)).values.tobytes() == want.tobytes()
    (rows,) = step_blocks([op, op], v)
    assert rows[0].tobytes() == want.tobytes()
    assert rows[1].tobytes() == want2.tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_GRID))
def test_kernel_products_match_public_matmul_bitwise(name):
    family, gammas, unsafe = ORACLE_GRID[name]
    rng = np.random.default_rng(1)
    for gamma in gammas:
        inst = instantiate(family, gamma, unsafe=unsafe)
        for n in (2, 3, 7, 100, 333, 2048):
            assert_products_match_public_matmul(build_ulam(inst, n),
                                                rng.uniform(0.1, 2.0, n))


def csr_operator(matrix):
    """An `UlamOperator` on the arrays of a square matrix's canonical scipy
    CSR form, wrapped as `build_ulam` wraps its own."""
    mat = scipy.sparse.csr_array(matrix)
    mat.sum_duplicates()
    return UlamOperator._trusted(mat.indptr, mat.indices, mat.data,
                                 mat.shape[0])


def user_csr_int64(n):
    rng = np.random.default_rng(3)
    dense = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.2)
    mat = scipy.sparse.csr_array(dense)
    mat.indices = mat.indices.astype(np.int64)
    mat.indptr = mat.indptr.astype(np.int64)
    op = csr_operator(mat)
    assert op.matrix.indices.dtype == np.int64
    return op


@pytest.mark.parametrize("make", [
    lambda: averaged_operator(
        pm_family(0.5), AveragingLaw(0.1, 0.02, n_samples=8), 300),
    lambda: csr_operator(np.random.default_rng(2).uniform(
        0.0, 1.0, (57, 57))),
    lambda: user_csr_int64(211),
], ids=["averaged", "dense", "user-csr-int64"])
def test_kernel_products_match_public_matmul_on_other_builds(make):
    op = make()
    v = np.random.default_rng(4).uniform(0.1, 2.0, op.n_cells)
    assert_products_match_public_matmul(op, v)


def fixed_density_oracle(op, tol=1e-12, max_iter=20000):
    """`fixed_density`'s power iteration on scipy's public `matrix @ vals`."""
    vals = np.ones(op.n_cells)
    for _ in range(max_iter):
        nxt = op.matrix @ vals
        nxt = nxt / nxt.mean()
        residual = float(np.mean(np.abs(nxt - vals)))
        vals = nxt
        if residual <= tol:
            return np.clip(vals, 0.0, None)
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("family,gamma,n", [
    (pm_family(0.5), 0.1, 64), (pm_family(0.5), 0.05, 1024),
    (pm_family(0.5), 0.1, 3072), (lsv_family(0.5), 0.2, 256),
    (lsv_family(0.5), 0.3, 2048), (doubling_family(), 0.3, 512),
    (doubling_family(), -0.05, 3072),
])
def test_fixed_density_matches_matmul_oracle_bitwise(family, gamma, n):
    op = build_ulam(instantiate(family, gamma), n)
    assert (fixed_density(op).values.tobytes()
            == fixed_density_oracle(op).tobytes())


@pytest.mark.parametrize("center,radius", [(0.1, 0.02), (0.02, 0.005)])
def test_fixed_density_of_averaged_operator_matches_matmul_oracle(center,
                                                                  radius):
    # the stationary workload's 8-node law, at 256 cells
    op = averaged_operator(pm_family(0.5),
                           AveragingLaw(center, radius, n_samples=8), 256)
    assert (fixed_density(op).values.tobytes()
            == fixed_density_oracle(op).tobytes())


def fixed_density_fresh_vectors(op, tol=1e-12, max_iter=20000):
    """`fixed_density` as it was written before its buffers: a fresh vector
    per product, `nxt / nxt.mean()` and `np.mean(np.abs(nxt - vals))`.
    Returns (density, iterations), or raises the solver's error."""
    vals = np.ones(op.n_cells)
    residual = np.inf
    for it in range(1, max_iter + 1):
        nxt = op._step(vals)
        m = nxt.mean()
        nxt = nxt / m
        residual = float(np.mean(np.abs(nxt - vals)))
        vals = nxt
        if residual <= tol:
            return np.clip(vals, 0.0, None), it
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} steps "
        f"(final residual {residual:.3e}); the spectral gap may be too small "
        "or the operator invalid")


def counting_kernel(monkeypatch):
    """Count the calls of the compiled CSR product from here on."""
    calls = []

    def kernel(*args):
        calls.append(None)
        transfer._sparsetools.csr_matvec(*args)
    monkeypatch.setattr(transfer, "csr_matvec", kernel)
    return calls


@pytest.mark.parametrize("make", [
    lambda: build_ulam(instantiate(pm_family(0.5), 0.1), 64),
    lambda: build_ulam(instantiate(doubling_family(), 0.3), 1024),
    lambda: averaged_operator(pm_family(0.5),
                              AveragingLaw(0.02, 0.005, n_samples=8), 3072),
], ids=["pm-64", "doubling-1024", "averaged-3072"])
def test_fixed_density_buffers_keep_bits_and_iterations(make, monkeypatch):
    op = make()
    want, iterations = fixed_density_fresh_vectors(op)
    calls = counting_kernel(monkeypatch)
    got = fixed_density(op)
    assert got.values.tobytes() == want.tobytes()
    assert len(calls) == iterations


def test_fixed_density_nonconvergence_message_unchanged():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 256)
    with pytest.raises(NonConvergenceError) as want:
        fixed_density_fresh_vectors(op, max_iter=7)
    with pytest.raises(NonConvergenceError) as got:
        fixed_density(op, max_iter=7)
    assert str(got.value) == str(want.value)


def test_step_out_is_zeroed_and_returned():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 128)
    v = np.random.default_rng(6).uniform(0.1, 2.0, 128)
    out = np.full(128, np.nan)
    assert op._step(v, out) is out
    assert out.tobytes() == (op.matrix @ v).tobytes()


def test_matrix_wrap_matches_public_constructor():
    # `matrix` skips scipy's public constructor and sets its attributes
    # itself, so it is held to what that constructor builds
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 512)
    n = op.n_cells
    public = scipy.sparse.csr_array((op.data, op.indices, op.indptr),
                                    shape=(n, n), copy=False)
    wrap = op.matrix
    where = f"scipy {scipy.__version__}"
    assert type(wrap) is type(public), where
    assert ({k: type(v) for k, v in vars(wrap).items()}
            == {k: type(v) for k, v in vars(public).items()}), where
    assert wrap.shape == public.shape and wrap.maxprint == public.maxprint, where
    assert wrap.has_canonical_format and public.has_canonical_format, where
    wrap.check_format(full_check=True)
    for field in ("indptr", "indices", "data"):
        ours = getattr(op, field)
        for mat in (wrap, public):
            assert np.shares_memory(getattr(mat, field), ours), where
            assert not getattr(mat, field).flags.writeable, where
    v = np.random.default_rng(7).uniform(0.1, 2.0, n)
    assert (wrap @ v).tobytes() == (public @ v).tobytes(), where
    assert (wrap @ (wrap @ v)).tobytes() == (public @ (public @ v)).tobytes()


def test_density_on_another_grid_rejected_before_any_product():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 128)
    fit = LasotaYorkeFit(eta_hat=0.5, c_hat=1.0, c_least_squares=1.0,
                         satisfied_fraction=1.0, alpha=0.5)
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        next(step_blocks([op], np.ones(64)))
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        iterated_bound_margin(op, GridDensity.uniform(64), fit, 3)
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        op.apply(GridDensity.uniform(64))
    for bad in (np.ones(64), np.ones(129), np.ones((128, 1)), np.ones(0)):
        with pytest.raises(GridMismatchError, match="grid mismatch"):
            op._step(bad)
        with pytest.raises(GridMismatchError, match="grid mismatch"):
            next(step_blocks([op], bad))


def test_other_dtypes_and_layouts_are_converted_not_misread():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 128)
    wide = np.random.default_rng(5).uniform(0.1, 2.0, 256)
    for v in (wide[::2], wide[:128].astype(np.float32),
              np.arange(128, dtype=np.int64), wide[::-2]):
        want = op.matrix @ np.ascontiguousarray(v, dtype=np.float64)
        assert op._step(v).tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        op._step(wide[:128] + 1j)


def test_ulam_operators_give_one_operator_per_run():
    fam = pm_family(0.5)
    ops = list(transfer.ulam_operators(
        fam, [0.1, 0.1, 0.2, 0.3, 0.3, 0.3, 0.1], 64))
    assert all(type(op) is UlamOperator for op in ops)
    # shared within a run, distinct across runs, a rerun parameter rebuilt
    runs = [ops[0], ops[2], ops[3], ops[6]]
    assert ops[0] is ops[1] and ops[3] is ops[4] is ops[5]
    assert len({id(op) for op in runs}) == 4
    assert ops[6].data.tobytes() == ops[0].data.tobytes()
    assert list(transfer.ulam_operators(fam, [], 64)) == []


STREAM_GRID = {
    "pm": (pm_family(0.5), (0.05, 0.3), 97),
    "lsv": (lsv_family(0.5), (0.1, 0.3), 64),
    "breakpoint": (breakpoint_family(), (0.0, 0.1), 40),
    "tent": (tent_family(), (-0.1, 0.1), 33),
    "doubling": (doubling_family(), (-0.05, 1.0), 40),
    "circle": (circle_family(), (-0.3, 0.3), 40),
}


def idle_cpu(monkeypatch):
    """Take a CPU of the machine as idle, so that whether a stream forks its
    helper does not hang on what else runs while the suite does."""
    monkeypatch.setattr(transfer, "_runnable_elsewhere", lambda: 0)


def counting_forks(monkeypatch):
    """The pids of the helpers forked from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", sorted(STREAM_GRID))
def test_streamed_operators_match_in_process_builds_bytewise(monkeypatch,
                                                             name):
    # half the runs come from the helper, through the pipe; lsv has two
    # pieces and circle no split lift.  The evenly spaced parameters put
    # breakpoints and images on cell edges, so nnz varies from one operator
    # to the next in every family and a frame misread by a few bytes shows
    family, (lo, hi), n = STREAM_GRID[name]
    idle_cpu(monkeypatch)
    forks = counting_forks(monkeypatch)
    rng = np.random.default_rng(11)
    runs = np.concatenate([np.linspace(lo, hi, 5), rng.uniform(lo, hi, 25)])
    gammas = np.repeat(runs, rng.integers(1, 4, 30))
    ops = list(transfer.ulam_operators(family, gammas, n))
    assert len(forks) == transfer._helper_can_run()
    assert len(ops) == gammas.size
    assert len({op.data.size for op in ops}) > 1
    for gamma, op in zip(gammas, ops):
        want = build_ulam(instantiate(family, gamma), n)
        assert op.n_cells == n
        for field in ("indptr", "indices", "data"):
            got, ref = getattr(op, field), getattr(want, field)
            assert got.dtype == ref.dtype and not got.flags.writeable
            assert got.tobytes() == ref.tobytes(), (gamma, field)
    assert_no_child_left()


@pytest.mark.parametrize("setting",
                         ["two-cpus", "no-fork", "one-cpu", "busy-cpus"])
def test_helper_builds_the_odd_runs_only_where_it_can(monkeypatch, setting):
    # without os.fork, a second CPU, or an idle CPU on the machine, the
    # parent builds every run itself
    idle_cpu(monkeypatch)
    if setting == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif setting == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif setting == "busy-cpus":
        monkeypatch.setattr(transfer, "_runnable_elsewhere", os.cpu_count)
    helper = transfer._helper_can_run()
    if setting != "two-cpus":
        assert not helper
    built, build = [], transfer.build_ulam

    def recording(instance, n_cells):
        built.append(instance.gamma)
        return build(instance, n_cells)
    # the helper's calls are made in its own process, unrecorded here
    monkeypatch.setattr(transfer, "build_ulam", recording)
    gammas = [0.1, 0.2, 0.2, 0.3, 0.4, 0.4, 0.5]
    assert len(list(transfer.ulam_operators(pm_family(0.5), gammas, 64))) == 7
    assert built == ([0.1, 0.3, 0.5] if helper else [0.1, 0.2, 0.3, 0.4, 0.5])
    assert_no_child_left()


def test_helper_refused_at_run_one_is_forked_at_the_next_test(monkeypatch):
    # a machine busy at run 1 and idle from then on: the stream tests again
    # at run 2, forks there, and the helper builds runs 2, 4, 6, ...
    calls = []

    def busy_once():
        calls.append(None)
        return os.cpu_count() if len(calls) == 1 else 0
    monkeypatch.setattr(transfer, "_runnable_elsewhere", busy_once)
    forks = counting_forks(monkeypatch)
    built, build = [], transfer.build_ulam

    def recording(instance, n_cells):
        built.append(instance.gamma)
        return build(instance, n_cells)
    monkeypatch.setattr(transfer, "build_ulam", recording)
    fam = pm_family(0.5)
    runs = np.linspace(0.05, 0.15, 9)
    gammas = np.repeat(runs, [1, 2, 1, 3, 2, 1, 2, 1, 1])
    ops = list(transfer.ulam_operators(fam, gammas, 64))
    can_fork = transfer._can_fork()
    assert len(forks) == can_fork
    assert len(calls) == (2 if can_fork else 0)
    assert built == list(runs[[0, 1, 3, 5, 7]] if can_fork else runs)
    assert len(ops) == gammas.size
    for gamma, op in zip(gammas, ops):
        want = build_ulam(instantiate(fam, gamma), 64)
        for field in ("indptr", "indices", "data"):
            assert (getattr(op, field).tobytes()
                    == getattr(want, field).tobytes()), (gamma, field)
    assert_no_child_left()


@pytest.mark.parametrize("bad_run", [4, 5], ids=["parent", "helper"])
def test_stream_error_raises_as_in_process(monkeypatch, bad_run):
    # a gamma out of range at an even run raises in the parent's own build;
    # at an odd run it stops the helper, and the parent builds that run
    # itself.  Either way the error is the in-process one, after as many
    # operators, and no second helper is forked
    idle_cpu(monkeypatch)
    forks = counting_forks(monkeypatch)
    fam = pm_family(0.5)
    runs = list(np.linspace(0.05, 0.15, 8))
    runs[bad_run] = 5.0
    gammas = np.repeat(runs, [1, 2, 1, 3, 2, 1, 2, 1])

    def drain(stream):
        count = 0
        with pytest.raises(ExpansionError) as err:
            for _ in stream:
                count += 1
        return count, type(err.value), str(err.value)
    streamed = drain(transfer.ulam_operators(fam, gammas, 64))
    assert streamed == drain(transfer.per_run(
        lambda gamma: build_ulam(instantiate(fam, gamma), 64), gammas))
    assert streamed[0] == np.cumsum([1, 2, 1, 3, 2, 1, 2, 1])[bad_run - 1]
    assert len(forks) == transfer._helper_can_run()
    assert_no_child_left()


def test_helper_parameters_that_differ_from_the_parents_are_not_used(
        monkeypatch):
    # the helper walks its own copy of the generator, and `random` is
    # reseeded in a forked child, so the helper draws other gammas: its
    # first frame of its own draw is refused, the parent builds every run
    # from then on, and no second helper is forked for the ~36 runs left
    idle_cpu(monkeypatch)
    forks = counting_forks(monkeypatch)
    fam, drawn = pm_family(0.5), []

    def draws():
        for _ in range(40):
            drawn.append(random.uniform(0.05, 0.15))
            yield drawn[-1]
    ops = list(transfer.ulam_operators(fam, draws(), 64))
    assert len(forks) == transfer._helper_can_run()
    assert len(ops) == len(drawn) == 40
    for gamma, op in zip(drawn, ops):
        want = build_ulam(instantiate(fam, gamma), 64)
        for field in ("indptr", "indices", "data"):
            assert (getattr(op, field).tobytes()
                    == getattr(want, field).tobytes()), (gamma, field)
    assert_no_child_left()


def test_no_helper_while_another_thread_runs(monkeypatch):
    # a thread that holds a lock at the fork would hold it in the helper
    # forever, so a stream opened while one is alive is built in-process
    idle_cpu(monkeypatch)
    forks = counting_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not transfer._helper_can_run()
        fam, gammas = pm_family(0.5), np.linspace(0.05, 0.15, 9)
        ops = list(transfer.ulam_operators(fam, gammas, 64))
    finally:
        release.set()
        other.join()
    assert forks == []
    for gamma, op in zip(gammas, ops):
        assert (op.data.tobytes()
                == build_ulam(instantiate(fam, gamma), 64).data.tobytes())


def test_one_shot_generator_streams_in_flat_memory(monkeypatch):
    idle_cpu(monkeypatch)
    fam = pm_family(0.5)
    cycle = (0.09, 0.1, 0.11, 0.095, 0.105, 0.0925, 0.1075)
    want = {gamma: build_ulam(instantiate(fam, gamma), 16) for gamma in cycle}

    def params(n):
        # iterable once: the helper goes on through its own copy
        return (cycle[k % len(cycle)] for k in range(n))
    n, previous = 10 ** 5, None
    for k, op in enumerate(transfer.ulam_operators(fam, params(n), 16)):
        ref = want[cycle[k % len(cycle)]]
        assert op is not previous
        assert (op.indptr.tobytes() == ref.indptr.tobytes()
                and op.indices.tobytes() == ref.indices.tobytes()
                and op.data.tobytes() == ref.data.tobytes()), k
        previous = op
    assert k == n - 1
    # the parent holds the current operator only: its peak does not grow
    # with n (traced at smaller n, as tracing slows both processes ~6x)
    peaks = []
    for n in (10 ** 3, 10 ** 4):
        tracemalloc.start()
        try:
            for _ in step_blocks(transfer.ulam_operators(fam, params(n), 16),
                                 np.ones(16)):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 ** 12, peaks
    assert_no_child_left()


# Streams closed early, each with a helper blocked on a full pipe, or about to
# be: one stream alone, or two open at once closed in the order argv[1] names.
# A helper that kept a copy of its own read end, or of another stream's (the
# second helper is forked while the first stream is open), would never see
# the broken pipe, and closing that stream would wait on it forever.
CLOSED_EARLY = """
import os
import sys
import numpy as np
from nonstat_dyn import transfer
from nonstat_dyn.maps import pm_family
from nonstat_dyn.transfer import ulam_operators
transfer._runnable_elsewhere = lambda: 0    # a CPU taken as idle
gammas = np.random.default_rng(0).uniform(0.09, 0.11, 400)
first = ulam_operators(pm_family(0.5), gammas, 512)
second = ulam_operators(pm_family(0.5), gammas, 512)
closing = {"alone": [first], "first": [first, second],
           "second": [second, first]}[sys.argv[1]]
for stream in (first, second)[:len(closing)]:
    next(stream)
    next(stream)    # the second run forks the helper
for stream in closing:
    stream.close()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(0)
sys.exit("a helper outlived its stream")
"""


@pytest.mark.parametrize("order", ["alone", "first", "second"])
def test_streams_closed_early_leave_no_child(order):
    # run in a subprocess, so that a deadlock fails at the timeout instead
    # of stalling the suite
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", CLOSED_EARLY, order],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_sparsetools_lacking_a_routine_is_named(monkeypatch):
    stub = types.ModuleType("scipy.sparse._sparsetools")
    monkeypatch.setitem(sys.modules, stub.__name__, stub)
    with pytest.raises(ImportError, match=(
            f"of scipy {scipy.__version__} lacks csr_matvec, coo_tocsr, "
            "csr_sum_duplicates, csr_plus_csr$")):
        transfer._load_sparsetools()
    stub.csr_matvec = stub.coo_tocsr = stub.csr_plus_csr = print
    with pytest.raises(ImportError, match="lacks csr_sum_duplicates$"):
        transfer._load_sparsetools()
    stub.csr_sum_duplicates = print
    assert transfer._load_sparsetools() is stub


def strip_split(instance):
    """The same instance with every piece's declared split removed, so
    assembly evaluates the lift itself."""
    return dataclasses.replace(instance, pieces=tuple(
        dataclasses.replace(p, split=None) for p in instance.pieces))


SPLIT_GRID = {**ORACLE_GRID,
              "pm_kappa": (pm_family(0.3), (0.05, 0.3), False),
              "lsv_kappa": (lsv_family(0.3), (0.1,), False)}


@pytest.mark.parametrize("name", sorted(SPLIT_GRID))
def test_split_assembly_matches_lift_assembly_bitwise(name):
    family, gammas, unsafe = SPLIT_GRID[name]
    for gamma in gammas:
        inst = instantiate(family, gamma, unsafe=unsafe)
        plain = strip_split(inst)
        for n in (2, 3, 7, 100, 333, 2048):
            for q in (1, 3, 32):
                got = build_ulam(inst, n, q).matrix
                want = build_ulam(plain, n, q).matrix
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field),
                                          getattr(want, field)), (gamma, n, q, field)


def test_split_pieces_assemble_without_calling_lift():
    calls = []

    def counting(piece):
        def lift(x, f=piece.lift):
            calls.append(piece.lo)
            return f(x)
        return dataclasses.replace(piece, lift=lift)

    for family in (pm_family(0.5), pm_family(0.3), lsv_family(0.5)):
        inst = instantiate(family, 0.1)
        counted = dataclasses.replace(
            inst, pieces=tuple(map(counting, inst.pieces)))
        for n, q in ((3, 3), (100, 32), (333, 1)):
            build_ulam(counted, n, q)
            build_ulam(strip_split(counted), n, q)
    # the stripped pieces call every lift; lsv's affine right piece has no
    # split, so its lift is called both ways
    assert calls.count(0.0) == 9
    assert calls.count(0.5) == 6


def test_shape_cache_bounded_read_only_and_shared():
    transfer._shape_values.cache_clear()
    for _ in range(10):
        build_ulam(instantiate(pm_family(0.5), 0.1), 64)
    info = transfer._shape_values.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 9)
    assert info.maxsize == transfer.SHAPE_CACHE_SIZE
    for n in range(2, 2 * transfer.SHAPE_CACHE_SIZE + 2):
        build_ulam(instantiate(pm_family(0.5), 0.1), n, 3)
    assert (transfer._shape_values.cache_info().currsize
            == transfer.SHAPE_CACHE_SIZE)
    shape = pm_family(0.5).pieces_for(0.1)[0].split[1]
    vals = transfer._shape_values(shape, 64 * 32, 0.0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        vals[0] = 1.0
    # nodes whose ends are on the chord grid are a view of it, not a copy
    nodes = transfer._chord_nodes(64 * 32, 0.0, 0.5)
    assert np.shares_memory(nodes, transfer._chord_grid(64 * 32))
    assert not nodes.flags.writeable
    assert not np.shares_memory(transfer._chord_nodes(9, 0.0, 0.5),
                                transfer._chord_grid(9))


def test_built_operators_are_canonical_positive_and_frozen():
    ops = [build_ulam(instantiate(fam, gammas[0], unsafe=unsafe), 333, 3)
           for fam, gammas, unsafe in ORACLE_GRID.values()]
    ops.append(averaged_operator(pm_family(0.5), AveragingLaw(
        center=0.1, radius=0.02, law="uniform", n_samples=4), 100))
    for op in ops:
        mat = op.matrix
        assert mat.has_canonical_format
        assert np.all(mat.data > 0)
        for arr in (mat.data, mat.indices, mat.indptr):
            assert not arr.flags.writeable
    phi = op.apply(GridDensity.uniform(100))
    assert not phi.values.flags.writeable


def test_public_constructors_reject_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        GridDensity(np.array([1.0, -0.5]))


@pytest.mark.parametrize("args", [(), (np.eye(2),), (build_ulam(
    instantiate(doubling_family(), 0.0), 4).matrix,)])
def test_operators_are_built_not_constructed(args):
    # the kernel checks no bounds, so no arrays from outside are taken
    with pytest.raises(TypeError, match="use build_ulam"):
        UlamOperator(*args)


def test_doubling_two_cell_matrix_exact():
    op = build_ulam(instantiate(doubling_family(), 0.0), 2)
    assert np.array_equal(op.matrix.toarray(), np.full((2, 2), 0.5))


def test_doubling_uniform_fixed_at_high_resolution():
    op = build_ulam(instantiate(doubling_family(), 0.0), 1024)
    uni = GridDensity.uniform(1024)
    assert l1_distance(op.apply(uni), uni) < 1e-14


def test_tent_matches_interval_oracle():
    inst = instantiate(tent_family(), 0.0)
    for n in (4, 16):
        op = build_ulam(inst, n)
        assert np.abs(op.matrix.toarray() - affine_ulam_oracle(inst, n)).max() < 1e-12


@pytest.mark.parametrize("family,gamma", [
    (doubling_family(), 1.0),        # slope 3: every cell's image spans 3+ cells
    (breakpoint_family(), 0.0),
    (breakpoint_family(), 0.1),
])
def test_steep_images_match_interval_oracle(family, gamma):
    # one chord per cell, so each image spans several target cells
    inst = instantiate(family, gamma)
    for n in (16, 64):
        op = build_ulam(inst, n, quadrature=1)
        assert np.abs(op.matrix.toarray() - affine_ulam_oracle(inst, n)).max() < 1e-12


@pytest.mark.parametrize("family,gammas", [
    (doubling_family(), (-0.05, 0.0, 0.1)),
    (pm_family(0.5), (0.05, 0.1, 0.3)),
    (lsv_family(0.5), (0.05, 0.1, 0.3)),
    (breakpoint_family(), (-0.05, 0.0, 0.1)),
    (circle_family(), (-0.3, 0.0, 0.3)),
])
def test_operator_axioms(family, gammas):
    rng = np.random.default_rng(10)
    for gamma in gammas:
        op = build_ulam(instantiate(family, gamma), 128)
        assert np.abs(op.matrix.sum(axis=0) - 1).max() <= 1e-10
        for _ in range(100):
            phi = random_density(rng, 128)
            out = op.apply(phi)
            assert np.all(out.values >= 0)                       # positivity
            assert abs(out.mass - phi.mass) <= 1e-10             # mass
            assert l1_norm(out) <= l1_norm(phi) * (1 + 1e-12)    # contraction
        # signed functions contract too
        diff = GridDensity(rng.uniform(-1, 1, 128), density=False)
        out = GridDensity(op.matrix @ diff.values, density=False)
        assert l1_norm(out) <= l1_norm(diff) * (1 + 1e-12)


def test_apply_sequence_identity_and_composition():
    rng = np.random.default_rng(11)
    phi = random_density(rng, 64)
    assert apply_sequence([], phi) is phi
    a = build_ulam(instantiate(doubling_family(), 0.0), 64)
    b = build_ulam(instantiate(tent_family(), 0.0), 64)
    seq = apply_sequence([a, b], phi)
    manual = b.apply(a.apply(phi))
    assert np.array_equal(seq.values, manual.values)  # bit-for-bit


def test_apply_sequence_two_cell_example():
    phi = GridDensity.indicator(0.0, 0.5, 2, height=2.0)
    out = apply_sequence([build_ulam(instantiate(doubling_family(), 0.0), 2)],
                         phi)
    assert l1_distance(out, GridDensity.uniform(2)) == 0.0


def test_composition_order_matters():
    rng = np.random.default_rng(12)
    phi = random_density(rng, 4)
    a = build_ulam(instantiate(breakpoint_family(), 0.0), 4)
    b = build_ulam(instantiate(tent_family(), 0.0), 4)
    ab = apply_sequence([a, b], phi)
    ba = apply_sequence([b, a], phi)
    assert l1_distance(ab, ba) > 1e-6


def test_averaged_point_mass_equals_member():
    # one midpoint node at radius 0 is the center itself, with weight 1
    fam = pm_family(0.5)
    member = build_ulam(instantiate(fam, 0.1), 64)
    avg = averaged_operator(fam, AveragingLaw(center=0.1, radius=0.0,
                                              n_samples=1), 64)
    assert np.array_equal(avg.matrix.toarray(), member.matrix.toarray())


def test_averaged_two_node_law_is_midpoint():
    # two midpoint nodes of [-0.02, 0.02] are -0.01 and 0.01
    fam = doubling_family()
    m1 = build_ulam(instantiate(fam, -0.01), 32).matrix.toarray()
    m2 = build_ulam(instantiate(fam, 0.01), 32).matrix.toarray()
    avg = averaged_operator(fam, AveragingLaw(center=0.0, radius=0.02,
                                              n_samples=2), 32)
    assert np.abs(avg.matrix.toarray() - 0.5 * (m1 + m2)).max() < 1e-15


def averaged_operator_oracle(family, nu, n_cells):
    """The averaged operator as a fold of scipy CSR sums over the members."""
    nodes, weights = nu.nodes()
    acc = 0
    for gamma, w in zip(nodes, weights):
        acc = acc + w * build_ulam(instantiate(family, float(gamma)),
                                   n_cells).matrix
    return acc


@pytest.mark.parametrize("fam,center,n_cells,n_samples", [
    (pm_family(0.5), 0.1, 300, 8), (pm_family(0.5), 0.1, 128, 64),
    (pm_family(0.5), 0.1, 300, 1),
    # a small odd grid on which every member repeats an entry
    (breakpoint_family(), -0.1, 3, 5),
], ids=["300-8", "128-64", "300-1", "breakpoint-3-5"])
def test_averaged_operator_matches_csr_fold_bitwise(fam, center, n_cells,
                                                    n_samples):
    nu = AveragingLaw(center=center, radius=0.02, n_samples=n_samples)
    got = averaged_operator(fam, nu, n_cells)
    want = averaged_operator_oracle(fam, nu, n_cells)
    assert got.n_cells == n_cells
    for field in ("indptr", "indices", "data"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_matrix_shares_the_operator_arrays():
    # built on first use from the operator's own read-only arrays, no copy
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 256)
    mat = op.matrix
    assert mat is op.matrix
    assert mat.shape == (256, 256)
    for field in ("indptr", "indices", "data"):
        # scipy may hold a view of the same memory, never a copy
        ours, theirs = getattr(op, field), getattr(mat, field)
        assert np.shares_memory(ours, theirs)
        assert theirs.tobytes() == ours.tobytes()
        assert not ours.flags.writeable and not theirs.flags.writeable
    assert op.indices.dtype == np.int32 and op.indptr.dtype == np.int32
    assert mat.has_canonical_format
    with pytest.raises(AttributeError):
        op.data = op.data.copy()


def test_averaging_law_is_uniform_only():
    assert AveragingLaw(center=0.1, radius=0.01).law == "uniform"
    with pytest.raises(ValueError, match="unknown averaging law 'point'"):
        AveragingLaw(center=0.1, radius=0.01, law="point").nodes()


def test_averaged_quadrature_refinement():
    # entries are piecewise linear in the parameter for affine families, so
    # doubling the midpoint rule changes them only near the kinks
    fam = doubling_family()
    a64 = averaged_operator(fam, AveragingLaw(0.0, 0.01, "uniform", 64), 32)
    a128 = averaged_operator(fam, AveragingLaw(0.0, 0.01, "uniform", 128), 32)
    assert np.abs(a64.matrix.toarray() - a128.matrix.toarray()).max() < 1e-6


def test_averaged_operator_axioms():
    fam = pm_family(0.5)
    nu = AveragingLaw(center=0.1, radius=0.02, law="uniform", n_samples=16)
    op = averaged_operator(fam, nu, 64)
    assert np.abs(op.matrix.sum(axis=0) - 1).max() <= 1e-10
    assert np.all(op.matrix.toarray() >= 0)


def test_fixed_density_doubling_uniform():
    op = build_ulam(instantiate(doubling_family(), 0.0), 256)
    phi = fixed_density(op, tol=1e-13)
    assert l1_distance(phi, GridDensity.uniform(256)) < 1e-12


def test_fixed_density_pm_peaks_near_zero():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 512)
    phi = fixed_density(op, tol=1e-12)
    assert l1_distance(op.apply(phi), phi) <= 1e-12
    assert np.argmax(phi.values) < 16
    # cross-check against a dense eigensolve
    w, v = np.linalg.eig(op.matrix.toarray())
    lead = np.real(v[:, np.argmax(np.abs(w))])
    lead = np.abs(lead)
    lead = lead / lead.mean()
    assert l1_distance(phi, GridDensity(lead)) < 1e-8


def test_fixed_density_different_start_same_answer():
    op = build_ulam(instantiate(pm_family(0.5), 0.1), 256)
    tol = 1e-11
    a = fixed_density(op, tol=tol)
    vals = np.linspace(0.5, 1.5, 256)
    start = GridDensity(vals / vals.mean())
    cur = start
    for _ in range(20000):
        nxt = op.apply(cur)
        if l1_distance(nxt, cur) <= tol:
            cur = nxt
            break
        cur = nxt
    assert l1_distance(a, cur) <= 10 * tol


def test_fixed_density_nonconvergence_reports_residual():
    # column-stochastic but periodic: mass bounces between the first two
    # cells forever, so power iteration from uniform cannot settle
    osc = np.array([[0.0, 1.0, 1.0],
                    [1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0]])
    with pytest.raises(NonConvergenceError) as err:
        fixed_density(csr_operator(osc), tol=1e-13, max_iter=50)
    assert "residual" in str(err.value)


def test_averaged_small_radius_close_to_member_fixed_density():
    fam = pm_family(0.5)
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), 256))
    prev = np.inf
    for delta in (0.02, 0.01, 0.005):
        nu = AveragingLaw(center=0.1, radius=delta, law="uniform", n_samples=32)
        d = l1_distance(fixed_density(averaged_operator(fam, nu, 256)), phi_hat)
        assert d < prev
        prev = d


def test_lasota_yorke_constant_density_isolates_offset():
    fam = doubling_family()
    op = build_ulam(instantiate(fam, 0.0), 256)
    fit = lasota_yorke_fit(fam, 0.0, 0.5,
                           [GridDensity.uniform(256),
                            GridDensity.indicator(0.0, 0.5, 256, height=2.0)])
    l1_img = quasi_holder_seminorm(op.apply(GridDensity.uniform(256)),
                                   0.5).seminorm
    assert fit.c_hat >= l1_img - 1e-12


def test_lasota_yorke_degenerate_test_set():
    fam = doubling_family()
    with pytest.raises(ValueError):
        lasota_yorke_fit(fam, 0.0, 0.5, [GridDensity.uniform(64)])


def test_lasota_yorke_doubling_contraction():
    rng = np.random.default_rng(13)
    from nonstat_dyn.cli import random_step_density
    fam = doubling_family()
    test_set = [random_step_density(512, rng) for _ in range(40)]
    fit = lasota_yorke_fit(fam, 0.0, 0.5, test_set)
    assert fit.eta_hat < 1.0
    assert 0.0 < fit.satisfied_fraction <= 1.0
    # the inflated envelope covers every test pair
    op = build_ulam(instantiate(fam, 0.0), 512)
    for phi in test_set:
        lhs = quasi_holder_seminorm(op.apply(phi), 0.5).seminorm
        rhs = (fit.eta_hat * quasi_holder_seminorm(phi, 0.5).seminorm
               + fit.c_hat * l1_norm(phi))
        assert lhs <= rhs + 1e-9
    worst = max(iterated_bound_margin(op, phi, fit, n_powers=10)
                for phi in test_set[:10])
    assert worst <= 1.0


def test_perturbation_probe_zero_radius_is_zero():
    fam = doubling_family()
    phi = GridDensity.indicator(0.0, 0.5, 128, height=2.0)
    probe = perturbation_probe(fam, 0.0, 0.0, 10, phi, seq_seed=0)
    assert np.all(probe.curve == 0.0)
    env = fit_decay_envelope(probe.curve, probe.norm_alpha)
    bound = env.c_dominating * probe.norm_alpha * env.s_fit ** np.arange(11)
    assert np.all(probe.curve <= bound + 1e-12)


def test_perturbation_probe_bounded_and_shrinking():
    fam = doubling_family()
    phi = GridDensity.indicator(0.0, 0.5, 256, height=2.0)
    means = {}
    for delta in (0.02, 0.01, 0.005):
        curves = [perturbation_probe(fam, 0.0, delta, 30, phi, seq_seed=s).curve
                  for s in range(10)]
        means[delta] = np.mean(curves, axis=0)
        assert means[delta].max() < 0.2
    assert means[0.01].mean() < means[0.02].mean()
    assert means[0.005].mean() < means[0.01].mean()


def test_perturbation_probe_ball_must_lie_in_range(monkeypatch):
    phi = GridDensity.uniform(64)
    # a ball reaching an end of the range exactly is inside it
    probe = perturbation_probe(doubling_family(), 0.0, 0.9, 5, phi, seq_seed=0)
    assert probe.deltas_used.min() >= -0.9

    def no_step(*args, **kwargs):
        raise AssertionError("an operator was built")
    monkeypatch.setattr(transfer, "build_ulam", no_step)
    for gamma_hat, delta in ((0.0099, 0.01), (0.0099, -0.01), (0.995, 0.01)):
        with pytest.raises(ValueError, match="is not inside"):
            perturbation_probe(pm_family(0.5), gamma_hat, delta, 5, phi,
                               seq_seed=0)


def test_probe_dominated_by_envelope():
    fam = pm_family(0.5)
    phi = GridDensity.uniform(256)
    probe = perturbation_probe(fam, 0.1, 0.01, 30, phi, seq_seed=1)
    env = fit_decay_envelope(probe.curve, probe.norm_alpha)
    bound = env.c_dominating * probe.norm_alpha * env.s_fit ** np.arange(31)
    assert np.all(probe.curve <= bound + 1e-12)


def test_fit_decay_envelope_exact_geometric():
    curve = 0.3 * 0.8 ** np.arange(20)
    env = fit_decay_envelope(curve, 1.0)
    assert abs(env.s_fit - 0.8) < 0.02
    assert env.rel_residual < 0.02

