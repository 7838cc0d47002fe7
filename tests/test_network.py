import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from nonstat_dyn.maps import (circle_family, doubling_family, instantiate,
                              mod1, pm_family)
from nonstat_dyn import _helpers, maps, network
from nonstat_dyn.network import (AdjacencySchedule, NetworkSystem,
                                 diffusive_coupling, gen_schedule,
                                 histogram_noise_floor, simulate_ensemble,
                                 step_network)
from nonstat_dyn.seeding import substream
from nonstat_dyn.transfer import build_ulam, fixed_density
from test_helpers import assert_no_child_left, counting_forks


def test_static_complete_schedule():
    sched = gen_schedule("static", 4, horizon=10)
    assert sched.matrix_at(0).sum() == 12  # directed edges of K4
    assert np.array_equal(sched.matrix_at(0), sched.matrix_at(9))
    assert np.all(np.diagonal(sched.matrix_at(3)) == 0)


def test_periodic_failure_schedule():
    for period in (2, 3):
        sched = gen_schedule("periodic-failure", 3, horizon=8, period=period)
        for t in range(8):
            assert sched.matrix_at(t)[0, 1] == (1 if t % period == 0 else 0)
            assert sched.matrix_at(t).sum() == (6 if t % period == 0 else 5)


def test_bursty_schedule_mean_run_length():
    sched = gen_schedule("bursty", 8, horizon=10000, seed=7, p=0.9,
                         fail_rate=0.05)
    mean_run = sched.mean_failure_run_length()
    assert abs(mean_run - 10.0) / 10.0 < 0.1


def loop_mean_failure_run_length(schedule):
    """The mean absent-run length walked edge by edge and step by step."""
    present = schedule.matrices.astype(bool)
    runs = []
    n = schedule.n_nodes
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            edge = present[:, i, j]
            if edge.all() or not edge.any():
                continue
            run = 0
            for v in edge:
                if not v:
                    run += 1
                elif run:
                    runs.append(run)
                    run = 0
            if run:
                runs.append(run)
    return float(np.mean(runs)) if runs else 0.0


@pytest.mark.parametrize("kind", ["static", "periodic-failure", "bursty"])
@pytest.mark.parametrize("n_nodes", [2, 3, 8])
def test_mean_failure_run_length_equals_loop_oracle(kind, n_nodes):
    cases = [gen_schedule(kind, n_nodes, horizon, seed=seed, p=p,
                          fail_rate=fail_rate, period=period)
             for horizon in (1, 2, 7, 300)
             for seed in (0, 3)
             for p, fail_rate in ((0.9, 0.05), (0.3, 0.6), (0.5, 0.0))
             for period in (2, 5)]
    # an edge absent throughout, and one absent at the first and last steps
    mats = np.ones((6, n_nodes, n_nodes), dtype=np.uint8)
    mats[:, np.arange(n_nodes), np.arange(n_nodes)] = 0
    mats[:, 1, 0] = 0
    mats[[0, -1], 0, 1] = 0
    cases.append(AdjacencySchedule(n_nodes=n_nodes, matrices=mats))
    for sched in cases:
        got = sched.mean_failure_run_length()
        assert type(got) is float
        assert got == loop_mean_failure_run_length(sched)


def test_schedule_determinism():
    a = gen_schedule("bursty", 5, horizon=500, seed=3, p=0.8, fail_rate=0.1)
    b = gen_schedule("bursty", 5, horizon=500, seed=3, p=0.8, fail_rate=0.1)
    assert np.array_equal(a.matrices, b.matrices)


def test_schedule_validation():
    with pytest.raises(ValueError):
        gen_schedule("bursty", 1, horizon=10)
    with pytest.raises(ValueError):
        gen_schedule("bursty", 4, horizon=10, p=1.5)
    # checked for every kind, though a static schedule does not read p
    with pytest.raises(ValueError):
        gen_schedule("static", 4, horizon=10, p=1.5)
    with pytest.raises(ValueError):
        gen_schedule("nope", 4, horizon=10)
    bad = np.ones((2, 3, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        AdjacencySchedule(n_nodes=3, matrices=bad)  # diagonal


@pytest.mark.parametrize("entry", [0.5, 1.9, np.int64(257)])
def test_schedule_entries_checked_before_the_cast(entry):
    # a uint8 cast would make 0.5 a dropped edge and 1.9 or 257 an edge
    mats = network._complete(3)[None].astype(np.asarray(entry).dtype)
    mats[0, 0, 1] = entry
    with pytest.raises(ValueError, match="0 or 1"):
        AdjacencySchedule(n_nodes=3, matrices=mats)
    mats[0, 0, 1] = 1
    schedule = AdjacencySchedule(n_nodes=3, matrices=mats)
    assert schedule.matrices.dtype == np.uint8


def test_coupling_budget_enforced():
    node = instantiate(doubling_family(), 0.0)
    NetworkSystem(node_map=node, n_nodes=8, alpha_c=0.01)
    with pytest.raises(ValueError):
        NetworkSystem(node_map=node, n_nodes=8, alpha_c=0.2)


def test_uncoupled_step_is_plain_map():
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("static", 4, horizon=4)
    system = NetworkSystem(node_map=node, n_nodes=4, alpha_c=0.0)
    x = np.array([0.1, 0.2, 0.3, 0.7])
    out = step_network(system, x, 0, sched)
    assert np.array_equal(out, (2 * x) % 1.0)


def test_symmetric_state_has_no_coupling_drift():
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("static", 2, horizon=4)
    system = NetworkSystem(node_map=node, n_nodes=2, alpha_c=0.05)
    x = np.array([0.3, 0.3])
    out = step_network(system, x, 0, sched)
    assert np.allclose(out, (2 * x) % 1.0, atol=1e-15)


def test_coupling_antisymmetry_zero_mean_drift():
    node = instantiate(circle_family(), 0.0)
    sched = gen_schedule("static", 4, horizon=2)
    system = NetworkSystem(node_map=node, n_nodes=4, alpha_c=0.05)
    rng = substream(1, "drift")
    x = rng.uniform(0, 1, (20000, 4))
    A = sched.matrix_at(0).astype(float)
    xj = x[:, None, :]
    xi = x[:, :, None]
    coupling = np.einsum("ij,eij->ei", A, diffusive_coupling(xj, xi))
    assert abs(coupling.mean()) < 5e-4


def test_uncoupled_marginals_match_single_map_bitwise():
    node = instantiate(doubling_family(), 0.0)
    n_nodes, ensemble, steps = 3, 400, 50
    sched = gen_schedule("static", n_nodes, horizon=steps)
    system = NetworkSystem(node_map=node, n_nodes=n_nodes, alpha_c=0.0)
    summary = simulate_ensemble(system, sched, ensemble, steps, seed=9,
                                n_bins=16)
    # replicate the ensemble loop by hand with the same substreams
    x = substream(9, "network-init").uniform(0.0, 1.0, (ensemble, n_nodes))
    rng = substream(9, "network-dither")
    counts = []
    for t in range(steps):
        x = (node.evaluate(x.ravel()).reshape(x.shape)) % 1.0
        x = (x + rng.uniform(-0.5e-12, 0.5e-12, x.shape)) % 1.0
        if (t + 1) % 2 == 0 or t + 1 == steps:    # every 50 // 20 steps
            counts.append([np.bincount(np.minimum((x[:, i] * 16).astype(int), 15),
                                       minlength=16) for i in range(n_nodes)])
    assert np.array_equal(summary.counts, np.array(counts))


def test_marginal_mass_exact():
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("bursty", 4, horizon=100, seed=2, p=0.9)
    system = NetworkSystem(node_map=node, n_nodes=4, alpha_c=0.01)
    summary = simulate_ensemble(system, sched, 500, 100, seed=2, n_bins=32)
    assert np.all(summary.counts.sum(axis=2) == 500)


def test_uncoupled_marginals_at_noise_floor():
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("static", 4, horizon=300)
    system = NetworkSystem(node_map=node, n_nodes=4, alpha_c=0.0)
    summary = simulate_ensemble(system, sched, 4000, 300, seed=5, n_bins=32)
    assert summary.max_distance.max() < 2 * histogram_noise_floor(4000, 32)


def test_coupled_marginals_stay_close():
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("bursty", 8, horizon=500, seed=6, p=0.9,
                         fail_rate=0.05)
    system = NetworkSystem(node_map=node, n_nodes=8, alpha_c=0.01)
    summary = simulate_ensemble(system, sched, 2000, 500, seed=6, n_bins=32)
    assert summary.max_distance.max() < 0.15


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_coupled_ensemble_bits_pinned():
    # digests recorded with the out-of-place step and `% 1.0` wraps; the
    # in-place step and mod1 must not change a bit
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("bursty", 4, horizon=200, seed=3, p=0.9,
                         fail_rate=0.05)
    system = NetworkSystem(node_map=node, n_nodes=4, alpha_c=0.05)
    summary = simulate_ensemble(system, sched, 500, 200, seed=3, n_bins=16)
    assert summary.counts.shape == (20, 4, 16)
    assert digest(summary.counts) == (
        "48b37250a22d43870a734b47f08590cd38c2ee35cfd572dce700706557ed2e8b")
    assert digest(summary.distances) == (
        "b14787e0c7b5f339512465ff05fe1c157106801485285ad2de9961b6b513a9f6")


def test_step_states_bits_pinned():
    system = NetworkSystem(node_map=instantiate(pm_family(0.5), 0.1),
                           n_nodes=4, alpha_c=0.02)
    sched = gen_schedule("bursty", 4, horizon=30, seed=4, p=0.8, fail_rate=0.2)
    x = substream(4, "pin").uniform(0.0, 1.0, (50, 4))
    states = []
    for t in range(30):
        x = step_network(system, x, t, sched)
        states.append(x)
    assert digest(np.array(states)) == (
        "3fc1056df50906e1a5ce44721e22128ebd350a98c7884dd69bad3c9b14ded92d")


def test_diffusive_step_equals_expression():
    node = instantiate(pm_family(0.5), 0.1)
    sched = gen_schedule("bursty", 5, horizon=4, seed=8, p=0.8, fail_rate=0.3)
    system = NetworkSystem(node_map=node, n_nodes=5, alpha_c=0.02)
    x = substream(8, "expr").uniform(0.0, 1.0, (300, 5))
    for t in range(4):
        A = sched.matrix_at(t).astype(float)
        s, c = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
        coupling = (c * (s @ A.T) - s * (c @ A.T)) / (2 * np.pi)
        want = (node.evaluate(x.ravel()).reshape(x.shape)
                + 0.02 * coupling) % 1.0
        got = step_network(system, x, t, sched)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        x = got


def test_ensemble_memory_bounded():
    # 10^4 x 8 states are 625 KiB; the out-of-place step peaked at 3.7 MiB
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("bursty", 8, horizon=40, seed=1)
    system = NetworkSystem(node_map=node, n_nodes=8, alpha_c=0.01)
    tracemalloc.start()
    try:
        simulate_ensemble(system, sched, 10_000, 40, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.7 * 2 ** 20


def plain_sin_cos(c):
    """The trig of network._diffusive_sum before it was grouped."""
    s = np.sin(c)
    np.cos(c, out=c)
    return s


def ungrouped_sum(x, A):
    """network._diffusive_sum as it was before its trig was grouped."""
    c = network.TWO_PI * x
    s = plain_sin_cos(c)
    total = s @ A.T
    total *= c
    cos_sum = c @ A.T
    cos_sum *= s
    total -= cos_sum
    total /= network.TWO_PI
    return total


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_adjacency(n, seed):
    A = (substream(seed, "adjacency").random((n, n)) < 0.6).astype(float)
    np.fill_diagonal(A, 0.0)
    return A


@pytest.mark.parametrize("shape", [(1, 8), (1, 2), (7, 3), (1024, 8),
                                   (3001, 5)])
def test_grouped_diffusive_sum_equals_ungrouped(shape):
    x = substream(shape[0], "grouped").uniform(0.0, 1.0, shape)
    A = random_adjacency(shape[1], shape[0])
    assert_same_bits(network._diffusive_sum(x, A), ungrouped_sum(x, A))
    # a transposed, non-contiguous state gives the same bits too
    xt = np.ascontiguousarray(x.T).T
    assert_same_bits(network._diffusive_sum(xt, A), ungrouped_sum(x, A))


def test_grouped_diffusive_sum_equals_ungrouped_on_bucket_edges():
    # the grouping key's edges and glibc's range edges: k/64, arguments at
    # and next to multiples of pi/4, signed zeros, 1, subnormals, negatives
    # and huge values
    quarter = np.arange(-16, 17) * (np.pi / 4) / network.TWO_PI
    values = np.concatenate([
        np.arange(65) / 64, np.arange(-16, 17) / 8, quarter,
        np.nextafter(quarter, np.inf), np.nextafter(quarter, -np.inf),
        [0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -0.3, -1.7,
         -123.4, 1e300, -1e300, 1e22, np.nextafter(1.0, 0.0)]])
    order = substream(9, "edges").permutation(values.size)
    for x in (values, values[order]):
        x = np.resize(x, (x.size // 4 + 1, 4))
        A = random_adjacency(4, 9)
        assert_same_bits(network._diffusive_sum(x, A), ungrouped_sum(x, A))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grouped_diffusive_sum_warns_as_ungrouped(bad):
    # each warning of the ungrouped expression once, and no other: the
    # grouping key is integer-only
    x = substream(3, "bad").uniform(0.0, 1.0, (6, 3))
    x[2, 1] = bad
    x[4, 0] = np.nan
    A = random_adjacency(3, 3)
    recorded = []
    for f in (network._diffusive_sum, ungrouped_sum):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            total = f(x, A)
        recorded.append(([(w.category, str(w.message)) for w in caught],
                         total))
    (got, got_total), (want, want_total) = recorded
    assert got == want
    assert_same_bits(got_total, want_total)


@pytest.mark.parametrize("ensemble",
                         [1, 3 * (network.TILE_VALUES // 4) + 5])
def test_walk_rows_grouped_equals_ungrouped(monkeypatch, ensemble):
    # one row, and tiles with an uneven last one, stepped with and without
    # the grouping: every state keeps its bits
    system = NetworkSystem(node_map=instantiate(pm_family(0.5), 0.1),
                           n_nodes=4, alpha_c=0.02)
    sched = gen_schedule("bursty", 4, horizon=6, seed=6, p=0.8, fail_rate=0.2)
    x0 = substream(6, "tiles").uniform(0.0, 1.0, (ensemble, 4))

    def walked():
        x = x0.copy()
        list(network._walk_rows(system, sched, x, [3, 6], 6, 16, 0,
                                ensemble))
        return x
    grouped = walked()
    monkeypatch.setattr(network, "_grouped_sin_cos", plain_sin_cos)
    assert_same_bits(grouped, walked())


def serial_simulate_oracle(system, schedule, ensemble, n_steps, seed=0,
                           n_bins=64):
    """simulate_ensemble's counts and distances from one step_network call
    over all rows per step, on one thread."""
    checkpoint_every = max(n_steps // 20, 1)
    x = substream(seed, "network-init").uniform(0.0, 1.0,
                                                (ensemble, system.n_nodes))
    rng = substream(seed, "network-dither")
    invariant = fixed_density(build_ulam(system.node_map, n_bins)).values
    counts, dists = [], []
    for t in range(n_steps):
        x = step_network(system, x, t, schedule)
        x += rng.uniform(-0.5 * maps.DITHER, 0.5 * maps.DITHER, x.shape)
        x = mod1(x)
        if (t + 1) % checkpoint_every == 0 or t + 1 == n_steps:
            cnt = np.array([np.bincount(np.minimum((x[:, i] * n_bins).astype(int),
                                                   n_bins - 1), minlength=n_bins)
                            for i in range(system.n_nodes)])
            counts.append(cnt)
            dists.append([float(np.mean(np.abs(c * (n_bins / ensemble)
                                               - invariant))) for c in cnt])
    return np.array(counts), np.array(dists)


def on_both_paths(monkeypatch, simulate):
    """simulate() on the path that forks a helper for the upper rows, with
    FORK_MIN_VALUES at 0 so that any run of 2 rows or more forks, then on
    the one-process path, with the fork condition off; the two results and
    the helpers forked by the first."""
    def no_fork():
        raise AssertionError("forked with the fork condition off")
    with monkeypatch.context() as patch:
        patch.setattr(network, "FORK_MIN_VALUES", 0)
        pids = counting_forks(patch)
        forked = simulate()
    with monkeypatch.context() as patch:
        patch.setattr(_helpers, "can_fork", lambda: False)
        patch.setattr(os, "fork", no_fork)
        alone = simulate()
    assert_no_child_left()
    return (forked, alone), len(pids)


# rows of one stepped tile at 4 and 3 nodes
TILE_ROWS_4 = network.TILE_VALUES // 4
TILE_ROWS_3 = network.TILE_VALUES // 3


@pytest.mark.parametrize("ensemble", [1, 2, 7, 10001, 4 * TILE_ROWS_4 + 3,
                                      8 * TILE_ROWS_4 + 1])
@pytest.mark.parametrize("coupling", [
    {"alpha_c": 0.02},
    {"alpha_c": -0.02},
    {"alpha_c": 0.0},
])
def test_two_thread_ensemble_equals_serial_oracle(monkeypatch, ensemble,
                                                  coupling):
    # both paths against the oracle: every ensemble of 2 rows or more steps
    # its upper half on a forked helper (the name is kept from when a worker
    # thread stepped it).  An ensemble of 1 leaves one half empty and forks
    # no helper; odd ensembles split unevenly; the largest span two and four
    # tiles and more per half, with odd remainders
    system = NetworkSystem(node_map=instantiate(pm_family(0.5), 0.1),
                           n_nodes=4, **coupling)
    sched = gen_schedule("bursty", 4, horizon=12, seed=5, p=0.8, fail_rate=0.2)
    summaries, forks = on_both_paths(
        monkeypatch, lambda: simulate_ensemble(
            system, sched, ensemble, 12, seed=11, n_bins=16))
    assert forks == (ensemble > 1 and _helpers.can_fork())
    counts, dists = serial_simulate_oracle(system, sched, ensemble, 12,
                                           seed=11, n_bins=16)
    for summary in summaries:
        assert np.array_equal(summary.counts, counts)
        assert np.array_equal(summary.distances, dists)


@pytest.mark.parametrize("dither", [3e-13, 2e-12, 1e-3, 0.7])
def test_dither_buffer_draws_the_uniform_stream(monkeypatch, dither):
    # each side's share of the dither, drawn into its own buffer between
    # advances of the stream, against the oracle's full-shape rng.uniform
    # draws; a coarse dither moves states across bins, so a changed stream
    # shows.  The larger ensembles span several tiles per half with odd
    # remainders
    monkeypatch.setattr(maps, "DITHER", dither)
    system = NetworkSystem(node_map=instantiate(doubling_family(), 0.0),
                           n_nodes=3, alpha_c=0.02)
    sched = gen_schedule("bursty", 3, horizon=20, seed=2)
    for ensemble, n_steps in ((301, 20), (4 * TILE_ROWS_3 + 3, 3),
                              (8 * TILE_ROWS_3 + 1, 4)):
        summaries, forks = on_both_paths(
            monkeypatch, lambda: simulate_ensemble(
                system, sched, ensemble, n_steps, seed=4, n_bins=16))
        assert forks == _helpers.can_fork()
        counts, dists = serial_simulate_oracle(system, sched, ensemble,
                                               n_steps, seed=4, n_bins=16)
        for summary in summaries:
            assert np.array_equal(summary.counts, counts)
            assert np.array_equal(summary.distances, dists)


def test_ensemble_failure_raises_and_leaks_no_process(monkeypatch):
    # a step that fails in this process propagates its own exception; the
    # helper, stalled on its half, is killed and reaped rather than waited
    # for, and no thread is left
    parent, step = os.getpid(), network.step_network

    def failing_step(system, state, t, schedule):
        if t == 5:
            if os.getpid() == parent:
                raise RuntimeError("step failed at t=5")
            time.sleep(60)
        return step(system, state, t, schedule)
    monkeypatch.setattr(network, "step_network", failing_step)
    monkeypatch.setattr(network, "FORK_MIN_VALUES", 0)
    system = NetworkSystem(node_map=instantiate(doubling_family(), 0.0),
                           n_nodes=4, alpha_c=0.02)
    sched = gen_schedule("static", 4, horizon=10)
    before = threading.active_count()
    pids = counting_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"^step failed at t=5$"):
        simulate_ensemble(system, sched, 100, 10, seed=1)
    assert time.monotonic() - start < 30
    assert len(pids) == _helpers.can_fork()
    assert_no_child_left()
    assert threading.active_count() == before


@pytest.mark.parametrize("dies_at", [0, 5, 11])
def test_ensemble_equals_oracle_when_the_helper_dies(monkeypatch, dies_at):
    # a helper that exits before its first checkpoint, between two, or just
    # before its last: its rows are stepped here from their initial states,
    # past the checkpoints already read, and the summary keeps its bits
    parent, step = os.getpid(), network.step_network

    def dying_step(system, state, t, schedule):
        if t == dies_at and os.getpid() != parent:
            os._exit(1)
        return step(system, state, t, schedule)
    monkeypatch.setattr(network, "step_network", dying_step)
    monkeypatch.setattr(network, "FORK_MIN_VALUES", 0)
    system = NetworkSystem(node_map=instantiate(pm_family(0.5), 0.1),
                           n_nodes=4, alpha_c=0.02)
    sched = gen_schedule("bursty", 4, horizon=12, seed=5, p=0.8, fail_rate=0.2)
    pids = counting_forks(monkeypatch)
    summary = simulate_ensemble(system, sched, 4 * TILE_ROWS_4 + 3, 12,
                                seed=11, n_bins=16)
    assert len(pids) == _helpers.can_fork()
    counts, dists = serial_simulate_oracle(system, sched, 4 * TILE_ROWS_4 + 3,
                                           12, seed=11, n_bins=16)
    assert np.array_equal(summary.counts, counts)
    assert np.array_equal(summary.distances, dists)
    assert_no_child_left()


def test_small_ensemble_forks_no_helper(monkeypatch):
    # at and just below FORK_MIN_VALUES the rows are stepped in this
    # process, with the oracle's bits; one row more forks a helper
    system = NetworkSystem(node_map=instantiate(pm_family(0.5), 0.1),
                           n_nodes=4, alpha_c=0.02)
    sched = gen_schedule("bursty", 4, horizon=16, seed=5, p=0.8, fail_rate=0.2)
    rows = network.FORK_MIN_VALUES // (4 * 16)
    for ensemble in (100, rows):
        with monkeypatch.context() as patch:
            pids = counting_forks(patch)
            summary = simulate_ensemble(system, sched, ensemble, 16, seed=3,
                                        n_bins=16)
        assert pids == []
        counts, dists = serial_simulate_oracle(system, sched, ensemble, 16,
                                               seed=3, n_bins=16)
        assert np.array_equal(summary.counts, counts)
        assert np.array_equal(summary.distances, dists)
    with monkeypatch.context() as patch:
        pids = counting_forks(patch)
        simulate_ensemble(system, sched, rows + 1, 16, seed=3, n_bins=16)
    assert len(pids) == _helpers.can_fork()
    assert_no_child_left()


def test_package_import_starts_no_thread_pool():
    # concurrent.futures, and the logging it pulls in, stay unloaded
    code = ("import sys, threading, nonstat_dyn; "
            "print('concurrent.futures' in sys.modules, "
            "threading.active_count())")
    src = str(Path(network.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "1"]


@pytest.mark.parametrize("ensemble,n_steps,message", [
    (0, 10, "ensemble must be positive"),
    (10, 0, "n_steps must be positive"),
    (10, -1, "n_steps must be positive"),
    (10, 11, "schedule horizon 10 is shorter than n_steps 11"),
])
def test_ensemble_edge_inputs_rejected_before_any_work(
        monkeypatch, ensemble, n_steps, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the inputs were checked")

    monkeypatch.setattr(network, "build_ulam", no_work)
    monkeypatch.setattr(network, "step_network", no_work)
    system = NetworkSystem(node_map=instantiate(doubling_family(), 0.0),
                           n_nodes=4, alpha_c=0.02)
    sched = gen_schedule("static", 4, horizon=10)
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_ensemble(system, sched, ensemble, n_steps)
