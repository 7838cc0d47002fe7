import hashlib
import tracemalloc

import numpy as np
import pytest

from nonstat_dyn.maps import (circle_family, doubling_family, instantiate,
                              pm_family)
from nonstat_dyn.network import (NetworkSystem, diffusive_coupling,
                                 gen_schedule, histogram_noise_floor,
                                 simulate_ensemble, step_network)
from nonstat_dyn.seeding import substream


def test_static_complete_schedule():
    sched = gen_schedule("static", 4, horizon=10)
    assert sched.matrix_at(0).sum() == 12  # directed edges of K4
    assert np.array_equal(sched.matrix_at(0), sched.matrix_at(9))
    assert np.all(np.diagonal(sched.matrix_at(3)) == 0)


def test_periodic_failure_schedule():
    sched = gen_schedule("periodic-failure", 3, horizon=8, period=2, edge=(0, 1))
    for t in range(8):
        assert sched.matrix_at(t)[0, 1] == (1 if t % 2 == 0 else 0)


def test_bursty_schedule_mean_run_length():
    sched = gen_schedule("bursty", 8, horizon=10000, seed=7, p=0.9,
                         fail_rate=0.05)
    mean_run = sched.mean_failure_run_length()
    assert abs(mean_run - 10.0) / 10.0 < 0.1


def test_schedule_determinism():
    a = gen_schedule("bursty", 5, horizon=500, seed=3, p=0.8, fail_rate=0.1)
    b = gen_schedule("bursty", 5, horizon=500, seed=3, p=0.8, fail_rate=0.1)
    assert np.array_equal(a.matrices, b.matrices)


def test_schedule_validation():
    with pytest.raises(ValueError):
        gen_schedule("bursty", 1, horizon=10)
    with pytest.raises(ValueError):
        gen_schedule("bursty", 4, horizon=10, p=1.5)
    with pytest.raises(ValueError):
        gen_schedule("nope", 4, horizon=10)
    bad = np.ones((2, 3, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        gen_schedule("explicit", 3, horizon=2, explicit=bad)  # diagonal


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


def test_zero_coupling_function_same_as_uncoupled():
    node = instantiate(doubling_family(), 0.0)
    sched = gen_schedule("static", 4, horizon=4)
    a = NetworkSystem(node_map=node, n_nodes=4, alpha_c=0.05, h_name="zero")
    b = NetworkSystem(node_map=node, n_nodes=4, alpha_c=0.0)
    x = np.random.default_rng(0).uniform(0, 1, (10, 4))
    assert np.array_equal(step_network(a, x, 0, sched),
                          step_network(b, x, 0, sched))


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
                                n_bins=16, checkpoint_every=10)
    # replicate the ensemble loop by hand with the same substreams
    x = substream(9, "network-init").uniform(0.0, 1.0, (ensemble, n_nodes))
    rng = substream(9, "network-dither")
    counts = []
    for t in range(steps):
        x = (node.evaluate(x.ravel()).reshape(x.shape)) % 1.0
        x = (x + rng.uniform(-0.5e-12, 0.5e-12, x.shape)) % 1.0
        if (t + 1) % 10 == 0 or t + 1 == steps:
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


@pytest.mark.parametrize("h_name,expected", [
    ("diffusive",
     "3fc1056df50906e1a5ce44721e22128ebd350a98c7884dd69bad3c9b14ded92d"),
    ("generic",
     "e03e57e53a08b035e1c222a20168e4b3ceae91455c4e31c5afe58a674ca53567"),
])
def test_step_states_bits_pinned(h_name, expected):
    # "generic" is the same sine coupling as another function, which takes
    # the einsum branch instead of the two-matmul one
    kwargs = {}
    if h_name == "generic":
        kwargs = {"h": lambda xj, xi: np.sin(2 * np.pi * (xj - xi)) / (2 * np.pi),
                  "h_name": "sine"}
    system = NetworkSystem(node_map=instantiate(pm_family(0.5), 0.1),
                           n_nodes=4, alpha_c=0.02, **kwargs)
    sched = gen_schedule("bursty", 4, horizon=30, seed=4, p=0.8, fail_rate=0.2)
    x = substream(4, "pin").uniform(0.0, 1.0, (50, 4))
    states = []
    for t in range(30):
        x = step_network(system, x, t, sched)
        states.append(x)
    assert digest(np.array(states)) == expected


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
        simulate_ensemble(system, sched, 10_000, 40, seed=1,
                          checkpoint_every=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.7 * 2 ** 20
