import collections
import os
import tracemalloc

import numpy as np
import pytest

from nonstat_dyn import birkhoff, maps, sequences, transfer
from nonstat_dyn.birkhoff import (band_pass_check,
                                  birkhoff_averages, covariance_decay,
                                  lln_summability, lp_distance, observable,
                                  orbit_points, quasi_birkhoff_band,
                                  wilson_interval)
from nonstat_dyn.densities import GridDensity
from nonstat_dyn.maps import doubling_family, instantiate, mod1, pm_family
from nonstat_dyn.seeding import substream
from nonstat_dyn.sequences import (ParameterSequence, adversarial_demo,
                                   evolve_density)
from nonstat_dyn.transfer import (build_ulam, fixed_density, per_run,
                                  perturbation_probe)


def test_observable_norms():
    psi = observable("cos", 4096)
    assert abs(psi.norm_l1 - 2 / np.pi) < 1e-3


def test_constant_observable_average_is_one():
    fam = doubling_family()
    res = birkhoff_averages(fam, ParameterSequence.iid(0.0, 0.01, 0), 20,
                            observable("one", 64), 500, seed=0)
    assert np.all(res.averages == 1.0)
    assert np.all(res.tail_min == 1.0)
    assert np.all(res.tail_max == 1.0)


def test_doubling_cos_averages_near_zero():
    fam = doubling_family()
    res = birkhoff_averages(fam, ParameterSequence.constant(0.0), 100,
                            observable("cos", 256), 100000, seed=1)
    close = np.abs(res.averages[0]) < 0.02
    assert close.sum() >= 95


def test_pm_averages_concentrate_at_space_average():
    fam = pm_family(0.5)
    cells = 512
    psi = observable("x", cells)
    phi_hat = fixed_density(build_ulam(instantiate(fam, 0.1), cells))
    target = float(np.mean(psi.values * phi_hat.values))
    res = birkhoff_averages(fam, ParameterSequence.iid(0.1, 0.01, 2), 50,
                            psi, 20000, seed=2)
    assert np.median(np.abs(res.averages[0] - target)) < 0.02


def test_band_trivial_for_constant_observable():
    band = quasi_birkhoff_band(observable("one", 64), GridDensity.uniform(64),
                               0.05)
    assert band.lo <= 1.0 <= band.hi
    fam = doubling_family()
    res = birkhoff_averages(fam, ParameterSequence.constant(0.0), 10,
                            observable("one", 64), 100, seed=3)
    chk = band_pass_check(res, band)
    assert chk.fraction == 1.0


def test_band_unperturbed_mixing_pass_fraction_grows():
    fam = doubling_family()
    psi = observable("cos", 256)
    band = quasi_birkhoff_band(psi, GridDensity.uniform(256), 0.02)
    fracs = []
    for n in (2000, 50000):
        res = birkhoff_averages(fam, ParameterSequence.constant(0.0), 60,
                                psi, n, seed=4)
        fracs.append(band_pass_check(res, band).fraction)
    assert fracs[-1] >= fracs[0]
    assert fracs[-1] >= 0.95


def test_wilson_interval_basic():
    lo, hi = wilson_interval(95, 100)
    assert 0.88 < lo < 0.95 < hi <= 1.0


def test_orbit_points_deterministic():
    fam = doubling_family()
    seq = ParameterSequence.iid(0.0, 0.01, 5)
    a = orbit_points(fam, seq, np.array([0.3]), 100, seed=6)
    b = orbit_points(fam, seq, np.array([0.3]), 100, seed=6)
    assert np.array_equal(a, b)


def test_streams_build_once_per_run(monkeypatch, tmp_path):
    # a map or operator is built once per run of equal consecutive
    # parameters: once for a constant stream, at every step of an iid one,
    # and no instance outlives its step.  Every step of a run shares its
    # one CSR operator.  An iid density loop builds every other operator on
    # a helper process, so each call appends its label as one line to a
    # file opened with O_APPEND, which the calls of both processes reach.
    # A CPU is taken as idle, so the helper is used whatever else runs
    monkeypatch.setattr(transfer, "_runnable_elsewhere", lambda: 0)
    log = tmp_path / "builds"

    def count_calls(module, name, label):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{label}\n".encode())
            finally:
                os.close(fd)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count_calls(birkhoff, "instantiate", "instantiate")
    count_calls(transfer, "build_ulam", "csr")
    count_calls(sequences, "build_ulam", "csr")

    def builds_of(run):
        # the stream has reaped its helper once the run returns
        log.write_bytes(b"")
        run()
        return dict(collections.Counter(log.read_text().split()))

    fam, n, phi0 = pm_family(0.5), 800, GridDensity.uniform(64)
    const = ParameterSequence.constant(0.1)
    iid = ParameterSequence.iid(0.1, 0.01, 0)
    assert builds_of(lambda: orbit_points(fam, const, [0.3], n)) == {
        "instantiate": 1}
    tracemalloc.start()
    try:
        assert builds_of(lambda: orbit_points(fam, iid, [0.3], n)) == {
            "instantiate": n}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19
    assert builds_of(lambda: evolve_density(fam, const, phi0, 50)) == {
        "csr": 1}
    assert builds_of(lambda: evolve_density(fam, iid, phi0, 50)) == {
        "csr": 50}
    # the +eps operator serves both its blocks and the +eps fixed density
    assert builds_of(lambda: adversarial_demo(
        fam, 0.1, (0, 8, 24, 56), n_max=50, n_cells=64)) == {"csr": 2}
    # one operator for the constant comparison, one per step on the iid side
    assert builds_of(lambda: perturbation_probe(
        fam, 0.1, 0.01, 50, phi0, seq_seed=0)) == {"csr": 51}
    # the orbit instantiates through birkhoff, the spectral means through
    # transfer
    assert builds_of(lambda: covariance_decay(
        fam, iid, observable("x", 64), (2, 50), ensemble=100)) == {
        "instantiate": 50, "csr": 50}


def per_step_orbit(family, gammas, x, rng, dither):
    """Reference: the dither drawn by one rng.uniform call per step."""
    for instance in per_run(lambda gamma: instantiate(family, gamma), gammas):
        fx = instance.evaluate(x)
        fx += rng.uniform(-0.5 * dither, 0.5 * dither, x.shape)
        x = mod1(fx)
        yield x


@pytest.mark.parametrize("points", [1, 100, 10 ** 4])
def test_block_dither_equals_per_step_draws(monkeypatch, points):
    # horizons on both sides of one draw's block of steps, and past three;
    # a coarse dither on a few runs of parameters makes a changed stream show.
    # An orbit no longer than a block draws no value past its last step
    monkeypatch.setattr(maps, "DITHER", 1e-3)
    fam = pm_family(0.5)
    block = max(1, birkhoff.DITHER_BLOCK // points)
    x0 = substream(3, "block-dither-x").uniform(0.0, 1.0, points)
    for horizon in (1, block - 1, block, block + 1, 3 * block + 5):
        gammas = np.repeat([0.05, 0.1, 0.15, 0.1], -(-horizon // 4))[:horizon]
        rng, ref = substream(4, "d"), substream(4, "d")
        got = birkhoff._orbit(fam, gammas, x0, rng)
        want = per_step_orbit(fam, gammas, x0, ref, 1e-3)
        steps = 0
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
            steps += 1
        assert steps == horizon
        if horizon <= block:
            assert rng.bit_generator.state == ref.bit_generator.state


def test_dither_defeats_binary_collapse(monkeypatch):
    fam = doubling_family()
    seq = ParameterSequence.constant(0.0)
    with_dither = orbit_points(fam, seq, np.array([0.3]), 200, seed=7)
    monkeypatch.setattr(maps, "DITHER", 0.0)
    no_dither = orbit_points(fam, seq, np.array([0.3]), 200, seed=7)
    # exact binary arithmetic collapses every orbit onto the fixed point 0
    assert np.all(no_dither[-100:] == 0.0)
    assert np.mean(with_dither[-100:] == 0.0) < 0.5


def test_covariance_doubling_cos_orthogonality():
    fam = doubling_family()
    cov = covariance_decay(fam, ParameterSequence.constant(0.0),
                           observable("cos", 256), (4, 12), ensemble=10000,
                           seed=8)
    for i in range(13):
        for j in range(13):
            if 1 <= abs(i - j) <= 10:
                assert abs(cov.R[i, j]) < 3 * cov.se[i, j]
    # variance on the diagonal
    assert np.all(np.diag(cov.R)[:13] > 0.3)


def test_covariance_symmetry_exact():
    fam = pm_family(0.5)
    cov = covariance_decay(fam, ParameterSequence.iid(0.1, 0.01, 9),
                           observable("x", 128), (3, 8), ensemble=2000, seed=9)
    assert np.array_equal(cov.R, cov.R.T)


def test_covariance_spectral_means_match_ensemble():
    fam = pm_family(0.5)
    cov = covariance_decay(fam, ParameterSequence.iid(0.1, 0.01, 10),
                           observable("x", 256), (4, 10), ensemble=20000,
                           seed=10)
    sd = np.sqrt(np.diag(cov.R)) / np.sqrt(20000)
    assert np.all(np.abs(cov.means_ensemble - cov.means_spectral) <= 3 * sd)


def test_covariance_pm_fit_decays():
    fam = pm_family(0.5)
    cov = covariance_decay(fam, ParameterSequence.iid(0.1, 0.01, 11),
                           observable("x", 256), (4, 14), ensemble=10000,
                           seed=11)
    assert cov.q_fit < 1.0
    lln = lln_summability(cov)
    assert lln.verdict == "summable"


def test_lln_closed_form_identity():
    class FakeCov:
        q_fit = 0.5
        c_fit = 1.0
    rep = lln_summability(FakeCov())
    assert abs(rep.partial_sum - np.log(2.0)) < 1e-6
    assert abs(rep.unit_partial_sum - (-np.log1p(-0.5))) < 1e-12


def test_lln_inconclusive_at_unit_rate():
    class FakeCov:
        q_fit = 1.0
        c_fit = 1.0
    assert lln_summability(FakeCov()).verdict == "inconclusive"


def test_lp_self_distance_within_ball_radius():
    phi = fixed_density(build_ulam(instantiate(pm_family(0.5), 0.1), 1024))
    atoms = ((np.arange(1024) + 0.5) / 1024, phi.values / 1024)
    rep = lp_distance(atoms, phi, ball_count=64)
    assert rep.estimate <= rep.ball_radius


@pytest.mark.parametrize("empirical,message", [
    (np.array([]), "nonempty"),
    ((np.array([]), np.array([])), "nonempty"),
    ((np.array([0.1, 0.2]), np.array([1.0])), "same shape"),
    ((np.array([0.1, 0.2]), np.array([2.0, -1.0])), "nonnegative"),
    ((np.array([0.1, 0.2]), np.array([1.0, np.nan])), "finite"),
    ((np.array([0.1, 0.2]), np.array([1.0, np.inf])), "finite"),
    ((np.array([0.1, 0.2]), np.array([0.0, 0.0])), "positive finite total"),
    ((np.array([0.1, 0.2]), np.array([1e308, 1e308])),
     "positive finite total"),
    ((np.array([0.1, np.nan]), np.array([1.0, 1.0])), "points must be finite"),
    (np.array([0.1, np.inf]), "points must be finite"),
], ids=["empty", "empty-weighted", "lengths", "negative-weight", "nan-weight",
        "inf-weight", "zero-total", "overflowing-total", "nan-point",
        "inf-point"])
def test_lp_rejects_bad_samples(empirical, message):
    with pytest.raises(ValueError, match=message):
        lp_distance(empirical, GridDensity.uniform(64))


def test_lp_two_diracs_bracketing():
    uni = GridDensity.uniform(256)
    for s_true in (0.1, 0.2, 0.3):
        a, b = 0.21, 0.21 + s_true
        mu = (np.array([a]), np.array([1.0]))
        nu_atoms = np.array([b])
        # distance of two diracs: compare atom measure against shifted atom
        rep = lp_distance(mu, GridDensity.indicator(b - 1 / 512, b + 1 / 512,
                                                    256, height=256.0),
                          ball_count=64)
        assert s_true / 2 <= rep.estimate <= s_true + 1e-9


def test_lp_uniform_orbit_close():
    fam = doubling_family()
    seq = ParameterSequence.iid(0.0, 0.01, 12)
    orbit = orbit_points(fam, seq, np.array([0.37]), 20000, seed=12)
    phi = GridDensity.uniform(512)
    rep = lp_distance(orbit[:, 0], phi, ball_count=64)
    assert rep.estimate < 0.05
