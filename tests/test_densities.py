import numpy as np
import pytest

from nonstat_dyn.densities import (GridDensity, GridMismatchError,
                                   _window_extremes, cell_centers,
                                   l1_distance, osc_integral,
                                   quasi_holder_seminorm)


def brute_force_osc_integral(phi: GridDensity, eps: float, samples_per_cell=9):
    """Direct evaluation of the ball-oscillation integral on a dense x grid."""
    n = phi.n_cells
    xs = (np.arange(n * samples_per_cell) + 0.5) / (n * samples_per_cell)
    total = 0.0
    for x in xs:
        lo, hi = x - eps, x + eps
        idx = np.arange(int(np.floor(lo * n)), int(np.ceil(hi * n)))
        vals = phi.values[np.unique(idx % n)]
        total += vals.max() - vals.min()
    return total / xs.size


def random_density(rng, n):
    vals = rng.uniform(0.1, 2.0, n)
    return GridDensity(vals / vals.mean())


def test_l1_identity_and_step_example():
    n = 128
    uni = GridDensity.uniform(n)
    assert l1_distance(uni, uni) == 0.0
    step = GridDensity.indicator(0.0, 0.5, n, height=2.0)
    assert abs(l1_distance(step, uni) - 1.0) < 1e-15


def test_l1_grid_mismatch():
    with pytest.raises(GridMismatchError):
        l1_distance(GridDensity.uniform(8), GridDensity.uniform(16))


def test_l1_triangle_inequality_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c = (random_density(rng, 64) for _ in range(3))
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


def test_osc_constant_zero():
    assert osc_integral(GridDensity.uniform(256), 0.02) == 0.0


def test_osc_step_circle_exact():
    # jump of height 1 at 0 and 1/2: osc is 1 on two arcs of width 2 eps
    step = GridDensity.indicator(0.0, 0.5, 1000)
    for eps in (0.01, 0.0131, 0.025):
        assert abs(osc_integral(step, eps) - 4 * eps) < 1e-12


def test_osc_tent_closed_form():
    # the tent min(x, 1 - x) has slope +-1, so osc over B_eps(x) is 2 eps,
    # except within eps of its peak 1/2 and its trough 0, where it is
    # eps + |x - c|; each of the two costs eps^2, so the integral is
    # 2 eps - 2 eps^2
    x = cell_centers(4096)
    tent = GridDensity(np.minimum(x, 1.0 - x))
    for eps in (0.01, 0.04):
        assert abs(osc_integral(tent, eps) - (2 * eps - 2 * eps ** 2)) < 1e-4


def test_osc_matches_brute_force():
    rng = np.random.default_rng(1)
    phi = GridDensity(rng.uniform(0, 1, 64))
    for eps in (1 / 64, 0.031, 0.0625, 0.11):
        exact = osc_integral(phi, eps)
        brute = brute_force_osc_integral(phi, eps, samples_per_cell=301)
        assert abs(exact - brute) < 5e-3, eps


@pytest.mark.parametrize("n", (20, 33, 512, 3072))
@pytest.mark.parametrize("rows", (None, 16), ids=("1-D", "16-rows"))
def test_window_extremes_match_ndimage_bitwise(n, rows):
    # the seminorm's windows as computed before: ndimage's running max and
    # min with mode "wrap" and origin lo + size // 2, whose (-q, q + 1)
    # window is [i - q - 2, i + q - 1]; C order keeps the mean's sum order
    from scipy.ndimage import maximum_filter1d, minimum_filter1d
    rng = np.random.default_rng(n)
    values = rng.uniform(0.1, 2.0, n if rows is None else (rows, n))
    q_max = int(np.floor(0.05 * n + 1e-12))
    extremes = _window_extremes(values, q_max)
    qs = sorted({1, max(1, q_max // 2), q_max})
    # growing sizes, as the seminorm asks, then shrinking ones, which
    # rebuild the levels dropped on the way up
    for q in qs + qs[::-1]:
        for lo, hi in ((-q, q), (-q - 1, q), (-q, q + 1), (-q - 1, q + 1)):
            size = hi - lo + 1
            origin = lo + size // 2
            mx, mn = extremes(lo, hi)
            for got, want in (
                    (mx, maximum_filter1d(values, size, mode="wrap",
                                          origin=origin)),
                    (mn, minimum_filter1d(values, size, mode="wrap",
                                          origin=origin))):
                assert got.flags.c_contiguous
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (q, lo, hi)


def test_right_heavy_window_is_shifted():
    # the (-q, q + 1) window covers [i - q - 2, i + q - 1]: a spike at cell
    # 10 is seen from cells 10 - q + 1 .. 10 + q + 2
    n, q = 20, 2
    values = np.zeros(n)
    values[10] = 1.0
    mx, _ = _window_extremes(values, q)(-q, q + 1)
    assert np.flatnonzero(mx).tolist() == list(range(10 - q + 1, 10 + q + 3))


def test_osc_monotone_in_eps():
    rng = np.random.default_rng(2)
    for _ in range(20):
        phi = random_density(rng, 128)
        vals = [osc_integral(phi, e) for e in np.linspace(1 / 128, 0.2, 12)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_osc_rejects_subgrid_eps():
    with pytest.raises(ValueError):
        osc_integral(GridDensity.uniform(64), 0.5 / 64)


def test_seminorm_constant():
    rep = quasi_holder_seminorm(GridDensity.uniform(512), 0.5)
    assert rep.seminorm == 0.0
    assert rep.norm_alpha == 1.0


def test_seminorm_step_closed_form():
    # per-eps value 4 eps^(1-alpha) is maximized at eps0
    step = GridDensity.indicator(0.0, 0.5, 1000)
    rep = quasi_holder_seminorm(step, 0.5)
    assert abs(rep.seminorm - 4 * np.sqrt(0.05)) < 1e-9
    for e, v in zip(rep.eps_values, rep.per_eps):
        assert abs(v - 4 * e ** 0.5) < 1e-9


def test_seminorm_positively_homogeneous():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = random_density(rng, 128)
        c = float(rng.uniform(0.1, 5.0))
        a = quasi_holder_seminorm(phi, 0.5).seminorm
        b = quasi_holder_seminorm(phi.scaled(c), 0.5).seminorm
        assert abs(b - c * a) < 1e-12 * max(1.0, b)


def test_seminorm_lipschitz_bound():
    # |phi|_1 seminorm of a K-Lipschitz function is at most ~2K
    K = 3.0
    for n in (512, 1024):
        x = cell_centers(n)
        phi = GridDensity(1 + K * np.minimum(x, 1 - x))
        rep = quasi_holder_seminorm(phi, 1.0)
        assert rep.seminorm <= 2 * K * 1.05


def test_seminorm_refinement_consistency():
    smooth = lambda x: 1 + 0.3 * np.sin(2 * np.pi * x)
    eps = 10 / 512
    a = osc_integral(GridDensity(smooth(cell_centers(512))), eps)
    b = osc_integral(GridDensity(smooth(cell_centers(1024))), eps)
    assert abs(a - b) / b < 0.05


def test_ess_sup_bound_holds():
    rng = np.random.default_rng(4)
    densities = [GridDensity.uniform(512),
                 GridDensity.indicator(0.0, 0.5, 512, height=2.0),
                 GridDensity.indicator(0.25, 0.25 + 1 / 64, 512, height=32.0)]
    densities += [random_density(rng, 512) for _ in range(10)]
    for phi in densities:
        for alpha in (0.5, 1.0):
            rep = quasi_holder_seminorm(phi, alpha)
            assert phi.values.max() <= rep.ess_sup_bound + 1e-9


def test_probability_flag():
    GridDensity.uniform(32).assert_probability()
    with pytest.raises(ValueError):
        GridDensity(np.full(32, 1.5)).assert_probability()
    with pytest.raises(ValueError):
        GridDensity(np.array([1.0, -0.5]))


def test_density_immutable():
    phi = GridDensity.uniform(8)
    with pytest.raises(ValueError):
        phi.values[0] = 2.0

