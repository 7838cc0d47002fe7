import dataclasses
import sys
import types

import numpy as np
import pytest
import scipy
import scipy.sparse

from nonstat_dyn.densities import (GridDensity, GridMismatchError,
                                   l1_distance, l1_norm,
                                   quasi_holder_seminorm)
from nonstat_dyn.maps import (breakpoint_family, circle_family,
                              doubling_family, instantiate, lsv_family,
                              pm_family, tent_family)
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


def affine_ulam_oracle(instance, n):
    """Exact Ulam entries of a piecewise-affine map by interval intersection."""
    mat = np.zeros((n, n))
    for piece in instance.pieces:
        a, b = piece.affine
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
    mat = scipy.sparse.csr_array((data, keys % n, indptr), shape=(n, n))
    return UlamOperator(matrix=mat).matrix


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
    # some small grid, so the summing of repeats is checked too
    family, gammas, unsafe = ORACLE_GRID[name]
    repeats = 0
    for gamma in gammas:
        inst = instantiate(family, gamma, unsafe=unsafe)
        for n in (2, 3, 7, 100, 333, 2048):
            for q in (1, 3, 32):
                got = build_ulam(inst, n, q).matrix
                want = interp_ulam_oracle(inst, n, q)
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field),
                                          getattr(want, field)), (gamma, n, q, field)
                keys = transfer._entries(inst, n, q)[0] % (n * n)
                repeats += np.unique(keys).size < keys.size
    assert repeats > 0


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


def user_csr_int64(n):
    rng = np.random.default_rng(3)
    dense = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.2)
    mat = scipy.sparse.csr_array(dense)
    mat.indices = mat.indices.astype(np.int64)
    mat.indptr = mat.indptr.astype(np.int64)
    op = UlamOperator(matrix=mat)
    assert op.matrix.indices.dtype == np.int64
    return op


@pytest.mark.parametrize("make", [
    lambda: averaged_operator(
        pm_family(0.5), AveragingLaw(0.1, 0.02, n_samples=8), 300),
    lambda: UlamOperator(matrix=np.random.default_rng(2).uniform(
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
        UlamOperator(matrix=np.array([[1.0, 0.5], [0.0, -0.5]]))
    with pytest.raises(ValueError, match="nonnegative"):
        GridDensity(np.array([1.0, -0.5]))


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
        fixed_density(UlamOperator(matrix=osc), tol=1e-13, max_iter=50)
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

