"""Discretized transfer operators: construction, composition, averaging,
fixed densities, spectra, and empirical operator inequalities."""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse

from .densities import (DEFAULT_EPS0, GridDensity, GridMismatchError,
                        l1_norm, quasi_holder_seminorm, seminorms)
from .maps import MapFamily, MapInstance, instantiate
from .seeding import substream

#: Parameters whose operator (or map instance) one call keeps: sequences
#: revisiting more distinct parameters rebuild, so memory stays bounded in
#: the horizon.
CACHE_SIZE = 32

#: Densities per block of `step_blocks`: 128 KiB of rows at 1024 cells.
#: Measured on the adversarial demo (pm, 1024 cells, 10^4 steps), blocks of
#: 8 to 128 rows cost about the same. 512 rows cost more: glibc maps and
#: returns their 4 MiB temporaries block after block, ~20k minor page
#: faults a run against under 100 at 16 rows.
STEP_BLOCK = 16


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""


def _freeze(mat: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


@dataclass(frozen=True)
class UlamOperator:
    """Finite-rank transfer operator on cell averages.

    Entries M[i][j] approximate m(U_j ∩ F^{-1} U_i)/m(U_j); columns sum to
    one, so the action on cell-average vectors preserves mass and L1-contracts.
    `matrix` may be given dense or sparse; it is stored as a read-only
    `scipy.sparse.csr_array`.
    """

    matrix: scipy.sparse.csr_array
    provenance: str = "explicit"

    def __post_init__(self):
        mat = scipy.sparse.csr_array(self.matrix, dtype=float, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        mat.sum_duplicates()
        if np.any(mat.data < 0):
            raise ValueError("operator matrix must be entrywise nonnegative")
        _freeze(mat)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, matrix: scipy.sparse.csr_array,
                 provenance: str) -> "UlamOperator":
        """Wrap a square, canonical, nonnegative CSR matrix built in this
        package and owned by the caller: no copy and no re-validation."""
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", _freeze(matrix))
        object.__setattr__(op, "provenance", provenance)
        return op

    @property
    def n_cells(self) -> int:
        return self.matrix.shape[0]

    def apply(self, phi: GridDensity) -> GridDensity:
        if phi.n_cells != self.n_cells:
            raise GridMismatchError(
                f"grid mismatch: operator {self.n_cells}, density {phi.n_cells}")
        # the product is fresh, and nonnegative whenever phi is
        return GridDensity._trusted(self.matrix @ phi.values, circle=phi.circle,
                                    density=phi.density)

    def column_sum_error(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=0) - 1.0)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _chord_grid(nq: int) -> np.ndarray:
    """Read-only k / nq for k = 0..nq; each piece's chord nodes are a slice."""
    grid = np.arange(nq + 1) / nq
    grid.flags.writeable = False
    return grid


def build_ulam(instance: MapInstance, n_cells: int, quadrature: int = 32) -> UlamOperator:
    """Discretize the transfer operator of a realized map by the chord rule.

    Each piece's lift is replaced by its chord interpolant through the
    edges of `quadrature` equal subintervals per cell.  Entry (i, j) is
    n_cells times the measure of the points of cell j whose interpolated
    image lies in cell i (mod 1), computed exactly by cutting each piece at
    the cell edges and at the interpolant's preimages of the cell edges.
    Both cut lists are sorted, so one merge labels every interval: each
    cell edge passed moves it to the next source cell, each level passed to
    the next target cell.  The rule is exact for affine branches, columns
    sum to one, and entries are continuous in the map parameter, unlike
    point binning.
    """
    if n_cells < 2:
        raise ValueError("n_cells must be at least 2")
    if quadrature < 1:
        raise ValueError("quadrature must be at least 1")
    n, nq = n_cells, n_cells * quadrature
    grid = _chord_grid(nq)
    keys, weights = [], []
    for piece in instance.pieces:
        # chord nodes: the n*quadrature grid inside the piece plus its ends
        k0 = int(np.ceil(piece.lo * nq - 1e-12))
        k1 = int(np.floor(piece.hi * nq + 1e-12))
        inner = grid[k0:k1 + 1]
        chunks = [inner]
        if inner.size == 0 or piece.lo < inner[0] - 1e-15:
            chunks.insert(0, np.array([piece.lo]))
        if inner.size == 0 or piece.hi > inner[-1] + 1e-15:
            chunks.append(np.array([piece.hi]))
        xs = np.concatenate(chunks)
        ys = np.asarray(piece.lift(xs), dtype=float) * n   # in target cells
        up = ys[-1] >= ys[0]
        levels = np.arange(np.floor(min(ys[0], ys[-1])) + 1.0,
                           np.ceil(max(ys[0], ys[-1])))
        preimages = (np.interp(levels, ys, xs) if up
                     else np.interp(levels, ys[::-1], xs[::-1]))
        edges = np.arange(np.floor(xs[0] * n) + 1.0, np.ceil(xs[-1] * n)) / n
        inner_cuts = np.concatenate([edges, preimages])
        order = np.argsort(inner_cuts, kind="stable")
        cuts = np.concatenate([xs[:1], inner_cuts[order], xs[-1:]])
        width = np.diff(cuts)
        keep = width > 1e-15
        # key = target * n + source of each interval before wrapping the
        # target mod n: an edge adds 1, a level n (or -n on a decreasing piece)
        target = int(np.floor(ys[0]) if up else np.ceil(ys[0]) - 1.0)
        step = np.where(order < edges.size, 1, n if up else -n)
        key = np.concatenate(([0], np.cumsum(step)))
        key += target * n + int(np.floor(xs[0] * n))
        keys.append(key[keep])
        weights.append(width[keep] * n)
    # lay entries out row by row; an entry met more than once (a cell
    # straddling a piece boundary) is summed in the order it was met
    keys = np.concatenate(keys)
    keys %= n * n
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    data = np.add.reduceat(np.concatenate(weights)[order], starts)
    keys = keys[starts]
    rows = keys // n
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    mat = scipy.sparse.csr_array((data, keys - rows * n, indptr), shape=(n, n))
    tag = "unsafe " if instance.unsafe else ""
    prov = (f"{tag}{instance.family.name} gamma={instance.gamma!r} "
            f"n={n_cells} chord-{quadrature}")
    return UlamOperator._trusted(mat, prov)


def operator_cache(family: MapFamily, n_cells: int, quadrature: int = 32,
                   unsafe: bool = False):
    """gamma -> L_gamma for one family and grid, memoized for the calling
    experiment only and bounded by CACHE_SIZE."""
    @functools.lru_cache(maxsize=CACHE_SIZE)
    def operator(gamma: float) -> UlamOperator:
        return build_ulam(instantiate(family, gamma, unsafe=unsafe), n_cells,
                          quadrature)
    return operator


def step_blocks(ops: Iterable[UlamOperator],
                values: np.ndarray) -> Iterator[np.ndarray]:
    """Push `values` through `ops` in time order, yielding the densities
    after steps 1, 2, ... as the rows of read-only (STEP_BLOCK, n_cells)
    blocks; the last block may be shorter.

    Every step is the raw CSR product `op.matrix @ v`, so each row equals
    the chain of `UlamOperator.apply` calls bit for bit, and row-wise
    reductions over a block (`rows.mean(axis=1)`) equal the 1-D calls on
    each row.  Each block is a view of one buffer that the next block
    overwrites: reduce it, or copy the rows to keep, before asking for the
    next.  Memory stays O(STEP_BLOCK * n_cells) whatever the horizon.
    """
    buf = np.empty((STEP_BLOCK, values.size))
    rows = buf.view()
    rows.flags.writeable = False
    cur, i = values, 0
    for op in ops:
        cur = op.matrix @ cur
        buf[i] = cur
        i += 1
        if i == STEP_BLOCK:
            yield rows
            i = 0
    if i:
        yield rows[:i]


def apply_sequence(ops: Sequence[UlamOperator], phi: GridDensity) -> GridDensity:
    """Compose operators in time order: L_{gamma_n} ... L_{gamma_1} phi."""
    for op in ops:
        if op.n_cells != phi.n_cells:
            raise GridMismatchError(
                f"grid mismatch: operator {op.n_cells}, density {phi.n_cells}")
    if not ops:
        return phi
    *_, rows = step_blocks(ops, phi.values)
    return GridDensity._trusted(rows[-1].copy(), circle=phi.circle,
                                density=phi.density)


# --- averaging over a perturbation law -----------------------------------

@dataclass(frozen=True)
class AveragingLaw:
    """Sampling specification for the averaged operator.

    kinds: 'point' (Dirac at center), 'two_point' (center ± radius),
    'uniform' (midpoint quadrature on [center-radius, center+radius]),
    'atoms' (explicit atoms/weights), 'sample' (iid uniform draws, seeded).
    """

    center: float
    radius: float = 0.0
    law: str = "point"
    n_samples: int = 64
    seed: Optional[int] = None
    atoms: Optional[tuple] = None
    weights: Optional[tuple] = None

    def nodes(self):
        if self.law == "point":
            return np.array([self.center]), np.array([1.0])
        if self.law == "two_point":
            return (np.array([self.center - self.radius, self.center + self.radius]),
                    np.array([0.5, 0.5]))
        if self.law == "uniform":
            if self.n_samples < 1:
                raise ValueError("n_samples must be positive")
            k = np.arange(self.n_samples)
            nodes = self.center - self.radius + (2.0 * self.radius) * (k + 0.5) / self.n_samples
            return nodes, np.full(self.n_samples, 1.0 / self.n_samples)
        if self.law == "atoms":
            atoms = np.asarray(self.atoms, dtype=float)
            weights = (np.full(atoms.size, 1.0 / atoms.size) if self.weights is None
                       else np.asarray(self.weights, dtype=float))
            if abs(weights.sum() - 1.0) > 1e-12 or np.any(weights < 0):
                raise ValueError("atom weights must be nonnegative and sum to 1")
            return atoms, weights
        if self.law == "sample":
            if self.n_samples < 1:
                raise ValueError("n_samples must be positive")
            rng = substream(self.seed or 0, "averaged-operator")
            nodes = rng.uniform(self.center - self.radius,
                                self.center + self.radius, self.n_samples)
            return nodes, np.full(self.n_samples, 1.0 / self.n_samples)
        raise ValueError(f"unknown averaging law {self.law!r}")


def averaged_operator(family: MapFamily, nu: AveragingLaw, n_cells: int,
                      quadrature: int = 32) -> UlamOperator:
    """Entrywise average of member operators over the law nu.

    A convex combination of column-stochastic nonnegative matrices, so all
    operator properties are inherited; a point mass reproduces the member
    operator exactly.
    """
    nodes, weights = nu.nodes()
    if nodes.size == 0:
        raise ValueError("averaging law produced zero sample nodes")
    acc = 0
    for gamma, w in zip(nodes, weights):
        member = build_ulam(instantiate(family, float(gamma)), n_cells, quadrature)
        acc = acc + w * member.matrix
    prov = (f"averaged({nu.law} center={nu.center!r} radius={nu.radius!r} "
            f"k={nodes.size}) {family.name} n={n_cells}")
    return UlamOperator._trusted(acc, prov)


# --- fixed densities and spectra -----------------------------------------

def fixed_density(op: UlamOperator, tol: float = 1e-12,
                  max_iter: int = 20000) -> GridDensity:
    """Power iteration from the uniform start; returns a probability density
    with residual ||M phi - phi||_1 <= tol."""
    vals = np.ones(op.n_cells)
    residual = np.inf
    for _ in range(max_iter):
        nxt = op.matrix @ vals
        m = nxt.mean()
        if m <= 0:
            raise NonConvergenceError("mass vanished during power iteration")
        nxt = nxt / m
        residual = float(np.mean(np.abs(nxt - vals)))
        vals = nxt
        if residual <= tol:
            return GridDensity(np.clip(vals, 0.0, None))
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} steps "
        f"(final residual {residual:.3e}); the spectral gap may be too small "
        "or the operator invalid")


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray      # top-k by modulus
    gap: float                   # 1 - |lambda_2|
    leading_density: GridDensity
    has_gap: bool


def spectral_summary(op: UlamOperator, k: int = 5,
                     gap_floor: float = 1e-6) -> SpectralSummary:
    """Top-k eigenvalues by modulus and the normalized leading eigenvector.

    Implicitly restarted Arnoldi on the sparse matrix, with a fixed start
    vector for determinism.  Operators without a spectral gap
    (|lambda_2| ~ 1) are flagged, not rejected.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    import scipy.sparse.linalg
    n = op.n_cells
    eigvals, eigvecs = scipy.sparse.linalg.eigs(
        op.matrix, k=min(k, n - 2), which="LM", v0=np.ones(n))
    order = np.argsort(-np.abs(eigvals))
    eigvals = eigvals[order][:k]
    lead = np.real(eigvecs[:, order[0]])
    if lead.sum() < 0:
        lead = -lead
    lead = np.clip(lead, 0.0, None)
    if lead.mean() <= 0:
        raise NonConvergenceError("leading eigenvector has no positive part")
    lead = lead / lead.mean()
    gap = float(1.0 - np.abs(eigvals[1])) if len(eigvals) > 1 else 1.0
    return SpectralSummary(eigenvalues=eigvals, gap=gap,
                           leading_density=GridDensity(lead),
                           has_gap=gap > gap_floor)


# --- empirical operator inequalities -------------------------------------

@dataclass(frozen=True)
class LasotaYorkeFit:
    """Fitted one-step envelope |L phi|_alpha <= eta |phi|_alpha + C ||phi||_1."""

    eta_hat: float
    c_hat: float                 # inflated so the envelope covers the test set
    c_least_squares: float
    satisfied_fraction: float    # fraction covered by the raw least-squares fit
    alpha: float
    eps0: float
    n_test: int
    iterated_margin: Optional[float] = None  # worst ratio against the n-step bound


def lasota_yorke_fit(family: MapFamily, gamma: float, alpha: float,
                     test_set: Sequence[GridDensity], n_powers: int = 0,
                     eps0: float = DEFAULT_EPS0,
                     quadrature: int = 32) -> LasotaYorkeFit:
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
    op = build_ulam(instantiate(family, gamma), n_cells, quadrature)
    xs, zs, ys = [], [], []
    for phi in test_set:
        xs.append(quasi_holder_seminorm(phi, alpha, eps0).seminorm)
        zs.append(l1_norm(phi))
        ys.append(quasi_holder_seminorm(op.apply(phi), alpha, eps0).seminorm)
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
                         satisfied_fraction=satisfied, alpha=alpha,
                         eps0=eps0, n_test=len(test_set))
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
    x0 = quasi_holder_seminorm(phi, fit.alpha, fit.eps0).seminorm
    z0 = l1_norm(phi)
    worst = 0.0
    n = 0
    for rows in step_blocks(itertools.repeat(op, n_powers), phi.values):
        for lhs in seminorms(rows, fit.alpha, fit.eps0, phi.circle).tolist():
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
    envelope: DecayEnvelope
    norm_alpha: float
    dominated: bool


def perturbation_probe(family: MapFamily, gamma_hat: float, delta: float,
                       n_max: int, phi: GridDensity, seq_seed: int,
                       alpha: Optional[float] = None,
                       eps0: float = DEFAULT_EPS0,
                       quadrature: int = 32) -> PerturbationProbe:
    """Deviation curve between one random perturbed composition and the
    constant composition at gamma_hat, with a fitted geometric envelope
    C s^n ||phi||_alpha."""
    if alpha is None:
        alpha = min(family.holder_exponent, 1.0)
    rng = substream(seq_seed, "perturbation-probe")
    gammas = rng.uniform(gamma_hat - delta, gamma_hat + delta, n_max)
    lo, hi = family.gamma_range
    gammas = np.clip(gammas, lo, hi)
    operator = operator_cache(family, phi.n_cells, quadrature)
    base = operator(float(gamma_hat))
    curve = np.zeros(n_max + 1)
    k = 1
    for seq, const in zip(
            step_blocks(map(operator, map(float, gammas)), phi.values),
            step_blocks(itertools.repeat(base, n_max), phi.values)):
        curve[k:k + len(seq)] = np.abs(seq - const).mean(axis=1)
        k += len(seq)
    norm_alpha = quasi_holder_seminorm(phi, alpha, eps0).norm_alpha
    env = fit_decay_envelope(curve, norm_alpha)
    dominated = bool(np.all(
        curve <= env.c_dominating * norm_alpha * env.s_fit ** np.arange(n_max + 1)
        + 1e-12))
    return PerturbationProbe(deltas_used=gammas, curve=curve, envelope=env,
                             norm_alpha=norm_alpha, dominated=dominated)

