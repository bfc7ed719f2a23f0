"""Correlation quantifiers: von Neumann entropy, relative entropy,
asymmetric quantum discord and global quantum discord (GQD), each with its
internal minimization over local projective bases.

Both minimizations run through one basis search, ``_basis_search``: a grid
scan, seeded random starts, then ``search.multistart``, over the angles of n
qubits' bases.  ``gqd_min`` scans one basis shared by all parties,
``conditional_entropy_min`` is the n = 1 search over the measured qubit.  The
candidate bases come from ``channels.basis_vectors``, the package's one
basis-vector kernel.  Objective evaluation is vectorized over (B, n) blocks of
candidate bases, which is what makes the nested protocol optimizations
elsewhere in the package tractable: a grid is evaluated in blocks of at most
``_BLOCK_ENTRIES`` product-basis entries, and the Nelder-Mead starts of one
search advance in lockstep, so each simplex step of all starts costs one
batched call; ``_DiscordObjective`` scores both outcomes of all its bases in
one stacked pass.  A batch row equals the one-point value bit for bit, so the
lockstep search returns what one scipy Nelder-Mead per start would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channels import basis_vectors
from .linalg import EIGENVALUE_FLOOR
from .search import SearchError, SearchResult, multistart
from .states import DensityMatrix, StateError, fold_bloch, partial_trace

# Correlation values in (-NEGATIVE_CLAMP, 0] are reported as +0.0; lower ones and NaN raise.
NEGATIVE_CLAMP = 1e-9

# Product-basis entries (points x 4^N) per grid block: bounds the
# (points, 2^N, 2^N) arrays one objective call holds at N qubits.
_BLOCK_ENTRIES = 2**18


def _plogp(p: np.ndarray) -> np.ndarray:
    """p log2 p of a real array; entries at or below the floor give 1 log2 1 = 0."""
    safe = np.where(p > EIGENVALUE_FLOOR, p, 1.0)
    return np.multiply(safe, np.log2(safe), out=safe)


def _shannon(p: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy in bits along an axis; entries below the floor count 0."""
    return -np.sum(_plogp(np.real(p)), axis=axis)


def _clamped(value: float) -> float:
    """``value``, or +0.0 for round-off in (-NEGATIVE_CLAMP, 0]; raises below or on NaN."""
    if not value >= -NEGATIVE_CLAMP:
        raise SearchError(f"correlation value {value!r} is not >= -{NEGATIVE_CLAMP}")
    return value if value > 0.0 else 0.0


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy S(rho) in bits."""
    return float(_shannon(np.linalg.eigvalsh(rho.matrix)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr rho (log2 rho - log2 sigma); +inf when supp(rho) leaves supp(sigma)."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise StateError("relative entropy of states with different dimensions")
    w, u = np.linalg.eigh(sigma.matrix)
    rho_tilde = u.conj().T @ rho.matrix @ u
    diag = np.clip(np.real(np.diag(rho_tilde)), 0.0, None)
    outside = float(np.sum(diag[w < EIGENVALUE_FLOOR]))
    support = w >= EIGENVALUE_FLOOR
    cross = -float(np.sum(diag[support] * np.log2(w[support])))
    value = cross - entropy(rho)
    # Mass outside supp(sigma) is round-off only if tiny and it leaves value >= -clamp.
    if outside > NEGATIVE_CLAMP or (outside > 0.0 and value < -NEGATIVE_CLAMP):
        return math.inf
    return _clamped(value)


# --------------------------------------------------------------------------
# Measurement-basis machinery (vectorized over batches of candidate bases)
# --------------------------------------------------------------------------


def _product_basis(cols: np.ndarray) -> np.ndarray:
    """Expand per-qubit bases (B, N, 2, 2) into product vectors (B, 2^N, 2^N)."""
    b, n = cols.shape[:2]
    v = cols[:, 0]
    for j in range(1, n):
        k = v.shape[1]
        v = np.einsum("bkx,bly->bklxy", v, cols[:, j]).reshape(b, 2 * k, 2 * k)
    return v


def pinch(rho: DensityMatrix, basis_angles: Mapping[str, tuple[float, float]]) -> DensityMatrix:
    """Dephase rho in the product basis given by per-label Bloch angles."""
    thetas, phis = _angles_for(rho, basis_angles)
    cols = basis_vectors(thetas[None, :], phis[None, :])
    v = _product_basis(cols)[0]  # rows = product basis vectors
    w = v.T  # columns = basis vectors
    probs = np.real(np.diag(w.conj().T @ rho.matrix @ w))
    return DensityMatrix(rho.labels, (w * probs) @ w.conj().T)


def _angles_for(
    rho: DensityMatrix, basis_angles: Mapping[str, tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    if set(basis_angles) != set(rho.labels):
        raise StateError(
            f"basis angles {sorted(basis_angles)} do not cover labels {rho.labels}"
        )
    thetas = np.array([basis_angles[lab][0] for lab in rho.labels])
    phis = np.array([basis_angles[lab][1] for lab in rho.labels])
    return thetas, phis


class _GqdObjective:
    """Precomputed pieces of the GQD objective for one state."""

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.n = rho.n_qubits
        self.s_total = entropy(rho)
        margs = [partial_trace(rho, [lab]).matrix for lab in rho.labels]
        self.margs = np.stack(margs)
        self.s_margs = np.array([_shannon(np.linalg.eigvalsh(m)) for m in margs])
        self.evaluations = 0

    def batch(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        """Objective for angle arrays of shape (B, N)."""
        thetas = np.atleast_2d(thetas)
        phis = np.atleast_2d(phis)
        self.evaluations += thetas.shape[0]
        cols = basis_vectors(thetas, phis)  # (B, N, 2 outcomes, 2)
        psi = cols[:, :, 0, :]  # (B, N, 2)
        p0 = np.real(np.einsum("bjx,jxy,bjy->bj", psi.conj(), self.margs, psi))
        p0 = np.clip(p0, 0.0, 1.0)
        h_marg = -(_plogp(p0) + _plogp(1.0 - p0))  # (B, N)
        v = _product_basis(cols)
        probs = np.real(np.einsum("bka,ac,bkc->bk", v.conj(), self.rho.matrix, v))
        h_joint = _shannon(probs, axis=1)
        return (h_joint - self.s_total) - np.sum(h_marg - self.s_margs[None, :], axis=1)


@dataclass(frozen=True)
class DiscordResult:
    """Optimized correlation value with the basis that attains it."""

    value: float
    basis: dict[str, tuple[float, float]]
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class Budget:
    """Search effort knobs for the internal basis minimizations."""

    discord_grid: int  # theta x phi side of the measured qubit's grid (discord)
    sym_grid: int  # theta x phi side of the symmetric (tied-basis) grid (GQD)
    nm_starts: int  # refinements launched from the best grid points
    random_starts: int  # extra seeded random restarts
    xatol: float = 1e-7
    fatol: float = 1e-10


FULL_BUDGET = Budget(discord_grid=25, sym_grid=41, nm_starts=5, random_starts=4)
FAST_BUDGET = Budget(discord_grid=13, sym_grid=21, nm_starts=3, random_starts=2)

_BUDGETS = {"full": FULL_BUDGET, "fast": FAST_BUDGET}


def _resolve_budget(budget: str | Budget) -> Budget:
    if isinstance(budget, Budget):
        return budget
    try:
        return _BUDGETS[budget]
    except KeyError:
        raise ValueError(f"unknown budget {budget!r}; use 'full' or 'fast'") from None


def _angle_grid(g: int) -> np.ndarray:
    """One qubit's g x g grid of (theta, phi) rows, theta-major; shape (g^2, 2)."""
    thetas, phis = np.meshgrid(
        np.linspace(0.0, math.pi, g),
        np.linspace(0.0, 2 * math.pi, g, endpoint=False),
        indexing="ij",
    )
    return np.stack([thetas.ravel(), phis.ravel()], axis=1)


def _grid_minimum(obj, points: np.ndarray, n: int, top: int) -> np.ndarray:
    """The ``top`` lowest rows of a point matrix (rows = [thetas..., phis...]),
    scored in blocks of at most ``_BLOCK_ENTRIES`` product-basis entries and
    ranked in one sort, so the blocks do not change which of tied rows win."""
    size = max(1, _BLOCK_ENTRIES >> 2 * n)
    vals = np.concatenate([
        obj.batch(points[start : start + size, :n], points[start : start + size, n:])
        for start in range(0, points.shape[0], size)
    ])
    return points[np.argsort(vals)[:top]]


def _basis_search(
    obj, n: int, grid: np.ndarray, top: int, b: Budget, seed: int
) -> tuple[SearchResult, tuple[np.ndarray, np.ndarray]]:
    """Minimize ``obj.batch`` over the bases of n qubits.

    The refinement starts are the ``top`` lowest rows of ``grid`` (rows =
    [thetas..., phis...]) and ``b.random_starts`` seeded random rows (n
    thetas, then n phis); ``search.multistart`` refines them all.  Returns
    the result and its argmin folded into the Bloch ranges.  The unstable
    default sort of ``_grid_minimum`` picks among tied grid rows, and so
    fixes the starts.
    """
    rng = np.random.default_rng(seed)
    starts = list(_grid_minimum(obj, grid, n, top))
    for _ in range(b.random_starts):
        starts.append(np.concatenate([rng.uniform(0, math.pi, n), rng.uniform(0, 2 * math.pi, n)]))
    res = multistart(lambda x: obj.batch(x[:, :n], x[:, n:]), starts, b.xatol, b.fatol, 400 * 2 * n)
    return res, fold_bloch(res.argopt[:n], res.argopt[n:])


def gqd(
    rho: DensityMatrix,
    basis_angles: Mapping[str, tuple[float, float]],
    method: str = "pinched",
) -> float:
    """GQD integrand at fixed local bases (no minimization).

    ``pinched`` uses S(Phi(rho)) - S(rho) per subsystem/total; ``direct``
    evaluates the defining relative entropies and exists as a cross-check.
    """
    if method == "pinched":
        obj = _GqdObjective(rho)
        thetas, phis = _angles_for(rho, basis_angles)
        return float(obj.batch(thetas[None, :], phis[None, :])[0])
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    total = relative_entropy(rho, pinch(rho, basis_angles))
    for lab in rho.labels:
        marg = partial_trace(rho, [lab])
        total -= relative_entropy(marg, pinch(marg, {lab: basis_angles[lab]}))
    return total


def gqd_min(
    rho: DensityMatrix,
    budget: str | Budget = "full",
    seed: int = 0,
) -> DiscordResult:
    """Global quantum discord: minimize the pinching objective over local bases.

    Strategy: ``_basis_search`` from the best points of a symmetric
    tied-basis grid and the seeded random starts, refined in the full
    2N-dimensional angle space.
    """
    b = _resolve_budget(budget)
    n = rho.n_qubits
    if n < 2:
        raise StateError("GQD needs at least two subsystems")
    # Symmetric grid: same basis on every party.  Cheap, and protocol-family
    # optima are symmetric, so this is an excellent warm start.
    sym = _angle_grid(b.sym_grid)
    sym_full = np.concatenate(
        [np.repeat(sym[:, :1], n, axis=1), np.repeat(sym[:, 1:], n, axis=1)], axis=1
    )
    obj = _GqdObjective(rho)
    res, (thetas, phis) = _basis_search(obj, n, sym_full, max(2, b.nm_starts - 1), b, seed)
    basis = {lab: (float(t), float(p)) for lab, t, p in zip(rho.labels, thetas, phis)}
    return DiscordResult(_clamped(res.value), basis, obj.evaluations, res.converged)


# --------------------------------------------------------------------------
# Asymmetric discord
# --------------------------------------------------------------------------


class _DiscordObjective:
    """Conditional-entropy term of the asymmetric discord, measured qubit last;
    ``batch`` scores both outcomes of B bases as one (2B, da, da) stack."""

    def __init__(self, rho: DensityMatrix, measured: str):
        if measured not in rho.labels:
            raise StateError(f"unknown label {measured!r}")
        ax = rho.axis(measured)
        n = rho.n_qubits
        t = rho.tensor_view()
        t = np.moveaxis(t, (ax, ax + n), (n - 1, 2 * n - 1))
        da = 2 ** (n - 1)
        self.r = t.reshape(da, 2, da, 2)
        self.da = da
        self.evaluations = 0

    def batch(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        """Objective for angle arrays of shape (B, 1)."""
        b = np.shape(thetas)[0]
        self.evaluations += b
        v = basis_vectors(thetas, phis).reshape(2 * b, 2)  # row 2i + outcome
        m = np.einsum("bx,axcy,by->bac", v.conj(), self.r, v)
        p = np.clip(np.real(np.trace(m, axis1=1, axis2=2)), 0.0, 1.0)
        vals = np.linalg.eigvalsh((m + np.conj(np.swapaxes(m, 1, 2))) / 2)
        # p * S(m/p) = H(eigs) - (-p log2 p): expand to avoid dividing by ~0.
        h = (_shannon(vals, axis=1) + _plogp(p)).reshape(b, 2)
        total = np.zeros(b)
        total += h[:, 0]
        total += h[:, 1]
        return total


def conditional_entropy_min(
    rho: DensityMatrix, measured: str, budget: str | Budget = "full", seed: int = 0
) -> tuple[float, tuple[float, float], int, bool]:
    """min over rank-1 projective bases on ``measured`` of sum_j p_j S(rho_j)."""
    b = _resolve_budget(budget)
    obj = _DiscordObjective(rho, measured)
    res, (thetas, phis) = _basis_search(obj, 1, _angle_grid(b.discord_grid), b.nm_starts, b, seed)
    return res.value, (float(thetas[0]), float(phis[0])), obj.evaluations, res.converged


def discord_asym(
    rho: DensityMatrix,
    unmeasured: str | Sequence[str],
    measured: str,
    budget: str | Budget = "full",
    seed: int = 0,
) -> DiscordResult:
    """Quantum discord D_{A|B}: conditioning by projective measurement on B.

    ``measured`` must be a single qubit; ``unmeasured`` may be one label or a
    list covering the rest of the state.
    """
    a_labels = (unmeasured,) if isinstance(unmeasured, str) else tuple(unmeasured)
    expected = set(a_labels) | {measured}
    if expected != set(rho.labels) or measured in a_labels:
        raise StateError(
            f"partition ({a_labels}, {measured}) does not cover labels {rho.labels}"
        )
    s_b = entropy(partial_trace(rho, [measured]))
    s_ab = entropy(rho)
    cond, angles, evals, ok = conditional_entropy_min(rho, measured, budget, seed)
    return DiscordResult(_clamped(s_b - s_ab + cond), {measured: angles}, evals, ok)
