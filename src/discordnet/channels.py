"""Gates, Kraus channels and projective measurements on named subsystems.

Gate and measurement embedding is done by index arithmetic on the reshaped
state tensor rather than by building full-dimension operators, keeping the
cost at O(4^n) per application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .states import DensityMatrix, DensityStack, _check_bloch_angles

# Post-selection outcomes with probability below this are treated as invalid
# rather than normalized: normalizing pure round-off would fabricate states.
ZERO_PROBABILITY_TOL = 1e-12

_I2 = np.eye(2, dtype=np.complex128)
_Z = np.diag([1.0, -1.0]).astype(np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


class ChannelError(ValueError):
    """Invalid gate / channel / measurement specification."""


class ZeroProbabilityError(ChannelError):
    """Requested post-selection outcome has (numerically) zero probability."""


def basis_vectors(theta, phi) -> np.ndarray:
    """Orthonormal measurement pair (|psi>, |psi_perp>) for Bloch angles, as
    the rows of a (2, 2) array, so ``v, w = basis_vectors(theta, phi)``.

    For arrays of angles, the pairs gain their shape in front: entry
    [..., 0, :] is |psi> and [..., 1, :] is |psi_perp> of those angles.
    Every operation is elementwise, so every entry is bit-equal to the
    one-point call.  This is the package's one basis-vector kernel: the
    basis searches of ``correlations`` build their candidate bases with it.
    """
    half = np.asarray(theta, dtype=float) / 2
    c, s = np.cos(half), np.sin(half)
    e = np.exp(1j * phi)
    out = np.empty(np.shape(e) + (2, 2), dtype=np.complex128)
    out[..., 0, 0], out[..., 0, 1] = c, e * s
    out[..., 1, 0], out[..., 1, 1] = s, -e * c
    return out


@dataclass(frozen=True)
class MeasurementBasis:
    """Per-label Bloch angles defining local rank-1 projective measurements.

    Each label maps to one (theta, phi) pair, or, for a block of k
    measurement points, to a pair of length-k arrays (the same k for every
    label).  ``size`` is k, or None for one point; it is taken from the
    angles, and only a block that measures no label needs it given.  Every
    angle is range checked, and the basis vectors of all labels are built
    at once.
    """

    angles: Mapping[str, tuple]
    size: int | None = None
    _vectors: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(str(lab) for lab in self.angles)
        try:
            theta = np.array([t for t, _ in self.angles.values()], dtype=float)
            phi = np.array([p for _, p in self.angles.values()], dtype=float)
        except ValueError:
            raise ChannelError("labels measure blocks of different sizes") from None
        if theta.ndim > 2 or theta.shape != phi.shape:
            raise ChannelError("each label needs a (theta, phi) pair, or two length-k arrays")
        if labels:
            size = theta.shape[1] if theta.ndim == 2 else None
            if self.size is not None and self.size != size:
                raise ChannelError(f"angles of {size or 1} points for a basis of size {self.size}")
            object.__setattr__(self, "size", size)
        _check_bloch_angles(theta, np.mod(phi, 2 * math.pi))
        object.__setattr__(self, "angles", dict(zip(labels, zip(theta, phi))))
        object.__setattr__(self, "_vectors", basis_vectors(theta, phi))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.angles)

    def vectors(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(|psi>, |psi_perp>) of a label: (2,) arrays, or (k, 2) for a block."""
        pair = self._vectors[self.labels.index(label)]
        return pair[..., 0, :], pair[..., 1, :]


def _check_unitary(u: np.ndarray) -> None:
    defect = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if defect > 1e-10:
        raise ChannelError(f"matrix is not unitary (defect {defect:.3e})")


def _controlled(applied: np.ndarray) -> np.ndarray:
    u = np.zeros((4, 4), dtype=np.complex128)
    u[:2, :2] = _I2
    u[2:, 2:] = applied
    _check_unitary(u)
    u.setflags(write=False)
    return u


# Built and checked once; apply_gate trusts them.
_CONTROLLED = {"cz": _controlled(_Z), "ch": _controlled(_H)}


@dataclass(frozen=True)
class GateSpec:
    """Controlled-Z or controlled-Hadamard gate between two named qubits."""

    kind: str  # "cz" or "ch"
    control: str
    target: str

    def two_qubit_matrix(self) -> np.ndarray:
        try:
            return _CONTROLLED[self.kind]
        except KeyError:
            raise ChannelError(f"unknown gate kind {self.kind!r}") from None


def _diagonal(u: np.ndarray) -> np.ndarray | None:
    """The diagonal of u when every off-diagonal entry is zero, else None."""
    diag = np.diagonal(u)
    return diag if np.count_nonzero(u) == np.count_nonzero(diag) else None


def _apply_matrix_rows(tensor: np.ndarray, u: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply u to the given row axes of a rank-2n state tensor."""
    k = len(axes)
    moved = np.moveaxis(tensor, axes, range(k))
    flat = u @ moved.reshape(2**k, -1)
    return np.moveaxis(flat.reshape(moved.shape), range(k), axes)


def _conjugate_by(rho: DensityMatrix, u: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """U rho U^dag as a rank-2n tensor, with u embedded at the named labels.

    A diagonal u only rescales entries: U rho U^dag = rho * (d d^dag) on the
    touched row and column axes, applied as one broadcast product.  Any other
    u goes through a matmul on each side.
    """
    n = rho.n_qubits
    axes = [rho.axis(lab) for lab in labels]
    t = rho.tensor_view()
    diag = _diagonal(u)
    if diag is None:
        t = _apply_matrix_rows(t, u, axes)
        return _apply_matrix_rows(t, u.conj(), [a + n for a in axes])
    both = axes + [a + n for a in axes]
    shape = [1] * (2 * n)
    for a in both:
        shape[a] = 2
    factor = np.multiply.outer(diag, diag.conj()).reshape((2,) * len(both))
    order = sorted(range(len(both)), key=both.__getitem__)
    return t * factor.transpose(order).reshape(shape)


def apply_unitary(rho: DensityMatrix, u: np.ndarray, labels: Sequence[str]) -> DensityMatrix:
    """U rho U^dag with u embedded at the named labels (in the given order)."""
    u = linalg.as_matrix(u)
    k = len(labels)
    if u.shape != (2**k, 2**k):
        raise ChannelError(f"unitary shape {u.shape} does not fit {k} qubits")
    _check_unitary(u)
    return DensityMatrix(rho.labels, _conjugate_by(rho, u, labels).reshape(rho.matrix.shape))


def apply_gate(rho: DensityMatrix, gate: GateSpec) -> DensityMatrix:
    if gate.control == gate.target:
        raise ChannelError("controlled gate needs distinct control and target labels")
    t = _conjugate_by(rho, gate.two_qubit_matrix(), [gate.control, gate.target])
    return DensityMatrix(rho.labels, t.reshape(rho.matrix.shape))


@dataclass(frozen=True)
class KrausChannel:
    """Completeness-satisfying operator list acting on named subsystems."""

    labels: tuple[str, ...]
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        d = 2 ** len(labels)
        ops = tuple(linalg.as_matrix(k) for k in self.operators)
        if not ops:
            raise ChannelError("Kraus channel needs at least one operator")
        for k in ops:
            if k.shape != (d, d):
                raise ChannelError(f"Kraus operator shape {k.shape} does not fit {labels}")
        total = sum(k.conj().T @ k for k in ops)
        if float(np.max(np.abs(total - np.eye(d)))) > 1e-10:
            raise ChannelError("Kraus operators violate completeness")
        frozen = []
        for k in ops:
            k = k.copy()
            k.setflags(write=False)
            frozen.append(k)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "operators", tuple(frozen))


def correlated_dephasing(p: float, mu: float, labels: Sequence[str] = ("M1", "M2")) -> KrausChannel:
    """Two-qubit dephasing with correlation strength mu between the Z errors.

    p = 0 is the identity channel; p = 1, mu = 1 flips the joint phase with
    probability 1/2.
    """
    if not (0.0 <= p <= 1.0):
        raise ChannelError(f"noise strength p = {p} outside [0, 1]")
    if not (0.0 <= mu <= 1.0):
        raise ChannelError(f"correlation strength mu = {mu} outside [0, 1]")
    ii = np.kron(_I2, _I2)
    zi = np.kron(_Z, _I2)
    iz = np.kron(_I2, _Z)
    zz = np.kron(_Z, _Z)
    w_single = p / 2 * (1 - mu)
    w_joint = p / 2 * mu
    # identity weight is the completeness complement; equals 1 - p/2 at mu = 1
    ops = [
        math.sqrt(1 - 2 * w_single - w_joint) * ii,
        math.sqrt(w_single) * zi,
        math.sqrt(w_single) * iz,
        math.sqrt(w_joint) * zz,
    ]
    ops = [k for k in ops if np.max(np.abs(k)) > 0]
    return KrausChannel(tuple(labels), tuple(ops))


def apply_kraus(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    out = sum(_conjugate_by(rho, k, ch.labels) for k in ch.operators)
    return DensityMatrix(rho.labels, out.reshape(rho.matrix.shape))


def _unmeasured(rho: DensityMatrix, basis: MeasurementBasis) -> list[str]:
    missing = [lab for lab in basis.labels if lab not in rho.labels]
    if missing:
        raise ChannelError(f"labels not in state: {missing}")
    remaining = [lab for lab in rho.labels if lab not in basis.labels]
    if not remaining:
        raise ChannelError("measuring every label would leave an empty state")
    return remaining


def _project(rho: DensityMatrix, labels: Sequence[str], vecs: Sequence[np.ndarray], rows: int) -> np.ndarray:
    """<v_r| rho |v_r> for every row r, as an unnormalized (rows, d, d) stack
    over the unmeasured labels; vecs[j] is a (rows, 2) array whose row r is
    the vector of row r on labels[j]."""
    n = rho.n_qubits
    if not labels:
        return np.broadcast_to(rho.matrix, (rows, *rho.matrix.shape))
    # Contract <v| into each measured row axis and |v> into its column axis,
    # one label at a time in basis order, each as a matmul over that axis.  This
    # is the order numpy's optimized einsum picks for this product, so results
    # are bit-identical to it (tests/test_kernels.py checks this).  That
    # matters: ties between mirror-image optima downstream
    # (symmetric_theta_max) are broken by last-bit rounding.  It skips
    # einsum's per-call parsing and path search.  Every row is its own
    # matmul of the one-row shape, stacked on a leading axis, so a row of a
    # block is bit-equal to the same row projected alone.
    t = rho.tensor_view()
    ids = list(range(2 * n))  # original axis of each remaining axis of t
    first = True
    for lab, v in zip(labels, vecs):
        for axis, vec in ((rho.axis(lab), v.conj()), (rho.axis(lab) + n, v)):
            ax = ids.index(axis)
            ids.pop(ax)
            if first:
                rest = [a for a in range(t.ndim) if a != ax]
                t = vec.reshape(rows, 1, 2) @ t.transpose([ax, *rest]).reshape(2, -1)
                first = False
            else:
                rest = [a for a in range(1, t.ndim) if a != ax + 1]
                t = t.transpose([0, *rest, ax + 1]).reshape(rows, -1, 2) @ vec.reshape(rows, 2, 1)
            t = t.reshape((rows,) + (2,) * len(ids))
    d = 2 ** (len(ids) // 2)
    return t.reshape(rows, d, d)


def _probabilities(reduced: np.ndarray) -> np.ndarray:
    return np.real(np.trace(reduced, axis1=1, axis2=2))


def measure_project(
    rho: DensityMatrix,
    basis: MeasurementBasis,
    outcomes: Sequence[int],
) -> tuple[DensityMatrix, float] | tuple[DensityStack, np.ndarray]:
    """Project the measured labels onto the chosen basis elements.

    Returns the normalized state on the unmeasured labels and the outcome
    probability.  Outcome bit 0 selects |psi>, bit 1 selects |psi_perp>.
    For a block basis of k points, the states come as a ``DensityStack``
    and the probabilities as a length-k array, row i being point i.
    """
    if len(outcomes) != len(basis.labels):
        raise ChannelError("one outcome bit required per measured label")
    remaining = _unmeasured(rho, basis)
    vecs = [np.reshape(basis.vectors(lab)[int(bit)], (-1, 2)) for lab, bit in zip(basis.labels, outcomes)]
    reduced = _project(rho, basis.labels, vecs, basis.size or 1)
    probs = _probabilities(reduced)
    low = probs < ZERO_PROBABILITY_TOL
    if low.any():
        raise ZeroProbabilityError(
            f"outcome {tuple(int(b) for b in outcomes)} has probability {probs[low][0]:.3e}"
        )
    normalized = reduced / probs[:, None, None]
    if basis.size is None:
        return DensityMatrix(tuple(remaining), normalized[0]), float(probs[0])
    return DensityStack(tuple(remaining), normalized), probs


Branch = tuple[tuple[int, ...], DensityMatrix | None, float]


def measure_all_outcomes(rho: DensityMatrix, basis: MeasurementBasis) -> list[Branch] | list[list[Branch]]:
    """All 2^k outcome branches as (bits, state-or-None, probability), in
    binary order of the bits; a branch of (numerically) zero probability
    has state None and probability 0.

    Every branch of every point is one row of a single projection.  For a
    block basis, the result has one such list per point.
    """
    remaining = _unmeasured(rho, basis)
    k = len(basis.labels)
    patterns = [tuple((idx >> (k - 1 - j)) & 1 for j in range(k)) for idx in range(2**k)]
    bits = np.array(patterns)
    vecs = []
    for j, lab in enumerate(basis.labels):
        # (points, bit, 2) -> one row per (point, pattern)
        pair = np.stack([np.reshape(v, (-1, 2)) for v in basis.vectors(lab)], axis=1)
        vecs.append(pair[:, bits[:, j]].reshape(-1, 2))
    reduced = _project(rho, basis.labels, vecs, (basis.size or 1) * len(patterns))
    probs = _probabilities(reduced)
    branches: list[Branch] = []
    for r, prob in enumerate(probs):
        pattern = patterns[r % len(patterns)]
        if prob < ZERO_PROBABILITY_TOL:
            branches.append((pattern, None, 0.0))
        else:
            branches.append((pattern, DensityMatrix(tuple(remaining), reduced[r] / prob), float(prob)))
    if basis.size is None:
        return branches
    return [branches[i : i + len(patterns)] for i in range(0, len(branches), len(patterns))]
