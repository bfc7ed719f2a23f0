"""Gates, Kraus channels and projective measurements on named subsystems.

Gate and measurement embedding is done by index arithmetic on the reshaped
state tensor rather than by building full-dimension operators, keeping the
cost at O(4^n) per application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .states import DensityMatrix, _check_bloch_angles

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


def basis_vectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal measurement pair (|psi>, |psi_perp>) for Bloch angles."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = np.exp(1j * phi)
    return np.array([c, e * s]), np.array([s, -e * c])


@dataclass(frozen=True)
class MeasurementBasis:
    """Per-label Bloch angles defining local rank-1 projective measurements."""

    angles: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        checked = {}
        for label, (theta, phi) in dict(self.angles).items():
            _check_bloch_angles(theta, phi % (2 * math.pi))
            checked[str(label)] = (float(theta), float(phi))
        object.__setattr__(self, "angles", checked)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.angles)

    def vectors(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        theta, phi = self.angles[label]
        return basis_vectors(theta, phi)


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


def measure_project(
    rho: DensityMatrix,
    basis: MeasurementBasis,
    outcomes: Sequence[int],
) -> tuple[DensityMatrix, float]:
    """Project the measured labels onto the chosen basis elements.

    Returns the normalized state on the unmeasured labels and the outcome
    probability.  Outcome bit 0 selects |psi>, bit 1 selects |psi_perp>.
    """
    measured = basis.labels
    if len(outcomes) != len(measured):
        raise ChannelError("one outcome bit required per measured label")
    missing = [lab for lab in measured if lab not in rho.labels]
    if missing:
        raise ChannelError(f"labels not in state: {missing}")
    remaining = [lab for lab in rho.labels if lab not in measured]
    if not remaining:
        raise ChannelError("measuring every label would leave an empty state")

    n = rho.n_qubits
    # Contract <v| into each measured row axis and |v> into its column axis,
    # one label at a time in basis order, each as a matmul over that axis.  This
    # is the order numpy's optimized einsum picks for this product, so results
    # are bit-identical to it (tests/test_kernels.py checks this).  That
    # matters: ties between mirror-image optima downstream
    # (symmetric_theta_max) are broken by last-bit rounding.  It skips
    # einsum's per-call parsing and path search.
    t = rho.tensor_view()
    ids = list(range(2 * n))  # original axis of each remaining axis of t
    first = True
    for lab, bit in zip(measured, outcomes):
        v = basis.vectors(lab)[int(bit)]
        for axis, vec in ((rho.axis(lab), v.conj()), (rho.axis(lab) + n, v)):
            ax = ids.index(axis)
            ids.pop(ax)
            rest = [a for a in range(t.ndim) if a != ax]
            if first:
                t = vec.reshape(1, 2) @ t.transpose([ax, *rest]).reshape(2, -1)
                first = False
            else:
                t = t.transpose([*rest, ax]).reshape(-1, 2) @ vec.reshape(2, 1)
            t = t.reshape((2,) * len(ids))
    d = 2 ** len(remaining)
    reduced = t.reshape(d, d)
    prob = float(np.real(np.trace(reduced)))
    if prob < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityError(
            f"outcome {tuple(int(b) for b in outcomes)} has probability {prob:.3e}"
        )
    return DensityMatrix(tuple(remaining), reduced / prob), prob


def measure_all_outcomes(
    rho: DensityMatrix, basis: MeasurementBasis
) -> list[tuple[tuple[int, ...], DensityMatrix | None, float]]:
    """All 2^k outcome branches as (bits, state-or-None, probability)."""
    k = len(basis.labels)
    results = []
    for idx in range(2**k):
        bits = tuple((idx >> (k - 1 - j)) & 1 for j in range(k))
        try:
            state, prob = measure_project(rho, basis, bits)
        except ZeroProbabilityError:
            state, prob = None, 0.0
        results.append((bits, state, prob))
    return results
