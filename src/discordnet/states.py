"""Labeled multi-qubit states: construction, tensor assembly, partial trace,
purity and fidelity, plus the named state families used throughout the
protocol experiments.

Qubit ordering convention: the joint matrix follows the declared label list,
big-endian (first label = most significant bit of the row/column index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import linalg

TRACE_TOL = 1e-10
PSD_TOL = 1e-9


class StateError(ValueError):
    """Invalid state construction or label bookkeeping error."""


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise StateError(f"duplicate subsystem labels: {labels}")
    if not labels:
        raise StateError("at least one subsystem label required")
    return labels


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over labeled qubits."""

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels))
        amp = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if amp.size != 2 ** len(self.labels):
            raise StateError(
                f"amplitude count {amp.size} does not match {len(self.labels)} qubits"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-9:
            raise StateError(f"state vector norm {norm} is not 1")
        amp = amp / norm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.labels, np.outer(self.amplitudes, self.amplitudes.conj()))


def _checked_matrix(m, n_qubits: int, stacked: bool) -> np.ndarray:
    """m as a read-only copy after the density checks: one matrix, or a
    (k, d, d) stack whose every matrix is held to the same rule."""
    m = linalg.as_matrix(m, stacked=stacked)
    d = 2**n_qubits
    if m.shape[-2:] != (d, d):
        raise StateError(f"matrix shape {m.shape} does not match {n_qubits} qubits")
    _check_density(m if stacked else m[None])
    m = m.copy()
    m.setflags(write=False)
    return m


def _check_density(m: np.ndarray) -> None:
    """Reject a (k, d, d) stack unless every matrix is unit-trace, Hermitian
    and positive semidefinite; the error names the first matrix that fails."""
    tr = np.trace(m, axis1=1, axis2=2)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise StateError(f"trace {tr[off][0]} deviates from 1 beyond {TRACE_TOL:.0e}")
    if linalg.hermiticity_defect(m) > linalg.HERMITICITY_TOL:
        raise StateError("density matrix is not Hermitian within tolerance")
    # Registers are capped at 6 qubits; transient joint carrier+memory
    # states can be larger, where the O(d^3) positivity check would
    # dominate the whole simulation.  Trace/Hermiticity still hold there.
    d = m.shape[-1]
    if d <= 64:
        # A Cholesky factor of m + PSD_TOL*I exists when every eigenvalue
        # of m exceeds -PSD_TOL, at half the cost of the spectrum.  When it
        # fails the spectrum decides, so the acceptance rule stays exact.
        try:
            np.linalg.cholesky(m + PSD_TOL * np.eye(d))
        except np.linalg.LinAlgError:
            min_eig = np.linalg.eigvalsh(m)[:, 0]
            low = min_eig < -PSD_TOL
            if low.any():
                raise StateError(f"minimum eigenvalue {float(min_eig[low][0])} below -{PSD_TOL:.0e}") from None


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix over an ordered list of qubit labels."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels))
        object.__setattr__(self, "matrix", _checked_matrix(self.matrix, len(self.labels), False))

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StateError(f"unknown subsystem label {label!r}") from None

    def tensor_view(self) -> np.ndarray:
        """Matrix reshaped to a rank-2n tensor (row axes first, then column axes)."""
        n = self.n_qubits
        return self.matrix.reshape((2,) * (2 * n))


@dataclass(frozen=True)
class DensityStack:
    """k density matrices over one ordered list of qubit labels.

    ``matrix`` is a (k, d, d) array; every one of its matrices passes the
    checks of ``DensityMatrix``.  ``stack[i]`` is matrix i as a
    ``DensityMatrix``.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels))
        object.__setattr__(self, "matrix", _checked_matrix(self.matrix, len(self.labels), True))

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, i: int) -> DensityMatrix:
        return DensityMatrix(self.labels, self.matrix[i])


def bloch_state(theta: float, phi: float, label: str = "Q") -> PureState:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> on a single qubit."""
    _check_bloch_angles(theta, phi)
    return PureState(
        (label,),
        np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]),
    )


def _check_bloch_angles(theta, phi) -> None:
    """Raise unless theta lies in [0, pi] and phi in [0, 2pi); for arrays of
    angles, every one of them, naming the first that does not."""
    theta, phi = np.asarray(theta), np.asarray(phi)
    ok = (-1e-12 <= theta) & (theta <= math.pi + 1e-12)
    if not ok.all():
        raise StateError(f"theta {float(theta[~ok][0])} outside [0, pi]")
    ok = (-1e-12 <= phi) & (phi < 2 * math.pi + 1e-12)
    if not ok.all():
        raise StateError(f"phi {float(phi[~ok][0])} outside [0, 2pi)")


def fold_bloch(thetas, phis) -> tuple[np.ndarray, np.ndarray]:
    """Fold free-running Bloch angles into theta in [0, pi], phi in [0, 2pi).

    |v(theta, phi)> equals -|v(theta + 2pi, phi)> and -|v(2pi - theta, phi + pi)>,
    and the orthogonal state changes by a phase as well, so the fold leaves every
    measurement projector unchanged.  Angles already in range come back as they are.
    """
    thetas = np.mod(np.asarray(thetas, dtype=float), 2 * math.pi)
    phis = np.mod(np.asarray(phis, dtype=float), 2 * math.pi)
    flip = thetas > math.pi
    thetas = np.where(flip, 2 * math.pi - thetas, thetas)
    phis = np.mod(np.where(flip, phis + math.pi, phis), 2 * math.pi)
    return thetas, phis


def tensor(states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Kronecker-assemble a joint state; labels are concatenated in order."""
    if not states:
        raise StateError("tensor of zero states")
    labels: list[str] = []
    for s in states:
        labels.extend(s.labels)
    m = states[0].matrix
    for s in states[1:]:
        b = s.matrix
        # np.kron(m, b) as one broadcast product
        m = (m[:, None, :, None] * b[None, :, None, :]).reshape(len(m) * len(b), -1)
    return DensityMatrix(tuple(labels), m)


def partial_trace(rho: DensityMatrix | DensityStack, keep: Iterable[str]) -> DensityMatrix | DensityStack:
    """Reduced state on ``keep`` (original label order preserved); of every
    matrix, for a stack."""
    keep = set(keep)
    unknown = keep - set(rho.labels)
    if unknown:
        raise StateError(f"unknown labels in keep set: {sorted(unknown)}")
    if not keep:
        raise StateError("keep set must be nonempty")
    if len(keep) == rho.n_qubits:
        return rho
    n = rho.n_qubits
    kept = [i for i, lab in enumerate(rho.labels) if lab in keep]
    traced = [i for i, lab in enumerate(rho.labels) if lab not in keep]
    # Group the axes as (kept rows, traced rows, kept cols, traced cols) and sum
    # the diagonal of the traced pair; a stack keeps its leading axis in front.
    lead = rho.matrix.shape[:-2]
    b = len(lead)
    order = [*range(b)] + [b + i for i in kept + traced + [i + n for i in kept] + [i + n for i in traced]]
    d, dt = 2 ** len(kept), 2 ** len(traced)
    t = rho.matrix.reshape(lead + (2,) * (2 * n)).transpose(order).reshape(lead + (d, dt, d, dt))
    reduced = np.trace(t, axis1=b + 1, axis2=b + 3)
    return type(rho)(tuple(rho.labels[i] for i in kept), reduced)


def purity(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def fidelity(rho: DensityMatrix | DensityStack, sigma: DensityMatrix | DensityStack) -> float | np.ndarray:
    """Uhlmann fidelity, squared convention: (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Either argument may be a stack; then the result is an array with one
    fidelity per matrix (both stacks of one length, or one stack against a
    single state), each equal to the one-pair call.
    """
    a, b = rho.matrix, sigma.matrix
    if a.shape[-2:] != b.shape[-2:]:
        raise StateError("fidelity of states with different dimensions")
    if a.ndim == b.ndim == 3 and len(a) != len(b):
        raise StateError(f"fidelity of stacks of {len(a)} and {len(b)} states")
    sqrt_rho = linalg.mat_fn(a if a.ndim == 3 else a[None], lambda x: math.sqrt(max(x, 0.0)))
    inner = sqrt_rho @ b @ sqrt_rho
    vals = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2)
    # float_power is libm pow, as np.float64 ** 2 is; an array ** 2 is a
    # multiply and can differ in the last bit.
    f = np.clip(np.float_power(np.sum(np.sqrt(np.clip(vals, 0.0, None)), axis=-1), 2), 0.0, 1.0)
    return f if a.ndim == 3 or b.ndim == 3 else float(f[0])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    diff = rho.matrix - sigma.matrix
    vals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return 0.5 * float(np.sum(np.abs(vals)))


# --------------------------------------------------------------------------
# Named state families
# --------------------------------------------------------------------------

KET_PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
KET_MINUS = np.array([1.0, -1.0]) / math.sqrt(2)


def _proj(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=np.complex128)
    return np.outer(v, v.conj())


def _kron_chain(vecs: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(vecs[0], dtype=np.complex128)
    for v in vecs[1:]:
        out = np.kron(out, np.asarray(v, dtype=np.complex128))
    return out


def carrier_labels(n: int) -> tuple[str, ...]:
    return tuple(f"C{i}" for i in range(1, n + 1))


def memory_labels(n: int) -> tuple[str, ...]:
    return tuple(f"M{i}" for i in range(1, n + 1))


def classical_carriers(n: int = 2) -> DensityMatrix:
    """Equal mixture of |+...+> and |-...-> on the carrier register.

    Carries classical correlations only; this is the protocol's resource.
    """
    if n < 1:
        raise StateError("need at least one carrier")
    plus = _kron_chain([KET_PLUS] * n)
    minus = _kron_chain([KET_MINUS] * n)
    return DensityMatrix(carrier_labels(n), 0.5 * (_proj(plus) + _proj(minus)))


def mixed_carriers(lam: float) -> DensityMatrix:
    """Convex mixture of the classical carrier pair with its phase-flipped twin."""
    _check_unit_interval("lambda", lam)
    pm = _kron_chain([KET_PLUS, KET_MINUS])
    mp = _kron_chain([KET_MINUS, KET_PLUS])
    m = (1 - lam) * classical_carriers(2).matrix + 0.5 * lam * (_proj(pm) + _proj(mp))
    return DensityMatrix(carrier_labels(2), m)


def anticorrelated_carriers() -> DensityMatrix:
    """Equal mixture of |+-> and |-+> on the carrier pair."""
    return mixed_carriers(1.0)


def biased_carriers(eta: float) -> DensityMatrix:
    """eta |++><++| + (1-eta) |--><--|: trades purity against classical correlation."""
    _check_unit_interval("eta", eta)
    pp = _proj(_kron_chain([KET_PLUS, KET_PLUS]))
    mm = _proj(_kron_chain([KET_MINUS, KET_MINUS]))
    return DensityMatrix(carrier_labels(2), eta * pp + (1 - eta) * mm)


def ghz3_carriers() -> DensityMatrix:
    """(|+++> + |--->)/sqrt(2) on three carriers."""
    vec = (_kron_chain([KET_PLUS] * 3) + _kron_chain([KET_MINUS] * 3)) / math.sqrt(2)
    return DensityMatrix(carrier_labels(3), _proj(vec))


def plus_memories(n: int) -> DensityMatrix:
    return DensityMatrix(memory_labels(n), _proj(_kron_chain([KET_PLUS] * n)))


def zero_memories(n: int) -> DensityMatrix:
    return DensityMatrix(memory_labels(n), _proj(_kron_chain([np.array([1.0, 0.0])] * n)))


def pure_memory_pair(vartheta: float, varphi: float) -> DensityMatrix:
    """|+>_M1 times a Bloch state on M2 (preparation-imprecision study)."""
    m2 = bloch_state(vartheta, varphi, "M2").amplitudes
    return DensityMatrix(memory_labels(2), _proj(np.kron(KET_PLUS, m2)))


def mixed_memories(a1: float, a2: float) -> DensityMatrix:
    """Product of local |+>/|-> mixtures with weights a1, a2."""
    _check_unit_interval("A1", a1)
    _check_unit_interval("A2", a2)
    locals_ = [
        a * _proj(KET_PLUS) + (1 - a) * _proj(KET_MINUS) for a in (a1, a2)
    ]
    return DensityMatrix(memory_labels(2), np.kron(locals_[0], locals_[1]))


def w_state(n: int) -> PureState:
    """Symmetric single-excitation state on memories M1..Mn."""
    if n < 2:
        raise StateError("W state needs n >= 2")
    amp = np.zeros(2**n, dtype=np.complex128)
    for i in range(n):
        amp[1 << (n - 1 - i)] = 1.0
    amp /= math.sqrt(n)
    return PureState(memory_labels(n), amp)


def werner_w(n: int, eps: float) -> DensityMatrix:
    """(1-eps) |W_n><W_n| + eps I / 2^n."""
    _check_unit_interval("epsilon", eps)
    w = w_state(n)
    m = (1 - eps) * _proj(w.amplitudes) + eps * np.eye(2**n) / 2**n
    return DensityMatrix(w.labels, m)


_BELL = {
    "phi+": np.array([1, 0, 0, 1]) / math.sqrt(2),
    "phi-": np.array([1, 0, 0, -1]) / math.sqrt(2),
    "psi+": np.array([0, 1, 1, 0]) / math.sqrt(2),
    "psi-": np.array([0, 1, -1, 0]) / math.sqrt(2),
}


def bell_state(which: str, labels: Sequence[str] = ("M1", "M2")) -> PureState:
    try:
        amp = _BELL[which.lower()]
    except KeyError:
        raise StateError(f"unknown Bell state {which!r}") from None
    return PureState(tuple(labels), amp)


def bell_mixture(x: float, labels: Sequence[str] = ("M1", "M2")) -> DensityMatrix:
    """x |psi+><psi+| + (1-x)/2 (|phi+><phi+| + |phi-><phi-|); entangled for x > 1/2."""
    _check_unit_interval("x", x)
    m = (
        x * _proj(_BELL["psi+"])
        + 0.5 * (1 - x) * (_proj(_BELL["phi+"]) + _proj(_BELL["phi-"]))
    )
    return DensityMatrix(tuple(labels), m)


def werner_bell(y: float) -> DensityMatrix:
    """y |psi-><psi-| + (1-y)/4 I on (M1, M2); entangled for y > 1/3."""
    _check_unit_interval("y", y)
    m = y * _proj(_BELL["psi-"]) + (1 - y) / 4 * np.eye(4)
    return DensityMatrix(("M1", "M2"), m)


def maximally_mixed(labels: Sequence[str]) -> DensityMatrix:
    labels = tuple(labels)
    d = 2 ** len(labels)
    return DensityMatrix(labels, np.eye(d) / d)


def _whole(n: float) -> int:
    """A size parameter as an int; a fractional value is an error, not truncated."""
    if not float(n).is_integer():
        raise StateError(f"n = {n} is not a whole number")
    return int(n)


_FAMILIES = {
    "classical_carriers": lambda n=2: classical_carriers(_whole(n)),
    "mixed_carriers": lambda lam: mixed_carriers(float(lam)),
    "anticorrelated_carriers": lambda: anticorrelated_carriers(),
    "biased_carriers": lambda eta: biased_carriers(float(eta)),
    "ghz3": lambda: ghz3_carriers(),
    "plus_memories": lambda n=2: plus_memories(_whole(n)),
    "pure_memory_pair": lambda vartheta, varphi=0.0: pure_memory_pair(
        float(vartheta), float(varphi)
    ),
    "mixed_memories": lambda a1, a2: mixed_memories(float(a1), float(a2)),
    "w": lambda n: w_state(_whole(n)).density(),
    "bell": lambda kind="phi+": bell_state(str(kind)).density(),
    "maximally_mixed": lambda n=2: maximally_mixed(memory_labels(_whole(n))),
    "werner_w": lambda n, eps: werner_w(_whole(n), float(eps)),
    "bell_mixture": lambda x: bell_mixture(float(x)),
    "werner_bell": lambda y: werner_bell(float(y)),
}


def make_named_state(family: str, params: Mapping[str, float] | None = None) -> DensityMatrix:
    """Construct a state family by name; raises on unknown family or bad parameters."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise StateError(
            f"unknown state family {family!r}; known: {sorted(_FAMILIES)}"
        ) from None
    try:
        return builder(**dict(params or {}))
    except TypeError as exc:
        raise StateError(f"bad parameters for family {family!r}: {exc}") from None


def _check_unit_interval(name: str, value: float) -> None:
    if not (0.0 - 1e-12 <= value <= 1.0 + 1e-12):
        raise StateError(f"{name} = {value} outside [0, 1]")
