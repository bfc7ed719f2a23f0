"""The tensor kernels of ``channels`` and ``states`` against dense references.

Every reference is built from full-dimension operators assembled with
``np.kron`` in the state's own label order, so it shares no index arithmetic
with the kernels under test.
"""

import math
from functools import reduce

import numpy as np
import pytest

from discordnet import linalg
from discordnet.channels import (
    GateSpec,
    KrausChannel,
    MeasurementBasis,
    apply_gate,
    apply_kraus,
    correlated_dephasing,
    measure_project,
)
from discordnet.states import DensityMatrix, DensityStack, StateError, partial_trace

LABELS = ("a", "b", "c", "d", "e", "f")
ATOL = 1e-12


def random_state(rng, n: int) -> DensityMatrix:
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(LABELS[:n], m / np.trace(m))


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def embed(u: np.ndarray, labels, order) -> np.ndarray:
    """u on ``labels`` (in that order) as a full operator over ``order``."""
    k = len(labels)
    full = np.zeros((2 ** len(order),) * 2, dtype=complex)
    for row in range(2**k):
        for col in range(2**k):
            factors = []
            for lab in order:
                if lab in labels:
                    j = k - 1 - labels.index(lab)
                    e = np.zeros((2, 2))
                    e[(row >> j) & 1, (col >> j) & 1] = 1.0
                    factors.append(e)
                else:
                    factors.append(np.eye(2))
            full += u[row, col] * reduce(np.kron, factors)
    return full


def contract(bras: dict, order) -> np.ndarray:
    """Map from the full space to the unlisted labels: <bra| on each listed label."""
    factors = [np.conj(bras[lab])[None, :] if lab in bras else np.eye(2) for lab in order]
    return reduce(np.kron, factors)


def dense_partial_trace(m: np.ndarray, keep, order) -> np.ndarray:
    traced = [lab for lab in order if lab not in keep]
    out = 0
    for t in range(2 ** len(traced)):
        bras = {lab: np.eye(2)[(t >> (len(traced) - 1 - j)) & 1] for j, lab in enumerate(traced)}
        b = contract(bras, order)
        out = out + b @ m @ b.conj().T
    return out


def pick_labels(rng, n: int, k: int) -> list[str]:
    """k distinct labels of an n-qubit state in a random (often unsorted) order."""
    return [LABELS[i] for i in rng.permutation(n)[:k]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["cz", "ch", "local"])
def test_apply_gate_matches_dense(rng, n, kind):
    rho = random_state(rng, n)
    if kind == "local":  # a non-diagonal single-qubit unitary: a one-operator channel
        (target,) = pick_labels(rng, n, 1)
        u, labels = random_unitary(rng, 2), [target]
        out = apply_kraus(rho, KrausChannel((target,), (u,)))
    else:
        control, target = pick_labels(rng, n, 2)
        gate = GateSpec(kind=kind, control=control, target=target)
        u, labels = gate.two_qubit_matrix(), [control, target]
        out = apply_gate(rho, gate)
    full = embed(u, labels, rho.labels)
    assert out.labels == rho.labels
    assert np.allclose(out.matrix, full @ rho.matrix @ full.conj().T, atol=ATOL)


def test_apply_gate_reversed_label_order(rng):
    rho = random_state(rng, 4)
    for control, target in (("d", "a"), ("c", "b"), ("a", "d")):
        gate = GateSpec(kind="ch", control=control, target=target)
        full = embed(gate.two_qubit_matrix(), [control, target], rho.labels)
        assert np.allclose(apply_gate(rho, gate).matrix, full @ rho.matrix @ full.conj().T, atol=ATOL)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_diagonal_unitary_kraus_matches_dense(rng, n):
    # complex phases: the diagonal branch of the conjugation must conjugate d
    rho = random_state(rng, n)
    u = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, size=4)))
    for labels in (pick_labels(rng, n, 2), ["b", "a"]):
        full = embed(u, labels, rho.labels)
        out = apply_kraus(rho, KrausChannel(tuple(labels), (u,)))
        assert np.allclose(out.matrix, full @ rho.matrix @ full.conj().T, atol=ATOL)


def amplitude_damping(gamma: float, label: str) -> KrausChannel:
    # one diagonal and one non-diagonal operator
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel((label,), (k0, k1))


def phase_flip_first(q: float, labels) -> KrausChannel:
    # diagonal operators that are not symmetric under swapping the two labels
    z = np.diag([1.0, -1.0])
    return KrausChannel(tuple(labels), (math.sqrt(1 - q) * np.eye(4), math.sqrt(q) * np.kron(z, np.eye(2))))


def correlated_bit_flip(q: float, labels) -> KrausChannel:
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return KrausChannel(tuple(labels), (math.sqrt(1 - q) * np.eye(4), math.sqrt(q) * np.kron(x, x)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_apply_kraus_matches_dense(rng, n):
    rho = random_state(rng, n)
    two = pick_labels(rng, n, 2)
    channels = [
        correlated_dephasing(0.7, 0.4, labels=two),
        amplitude_damping(0.3, pick_labels(rng, n, 1)[0]),
        correlated_bit_flip(0.2, pick_labels(rng, n, 2)),
        phase_flip_first(0.3, pick_labels(rng, n, 2)),
    ]
    for ch in channels:
        want = sum(
            embed(k, list(ch.labels), rho.labels) @ rho.matrix @ embed(k, list(ch.labels), rho.labels).conj().T
            for k in ch.operators
        )
        assert np.allclose(apply_kraus(rho, ch).matrix, want, atol=ATOL)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_measure_project_matches_dense(rng, n):
    rho = random_state(rng, n)
    k = int(rng.integers(1, n))
    measured = pick_labels(rng, n, k)
    basis = MeasurementBasis(
        {lab: (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))) for lab in measured}
    )
    bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
    state, prob = measure_project(rho, basis, bits)
    b = contract({lab: basis.vectors(lab)[bit] for lab, bit in zip(measured, bits)}, rho.labels)
    want = b @ rho.matrix @ b.conj().T
    assert state.labels == tuple(lab for lab in rho.labels if lab not in measured)
    assert abs(prob - np.trace(want).real) < ATOL
    assert np.allclose(state.matrix, want / np.trace(want), atol=1e-10)


def optimized_einsum_projection(rho, basis, bits) -> np.ndarray:
    """<v| rho |v> over the measured labels by one ``optimize=True`` einsum."""
    n = rho.n_qubits
    remaining = [lab for lab in rho.labels if lab not in basis.labels]
    args: list = [rho.tensor_view(), list(range(2 * n))]
    for lab, bit in zip(basis.labels, bits):
        v = basis.vectors(lab)[bit]
        args += [v.conj(), [rho.axis(lab)], v, [rho.axis(lab) + n]]
    args.append([rho.axis(lab) for lab in remaining] + [rho.axis(lab) + n for lab in remaining])
    d = 2 ** len(remaining)
    return np.einsum(*args, optimize=True).reshape(d, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_measure_project_is_bit_identical_to_optimized_einsum(rng, n):
    # symmetric_theta_max breaks mirror ties by last-bit rounding, so the
    # contraction order, not only the value, has to stay einsum's
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    rho = DensityMatrix(tuple(f"q{i}" for i in range(n)), m / np.trace(m))
    for _ in range(6):
        measured = [str(lab) for lab in rng.permutation(rho.labels)[: int(rng.integers(1, n))]]
        basis = MeasurementBasis(
            {lab: (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))) for lab in measured}
        )
        bits = tuple(int(b) for b in rng.integers(0, 2, size=len(measured)))
        reduced = optimized_einsum_projection(rho, basis, bits)
        state, prob = measure_project(rho, basis, bits)
        assert prob == float(np.real(np.trace(reduced)))
        assert np.array_equal(state.matrix, reduced / prob)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_measure_project_block_rows_equal_single_points(rng, n):
    rho = random_state(rng, n)
    measured = pick_labels(rng, n, int(rng.integers(1, n)))
    k = 5
    thetas = rng.uniform(0, math.pi, size=(len(measured), k))
    phis = rng.uniform(0, 2 * math.pi, size=(len(measured), k))
    bits = tuple(int(b) for b in rng.integers(0, 2, size=len(measured)))
    block = MeasurementBasis({lab: (thetas[j], phis[j]) for j, lab in enumerate(measured)})
    assert block.size == k
    stack, probs = measure_project(rho, block, bits)
    assert isinstance(stack, DensityStack) and probs.shape == (k,)
    for r in range(k):
        point = MeasurementBasis(
            {lab: (float(thetas[j, r]), float(phis[j, r])) for j, lab in enumerate(measured)}
        )
        state, prob = measure_project(rho, point, bits)
        assert np.array_equal(stack.matrix[r], state.matrix)
        assert probs[r] == prob
        assert stack.labels == state.labels
    # the stacked partial trace is the partial trace of each row
    keep = stack.labels[:1]
    reduced = partial_trace(stack, keep)
    for r in range(k):
        assert np.array_equal(reduced.matrix[r], partial_trace(stack[r], keep).matrix)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_partial_trace_matches_dense(rng, n):
    rho = random_state(rng, n)
    keep = pick_labels(rng, n, int(rng.integers(1, n)))
    out = partial_trace(rho, keep)
    assert out.labels == tuple(lab for lab in rho.labels if lab in keep)
    assert np.allclose(out.matrix, dense_partial_trace(rho.matrix, keep, rho.labels), atol=ATOL)


def test_partial_trace_keeping_every_label_returns_input(rng):
    rho = random_state(rng, 3)
    assert partial_trace(rho, reversed(rho.labels)) is rho
    with pytest.raises(StateError):
        partial_trace(rho, ["a", "z"])


def test_tiled_hermiticity_defect_equals_naive(rng):
    d = 1024
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    for m in (a, h):
        naive = float(np.max(np.abs(m - m.conj().T)))
        assert linalg.hermiticity_defect(m) == naive
    # a defect below the diagonal is seen from its mirror tile, and one inside
    # a diagonal tile from that tile itself
    for i, j in ((900, 10), (5, 7), (600, 600)):
        g = h.copy()
        g[i, j] += 3e-9j
        assert linalg.hermiticity_defect(g) == float(np.max(np.abs(g - g.conj().T)))
        assert linalg.hermiticity_defect(g) > linalg.HERMITICITY_TOL
