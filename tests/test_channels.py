import math

import numpy as np
import pytest

from discordnet import states
from discordnet.channels import (
    ChannelError,
    GateSpec,
    KrausChannel,
    MeasurementBasis,
    ZeroProbabilityError,
    apply_gate,
    apply_kraus,
    basis_vectors,
    correlated_dephasing,
    measure_project,
)
from discordnet.states import DensityMatrix, partial_trace, purity


def test_basis_vectors_orthonormal():
    for theta, phi in [(0.0, 0.0), (0.9, 2.2), (math.pi, 5.0)]:
        v, w = basis_vectors(theta, phi)
        assert abs(np.vdot(v, v) - 1) < 1e-12
        assert abs(np.vdot(w, w) - 1) < 1e-12
        assert abs(np.vdot(v, w)) < 1e-12


def test_one_operator_kraus_preserves_spectrum(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho = DensityMatrix(("A", "B"), rho / np.trace(rho))
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    out = apply_kraus(rho, KrausChannel(("B",), (h,)))
    assert np.allclose(
        np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
    )


def test_one_operator_kraus_rejects_nonunitary():
    rho = states.maximally_mixed(("A",))
    with pytest.raises(ChannelError):
        apply_kraus(rho, KrausChannel(("A",), (np.array([[1.0, 0.0], [0.0, 2.0]]),)))


def test_cz_gate_matches_diagonal():
    # CZ on |++> gives the maximally entangled state up to local Hadamard
    plus = np.array([1, 1, 1, 1], dtype=complex) / 2
    rho = DensityMatrix(("C1", "M1"), np.outer(plus, plus))
    out = apply_gate(rho, GateSpec(kind="cz", control="C1", target="M1"))
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    expected = cz @ np.outer(plus, plus) @ cz
    assert np.allclose(out.matrix, expected, atol=1e-12)


def test_gate_embedding_respects_label_order():
    # control/target spanning non-adjacent labels
    rho = states.tensor(
        [
            states.bell_state("phi+", labels=("C1", "M1")).density(),
            states.maximally_mixed(("X",)),
        ]
    )
    out = apply_gate(rho, GateSpec(kind="cz", control="C1", target="M1"))
    # X subsystem untouched
    assert np.allclose(
        partial_trace(out, ["X"]).matrix, np.eye(2) / 2, atol=1e-12
    )


def test_kraus_completeness_enforced():
    bad = [np.eye(2) * 0.9]
    with pytest.raises(ChannelError):
        KrausChannel(("A",), tuple(bad))


def test_correlated_dephasing_completeness_and_trace():
    for p, mu in [(0.0, 0.0), (0.3, 0.5), (1.0, 1.0), (0.7, 0.0)]:
        ch = correlated_dephasing(p, mu)
        acc = sum(k.conj().T @ k for k in ch.operators)
        assert np.allclose(acc, np.eye(4), atol=1e-12)
        rho = states.plus_memories(2)
        out = apply_kraus(rho, ch)
        assert abs(np.trace(out.matrix) - 1) < 1e-12


def test_full_correlated_dephasing_action():
    # p = 1, mu = 1: equal mixture of identity and joint phase flip
    ch = correlated_dephasing(1.0, 1.0)
    rho = states.plus_memories(2)
    out = apply_kraus(rho, ch)
    zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
    expected = 0.5 * rho.matrix + 0.5 * zz @ rho.matrix @ zz
    assert np.allclose(out.matrix, expected, atol=1e-12)


def test_measure_project_pure_outcome():
    # measuring |0> in the computational basis with outcome 0 is certain
    rho = states.tensor(
        [
            DensityMatrix(("C1",), np.diag([1.0, 0.0])),
            states.maximally_mixed(("M1",)),
        ]
    )
    state, prob = measure_project(rho, MeasurementBasis({"C1": (0.0, 0.0)}), (0,))
    assert abs(prob - 1.0) < 1e-12
    assert state.labels == ("M1",)


def test_measure_project_zero_probability_raises():
    rho = states.tensor(
        [
            DensityMatrix(("C1",), np.diag([1.0, 0.0])),
            states.maximally_mixed(("M1",)),
        ]
    )
    with pytest.raises(ZeroProbabilityError):
        measure_project(rho, MeasurementBasis({"C1": (0.0, 0.0)}), (1,))


def test_kraus_application_is_linear_mixture():
    ch = correlated_dephasing(0.6, 0.4)
    a = states.plus_memories(2)
    b = states.zero_memories(2)
    mix = DensityMatrix(("M1", "M2"), 0.3 * a.matrix + 0.7 * b.matrix)
    direct = apply_kraus(mix, ch).matrix
    combo = 0.3 * apply_kraus(a, ch).matrix + 0.7 * apply_kraus(b, ch).matrix
    assert np.allclose(direct, combo, atol=1e-12)


def test_dephasing_reduces_purity():
    rho = states.plus_memories(2)
    out = apply_kraus(rho, correlated_dephasing(0.5, 1.0))
    assert purity(out) < purity(rho)
