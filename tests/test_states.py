import math

import numpy as np
import pytest

from discordnet import linalg, states
from discordnet.states import (
    DensityMatrix,
    DensityStack,
    PureState,
    StateError,
    bloch_state,
    fidelity,
    maximally_mixed,
    partial_trace,
    purity,
    tensor,
    trace_distance,
)

# Frozen values below were computed with an independent dense-loop
# implementation (explicit-index partial trace, eigenvalue entropies).
REF_ENTRIES = {
    "entropy": 0.8007822408158303,
    "purity": 0.6316034023672755,
    "s_m1": 0.6997844549266832,
    "s_m2": 0.4275017710560212,
    "fid_zero_plus": 0.4563339037274195,
}


def test_density_matrix_validation():
    with pytest.raises(StateError):
        DensityMatrix(("A",), np.array([[0.6, 0.0], [0.1, 0.4]]))  # not Hermitian
    with pytest.raises(StateError):
        DensityMatrix(("A",), np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
    with pytest.raises(StateError):
        DensityMatrix(("A",), np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD


@pytest.mark.parametrize("n", [1, 3, 6])
def test_density_matrix_rejects_bad_input_at_every_checked_size(n):
    labels = tuple(f"Q{i}" for i in range(n))
    d = 2**n
    good = np.eye(d) / d
    DensityMatrix(labels, good)
    nan = good.copy()
    nan[0, d - 1] = np.nan
    with pytest.raises(linalg.LinalgError):
        DensityMatrix(labels, nan)
    skew = good.astype(complex)
    skew[d - 1, 0] = 1e-6j
    with pytest.raises(StateError, match="Hermitian"):
        DensityMatrix(labels, skew)
    with pytest.raises(StateError, match="trace"):
        DensityMatrix(labels, 2 * good)
    # the positivity check covers every register up to 64 dimensions
    negative = np.diag(np.r_[1.5, -0.5, np.zeros(d - 2)]) if d > 2 else np.diag([1.5, -0.5])
    with pytest.raises(StateError, match="eigenvalue"):
        DensityMatrix(labels, negative)


def test_positivity_tolerance_is_inclusive():
    # an eigenvalue of exactly -PSD_TOL is accepted, one below it is not
    DensityMatrix(("A",), np.diag([1 + states.PSD_TOL, -states.PSD_TOL]))
    with pytest.raises(StateError, match="eigenvalue"):
        DensityMatrix(("A",), np.diag([1 + 2 * states.PSD_TOL, -2 * states.PSD_TOL]))


def test_fold_bloch_maps_into_range_and_keeps_projectors(rng):
    thetas = np.r_[rng.uniform(-7, 13, size=40), 0.0, math.pi, -1e-17]
    phis = np.r_[rng.uniform(-9, 15, size=40), 0.0, 2 * math.pi - 1e-9, -1e-17]
    ft, fp = states.fold_bloch(thetas, phis)
    assert np.all((0 <= ft) & (ft <= math.pi)) and np.all((0 <= fp) & (fp <= 2 * math.pi))
    for t, p, t2, p2 in zip(thetas, phis, ft, fp):
        for a, b in zip(_bloch_pair(t, p), _bloch_pair(t2, p2)):
            assert np.allclose(np.outer(a, a.conj()), np.outer(b, b.conj()), atol=1e-12)
    inside_t, inside_p = rng.uniform(0, math.pi, 10), rng.uniform(0, 2 * math.pi, 10)
    same_t, same_p = states.fold_bloch(inside_t, inside_p)
    assert np.array_equal(same_t, inside_t) and np.array_equal(same_p, inside_p)


def _bloch_pair(theta, phi):
    c, s, e = math.cos(theta / 2), math.sin(theta / 2), np.exp(1j * phi)
    return np.array([c, e * s]), np.array([s, -e * c])


def test_pure_state_density_consistency():
    psi = PureState(("A",), np.array([1.0, 1.0j]) / math.sqrt(2))
    rho = psi.density()
    assert abs(purity(rho) - 1.0) < 1e-12
    assert np.allclose(rho.matrix, rho.matrix.conj().T)


def test_bloch_state_orthogonality():
    for theta, phi in [(0.3, 1.1), (2.0, 4.4), (math.pi / 2, 0.0)]:
        v = bloch_state(theta, phi)
        psi, perp = _bloch_pair(theta, phi)
        assert np.allclose(v.amplitudes, psi, atol=1e-15)
        assert abs(np.vdot(v.amplitudes, perp)) < 1e-12


def test_tensor_and_partial_trace_roundtrip(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a = DensityMatrix(("A",), rho_a / np.trace(rho_a))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_b = b @ b.conj().T
    rho_b = DensityMatrix(("B", "C"), rho_b / np.trace(rho_b))
    joint = tensor([rho_a, rho_b])
    assert joint.labels == ("A", "B", "C")
    back = partial_trace(joint, ["A"])
    assert np.allclose(back.matrix, rho_a.matrix, atol=1e-12)
    back_bc = partial_trace(joint, ["B", "C"])
    assert np.allclose(back_bc.matrix, rho_b.matrix, atol=1e-12)


def test_partial_trace_order_preserved():
    bell = states.bell_state("phi+").density()
    red = partial_trace(bell, ["M2"])
    assert red.labels == ("M2",)
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_reference_state_oracles(reference_state):
    from discordnet.correlations import entropy

    rho = reference_state
    assert abs(entropy(rho) - REF_ENTRIES["entropy"]) < 1e-9
    assert abs(purity(rho) - REF_ENTRIES["purity"]) < 1e-12
    assert abs(entropy(partial_trace(rho, ["M1"])) - REF_ENTRIES["s_m1"]) < 1e-9
    assert abs(entropy(partial_trace(rho, ["M2"])) - REF_ENTRIES["s_m2"]) < 1e-9
    zero_plus = tensor(
        [
            PureState(("M1",), np.array([1.0, 0.0])).density(),
            PureState(("M2",), np.array([1.0, 1.0]) / math.sqrt(2)).density(),
        ]
    )
    # matrix square roots limit fidelity accuracy to ~1e-8
    assert abs(fidelity(rho, zero_plus) - REF_ENTRIES["fid_zero_plus"]) < 5e-8


def test_fidelity_pure_state_formula(rng):
    # fidelity with a pure argument reduces to <psi|rho|psi>
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho = DensityMatrix(("M1", "M2"), rho / np.trace(rho))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    psi = PureState(("M1", "M2"), v).density()
    direct = float(np.real(v.conj() @ rho.matrix @ v))
    assert abs(fidelity(rho, psi) - direct) < 5e-8
    assert abs(fidelity(psi, rho) - direct) < 5e-8


def test_fidelity_bounds_and_symmetry():
    rho = states.bell_mixture(0.5)
    sigma = maximally_mixed(("M1", "M2"))
    f = fidelity(rho, sigma)
    assert 0.0 <= f <= 1.0
    assert abs(f - fidelity(sigma, rho)) < 1e-10
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def _random_density(rng, d: int, rank: int) -> np.ndarray:
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return m / np.trace(m)


def test_stacked_fidelity_rows_equal_the_one_pair_call(rng):
    labels = ("M1", "M2")
    ranks = [1, 2, 3, 4, 4] * 10
    rhos = [_random_density(rng, 4, r) for r in ranks]
    sigmas = [_random_density(rng, 4, r) for r in ranks[::-1]]
    pairs = [(DensityMatrix(labels, a), DensityMatrix(labels, b)) for a, b in zip(rhos, sigmas)]
    stacked = fidelity(DensityStack(labels, rhos), DensityStack(labels, sigmas))
    assert stacked.shape == (50,)
    assert all(stacked[i] == fidelity(a, b) for i, (a, b) in enumerate(pairs))
    # one stack against one state, either way round
    against = fidelity(DensityStack(labels, rhos), pairs[0][1])
    assert all(against[i] == fidelity(a, pairs[0][1]) for i, (a, _) in enumerate(pairs))
    reverse = fidelity(pairs[0][1], DensityStack(labels, rhos))
    assert all(reverse[i] == fidelity(pairs[0][1], a) for i, (a, _) in enumerate(pairs))
    with pytest.raises(StateError, match="stacks of 50 and 3"):
        fidelity(DensityStack(labels, rhos), DensityStack(labels, sigmas[:3]))


def test_stack_rejects_one_bad_matrix_as_density_matrix_does(rng):
    labels = ("M1", "M2")
    good = [_random_density(rng, 4, 4) for _ in range(4)]
    non_hermitian = good[0].copy()
    non_hermitian[0, 1] += 1e-8j
    bad = {
        "trace": good[0] * (1 + 1e-9),
        "hermitian": non_hermitian,
        "psd": np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex),
    }
    for kind, m in bad.items():
        with pytest.raises(StateError) as single:
            DensityMatrix(labels, m)
        with pytest.raises(StateError) as stacked:
            DensityStack(labels, good[:2] + [m] + good[2:])
        assert str(stacked.value) == str(single.value), kind
    stack = DensityStack(labels, good)
    assert len(stack) == 4
    assert np.array_equal(stack[2].matrix, good[2]) and stack[2].labels == labels
    with pytest.raises(StateError, match="does not match"):
        DensityStack(labels, [np.eye(2) / 2])


def test_trace_distance_extremes():
    a = states.bell_state("phi+").density()
    b = states.bell_state("psi+").density()
    assert abs(trace_distance(a, b) - 1.0) < 1e-10
    assert trace_distance(a, a) < 1e-12


def test_classical_carriers_structure():
    rho = states.classical_carriers(2)
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    expected = 0.5 * (
        np.outer(np.kron(plus, plus), np.kron(plus, plus))
        + np.outer(np.kron(minus, minus), np.kron(minus, minus))
    )
    assert np.allclose(rho.matrix, expected, atol=1e-12)


def test_ghz_marginal_is_classical_carriers():
    ghz = states.ghz3_carriers()
    red = partial_trace(ghz, ["C1", "C2"])
    assert np.allclose(red.matrix, states.classical_carriers(2).matrix, atol=1e-12)


def test_mixed_carriers_endpoints():
    assert np.allclose(
        states.mixed_carriers(0.0).matrix, states.classical_carriers(2).matrix
    )
    lam = 0.3
    direct = (1 - lam) * states.classical_carriers(2).matrix + lam * (
        states.anticorrelated_carriers().matrix
    )
    assert np.allclose(states.mixed_carriers(lam).matrix, direct, atol=1e-12)


def test_biased_carriers_endpoints_pure():
    for eta in (0.0, 1.0):
        assert abs(purity(states.biased_carriers(eta)) - 1.0) < 1e-12


def test_w_state_amplitudes():
    w = states.w_state(3)
    amp = w.amplitudes
    nz = np.flatnonzero(np.abs(amp) > 1e-12)
    assert list(nz) == [1, 2, 4]  # |001>, |010>, |100>
    assert np.allclose(amp[nz], 1 / math.sqrt(3))


def test_werner_w_mixing_convention():
    n, eps = 3, 0.4
    rho = states.werner_w(n, eps)
    w = states.w_state(n)
    direct = (1 - eps) * np.outer(w.amplitudes, w.amplitudes.conj()) + eps * np.eye(8) / 8
    assert np.allclose(rho.matrix, direct, atol=1e-12)


def test_bell_mixture_and_werner_specials():
    # x = 1/3 gives the uniform mixture of the three Bell components
    tau = states.bell_mixture(1.0 / 3.0)
    assert abs(purity(tau) - 1.0 / 3.0) < 1e-12
    y = 1.0 / 3.0
    werner = states.werner_bell(y)
    psi_minus = states.bell_state("psi-").density()
    direct = y * psi_minus.matrix + (1 - y) * np.eye(4) / 4
    assert np.allclose(werner.matrix, direct, atol=1e-12)


def test_make_named_state_dispatch():
    rho = states.make_named_state("werner_w", {"n": 3, "eps": 0.2})
    assert rho.labels == ("M1", "M2", "M3")
    with pytest.raises(StateError):
        states.make_named_state("unknown_family")
    with pytest.raises(StateError):
        states.make_named_state("werner_w", {"n": 3})  # missing parameter


def test_named_entropy_values():
    from discordnet.correlations import entropy

    # Frozen via the independent implementation noted above.
    assert abs(entropy(states.werner_bell(1.0 / 3.0)) - 1.792481250360578) < 1e-9
    assert abs(entropy(states.bell_mixture(1.0 / 3.0)) - math.log2(3)) < 1e-9
    assert abs(entropy(states.bell_mixture(0.5)) - 1.5) < 1e-9
