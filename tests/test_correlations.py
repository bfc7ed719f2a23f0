import dataclasses
import itertools
import math

import numpy as np
import pytest

from discordnet import correlations, protocol, states
from discordnet.correlations import (
    FAST_BUDGET,
    FULL_BUDGET,
    conditional_entropy_min,
    discord_asym,
    entropy,
    gqd,
    gqd_min,
    pinch,
    relative_entropy,
)
from discordnet.states import DensityMatrix, maximally_mixed, partial_trace

# Frozen values computed with an independent dense-loop implementation
# (explicit-index partial trace, direct basis-grid + simplex minimization).
REF_DISCORD = 0.1518870788158398  # D(M1|M2) of the shared reference state
REF_GQD = 0.18038334830233538


def test_entropy_basics():
    assert entropy(states.bell_state("phi+").density()) < 1e-10
    assert abs(entropy(maximally_mixed(("A", "B"))) - 2.0) < 1e-12
    assert abs(entropy(states.werner_bell(1.0 / 3.0)) - 1.792481250360578) < 1e-9


def test_relative_entropy_properties():
    rho = states.bell_mixture(0.3)
    sigma = maximally_mixed(("M1", "M2"))
    assert relative_entropy(rho, rho) < 1e-10
    # S(rho || I/4) = 2 - S(rho)
    assert abs(relative_entropy(rho, sigma) - (2.0 - entropy(rho))) < 1e-9
    # support violation diverges
    pure = states.bell_state("phi+").density()
    other = states.bell_state("psi+").density()
    assert relative_entropy(other, pure) == math.inf


def test_pinch_dephases_and_preserves_trace(reference_state):
    basis = {"M1": (0.7, 0.3), "M2": (2.0, 5.1)}
    pinched = pinch(reference_state, basis)
    assert abs(np.trace(pinched.matrix) - 1) < 1e-12
    # pinching is idempotent
    again = pinch(pinched, basis)
    assert np.allclose(again.matrix, pinched.matrix, atol=1e-10)


def test_gqd_pinched_vs_direct(reference_state):
    for basis in [
        {"M1": (0.0, 0.0), "M2": (0.0, 0.0)},
        {"M1": (0.9, 0.4), "M2": (1.7, 3.3)},
        {"M1": (math.pi / 2, 0.0), "M2": (math.pi / 2, math.pi / 4)},
    ]:
        a = gqd(reference_state, basis, method="pinched")
        b = gqd(reference_state, basis, method="direct")
        assert abs(a - b) < 1e-9


def test_gqd_min_reference(reference_state):
    r = gqd_min(reference_state, budget=FULL_BUDGET, seed=0)
    assert abs(r.value - REF_GQD) < 1e-7
    # reported basis reproduces the reported value
    assert abs(gqd(reference_state, r.basis) - r.value) < 1e-9


def test_gqd_zero_for_classical_states():
    assert gqd_min(states.classical_carriers(2), budget=FAST_BUDGET, seed=0).value < 1e-9
    diag = DensityMatrix(("A", "B"), np.diag([0.4, 0.3, 0.2, 0.1]))
    assert gqd_min(diag, budget=FAST_BUDGET, seed=0).value < 1e-9


def test_gqd_of_w_states_matches_log():
    for n in (2, 3, 4):
        val = gqd_min(states.w_state(n).density(), budget=FULL_BUDGET, seed=0).value
        assert abs(val - math.log2(n)) < 1e-6


def test_gqd_of_bell_mixtures():
    # uniform three-component Bell mixture carries GQD exactly 1/3
    val = gqd_min(states.bell_mixture(1.0 / 3.0), budget=FULL_BUDGET, seed=0).value
    assert abs(val - 1.0 / 3.0) < 1e-6
    # the balanced mixture's value, frozen from the independent oracle
    val2 = gqd_min(states.bell_mixture(0.5), budget=FULL_BUDGET, seed=0).value
    assert abs(val2 - 0.31127812445913294) < 1e-6


def test_gqd_of_werner_state():
    val = gqd_min(states.werner_bell(1.0 / 3.0), budget=FULL_BUDGET, seed=0).value
    assert abs(val - 0.12581458369391267) < 1e-6


def test_discord_reference(reference_state):
    r = discord_asym(reference_state, "M1", "M2", budget=FULL_BUDGET, seed=0)
    assert abs(r.value - REF_DISCORD) < 1e-7


def test_discord_vanishes_on_classical_side():
    # protocol output at computational-basis carrier measurement is
    # classical-quantum: measuring the classical side yields zero discord
    rho = protocol.final_state_closed_form(math.pi / 2, math.pi / 4, 0.0, 0.0)
    d_cq = discord_asym(rho, "M1", "M2", budget=FULL_BUDGET, seed=0)
    d_qc = discord_asym(rho, "M2", "M1", budget=FULL_BUDGET, seed=0)
    assert d_qc.value < 1e-8
    assert d_cq.value > 0.2


def test_discord_nonnegative_and_zero_for_product(rng):
    rho = states.tensor(
        [states.maximally_mixed(("A",)), states.bell_mixture(0.2)]
    )
    pair = partial_trace(rho, ["A", "M1"])
    assert discord_asym(pair, "A", "M1", budget=FAST_BUDGET, seed=0).value < 1e-9


def test_conditional_entropy_bounds(reference_state):
    cond, _, _, _ = conditional_entropy_min(reference_state, "M2", budget=FAST_BUDGET, seed=0)
    # conditioning cannot beat the unconditional marginal entropy
    s_m1 = entropy(partial_trace(reference_state, ["M1"]))
    assert cond <= s_m1 + 1e-9
    assert cond >= -1e-9


def test_budget_monotonicity(reference_state):
    fast = gqd_min(reference_state, budget=FAST_BUDGET, seed=0).value
    full = gqd_min(reference_state, budget=FULL_BUDGET, seed=0).value
    assert full <= fast + 1e-7


def test_seed_determinism(reference_state):
    a = gqd_min(reference_state, budget=FAST_BUDGET, seed=3)
    b = gqd_min(reference_state, budget=FAST_BUDGET, seed=3)
    assert a.value == b.value
    assert a.basis == b.basis


def test_equal_budget_gives_identical_result():
    # the search effort depends on the budget's values, not on which object it is
    rho = states.w_state(3).density()
    want = gqd_min(rho, budget=FULL_BUDGET, seed=0)
    got = gqd_min(rho, budget=dataclasses.replace(FULL_BUDGET), seed=0)
    assert got == want


def test_grid_blocks_are_bounded_by_product_basis_entries(monkeypatch):
    # One objective call holds (points, 2^N, 2^N) basis arrays; the full
    # budget's 41 x 41 tied grid in one call at N = 5 would hold 1681 x 4^5.
    rho = protocol.run_circuit(protocol.standard_config([0.9] * 5)).final_state
    batch = correlations._GqdObjective.batch
    points = []

    def spy(self, thetas, phis):
        points.append(np.atleast_2d(thetas).shape[0])
        return batch(self, thetas, phis)

    monkeypatch.setattr(correlations._GqdObjective, "batch", spy)
    result = gqd_min(rho, budget=FULL_BUDGET, seed=0)
    assert sum(points) == result.evaluations
    assert max(points) * 4 ** 5 <= 2 ** 18
    # the grid has tied minima; splitting it into blocks must not change
    # which of them seed the refinement
    monkeypatch.setattr(correlations, "_BLOCK_ENTRIES", 41 ** 2 * 4 ** 5)
    assert gqd_min(rho, budget=FULL_BUDGET, seed=0) == result


# Exact (float.hex(value), evaluations) of the basis searches, recorded on
# x86-64 with numpy 2.4 and scipy 1.17.  A change in the last bit of an
# inner value can flip symmetric_theta_max to the mirror angle pi - theta
# and so change the scaling table; these pins catch it in the test suite.
# A different libm or BLAS may move the last bits legitimately.
PINNED_GQD = {
    (2, "full"): ("0x1.a295aeaeb9820p-3", 4623),
    (2, "fast"): ("0x1.a295aeaeb9820p-3", 1838),
    (3, "full"): ("0x1.9734eba7d0c44p-2", 6673),
    (3, "fast"): ("0x1.9734eba7d0c4ap-2", 2976),
    (4, "full"): ("0x1.2f8e36f8cf76cp-1", 14163),
    (4, "fast"): ("0x1.2f8e36f8cf770p-1", 8476),
}
# heatmap cell (i, j) of resolution 11 at phi = 0, measured qubit
PINNED_DISCORD = {
    (1, 3, "M2"): ("0x1.5ac30a014b848p-5", 802),
    (1, 3, "M1"): ("0x1.614528babb310p-4", 824),
    (2, 4, "M2"): ("0x1.7050af8341260p-5", 829),
    (2, 4, "M1"): ("0x1.73d38cc1704c6p-3", 833),
}


@pytest.mark.parametrize("n, budget", sorted(PINNED_GQD))
def test_gqd_min_is_bit_exact(n, budget):
    cfg = protocol.standard_config([0.9, 1.3, 0.6, 2.1][:n], [0.3, 1.1, 0.0, 2.5][:n])
    rho = protocol.run_circuit(cfg).final_state
    result = gqd_min(rho, budget=budget, seed=0)
    assert (result.value.hex(), result.evaluations) == PINNED_GQD[n, budget]


@pytest.mark.parametrize("i, j, measured", sorted(PINNED_DISCORD))
def test_discord_asym_is_bit_exact(i, j, measured):
    axis = np.linspace(0.0, math.pi, 11)
    rho = protocol.final_state_closed_form(axis[i], axis[j], 0.0, 0.0)
    unmeasured = "M1" if measured == "M2" else "M2"
    result = discord_asym(rho, unmeasured, measured, budget=FAST_BUDGET, seed=0)
    assert (result.value.hex(), result.evaluations) == PINNED_DISCORD[i, j, measured]


def _random_state(n, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
    m = g @ g.conj().T
    return DensityMatrix(tuple(f"Q{i}" for i in range(n)), m / np.real(np.trace(m)))


def _joint_grid_minimum(rho, g=9):
    """Minimum of the GQD objective over the g^(2N) tensor grid of all
    per-qubit angles, scored one theta row (g^N phi rows) at a time."""
    n = rho.n_qubits
    obj = correlations._GqdObjective(rho)
    phis = np.array(list(itertools.product(np.linspace(0.0, 2 * math.pi, g, endpoint=False),
                                           repeat=n)))
    return min(
        float(np.min(obj.batch(np.tile(thetas, (len(phis), 1)), phis)))
        for thetas in itertools.product(np.linspace(0.0, math.pi, g), repeat=n)
    )


@pytest.mark.parametrize(
    "n, rank, seed",
    [(2, rank, seed) for rank in (1, 2, 3, 4) for seed in (0, 1)]
    + [(3, 1, 2), (3, 2, 3), (3, 8, 4)],
)
def test_gqd_min_is_below_the_joint_grid(n, rank, seed):
    # the tied grid and the random starts reach at least the minimum of a
    # 9^(2N) grid over every qubit's angles
    rho = _random_state(n, rank, seed)
    got = gqd_min(rho, budget=FULL_BUDGET, seed=0).value
    assert got <= _joint_grid_minimum(rho) + 1e-12


PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
# (tr rho sx.sx, tr rho sy.sy, tr rho sz.sz) of phi+, phi-, psi+, psi-
BELL_CORRELATIONS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


def _binary_entropy(p):
    return -sum(q * math.log2(q) for q in (p, 1 - p) if q > 0)


@pytest.mark.parametrize("seed", range(20))
def test_bell_diagonal_closed_form(seed):
    # Luo, PRA 77, 042303: for rho = (1 + sum_i c_i s_i.s_i)/4 with
    # c = max_i |c_i|, D_{A|B} = D_{B|A} = 1 + h((1+c)/2) - S(rho); the
    # marginals are maximally mixed, so GQD takes the same value.
    c = np.random.default_rng(seed).dirichlet(np.ones(4)) @ BELL_CORRELATIONS
    m = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))) / 4
    rho = DensityMatrix(("A", "B"), m)
    c_max = max(abs(float(np.real(np.trace(m @ np.kron(s, s))))) for s in PAULIS)
    want = 1 + _binary_entropy((1 + c_max) / 2) - entropy(rho)
    assert abs(gqd_min(rho, budget=FAST_BUDGET, seed=seed).value - want) < 1e-8
    assert abs(discord_asym(rho, "A", "B", budget=FAST_BUDGET, seed=seed).value - want) < 1e-8
    assert abs(discord_asym(rho, "B", "A", budget=FAST_BUDGET, seed=seed).value - want) < 1e-8


def _rank2_discord(rho, unmeasured, measured):
    """D(A|B) of a two-qubit state of rank <= 2 with B measured, in closed form.

    Koashi & Winter, PRA 69, 022309: for a purification of rho_AB on ABE,
    D(A|B) = S(B) - S(AB) + E_F(rho_AE).  The purification uses the top two
    eigenpairs of rho_AB, and E_F comes from Wootters' concurrence
    (PRL 80, 2245).  rho_AE = sum_b |v_b><v_b| with v_b[a, e] = Psi[a, b, e],
    so the top two square roots of the spectrum of sqrt(rho) rho~ sqrt(rho)
    are the singular values of the 2x2 matrix tau = V^T (Y x Y) V; taking
    them from tau avoids square roots of round-off eigenvalues.
    """
    t = rho.tensor_view().transpose(
        rho.axis(unmeasured), rho.axis(measured), 2 + rho.axis(unmeasured), 2 + rho.axis(measured)
    )
    lam, vecs = np.linalg.eigh(t.reshape(4, 4))
    psi = (vecs[:, 2:] * np.sqrt(np.clip(lam[2:], 0.0, None))).reshape(2, 2, 2)  # [a, b, e]
    v = psi.transpose(0, 2, 1).reshape(4, 2)  # column b is v_b over (a, e)
    yy = np.kron(PAULIS[1], PAULIS[1])
    s = np.linalg.svd(v.T @ yy @ v, compute_uv=False)
    c = min(s[0] - s[1], 1.0)
    e_f = _binary_entropy((1 + math.sqrt(1 - c * c)) / 2)
    return entropy(partial_trace(rho, [measured])) - entropy(rho) + e_f


def _heatmap_orbit_states():
    axis = np.linspace(0.0, math.pi, 11)  # the representatives of heatmaps(resolution=11)
    return [(axis[i], axis[j], 0.0, 0.0) for i in range(6) for j in range(i, 6)]


def _random_angles():
    rng = np.random.default_rng(2004)
    return [tuple(rng.uniform(0.0, (math.pi, math.pi, 2 * math.pi, 2 * math.pi)))
            for _ in range(10)]


@pytest.mark.parametrize("angles", _heatmap_orbit_states() + _random_angles())
def test_discord_matches_rank2_closed_form(angles):
    rho = protocol.final_state_closed_form(*angles)
    assert np.linalg.eigvalsh(rho.matrix)[1] < 1e-12  # rank <= 2
    for a, b in (("M1", "M2"), ("M2", "M1")):
        got = discord_asym(rho, a, b, budget=FAST_BUDGET, seed=0).value
        assert abs(got - _rank2_discord(rho, a, b)) < 1e-9


def test_pair_discord_max_is_the_rank2_maximum():
    from discordnet.experiments import PAIR_DISCORD_MAX

    def closed(t1, t2, p1=0.0, p2=0.0):
        return _rank2_discord(protocol.final_state_closed_form(t1, t2, p1, p2), "M1", "M2")

    # attained on the family (pi/2, pi/4, free phases), and nowhere exceeded
    for p1, p2 in ((0.0, 0.0), (1.234, 0.77)):
        assert abs(closed(math.pi / 2, math.pi / 4, p1, p2) - PAIR_DISCORD_MAX) < 1e-12
    axis = np.linspace(0.0, math.pi, 33)
    assert max(closed(t1, t2) for t1 in axis for t2 in axis) < PAIR_DISCORD_MAX + 1e-12
