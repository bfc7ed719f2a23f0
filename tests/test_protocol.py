import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordnet import protocol, states
from discordnet.channels import correlated_dephasing
from discordnet.correlations import FAST_BUDGET, FULL_BUDGET, discord_asym, gqd_min
from discordnet.states import StateError, fidelity, partial_trace, purity


def test_circuit_matches_closed_form_random_angles(rng):
    # 50 random angle tuples: circuit output equals the closed form
    for _ in range(50):
        t1, t2 = rng.uniform(0, math.pi, 2)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        cfg = protocol.standard_config(thetas=[t1, t2], phis=[p1, p2])
        out = protocol.run_circuit(cfg)
        closed = protocol.final_state_closed_form(t1, t2, p1, p2)
        assert out.final_state.labels == closed.labels
        assert np.max(np.abs(out.final_state.matrix - closed.matrix)) < 1e-10


_ANGLE = st.floats(0.0, math.pi)
_Z_ON_M1 = np.diag([1.0, 1.0, -1.0, -1.0])
_SWAP = np.eye(4)[[0, 2, 1, 3]]


@settings(deadline=None, derandomize=True)
@given(_ANGLE, _ANGLE)
def test_closed_form_heatmap_symmetries(t1, t2):
    # At phi = 0: theta1 -> pi - theta1 is Z on M1, and exchanging the angles
    # exchanges the memories.  heatmaps() fills its grid from these identities.
    rho = protocol.final_state_closed_form(t1, t2).matrix
    mirrored = protocol.final_state_closed_form(math.pi - t1, t2).matrix
    swapped = protocol.final_state_closed_form(t2, t1).matrix
    assert np.max(np.abs(mirrored - _Z_ON_M1 @ rho @ _Z_ON_M1)) < 1e-14
    assert np.max(np.abs(swapped - _SWAP @ rho @ _SWAP)) < 1e-14


def test_outcome_probability_quarter():
    out = protocol.run_circuit(protocol.standard_config([0.9, 1.3], [0.2, 0.8]))
    assert abs(out.probability - 0.25) < 1e-12


def test_noiseless_outcome_independence():
    # every outcome branch occurs with probability 1/4 and carries the same
    # amount of discord
    cfg = protocol.standard_config([0.9458, 0.9458], outcome="all")
    branches = protocol.run_circuit(cfg)
    assert len(branches) == 4
    values = []
    for b in branches:
        assert abs(b.probability - 0.25) < 1e-12
        values.append(gqd_min(b.final_state, budget=FAST_BUDGET, seed=0).value)
    assert max(values) - min(values) < 1e-7


def test_retention_rules():
    cfg = protocol.standard_config(
        thetas=[0.9, 0.8, 0.7], interactions=[1, 3]
    )
    out = protocol.run_circuit(cfg)
    assert out.retained_labels == ("C2", "M1", "M3")


def test_single_party_protocol_runs():
    out = protocol.run_circuit(protocol.standard_config([0.9]))
    assert out.retained_labels == ("M1",)
    assert abs(np.trace(out.final_state.matrix) - 1) < 1e-12


def test_config_validation():
    with pytest.raises(StateError):
        protocol.ProtocolConfig(n=0).resolved()
    with pytest.raises(StateError):
        protocol.ProtocolConfig(n=2, interactions=(3,), carrier_angles={3: (0.1, 0.0)}).resolved()
    with pytest.raises(StateError):
        protocol.ProtocolConfig(n=2, interactions=(1,)).resolved()  # missing angles


def test_closed_form_structure():
    t1, t2, p1, p2 = 1.1, 0.5, 0.7, 2.0
    rho = protocol.final_state_closed_form(t1, t2, p1, p2)
    # diagonal in the |+/-> product basis up to the two cross coherences
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    basis = [np.kron(a, b) for a in (plus, minus) for b in (plus, minus)]
    u = np.stack(basis, axis=1)
    m = u.conj().T @ rho.matrix @ u
    alpha = math.sin(t1) * math.sin(t2) / 4
    assert abs(abs(m[0, 3]) - alpha) < 1e-12
    assert abs(abs(m[1, 2]) - alpha) < 1e-12
    assert abs(np.angle(m[0, 3]) - ((p1 + p2) % (2 * math.pi) - 2 * math.pi)) < 1e-9 or \
        abs(np.angle(m[0, 3]) % (2 * math.pi) - (p1 + p2) % (2 * math.pi)) < 1e-9
    # diagonal weights are products of cos^2/sin^2 halves
    assert abs(m[0, 0].real - math.cos(t1 / 2) ** 2 * math.cos(t2 / 2) ** 2) < 1e-12


def test_b92_variant_unit_probability_and_discord_direction():
    branches = protocol.run_b92_variant()
    # classical flag + memory; every branch retains C1 (uninvolved carrier)
    total = sum(b.probability for b in branches)
    assert abs(total - 1.0) < 1e-10
    for b in branches:
        labels = b.final_state.labels
        assert set(labels) == {"C1", "M2"}
        d_measure_memory = discord_asym(b.final_state, "C1", "M2", budget=FULL_BUDGET, seed=0)
        d_measure_flag = discord_asym(b.final_state, "M2", "C1", budget=FULL_BUDGET, seed=0)
        # measuring the classical flag C1 extracts everything: zero discord;
        # measuring the quantum side does not
        assert d_measure_flag.value < 1e-8
        assert d_measure_memory.value > 1e-3


def test_single_memory_variant_discord():
    for theta2 in (math.pi / 4, 3 * math.pi / 4):
        out = protocol.run_single_memory_variant(theta2)
        d = discord_asym(out.final_state, *out.retained_labels, budget=FULL_BUDGET, seed=0)
        assert abs(d.value - 0.2017520733857) < 1e-6


def test_ghz_variant_retains_spectator_carrier():
    out = protocol.run_circuit(protocol.ghz_config(0.9, 0.9))
    assert set(out.final_state.labels) == {"M1", "M2", "C3"}
    pair = partial_trace(out.final_state, ["M1", "M2"])
    # tracing the spectator reproduces the standard bipartite protocol
    std = protocol.final_state_closed_form(0.9, 0.9, 0.0, 0.0)
    assert np.max(np.abs(pair.matrix - std.matrix)) < 1e-10


def test_memory_noise_changes_output():
    cfg = protocol.standard_config(
        [0.9458, 0.9458], memory_noise=correlated_dephasing(1.0, 1.0)
    )
    noisy = protocol.run_circuit(cfg).final_state
    clean = protocol.run_circuit(protocol.standard_config([0.9458, 0.9458])).final_state
    assert np.max(np.abs(noisy.matrix - clean.matrix)) > 1e-3


def test_semiclassical_classification():
    # channels from computational-basis carrier measurements are semiclassical
    ch = protocol.effective_memory_channel([0.0, 1.2], [0.0, 0.0])
    assert protocol.classify_semiclassical(ch)
    ch2 = protocol.effective_memory_channel([math.pi, 0.4], [0.0, 0.0])
    assert protocol.classify_semiclassical(ch2)
    ch3 = protocol.effective_memory_channel([0.8, 1.2], [0.0, 0.0])
    assert not protocol.classify_semiclassical(ch3)


def test_unital_classification_and_closed_form():
    # unital exactly when sin(t1) cos(p1) sin(t2) cos(p2) = 0
    assert protocol.classify_unital(
        protocol.effective_memory_channel([math.pi / 2, math.pi / 2], [math.pi / 2, 0.0])
    )
    assert not protocol.classify_unital(
        protocol.effective_memory_channel([math.pi / 2, math.pi / 2], [0.0, 0.0])
    )
    # closed form for the maximally mixed input
    for t1, t2, p1, p2 in [(0.9, 1.3, 0.4, 1.0), (2.0, 0.7, 2.4, 5.0)]:
        ch = protocol.effective_memory_channel([t1, t2], [p1, p2])
        out = ch(states.maximally_mixed(("M1", "M2")))
        pred = protocol.unital_closed_form(t1, t2, p1, p2)
        assert np.max(np.abs(out.matrix - pred.matrix)) < 1e-10


def test_unital_channel_can_still_distribute_discord():
    rho = protocol.final_state_closed_form(math.pi / 2, math.pi / 4, math.pi / 2, 0.0)
    assert protocol.classify_unital(
        protocol.effective_memory_channel(
            [math.pi / 2, math.pi / 4], [math.pi / 2, 0.0]
        )
    )
    d = discord_asym(rho, "M1", "M2", budget=FULL_BUDGET, seed=0)
    assert abs(d.value - 0.2017520733857) < 1e-6


def test_effective_channel_not_factorizable():
    report = protocol.effective_channel_nonfactorizability_check()
    assert not report.factorizable
    assert report.trace_distance > 0.01


@pytest.mark.parametrize("cfg, angles", [
    (protocol.standard_config([0.3, 0.4], [0.1, 0.2], memory_noise=correlated_dephasing(0.5, 1.0)),
     ([0.9, 1.3], [2.0, 5.1])),
    (protocol.standard_config([0.3, 0.4, 0.5]), ([0.9, 1.1, 0.7], [0.3, 0.2, 1.4])),
    (protocol.standard_config([0.3] * 4, interactions=[1, 2]), ([0.9, 1.1, 0.7, 2.0], None)),
    (protocol.ghz_config(0.3, 0.4), ([0.9, 1.7], [0.5, 0.0])),
    (protocol.standard_config([0.3, 0.4], outcome=(0, 1)), ([0.9, 1.3], [0.2, 0.8])),
    (protocol.standard_config([0.3, 0.4], outcome="all"), ([0.9, 1.3], [0.2, 0.8])),
])
def test_angle_sweep_is_bit_identical_to_run_circuit(cfg, angles):
    def direct(thetas, phis):
        return protocol.run_circuit(replace(cfg, carrier_angles={
            i + 1: (thetas[i], phis[i] if phis is not None else 0.0) for i in range(len(thetas))
        }))

    def assert_same(swept, ref):
        if cfg.outcome != "all":
            swept, ref = [swept], [ref]
        assert len(swept) == len(ref)
        for a, b in zip(swept, ref):
            assert np.array_equal(a.final_state.matrix, b.final_state.matrix)
            assert a.final_state.labels == b.final_state.labels
            assert a.probability == b.probability
            assert a.retained_labels == b.retained_labels
            assert a.outcome_bits == b.outcome_bits

    thetas, phis = angles
    run = protocol.angle_sweep(cfg)
    assert_same(run(thetas, phis), direct(thetas, phis))

    # a block of 5 points: every row equals run_circuit at that point
    shifts = np.array([0.0, 0.1, -0.2, 0.35, 0.6])[:, None]
    block_thetas = np.clip(np.array(thetas) + shifts, 0.0, math.pi)
    block_phis = None if phis is None else np.mod(np.array(phis) + 2 * shifts, 2 * math.pi)
    block = run(block_thetas, block_phis)
    for r in range(len(shifts)):
        row_phis = None if phis is None else list(block_phis[r])
        ref = direct(list(block_thetas[r]), row_phis)
        if cfg.outcome == "all":
            assert_same(block[r], ref)
        else:
            assert isinstance(block.final_state, states.DensityStack)
            assert len(block.final_state) == len(shifts)
            assert np.array_equal(block.final_state.matrix[r], ref.final_state.matrix)
            assert block.final_state.labels == ref.final_state.labels
            assert block.probability[r] == ref.probability
            assert (block.retained_labels, block.outcome_bits) == (ref.retained_labels, ref.outcome_bits)


def test_angle_sweep_rejects_bad_angles():
    run = protocol.angle_sweep(protocol.standard_config([0.9, 0.9]))
    with pytest.raises(StateError, match="outside"):
        run([0.9, 4.0])
    with pytest.raises(StateError, match="carrier angles"):
        run([0.9])
    # every angle of a block is checked, and the block keeps its shape
    with pytest.raises(StateError, match="theta 4.0 outside"):
        run(np.array([[0.9, 0.9], [0.9, 4.0], [1.0, 1.0]]))
    with pytest.raises(StateError, match="carrier angles"):
        run(np.full((3, 3), 0.9))
    with pytest.raises(StateError, match="phis of shape"):
        run(np.full((3, 2), 0.9), np.zeros((2, 2)))


def test_angle_sweep_without_interacting_carriers():
    # nothing is measured: every row of a block is the one-point run
    cfg = protocol.standard_config([0.3, 0.4], interactions=[])
    block = protocol.angle_sweep(cfg)(np.full((3, 2), 0.5))
    one = protocol.run_circuit(cfg)
    assert block.final_state.labels == one.final_state.labels == ("C1", "C2")
    assert all(np.array_equal(m, one.final_state.matrix) for m in block.final_state.matrix)
    assert list(block.probability) == [one.probability] * 3
