import math

import numpy as np
import pytest

from discordnet import experiments as ex
from discordnet import states
from discordnet.channels import correlated_dephasing
from discordnet.correlations import FAST_BUDGET


def test_matched_epsilon_self_consistency():
    # matching against a Werner-type mixture recovers its own weight
    for n in (2, 3):
        for eps in (0.2, 0.45, 0.8):
            ref = states.werner_w(n, eps)
            for convention in ("purity", "entropy"):
                got = ex.matched_epsilon(n, ref, convention=convention)
                assert abs(got - eps) < 1e-9


def test_matched_epsilon_conventions_differ_on_protocol_state():
    from discordnet import protocol

    rho = protocol.run_circuit(
        protocol.standard_config([ex.OPT_THETA, ex.OPT_THETA])
    ).final_state
    ep = ex.matched_epsilon(2, rho, convention="purity")
    ee = ex.matched_epsilon(2, rho, convention="entropy")
    assert 0 < ep < 1 and 0 < ee < 1
    assert abs(ep - ee) > 1e-3  # genuinely different conventions


def test_matched_epsilon_rejects_unknown_convention():
    with pytest.raises(ValueError):
        ex.matched_epsilon(2, states.werner_w(2, 0.3), convention="rank")


def test_protocol_gqd_bipartite_maximum():
    g = ex.protocol_gqd([ex.OPT_THETA, ex.OPT_THETA], budget=FAST_BUDGET)
    assert abs(g - 0.2198113593729) < 1e-6


def test_heatmap_shapes_and_symmetry():
    maps = ex.heatmaps(resolution=5)
    for key in ("d_m1_m2", "d_m2_m1", "gqd"):
        assert maps[key].shape == (5, 5)
        assert np.all(maps[key] >= -1e-9)
    # swapping the carrier angles swaps the discord direction
    assert np.max(np.abs(maps["d_m1_m2"] - maps["d_m2_m1"].T)) < 1e-6
    # theta = 0 or pi rows give product states: no correlations at all
    assert np.max(maps["gqd"][0, :]) < 1e-8
    assert np.max(maps["gqd"][-1, :]) < 1e-8
    assert np.max(maps["gqd"][:, 0]) < 1e-8


@pytest.mark.parametrize("resolution", [4, 5])
def test_heatmap_orbit_reuse_matches_every_point(resolution):
    maps = ex.heatmaps(resolution=resolution)
    for i, t1 in enumerate(maps["theta"]):
        for j, t2 in enumerate(maps["theta"]):
            rho = ex.protocol.final_state_closed_form(t1, t2)
            got = [maps[key][i, j] for key in ("d_m1_m2", "d_m2_m1", "gqd")]
            want = [ex.discord_asym(rho, "M1", "M2", budget=FAST_BUDGET).value,
                    ex.discord_asym(rho, "M2", "M1", budget=FAST_BUDGET).value,
                    ex.gqd_min(rho, budget=FAST_BUDGET).value]
            assert np.max(np.abs(np.subtract(got, want))) < 1e-9, (i, j)


@pytest.mark.parametrize("resolution, orbits", [(4, 3), (5, 6)])
def test_heatmap_solves_once_per_orbit(monkeypatch, resolution, orbits):
    calls, real = [], ex.gqd_min

    def counted(rho, **kwargs):
        calls.append(rho)
        return real(rho, **kwargs)

    monkeypatch.setattr(ex, "gqd_min", counted)
    ex.heatmaps(resolution=resolution)
    assert len(calls) == orbits


def test_measurement_window_zero_width_equals_peak():
    avg, peak = ex.measurement_window_average(width=0.0, budget=FAST_BUDGET)
    assert avg == peak
    assert abs(peak - 0.2198113593729) < 1e-6


def test_carrier_mixing_sweep_endpoints():
    recs = ex.carrier_mixing_sweep(lambdas=(0.0, 0.5, 1.0))
    assert [r["lambda"] for r in recs] == [0.0, 0.5, 1.0]
    by_lam = {r["lambda"]: r for r in recs}
    # both endpoints reach the bipartite maximum; the even mixture is classical
    assert abs(by_lam[0.0]["gqd_reoptimized"] - 0.2198113593729) < 1e-6
    assert abs(by_lam[1.0]["gqd_reoptimized"] - 0.2198113593729) < 1e-6
    assert by_lam[0.5]["gqd_reoptimized"] < 1e-8
    for lam in (0.0, 0.5, 1.0):
        assert abs(by_lam[lam]["gqd_fixed_basis"] - by_lam[lam]["gqd_reoptimized"]) < 1e-6


def test_carrier_bias_sweep_endpoints_vanish():
    recs = ex.carrier_bias_sweep(etas=(0.0, 1.0))
    for r in recs:
        assert r["gqd"] < 1e-8


def test_anticorrelated_carriers_reach_maximum():
    assert abs(ex.anticorrelated_max(budget=FAST_BUDGET) - 0.2198113593729) < 1e-6


def test_symmetric_theta_max_bipartite():
    theta, g = ex.symmetric_theta_max(2, grid=13)
    assert abs(g - 0.2198113593729) < 1e-5
    # the two mirror-symmetric optima are equally valid
    assert min(abs(theta - 0.9458), abs(theta - (math.pi - 0.9458))) < 2e-3


def test_census_bipartite_pattern():
    rows = ex.pairwise_census(2, grid=9)
    assert [row.interactions for row in rows] == [(1,), (1, 2)]
    partial = rows[0]
    assert set(partial.retained) == {"C2", "M1"}
    # one interaction leaves a classical-quantum pair: measuring the memory
    # cannot recover everything, measuring the idle carrier can
    (pair,) = partial.pairs
    assert pair.labels == ("C2", "M1")
    assert pair.quantum_ab and not pair.quantum_ba
    assert pair.d_ba < 1e-8
    full = rows[1]
    assert set(full.retained) == {"M1", "M2"}
    assert abs(full.gqd_max - 0.2198113593729) < 1e-4


def test_scaling_fits_recover_synthetic_coefficients():
    slope_true, intercept_true = 0.238, -0.25
    a, b, c = -0.33, -0.29, 0.21
    rows = []
    for n in range(2, 6):
        xi = a * math.exp(b * n) + c
        g = ex.PAIR_DISCORD_MAX * (n - 1) + xi
        rows.append(ex.ScalingRow(n, 0.9, g, 0.0, 0.0, 1.0, 1.0))
    fits = {f.model: f for f in ex.scaling_fits(rows)}
    exp_fit = fits["exponential_excess"]
    assert exp_fit.residual < 1e-10
    assert np.allclose(exp_fit.coefficients, (a, b, c), rtol=1e-5)
    lin = fits["linear"]
    assert lin.points == 4
    # the synthetic curve is nearly linear; the fitted slope stays close
    assert abs(lin.coefficients[0] - slope_true) < 0.05


def test_scaling_fits_require_enough_points():
    rows = [ex.ScalingRow(2, 0.9, 0.22, 0, 0, 1, 1), ex.ScalingRow(3, 0.9, 0.47, 0, 0, 1, 1)]
    with pytest.raises(ValueError):
        ex.scaling_fits(rows)


def test_best_fidelity_state_folds_carrier_angles():
    # The unbounded search leaves [0, pi] here; folding keeps every step valid.
    target = states.bell_mixture(0.6)
    angles, fid, rho = ex.best_fidelity_state(0.0, target)
    assert abs(fid - 0.746410) < 1e-6
    assert np.all((0 <= angles[:2]) & (angles[:2] <= math.pi))
    assert np.all((0 <= angles[2:]) & (angles[2:] < 2 * math.pi))
    cfg = ex.protocol.standard_config(thetas=angles[:2], phis=angles[2:])
    again = states.fidelity(ex.protocol.run_circuit(cfg).final_state, target)
    assert abs(again - fid) < 1e-9
    assert abs(states.fidelity(rho, target) - fid) < 1e-9


def test_best_fidelity_state_value_recomputes_exactly():
    # The search measures one prepared register at every step; the reported
    # fidelity is still exactly that of a fresh run_circuit at the angles.
    target = states.bell_mixture(0.6)
    angles, fid, rho = ex.best_fidelity_state(0.5, target)
    cfg = ex.protocol.standard_config(
        thetas=angles[:2], phis=angles[2:], memory_noise=correlated_dephasing(0.5, 1.0)
    )
    again = ex.protocol.run_circuit(cfg).final_state
    assert states.fidelity(again, target) == fid
    assert np.array_equal(rho.matrix, again.matrix)
