"""Acceptance suite: one test (and one printed summary line) per criterion.

The expected-failure tests cover documented discrepancies between the stated
targets and what the model actually produces; they are strict, so silently
"fixing" them would fail the run.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from discordnet import experiments as ex
from discordnet import protocol, search, states
from discordnet.channels import correlated_dephasing
from discordnet.correlations import (
    FAST_BUDGET,
    FULL_BUDGET,
    discord_asym,
    gqd,
    gqd_min,
)

PAIR_MAX = 0.2017520733857
GQD_MAX = 0.2198113593729


def _closed_form(x):
    return protocol.final_state_closed_form(x[0], x[1], x[2], x[3])


def test_criterion_1_max_asymmetric_discord():
    t0 = time.time()

    def obj(x):
        return discord_asym(
            _closed_form(x), "M1", "M2", budget=ex.REDUCED_BUDGET, seed=0
        ).value

    spec = search.SearchSpec(
        objective=obj,
        dimension=4,
        bounds=((0.0, math.pi),) * 2 + ((0.0, 2 * math.pi),) * 2,
        grid_resolution=5,
        multistarts=1,
        random_starts=0,
        tolerance=1e-5,
        maximize=True,
        seed=0,
    )
    res = search.optimize(spec)
    value = discord_asym(
        _closed_form(res.argopt), "M1", "M2", budget=FULL_BUDGET, seed=0
    ).value
    elapsed = time.time() - t0
    # the stated argmax family (pi/2, pi/4, free phases) attains the maximum
    at_stated = discord_asym(
        _closed_form([math.pi / 2, math.pi / 4, 1.234, 0.77]),
        "M1",
        "M2",
        budget=FULL_BUDGET,
        seed=0,
    ).value
    ok = abs(value - 0.2018) < 1e-3 and abs(at_stated - value) < 1e-5 and elapsed < 60
    record_criterion(
        "01", ok, f"max D(M1|M2) = {value:.6f} (target 0.2018 +- 1e-3), "
        f"attained at (pi/2, pi/4, ., .), {elapsed:.0f} s"
    )
    assert abs(value - 0.2018) < 1e-3
    assert abs(at_stated - value) < 1e-5
    assert elapsed < 60


def _angles_of(vec):
    # Bloch angles of a single-qubit vector up to global phase
    theta = 2 * math.atan2(abs(vec[1]), abs(vec[0]))
    phi = float(np.angle(vec[1]) - np.angle(vec[0])) % (2 * math.pi)
    return theta, phi


def test_criterion_2_max_gqd_and_phase_independence():
    t0 = time.time()
    theta, value = ex.symmetric_theta_max(2, grid=25)
    mirror = min(abs(theta - 0.9458), abs(theta - (math.pi - 0.9458)))

    # Azimuthal independence: the state at (phi1, phi2) is the phi = 0 state
    # conjugated by local phase gates diagonal in |+>/|->, so the minimized
    # GQD is exactly invariant; evaluate the transported optimal basis.
    rho0 = protocol.final_state_closed_form(theta, theta, 0.0, 0.0)
    base = gqd_min(rho0, budget=FULL_BUDGET, seed=0)
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    from discordnet.channels import basis_vectors

    values = []
    grid = np.linspace(0.0, 2 * math.pi, 7)
    for p1 in grid:
        for p2 in grid:
            rho_p = protocol.final_state_closed_form(theta, theta, p1, p2)
            basis = {}
            for lab, ph in (("M1", p1), ("M2", p2)):
                u = np.outer(plus, plus) + np.exp(-1j * ph) * np.outer(minus, minus)
                v, _ = basis_vectors(*base.basis[lab])
                basis[lab] = _angles_of(u @ v)
            values.append(gqd(rho_p, basis))
    spread = max(values) - min(values)
    # one re-optimized point confirms the transported basis is the minimizer
    reopt = gqd_min(
        protocol.final_state_closed_form(theta, theta, 1.1, 2.3),
        budget=FULL_BUDGET,
        seed=0,
    ).value
    elapsed = time.time() - t0
    ok = (
        abs(value - 0.2198) < 1e-3
        and mirror < 2e-3
        and spread < 1e-9
        and abs(reopt - base.value) < 1e-7
        and elapsed < 300
    )
    record_criterion(
        "02", ok, f"max GQD = {value:.6f} at theta = {theta:.4f} "
        f"(target 0.2198 +- 1e-3), phi spread {spread:.2e} < 1e-9, {elapsed:.0f} s"
    )
    assert abs(value - 0.2198) < 1e-3
    assert mirror < 2e-3
    assert spread < 1e-9
    assert abs(reopt - base.value) < 1e-7
    assert elapsed < 300


SCALING_G_MAX = {2: 0.2198, 3: 0.4694, 4: 0.7040, 5: 0.9338}
SCALING_G_EPS = {2: 0.4124, 3: 0.8070, 4: 1.1554}


def test_criterion_3_scaling_table(scaling_rows):
    rows = {r.n: r for r in scaling_rows}
    excess = []
    for n, target in SCALING_G_MAX.items():
        # stated values are lower bounds; small excess is fine and reported
        assert rows[n].g_max > target - 5e-3
        if rows[n].g_max > target + 5e-3:
            excess.append(f"N={n}: +{rows[n].g_max - target:.4f}")
        assert abs(rows[n].g_w - math.log2(n)) < 1e-3
    for n, target in SCALING_G_EPS.items():
        assert abs(rows[n].g_eps - target) < 1e-2
    note = f" (excess over stated bounds: {', '.join(excess)})" if excess else ""
    record_criterion(
        "03", True,
        "N=2..5 protocol maxima and W-state values on target; "
        f"mixedness-matched column on target for N=2..4{note}"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the purity-matching convention that reproduces N = 2..4 gives "
    "1.448 for N = 5, not 1.3749; no mixedness convention reproduces the "
    "stated value (see the project decision log)",
)
def test_criterion_3_n5_mixed_reference(scaling_rows):
    row = {r.n: r for r in scaling_rows}[5]
    record_criterion(
        "03x", abs(row.g_eps - 1.3749) < 1e-2,
        f"N=5 mixedness-matched GQD = {row.g_eps:.4f} vs stated 1.3749 "
        "(documented discrepancy; value is the verified global minimum)"
    )
    assert abs(row.g_eps - 1.3749) < 1e-2


def test_criterion_4_structure_census():
    rows = ex.pairwise_census(3)
    targets = {1: 0.2018, 2: 0.4036, 3: 0.4694}
    for row in rows:
        k = len(row.interactions)
        assert abs(row.gqd_max - targets[k]) < 2e-3
        for pair in row.pairs:
            kinds = tuple(lab[0] for lab in pair.labels)
            if kinds == ("C", "C"):
                assert not pair.quantum_ab and not pair.quantum_ba
            elif kinds == ("M", "M"):
                assert pair.quantum_ab and pair.quantum_ba
            else:
                # carrier-memory pair: classical when the carrier is measured
                carrier_first = kinds[0] == "C"
                assert pair.quantum_ab == carrier_first
                assert pair.quantum_ba != carrier_first
    _, g4 = ex.symmetric_theta_max(
        4, interactions=(1, 2, 3), extra_starts=(math.pi / 4,)
    )
    assert abs(g4 - 0.6054) < 3e-3
    record_criterion(
        "04", True,
        "N=3 zero/nonzero census pattern exact; GQD column "
        f"{[round(r.gqd_max, 4) for r in rows]}, N=4 triple {g4:.4f}"
    )


def test_criterion_5_robustness():
    avg, peak = ex.measurement_window_average(budget=ex.REDUCED_BUDGET)
    reduction = 100 * (peak - avg) / peak
    mem_avg = ex.memory_window_average()
    eta = ex.carrier_bias_sweep(etas=(0.0, 1.0))
    anti = ex.anticorrelated_max(budget=FULL_BUDGET)
    ok = (
        abs(reduction - 2.0) < 1.0
        and abs(mem_avg - 0.2189) < 5e-4
        and all(r["gqd"] < 1e-6 for r in eta)
        and abs(anti - 0.2198) < 1e-3
    )
    record_criterion(
        "05", ok,
        f"measurement window {reduction:.2f}% below max (target 2 +- 1), "
        f"memory window {mem_avg:.5f}, eta endpoints < 1e-6, "
        f"anticorrelated carriers {anti:.4f}"
    )
    assert abs(reduction - 2.0) < 1.0
    assert abs(mem_avg - 0.2189) < 5e-4
    for r in eta:
        assert r["gqd"] < 1e-6
    assert abs(anti - 0.2198) < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="the stated carrier-mixture family gives a GQD average of 0.1411 "
    "over the mixing weight in [0, 0.1], not 0.1687; the stated value "
    "matches a half-weight mixing variant (see the project decision log)",
)
def test_criterion_5_mixing_average():
    recs = ex.carrier_mixing_sweep(lambdas=np.round(np.linspace(0.0, 0.1, 11), 10))
    avg = float(np.mean([r["gqd_reoptimized"] for r in recs]))
    record_criterion(
        "05x1", abs(avg - 0.1687) <= 2e-3,
        f"carrier-mixing average over [0, 0.1] = {avg:.4f} vs stated 0.1687 "
        "(documented discrepancy)"
    )
    assert abs(avg - 0.1687) <= 2e-3


@pytest.mark.xfail(
    strict=True,
    reason="the fully mixed carrier family is locally equivalent to the "
    "anticorrelated one and retains the full GQD of 0.2198 instead of "
    "vanishing (see the project decision log)",
)
def test_criterion_5_full_mixing():
    recs = ex.carrier_mixing_sweep(lambdas=(1.0,))
    value = recs[0]["gqd_reoptimized"]
    record_criterion(
        "05x2", value < 1e-6,
        f"GQD at full carrier mixing = {value:.4f} vs stated < 1e-6 "
        "(documented discrepancy)"
    )
    assert value < 1e-6


@pytest.fixture(scope="module")
def purity_grid_panel():
    return ex.memory_robustness(resolution=3, panels=("c",))["c"]


def test_criterion_6_fixed_vs_reoptimized(purity_grid_panel):
    recs = ex.carrier_mixing_sweep(lambdas=np.round(np.linspace(0.0, 1.0, 11), 10))
    lam_diff = max(
        abs(r["gqd_fixed_basis"] - r["gqd_reoptimized"])
        for r in recs
    )
    c = purity_grid_panel
    # the grid maximum sits at full purity (1, 1), where the two surfaces agree
    fixed = np.asarray(c["gqd_fixed"])
    reopt = np.asarray(c["gqd_reoptimized"])
    peak_idx = np.unravel_index(np.argmax(fixed), fixed.shape)
    peak_at_pure = peak_idx == (fixed.shape[0] - 1, fixed.shape[1] - 1)
    peak_diff = abs(fixed[peak_idx] - reopt[peak_idx])
    ok = lam_diff < 1e-3 and peak_at_pure and peak_diff < 1e-3
    record_criterion(
        "06", ok,
        f"fixed-basis vs re-optimized: mixing sweep diff {lam_diff:.2e} < 1e-3; "
        f"memory-purity grid peaks at (1, 1) where the surfaces agree "
        f"(diff {peak_diff:.2e})"
    )
    assert lam_diff < 1e-3
    assert peak_at_pure
    assert peak_diff < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="re-optimizing the carrier angles genuinely helps at asymmetric "
    "memory purities (0.2016 vs 0.0700 at A = (0.5, 1.0), confirmed at the "
    "full search budget), so the surfaces are not pointwise identical "
    "within 1e-3 (see the project decision log)",
)
def test_criterion_6_grid_pointwise(purity_grid_panel):
    c = purity_grid_panel
    grid_diff = float(np.abs(c["gqd_fixed"] - c["gqd_reoptimized"]).max())
    record_criterion(
        "06x", grid_diff < 1e-3,
        f"memory-purity grid fixed-vs-reoptimized pointwise diff "
        f"{grid_diff:.2e} vs stated < 1e-3 (documented discrepancy)"
    )
    assert grid_diff < 1e-3


def test_criterion_7_channel_classification():
    # semiclassical exactly when either polar angle sits on the 0/pi axes
    for t1 in (0.0, 0.8, math.pi / 2, math.pi):
        for t2 in (0.0, 1.3, math.pi):
            ch = protocol.effective_memory_channel([t1, t2], [0.0, 0.0])
            expected = t1 in (0.0, math.pi) or t2 in (0.0, math.pi)
            assert protocol.classify_semiclassical(ch) == expected
    # unital exactly when sin(t1) cos(p1) sin(t2) cos(p2) = 0
    for t1, p1, t2, p2 in [
        (0.9, 0.0, 1.1, 0.0),
        (math.pi / 2, math.pi / 2, 1.1, 0.0),
        (0.9, 0.0, math.pi, 0.3),
        (0.9, 3 * math.pi / 2, 1.1, 1.0),
        (math.pi / 2, 0.3, math.pi / 2, 1.0),
    ]:
        ch = protocol.effective_memory_channel([t1, t2], [p1, p2])
        expected = abs(
            math.sin(t1) * math.cos(p1) * math.sin(t2) * math.cos(p2)
        ) < 1e-12
        assert protocol.classify_unital(ch) == expected
    witness = protocol.final_state_closed_form(
        math.pi / 2, math.pi / 4, math.pi / 2, 0.0
    )
    assert protocol.classify_unital(
        protocol.effective_memory_channel(
            [math.pi / 2, math.pi / 4], [math.pi / 2, 0.0]
        )
    )
    w = discord_asym(witness, "M1", "M2", budget=FULL_BUDGET, seed=0).value
    assert abs(w - 0.2018) < 1e-3
    singles = []
    for theta2 in (math.pi / 4, 3 * math.pi / 4):
        out = protocol.run_single_memory_variant(theta2)
        singles.append(
            discord_asym(
                out.final_state, *out.retained_labels, budget=FULL_BUDGET, seed=0
            ).value
        )
    assert all(abs(s - 0.2018) < 1e-3 for s in singles)
    report = protocol.effective_channel_nonfactorizability_check()
    assert report.trace_distance > 0.01
    record_criterion(
        "07", True,
        f"semiclassical/unital sets exact; unital witness discord {w:.4f}; "
        f"single-memory discord {singles[0]:.4f}; nonfactorizability "
        f"distance {report.trace_distance:.4f} > 0.01"
    )


def test_criterion_8_noise_study():
    g1 = ex.noisy_max_estimate(1.0)
    below = ex.noisy_max_estimate(0.18)
    above = ex.noisy_max_estimate(0.24)
    crossover_ok = below < GQD_MAX < above
    records = {r["bits"]: r for r in ex.outcome_dependence()}
    p_same = records["00"]["probability"] + records["11"]["probability"]
    p_diff = records["01"]["probability"] + records["10"]["probability"]
    same_fid = min(records[b]["fidelity_uniform_mix"] for b in ("00", "11"))
    diff_gqd = [records[b]["gqd"] for b in ("01", "10")]
    ok = (
        abs(g1 - 1 / 3) < 2e-3
        and crossover_ok
        and all(abs(g - 0.1258) < 3e-3 for g in diff_gqd)
        and same_fid > 0.99
        and abs(p_same - 0.5) < 1e-9
        and abs(p_diff - 0.5) < 1e-9
    )
    record_criterion(
        "08", ok,
        f"max GQD at full noise {g1:.5f} (target 1/3 +- 2e-3); noiseless "
        f"max crossed between p = 0.18 ({below:.4f}) and 0.24 ({above:.4f}); "
        f"orthogonal-outcome GQD {diff_gqd[0]:.4f}; identical-outcome "
        f"fidelity {same_fid:.4f} > 0.99; outcome-class probabilities 1/2"
    )
    assert abs(g1 - 1 / 3) < 2e-3
    assert crossover_ok
    for g in diff_gqd:
        assert abs(g - 0.1258) < 3e-3
    assert same_fid > 0.99
    assert abs(p_same - 0.5) < 1e-9
    assert abs(p_diff - 0.5) < 1e-9


def test_criterion_9_ghz_variant():
    study = ex.ghz_study()
    ok = (
        abs(study["gqd_initial"] - 1.0) < 1e-3
        and abs(study["gqd_joint_max"] - 1.2926) < 2e-3
        and abs(study["gqd_pair_max"] - 0.2198) < 1e-3
    )
    record_criterion(
        "09", ok,
        f"GHZ carriers: initial GQD {study['gqd_initial']:.4f}, joint max "
        f"{study['gqd_joint_max']:.4f} (target 1.2926), memory-pair max "
        f"{study['gqd_pair_max']:.4f} (target 0.2198)"
    )
    assert abs(study["gqd_initial"] - 1.0) < 1e-3
    assert abs(study["gqd_joint_max"] - 1.2926) < 2e-3
    assert abs(study["gqd_pair_max"] - 0.2198) < 1e-3


def test_criterion_10_property_suites(rng):
    # circuit vs closed form on random angle tuples
    for _ in range(10):
        t1, t2 = rng.uniform(0, math.pi, 2)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        out = protocol.run_circuit(protocol.standard_config([t1, t2], [p1, p2]))
        closed = protocol.final_state_closed_form(t1, t2, p1, p2)
        assert np.max(np.abs(out.final_state.matrix - closed.matrix)) < 1e-10
        m = out.final_state.matrix
        assert abs(np.trace(m) - 1) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(m).min() > -1e-12
    # pinched and direct GQD evaluations agree
    rho = protocol.final_state_closed_form(0.9458, 0.9458, 0.0, 0.0)
    for basis in (
        {"M1": (0.3, 0.1), "M2": (1.2, 2.0)},
        {"M1": (math.pi / 2, 0.0), "M2": (math.pi / 2, 0.0)},
    ):
        assert abs(gqd(rho, basis, method="pinched") - gqd(rho, basis, method="direct")) < 1e-9
    # eigensolver reconstruction
    from discordnet.linalg import eigh

    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = m + m.conj().T
    assert eigh(h).reconstruction_residual(h) < 1e-10
    # Kraus completeness
    ch = correlated_dephasing(0.3, 0.7)
    acc = sum(k.conj().T @ k for k in ch.operators)
    assert np.allclose(acc, np.eye(4), atol=1e-12)
    # outcome independence without noise, dependence at full noise
    branches = protocol.run_circuit(
        protocol.standard_config([0.9458, 0.9458], outcome="all")
    )
    clean = [gqd_min(b.final_state, budget=FAST_BUDGET, seed=0).value for b in branches]
    assert abs(sum(b.probability for b in branches) - 1) < 1e-12
    assert max(clean) - min(clean) < 1e-7
    noisy = {r["bits"]: r["gqd"] for r in ex.outcome_dependence(budget=FAST_BUDGET)}
    assert abs(noisy["00"] - noisy["01"]) > 0.1
    record_criterion(
        "10", True,
        "state invariants, circuit-vs-closed-form oracle, pinched-vs-direct "
        "agreement, eigensolver residual, Kraus completeness, and outcome "
        "(in)dependence all hold"
    )


def test_criterion_11_scaling_fits(scaling_rows):
    fits = {f.model: f for f in ex.scaling_fits(scaling_rows)}
    slope, intercept = fits["linear"].coefficients
    a, b, c = fits["exponential_excess"].coefficients
    targets = (-0.3320, -0.2863, 0.2056)
    rel = [abs((x - t) / t) for x, t in zip((a, b, c), targets)]
    ok = abs(slope - 0.238) < 0.01 and abs(intercept - (-0.250)) < 0.03 and max(rel) < 0.15
    record_criterion(
        "11", ok,
        f"linear fit slope {slope:.4f} (target 0.238 +- 0.01), intercept "
        f"{intercept:.4f} (target -0.250 +- 0.03); excess-curve coefficients "
        f"({a:.4f}, {b:.4f}, {c:.4f}) within {100 * max(rel):.1f}% of targets"
    )
    assert abs(slope - 0.238) < 0.01
    assert abs(intercept - (-0.250)) < 0.03
    assert max(rel) < 0.15
