"""Scripted studies: scaling tables, structure census, heatmaps, robustness
curves, the correlated-dephasing noise study, and scaling-law fits.

Every function is deterministic for a fixed seed and returns plain records
(dataclasses or dicts of arrays) that the CLI serializes.  Each study runs at
one fixed setting; the only other arguments are the ones the CLI or a
scaled-down test run sets, and their defaults are the full study:

- ``final``, the budget of reported values (the CLI's ``--inner-budget``), of
  ``scaling_table``, ``pairwise_census``, ``symmetric_theta_max``,
  ``noisy_max``, ``rho0_curve_point`` and ``dephasing_noise_study``;
- ``budget`` of ``protocol_gqd``, ``measurement_window_average``,
  ``anticorrelated_max`` and ``outcome_dependence``;
- sizes: ``n_min``/``n_max`` of ``scaling_table``, ``resolution`` of
  ``heatmaps`` and ``memory_robustness`` (and its ``panels``), ``grid`` of
  ``symmetric_theta_max`` and ``pairwise_census``, and the swept values
  ``lambdas``, ``etas`` and ``p_values``;
- ``width`` of ``measurement_window_average``, ``mixedness`` of
  ``scaling_table`` and ``include_tau`` of ``dephasing_noise_study``.

Every study runs serially in one thread: the inner searches batch their own
objective evaluations, so threads over grid points would only contend for the
interpreter lock.  Every outer search over carrier angles prepares its
register once with ``protocol.angle_sweep`` and only measures it per step;
``best_fidelity_state`` measures and scores each block of points its search
hands out as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import correlations, protocol, search, states
from .channels import correlated_dephasing
from .correlations import Budget, FAST_BUDGET, FULL_BUDGET, discord_asym, entropy, gqd, gqd_min
from .states import DensityMatrix, DensityStack, fidelity, fold_bloch, partial_trace

# Reduced basis-search budget used while an outer angle search is running;
# the final reported optimum is always re-evaluated at the full budget.
REDUCED_BUDGET = Budget(
    discord_grid=13,
    sym_grid=13,
    nm_starts=3,
    random_starts=0,
    xatol=1e-4,
    fatol=1e-8,
)

# Maximum asymmetric discord attainable by the bipartite protocol; the
# per-interaction quantum of the scaling law M(N) = q(N-1) + xi(N).
PAIR_DISCORD_MAX = 0.2017520733857


def protocol_gqd(
    thetas: Sequence[float],
    interactions: Sequence[int] | None = None,
    budget: Budget = FAST_BUDGET,
    seed: int = 0,
) -> float:
    """GQD of the retained state after one protocol run."""
    cfg = protocol.standard_config(thetas=thetas, interactions=interactions)
    out = protocol.run_circuit(cfg)
    return gqd_min(out.final_state, budget=budget, seed=seed).value


# ---------------------------------------------------------------------------
# Scaling table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRow:
    n: int
    theta: float  # symmetric carrier angle attaining the maximum
    g_max: float  # outer-maximized protocol GQD
    g_w: float  # GQD of the N-qubit W state
    epsilon: float  # mixing weight matching the protocol state's mixedness
    g_eps: float  # GQD of the mixedness-matched W-state mixture
    ratio: float  # g_max / g_eps


def symmetric_theta_max(
    n: int,
    interactions: Sequence[int] | None = None,
    final: Budget = FULL_BUDGET,
    grid: int = 25,
    seed: int = 0,
    extra_starts: Sequence[float] = (),
) -> tuple[float, float]:
    """Maximize protocol GQD over a single symmetric carrier angle theta.

    The search runs at ``REDUCED_BUDGET``; returns (argmax theta, value
    re-evaluated at the ``final`` budget).
    """
    from scipy.optimize import minimize_scalar

    thetas = np.linspace(0.02, math.pi - 0.02, grid)
    run = protocol.angle_sweep(
        protocol.standard_config([thetas[0]] * n, interactions=interactions)
    )

    def obj(theta: float, budget: Budget) -> float:
        return gqd_min(run([theta] * n).final_state, budget=budget, seed=seed).value

    vals = [obj(t, REDUCED_BUDGET) for t in thetas]
    candidates = [float(thetas[int(np.argmax(vals))]), *extra_starts]
    best_t, best_v = candidates[0], -np.inf
    for t0 in candidates:
        res = minimize_scalar(
            lambda t: -obj(t, REDUCED_BUDGET),
            bounds=(max(t0 - 0.25, 1e-3), min(t0 + 0.25, math.pi - 1e-3)),
            method="bounded",
            options={"xatol": 1e-5},
        )
        if -res.fun > best_v:
            best_v, best_t = -res.fun, float(res.x)
    return best_t, obj(best_t, final)


def matched_epsilon(n: int, reference: DensityMatrix, convention: str = "purity") -> float:
    """Mixing weight for which the W-state/maximally-mixed mixture is as mixed
    as the reference state (1-D bisection; both measures are monotone in the
    weight).

    ``purity`` matches tr(rho^2) and reproduces the N = 2 benchmark value of
    the mixed-reference column; ``entropy`` matches von Neumann entropy and
    exists as the documented alternative reading of "same level of mixedness".
    """
    if convention == "purity":
        measure, target = states.purity, states.purity(reference)
    elif convention == "entropy":
        measure, target = entropy, entropy(reference)
    else:
        raise ValueError(f"unknown mixedness convention {convention!r}")
    lo, hi = 0.0, 1.0  # mixedness increases from pure W (0) to maximally mixed (1)
    increasing = convention == "entropy"  # purity decreases, entropy increases
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        low_side = measure(states.werner_w(n, mid)) < target
        if low_side == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scaling_table(
    n_max: int = 5,
    n_min: int = 2,
    final: Budget = FULL_BUDGET,
    seed: int = 0,
    mixedness: str = "purity",
) -> list[ScalingRow]:
    """Per-size maxima of the all-pairs protocol and W-state benchmarks."""
    if not 2 <= n_min <= n_max <= 6:
        raise ValueError("table supports sizes 2..6")
    rows = []
    for n in range(n_min, n_max + 1):
        theta, g_max = symmetric_theta_max(n, final=final, seed=seed)
        g_w = gqd_min(states.w_state(n).density(), budget=final, seed=seed).value
        out = protocol.run_circuit(protocol.standard_config([theta] * n))
        eps = matched_epsilon(n, out.final_state, convention=mixedness)
        g_eps = gqd_min(states.werner_w(n, eps), budget=final, seed=seed).value
        rows.append(ScalingRow(n, theta, g_max, g_w, eps, g_eps, g_max / g_eps))
    return rows


# ---------------------------------------------------------------------------
# Structure census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusPair:
    labels: tuple[str, str]
    d_ab: float  # discord of A measured on B
    d_ba: float  # discord of B measured on A
    quantum_ab: bool
    quantum_ba: bool


@dataclass(frozen=True)
class CensusRow:
    n: int
    interactions: tuple[int, ...]
    retained: tuple[str, ...]
    pairs: tuple[CensusPair, ...]
    theta: float
    gqd_max: float


def pairwise_census(
    n: int,
    final: Budget = FULL_BUDGET,
    grid: int = 25,
    seed: int = 0,
) -> list[CensusRow]:
    """Pairwise discord pattern and max GQD per interaction-subset size.

    The representative subset {1..k} is used for each size k; angles for the
    pattern are generic (away from the measure-zero zero-discord set), and a
    pair counts as quantum in a direction whose discord (at ``FAST_BUDGET``)
    exceeds 1e-6.  ``gqd_max`` is maximized over a symmetric carrier angle.
    """
    if n < 2:
        raise ValueError("census needs n >= 2")
    rows = []
    for k in range(1, n + 1):
        interactions = tuple(range(1, k + 1))
        cfg = protocol.standard_config(
            thetas=[protocol.GENERIC_THETA] * n,
            phis=[protocol.GENERIC_PHI] * n,
            interactions=interactions,
        )
        out = protocol.run_circuit(cfg)
        pairs = []
        labels = out.retained_labels
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                la, lb = labels[a], labels[b]
                pair = partial_trace(out.final_state, [la, lb])
                d_ab = discord_asym(pair, la, lb, budget=FAST_BUDGET, seed=seed).value
                d_ba = discord_asym(pair, lb, la, budget=FAST_BUDGET, seed=seed).value
                pairs.append(CensusPair((la, lb), d_ab, d_ba, d_ab > 1e-6, d_ba > 1e-6))
        # The maximum sits on the symmetric-theta line for every subset size
        # (theta = pi/4 when a carrier is retained, the all-pairs optimum
        # otherwise); keep pi/4 as an explicit start so the coarse grid cannot
        # miss the narrow k < n basin.
        theta, g_max = symmetric_theta_max(
            n,
            interactions=interactions,
            final=final,
            grid=grid,
            seed=seed,
            extra_starts=(math.pi / 4,),
        )
        rows.append(CensusRow(n, interactions, tuple(labels), tuple(pairs), theta, g_max))
    return rows


# ---------------------------------------------------------------------------
# Bipartite heatmaps
# ---------------------------------------------------------------------------


def heatmaps(resolution: int = 61, seed: int = 0) -> dict[str, np.ndarray]:
    """D(M1|M2), D(M2|M1) and GQD on a (theta1, theta2) grid at phi = 0, with
    every search at ``FAST_BUDGET``.

    The grid has an exact 8-fold symmetry, so the searches run only on the
    orbit representatives i <= j < ceil(resolution / 2) and every other cell
    is copied from one of them:

    - theta_i -> pi - theta_i is a local Z on memory M_i at phi = 0, and
      discord and GQD are invariant under local unitaries;
    - swapping (theta1, theta2) swaps the memories, which exchanges
      D(M1|M2) and D(M2|M1) and leaves GQD unchanged.
    """
    axis = np.linspace(0.0, math.pi, resolution)
    half = (resolution + 1) // 2
    d12, d21, g = (np.empty((half, half)) for _ in range(3))
    for i in range(half):
        for j in range(i, half):
            rho = protocol.final_state_closed_form(axis[i], axis[j], 0.0, 0.0)
            m1_m2 = discord_asym(rho, "M1", "M2", budget=FAST_BUDGET, seed=seed).value
            m2_m1 = discord_asym(rho, "M2", "M1", budget=FAST_BUDGET, seed=seed).value
            # the swapped cell first, so that i == j keeps the direct values
            d12[j, i], d21[j, i] = m2_m1, m1_m2
            d12[i, j], d21[i, j] = m1_m2, m2_m1
            g[i, j] = g[j, i] = gqd_min(rho, budget=FAST_BUDGET, seed=seed).value
    k = np.arange(resolution)
    cells = np.ix_(np.minimum(k, resolution - 1 - k), np.minimum(k, resolution - 1 - k))
    return {"theta": axis, "d_m1_m2": d12[cells], "d_m2_m1": d21[cells], "gqd": g[cells]}


# ---------------------------------------------------------------------------
# Robustness studies
# ---------------------------------------------------------------------------

OPT_THETA = 0.9458  # symmetric carrier angle maximizing bipartite GQD

# Carrier angles maximizing bipartite GQD under full correlated dephasing.
NOISY_OPT_THETA = 0.9553
NOISY_OPT_PHI = 3 * math.pi / 4


def _closed_form_gqd(x: np.ndarray, budget: Budget, seed: int = 0) -> float:
    rho = protocol.final_state_closed_form(x[0], x[1], x[2], x[3])
    return gqd_min(rho, budget=budget, seed=seed).value


def measurement_window_average(
    width: float = math.pi / 10,
    budget: Budget = FAST_BUDGET,
    seed: int = 0,
) -> tuple[float, float]:
    """(windowed average, maximum) of GQD when both carrier measurement
    angles drift jointly over a window centered on the optimum (21 samples
    per angle)."""
    center = [OPT_THETA, OPT_THETA, 0.0, 0.0]
    peak = _closed_form_gqd(np.array(center), budget, seed)
    avg = search.uniform_average(
        lambda x: _closed_form_gqd(x, budget, seed), center, width, perturbed=[0, 1]
    )
    return avg, peak


def memory_window_average(seed: int = 0) -> float:
    """GQD averaged over a pi/10 window (21 samples) of the shared memory
    preparation angle around the balanced point, at the fixed optimal
    carrier basis."""

    def obj(x: np.ndarray) -> float:
        cfg = protocol.standard_config(
            thetas=[OPT_THETA, OPT_THETA],
            memories=states.pure_memory_pair(x[0], 0.0),
        )
        out = protocol.run_circuit(cfg)
        return gqd_min(out.final_state, budget=FAST_BUDGET, seed=seed).value

    return search.uniform_average(obj, [math.pi / 2], math.pi / 10)


def _carrier_output(carriers: DensityMatrix | None = None) -> DensityMatrix:
    """Memory output of the two-pair protocol at the optimal carrier basis."""
    cfg = protocol.standard_config(thetas=[OPT_THETA, OPT_THETA], carriers=carriers)
    return protocol.run_circuit(cfg).final_state


def carrier_mixing_sweep(
    lambdas: Sequence[float] | None = None, seed: int = 0
) -> list[dict[str, float]]:
    """GQD against the carrier mixing weight: fixed optimal basis vs
    re-optimized basis at every point; one record per weight, in order."""
    if lambdas is None:
        lambdas = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)
    opt_basis = gqd_min(_carrier_output(), budget=FULL_BUDGET, seed=seed).basis
    records = []
    for lam in map(float, lambdas):
        rho = _carrier_output(states.mixed_carriers(lam))
        records.append({
            "lambda": lam,
            "gqd_fixed_basis": max(gqd(rho, opt_basis), 0.0),
            "gqd_reoptimized": gqd_min(rho, budget=FAST_BUDGET, seed=seed).value,
        })
    return records


def carrier_bias_sweep(
    etas: Sequence[float] | None = None, seed: int = 0
) -> list[dict[str, float]]:
    """GQD against the carrier bias weight eta (re-optimized basis); one
    record per weight, in order."""
    if etas is None:
        etas = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)
    return [
        {"eta": eta, "gqd": gqd_min(_carrier_output(states.biased_carriers(eta)),
                                    budget=FAST_BUDGET, seed=seed).value}
        for eta in map(float, etas)
    ]


def anticorrelated_max(budget: Budget = FULL_BUDGET, seed: int = 0) -> float:
    """Protocol GQD with anti-correlated carriers at the standard optimal basis."""
    rho = _carrier_output(states.anticorrelated_carriers())
    return gqd_min(rho, budget=budget, seed=seed).value


def _two_pair_outputs(
    memories: DensityMatrix | None = None, memory_noise=None
) -> Callable[[Sequence[float]], DensityMatrix | DensityStack]:
    """Memory output of the two-pair protocol as a function of the carrier
    angles [t1, t2, p1, p2], with the register prepared once; a (k, 4) block
    of angles gives a ``DensityStack`` of the k outputs."""
    run = protocol.angle_sweep(protocol.standard_config(
        [OPT_THETA, OPT_THETA], memories=memories, memory_noise=memory_noise
    ))
    return lambda x: run(np.asarray(x)[..., :2], np.asarray(x)[..., 2:]).final_state


def memory_robustness(
    resolution: int = 41,
    seed: int = 0,
    panels: Sequence[str] = ("a", "b", "c"),
) -> dict[str, dict[str, np.ndarray]]:
    """GQD against the initial memory state.

    Panel a: pure memories over preparation angles (theta_m, phi_m), carrier
    basis fixed.  Panel b: same grid, carrier angles re-optimized per point.
    Panel c: dephased-memory purities (A1, A2), fixed basis and re-optimized.
    Reported values are at ``FAST_BUDGET``; the re-optimization searches at
    ``REDUCED_BUDGET``.
    """
    out: dict[str, dict[str, np.ndarray]] = {}
    opt_angles = [OPT_THETA, OPT_THETA, 0.0, 0.0]

    def grid(memories: Callable[[int, int], DensityMatrix], point) -> np.ndarray:
        """point(memories(i, j)) at every cell, row-major; a trailing axis for tuples."""
        vals = np.array([point(memories(i, j)) for i in range(resolution) for j in range(resolution)])
        return vals.reshape(resolution, resolution, *vals.shape[1:])

    def fixed(memories: DensityMatrix) -> float:
        rho = _two_pair_outputs(memories=memories)(opt_angles)
        return gqd_min(rho, budget=FAST_BUDGET, seed=seed).value

    def reoptimized(memories: DensityMatrix) -> float:
        # a short (60-evaluation) Nelder-Mead maximization from opt_angles
        output = _two_pair_outputs(memories=memories)
        x = search.multistart(
            lambda pts: np.array([-gqd_min(output(x), budget=REDUCED_BUDGET, seed=seed).value
                                  for x in pts]),
            [np.array(opt_angles)], xatol=1e-4, fatol=1e-8, maxfev=60,
        ).argopt
        return gqd_min(output(x), budget=FAST_BUDGET, seed=seed).value

    tm_axis = np.linspace(0.0, math.pi, resolution)
    pm_axis = np.linspace(0.0, 2 * math.pi, resolution)
    a_axis = np.linspace(0.5, 1.0, resolution)

    def pure(i: int, j: int) -> DensityMatrix:
        return states.pure_memory_pair(tm_axis[i], pm_axis[j])

    def mixed(i: int, j: int) -> DensityMatrix:
        return states.mixed_memories(a_axis[i], a_axis[j])

    if "a" in panels:
        out["a"] = {"theta_m": tm_axis, "phi_m": pm_axis, "gqd": grid(pure, fixed)}
    if "b" in panels:
        out["b"] = {"theta_m": tm_axis, "phi_m": pm_axis, "gqd": grid(pure, reoptimized)}
    if "c" in panels:
        def fixed_and_reoptimized(memories: DensityMatrix) -> tuple[float, float]:
            # both at the same budget, so the two surfaces are comparable
            g = fixed(memories)
            return g, max(reoptimized(memories), g)

        both = grid(mixed, fixed_and_reoptimized)
        out["c"] = {
            "a1": a_axis,
            "a2": a_axis,
            "gqd_fixed": both[..., 0],
            "gqd_reoptimized": both[..., 1],
        }
    return out


# ---------------------------------------------------------------------------
# Channel classification study
# ---------------------------------------------------------------------------


def channel_classification_study(seed: int = 0) -> list[dict[str, Any]]:
    """Effective-channel classification summary.

    Records cover: semiclassical angle sets, the unital set, a unital channel
    that still distributes discord, the single-memory variant, and the
    nonfactorizability witness at the optimal angles.
    """
    records: list[dict[str, Any]] = []
    for theta1, theta2 in [(0.0, 1.0), (math.pi, 2.0), (0.7, 1.3)]:
        ch = protocol.effective_memory_channel([theta1, theta2], [0.0, 0.0])
        records.append(
            {
                "check": "semiclassical",
                "theta1": theta1,
                "theta2": theta2,
                "result": float(protocol.classify_semiclassical(ch)),
            }
        )
    for theta1, phi1 in [(math.pi / 2, math.pi / 2), (0.7, math.pi / 2), (math.pi / 2, 0.3)]:
        ch = protocol.effective_memory_channel(
            [theta1, math.pi / 2], [phi1, math.pi / 2]
        )
        records.append(
            {
                "check": "unital",
                "theta1": theta1,
                "phi1": phi1,
                "result": float(protocol.classify_unital(ch)),
            }
        )
    witness = protocol.final_state_closed_form(math.pi / 2, math.pi / 4, math.pi / 2, 0.0)
    records.append(
        {
            "check": "unital_discord_witness",
            "theta1": math.pi / 2,
            "theta2": math.pi / 4,
            "result": discord_asym(witness, "M1", "M2", budget=FULL_BUDGET, seed=seed).value,
        }
    )
    for theta2 in (math.pi / 4, 3 * math.pi / 4):
        out = protocol.run_single_memory_variant(theta2)
        records.append(
            {
                "check": "single_memory_discord",
                "theta2": theta2,
                "result": discord_asym(
                    out.final_state, *out.retained_labels, budget=FULL_BUDGET, seed=seed
                ).value,
            }
        )
    report = protocol.effective_channel_nonfactorizability_check()
    records.append({"check": "nonfactorizability_distance", "result": report.trace_distance})
    return records


# ---------------------------------------------------------------------------
# GHZ-carrier variant
# ---------------------------------------------------------------------------


def ghz_study(seed: int = 0) -> dict[str, float]:
    """Three-carrier GHZ variant: maximum GQD of the retained M1-M2-C3
    compound, maximum GQD of the memory pair alone, and the initial value.

    The angle searches run at ``FAST_BUDGET``, not the outer-search budget:
    the sub-3-qubit basis searches at reduced budgets can stall on this
    asymmetric state.  Reported values are at ``FULL_BUDGET``.
    """
    from scipy.optimize import minimize_scalar

    run = protocol.angle_sweep(protocol.ghz_config(0.05, 0.05))

    def joint_obj(theta: float, budget: Budget) -> float:
        out = run([theta, theta])
        return gqd_min(out.final_state, budget=budget, seed=seed).value

    def pair_obj(theta: float, budget: Budget) -> float:
        out = run([theta, theta])
        pair = partial_trace(out.final_state, ["M1", "M2"])
        return gqd_min(pair, budget=budget, seed=seed).value

    res_joint = minimize_scalar(
        lambda t: -joint_obj(t, FAST_BUDGET),
        bounds=(0.05, math.pi - 0.05),
        method="bounded",
        options={"xatol": 1e-5},
    )
    res_pair = minimize_scalar(
        lambda t: -pair_obj(t, FAST_BUDGET),
        bounds=(0.05, math.pi / 2),
        method="bounded",
        options={"xatol": 1e-5},
    )
    return {
        "gqd_initial": gqd_min(states.ghz3_carriers(), budget=FULL_BUDGET, seed=seed).value,
        "theta_joint": float(res_joint.x),
        "gqd_joint_max": joint_obj(float(res_joint.x), FULL_BUDGET),
        "theta_pair": float(res_pair.x),
        "gqd_pair_max": pair_obj(float(res_pair.x), FULL_BUDGET),
    }


# ---------------------------------------------------------------------------
# Correlated-dephasing noise study
# ---------------------------------------------------------------------------


def _folded(x: np.ndarray) -> np.ndarray:
    """Carrier angles [t1, t2, p1, p2] folded into their Bloch ranges; each
    row of a (k, 4) block alike.

    The outer searches run unbounded, so they may step outside [0, pi] x
    [0, 2pi); the fold maps each step to the same measurement.
    """
    return np.concatenate(fold_bloch(x[..., :2], x[..., 2:]), axis=-1)


def _dephasing(p: float):
    """Fully correlated (mu = 1) dephasing of strength p on the memories;
    None, the noiseless run, at p = 0."""
    return correlated_dephasing(p, 1.0) if p > 0 else None


def _noisy_outputs(p: float) -> Callable[[np.ndarray], DensityMatrix | DensityStack]:
    """Memory output of the two-pair protocol under dephasing of strength p,
    as a function of the carrier angles x, which it folds; a (k, 4) block
    gives a stack of k outputs."""
    output = _two_pair_outputs(memory_noise=_dephasing(p))
    return lambda x: output(_folded(x))


# Points per tied axis of the noisy_max grid scan.  It must be fine enough to
# resolve the narrow basin near phi = 3pi/4 that dominates at strong noise;
# 17 points put that azimuth exactly on the grid.
NOISY_MAX_GRID = 17


def noisy_max(
    p: float,
    final: Budget = FULL_BUDGET,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Maximize protocol GQD over carrier angles under correlated dephasing.

    Symmetric (theta, phi) grid scan, then unrestricted 4-angle refinement,
    both at ``REDUCED_BUDGET``; returns (argmax angles [t1, t2, p1, p2],
    value at the ``final`` budget).
    """
    output = _noisy_outputs(p)

    def obj(x: np.ndarray, budget: Budget) -> float:
        return gqd_min(output(x), budget=budget, seed=seed).value

    spec = search.SearchSpec(
        objective=lambda x: obj(x, REDUCED_BUDGET),
        dimension=4,
        bounds=((0.0, math.pi),) * 2 + ((0.0, 2 * math.pi),) * 2,
        grid_resolution=NOISY_MAX_GRID,
        multistarts=2,
        random_starts=0,
        tolerance=1e-5,
        maximize=True,
        symmetry_groups=((0, 1), (2, 3)),
        seed=seed,
    )
    best = _folded(search.optimize(spec).argopt)
    return best, obj(best, final)


def best_fidelity_state(
    p: float,
    target: DensityMatrix,
    seed: int = 0,
) -> tuple[np.ndarray, float, DensityMatrix]:
    """Carrier angles maximizing fidelity of the noisy protocol output with a
    target two-qubit state; returns (angles, fidelity, state).

    Each block of points the search hands out is folded, measured and
    scored as one stack.
    """
    output = _noisy_outputs(p)
    spec = search.SearchSpec(
        batch=lambda pts: fidelity(output(pts), target),
        dimension=4,
        bounds=((0.0, math.pi),) * 2 + ((0.0, 2 * math.pi),) * 2,
        grid_resolution=9,
        multistarts=2,
        random_starts=1,
        tolerance=1e-6,
        maximize=True,
        symmetry_groups=((0, 1), (2, 3)),
        seed=seed,
    )
    res = search.optimize(spec)
    best = _folded(res.argopt)
    cfg = protocol.standard_config(best[:2], best[2:], memory_noise=_dephasing(p))
    return best, res.value, protocol.run_circuit(cfg).final_state


def best_tau_target(p: float, seed: int = 0) -> dict[str, float]:
    """Optimal Bell-mixture weight x on a 101-point grid: the tau(x) target
    whose best-fidelity protocol state carries the most GQD (at
    ``FAST_BUDGET``) at noise strength p."""
    best = {"x": 0.0, "gqd": -1.0, "fidelity": 0.0}
    for x in np.linspace(0.0, 1.0, 101):
        _, fid, rho = best_fidelity_state(p, states.bell_mixture(float(x)), seed=seed)
        val = gqd_min(rho, budget=FAST_BUDGET, seed=seed).value
        if val > best["gqd"]:
            best = {"x": float(x), "gqd": val, "fidelity": fid}
    return best


def rho0_curve_point(p: float, budget: Budget = FULL_BUDGET, seed: int = 0) -> float:
    """GQD of the noisy protocol output at the noiseless-optimal fixed angles."""
    cfg = protocol.standard_config(thetas=[OPT_THETA, OPT_THETA], memory_noise=_dephasing(p))
    return gqd_min(protocol.run_circuit(cfg).final_state, budget=budget, seed=seed).value


def noisy_max_estimate(p: float, seed: int = 0) -> float:
    """Fast lower-bound estimate of the noisy maximum GQD.

    The larger of two one-parameter families: the noiseless-optimal basis at
    fixed angles, and the symmetric family with azimuth 3pi/4 whose polar
    angle shifts with the noise strength.  Only a scalar optimization is
    needed: ``search.optimize``'s 13-point scan and one refinement at
    ``REDUCED_BUDGET``, then both families at ``FULL_BUDGET``.  A four-angle
    search found nothing above it at p = 0.18, 0.24 and 1, but it is not the
    four-angle maximum at every p: at p = 0.5 it gives 0.2811762, and the
    tied point theta = 2.39929, phi = pi/2, off both families, gives
    0.2826191.
    """
    output = _two_pair_outputs(memory_noise=_dephasing(p))

    def family(theta: float, budget: Budget) -> float:
        rho = output([theta, theta, NOISY_OPT_PHI, NOISY_OPT_PHI])
        return gqd_min(rho, budget=budget, seed=seed).value

    spec = search.SearchSpec(
        objective=lambda v: family(float(v[0]), REDUCED_BUDGET),
        dimension=1,
        bounds=((0.0, math.pi),),
        grid_resolution=13,
        multistarts=1,
        random_starts=0,
        tolerance=1e-4,
        maximize=True,
    )
    theta = search.optimize(spec).argopt[0]
    branch = family(float(np.clip(theta, 0.0, math.pi)), FULL_BUDGET)
    return max(branch, rho0_curve_point(p, seed=seed))


def outcome_dependence(budget: Budget = FULL_BUDGET, seed: int = 0) -> list[dict[str, Any]]:
    """Per-outcome branches of the protocol under full correlated dephasing
    (p = 1), at the carrier basis that is optimal there: identical and
    orthogonal outcomes leave the memories in structurally different Bell
    mixtures.
    """
    cfg = protocol.standard_config(
        thetas=[NOISY_OPT_THETA, NOISY_OPT_THETA],
        phis=[NOISY_OPT_PHI, NOISY_OPT_PHI],
        outcome="all",
        memory_noise=_dephasing(1.0),
    )
    records = []
    for out in protocol.run_circuit(cfg):
        rho = out.final_state
        records.append(
            {
                "bits": "".join(str(b) for b in out.outcome_bits),
                "probability": out.probability,
                "gqd": gqd_min(rho, budget=budget, seed=seed).value,
                "fidelity_even_mix": fidelity(rho, states.bell_mixture(0.5)),
                "fidelity_uniform_mix": fidelity(rho, states.bell_mixture(1.0 / 3.0)),
                "fidelity_werner": fidelity(rho, states.werner_bell(1.0 / 3.0)),
            }
        )
    return records


def dephasing_noise_study(
    p_values: Sequence[float] | None = None,
    final: Budget = FULL_BUDGET,
    include_tau: bool = True,
    seed: int = 0,
) -> dict[str, Any]:
    """Noise study: outer-maximized GQD, fixed-angle curve, fidelity-target
    curves, and the p = 1 outcome-dependence demonstration."""
    if p_values is None:
        p_values = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)
    p_values = [float(p) for p in p_values]

    def point(p: float) -> dict[str, Any]:
        angles, g_max = noisy_max(p, final=final, seed=seed)
        rec: dict[str, Any] = {
            "p": p,
            "gqd_max": g_max,
            "theta1": angles[0],
            "theta2": angles[1],
            "phi1": angles[2],
            "phi2": angles[3],
            "gqd_rho0": rho0_curve_point(p, budget=final, seed=seed),
        }
        for name, target in [
            ("even_mix", states.bell_mixture(0.5)),
            ("uniform_mix", states.bell_mixture(1.0 / 3.0)),
        ]:
            _, fid, rho = best_fidelity_state(p, target, seed=seed)
            rec[f"fid_{name}"] = fid
            rec[f"gqd_{name}"] = gqd_min(rho, budget=final, seed=seed).value
        if include_tau:
            tau = best_tau_target(p, seed=seed)
            rec["tau_x"] = tau["x"]
            rec["tau_gqd"] = tau["gqd"]
            rec["tau_fidelity"] = tau["fidelity"]
        return rec

    curve = [point(p) for p in p_values]
    return {"curve": curve, "outcomes_p1": outcome_dependence(budget=final, seed=seed)}


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    model: str
    coefficients: tuple[float, ...]
    residual: float
    points: int


def scaling_fits(rows: Sequence[ScalingRow]) -> list[FitResult]:
    """Linear fit of the per-size maximum, and an exponential fit of the
    excess over the pairwise-additive baseline PAIR_DISCORD_MAX * (N - 1)."""
    from scipy.optimize import curve_fit

    if len(rows) < 3:
        raise ValueError("need at least 3 points to fit")
    ns = np.array([r.n for r in rows], dtype=float)
    gs = np.array([r.g_max for r in rows])
    slope, intercept = np.polyfit(ns, gs, 1)
    lin_res = float(np.linalg.norm(gs - (slope * ns + intercept)))
    fits = [FitResult("linear", (float(slope), float(intercept)), lin_res, len(rows))]

    xi = gs - PAIR_DISCORD_MAX * (ns - 1)

    def model(nn, a, b, c):
        return a * np.exp(b * nn) + c

    coeffs, _ = curve_fit(model, ns, xi, p0=(-0.3, -0.3, 0.2), maxfev=20000)
    exp_res = float(np.linalg.norm(xi - model(ns, *coeffs)))
    fits.append(FitResult("exponential_excess", tuple(float(c) for c in coeffs), exp_res, len(rows)))
    return fits
