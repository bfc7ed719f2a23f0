"""Derivative-free optimization over angle vectors, parameter sweeps, averaging.

The optimizers here are deliberately simple: a deterministic coarse grid scan
followed by multistart Nelder-Mead refinement.  Objectives are either plain
callables ``f(x) -> float`` on a vector of angles, or additionally provide a
``batch`` attribute evaluating many points at once (used to vectorize the grid
stage).

Every Nelder-Mead in the package runs through ``_nelder_mead``: scipy's
non-adaptive, unbounded ``_minimize_neldermead`` rewritten as one generator
per start, advanced in lockstep so that each step evaluates the pending points
of all starts in one batched objective call.  It takes the same steps in the
same order, with the same ``maxfev`` cut, so its results are bit-identical to
``scipy.optimize.minimize(method="Nelder-Mead")`` whenever a batch row equals
the one-point value.

Sweeps and averages evaluate their points one after another in the calling
thread; nothing in this module starts a thread or a process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, NamedTuple, Sequence

import numpy as np


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchSpec:
    """Optimization problem over a small angle vector.

    ``objective`` maps a 1-d float array of length ``dimension`` to a float.
    ``bounds`` only shape the start points: the grid and the random starts
    lie in the box, but the Nelder-Mead refinement is unbounded and may leave
    it, so an objective must accept any finite point (fold angles if needed).
    If ``symmetric`` is set, all coordinates within each group listed in
    ``symmetry_groups`` are tied equal during the grid stage (refinement is
    always unrestricted unless ``tie_refinement`` is set).
    """

    objective: Callable[[np.ndarray], float]
    dimension: int
    bounds: tuple[tuple[float, float], ...]
    grid_resolution: int = 13
    multistarts: int = 3
    random_starts: int = 2
    tolerance: float = 1e-7
    maximize: bool = False
    symmetric: bool = False
    symmetry_groups: tuple[tuple[int, ...], ...] = ()
    tie_refinement: bool = False
    batch_objective: Callable[[np.ndarray], np.ndarray] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise SearchError("dimension must be >= 1")
        if len(self.bounds) != self.dimension:
            raise SearchError("bounds must match dimension")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise SearchError("bounds must be finite with lo < hi")
        if self.grid_resolution < 2:
            raise SearchError("grid resolution must be >= 2")


@dataclass(frozen=True)
class SearchResult:
    argopt: np.ndarray
    value: float
    evaluations: int
    trace: tuple[tuple[float, ...], ...]  # (value, *point) per refinement start


def _sign(spec: SearchSpec) -> float:
    return -1.0 if spec.maximize else 1.0


def _grid_points(spec: SearchSpec) -> np.ndarray:
    """Tensor grid over the box, with optional symmetry tying."""
    if spec.symmetric and spec.symmetry_groups:
        groups = spec.symmetry_groups
    else:
        groups = tuple((i,) for i in range(spec.dimension))
    axes = []
    for group in groups:
        lo, hi = spec.bounds[group[0]]
        axes.append(np.linspace(lo, hi, spec.grid_resolution))
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    pts = np.empty((flat.shape[0], spec.dimension))
    for g, group in enumerate(groups):
        for idx in group:
            pts[:, idx] = flat[:, g]
    return pts


def _evaluate(spec: SearchSpec, pts: np.ndarray) -> np.ndarray:
    if spec.batch_objective is not None:
        vals = np.asarray(spec.batch_objective(pts), dtype=float)
    else:
        vals = np.array([spec.objective(p) for p in pts], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise SearchError("objective returned a non-finite value")
    return vals


class _Simplex(NamedTuple):
    """Outcome of one Nelder-Mead start, with the fields scipy reports."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool
    final_simplex: tuple[np.ndarray, np.ndarray]


# scipy's non-adaptive step coefficients and initial-simplex offsets.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


def _nelder_mead_start(
    x0: np.ndarray, xatol: float, fatol: float, maxfev: int
) -> Generator[np.ndarray, np.ndarray, _Simplex]:
    """One start of scipy's Nelder-Mead as a generator.

    It yields each block of points it needs, shape (k, d), and is sent their k
    values.  ``maxiter`` is not modelled: every caller sets it to ``maxfev``
    or leaves it unset, and each iteration costs at least one evaluation, so
    it never stops a run before ``maxfev`` does.
    """
    x0 = np.array(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf)
    nfev = min(n + 1, maxfev)
    if nfev:
        fsim[:nfev] = yield sim[:nfev]
    # scipy sorts twice after the initial simplex; argsort is not stable, so
    # the second sort may reorder ties.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while nfev < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = (yield xr[None])[0]
        nfev += 1
        # A step whose evaluation would exceed maxfev stops the run without
        # changing the simplex, as scipy's evaluation counter does.
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = (yield xe[None])[0]
                nfev += 1
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = (yield xc[None])[0]
                accept = fxc <= fxr
            else:
                xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxc = (yield xc[None])[0]
                accept = fxc < fsim[-1]
            nfev += 1
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                # Shrink towards the best vertex.  scipy moves a vertex before
                # evaluating it, so a maxfev cut leaves one more vertex moved
                # than evaluated.
                m = min(n, maxfev - nfev)
                moved = slice(1, min(n, m + 1) + 1)
                sim[moved] = sim[0] + _SIGMA * (sim[moved] - sim[0])
                if m:
                    fsim[1 : m + 1] = yield sim[1 : m + 1]
                    nfev += m
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return _Simplex(sim[0], np.min(fsim), nfev, nfev < maxfev, (sim, fsim))


def _nelder_mead(
    batch: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[np.ndarray],
    xatol: float,
    fatol: float,
    maxfev: int,
) -> list[_Simplex]:
    """Nelder-Mead from every start, in lockstep; one result per start.

    ``batch`` maps a (k, d) block of points to their k values.  Each round
    concatenates the pending points of all unfinished starts into one call.
    """
    runs = [_nelder_mead_start(x0, xatol, fatol, maxfev) for x0 in starts]
    results: list[_Simplex] = [None] * len(runs)  # type: ignore[list-item]
    pending: list[tuple[int, np.ndarray]] = []

    def advance(i: int, values: np.ndarray | None) -> None:
        try:
            pending.append((i, runs[i].send(values)))
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        values = np.asarray(batch(np.concatenate([pts for _, pts in pending])), dtype=float)
        current, pending = pending, []
        offset = 0
        for i, pts in current:
            advance(i, values[offset : offset + len(pts)])
            offset += len(pts)
    return results


def _pointwise(f: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Batch form of a one-point objective: evaluates the rows one by one."""
    return lambda pts: np.array([f(x) for x in pts], dtype=float)


def optimize(spec: SearchSpec) -> SearchResult:
    """Grid scan + multistart Nelder-Mead; deterministic for a fixed seed."""
    sign = _sign(spec)
    pts = _grid_points(spec)
    vals = sign * _evaluate(spec, pts)
    evaluations = len(pts)

    order = np.argsort(vals, kind="stable")
    starts = [pts[i] for i in order[: spec.multistarts]]
    rng = np.random.default_rng(spec.seed)
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    for _ in range(spec.random_starts):
        starts.append(lo + rng.random(spec.dimension) * (hi - lo))

    def fun(x: np.ndarray) -> float:
        return sign * float(spec.objective(np.asarray(x, dtype=float)))

    groups = spec.symmetry_groups if spec.tie_refinement else ()

    def untie(z: np.ndarray) -> np.ndarray:
        """Full point from one value per symmetry group."""
        x = np.empty(spec.dimension)
        for g, group in enumerate(groups):
            x[list(group)] = z[g]
        return x

    if groups:
        refine_starts = [np.array([x0[group[0]] for group in groups]) for x0 in starts]
        objective = _pointwise(lambda z: fun(untie(z)))
    else:
        refine_starts = starts
        objective = _pointwise(fun)
    dim = len(groups) or spec.dimension
    refined = _nelder_mead(objective, refine_starts, spec.tolerance, spec.tolerance ** 2, 400 * dim)

    best_x = pts[order[0]].copy()
    best_v = float(vals[order[0]])
    trace: list[tuple[float, ...]] = []
    for res in refined:
        xr = untie(res.x) if groups else np.asarray(res.x, dtype=float)
        evaluations += int(res.nfev)
        fv = float(res.fun)
        trace.append((sign * fv, *xr))
        if fv < best_v:
            best_v = fv
            best_x = xr
    return SearchResult(best_x, sign * best_v, evaluations, tuple(trace))


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep with an arbitrary per-point evaluator.

    ``evaluate(value, fixed) -> mapping`` produces the record payload for one
    grid point of the swept parameter.
    """

    parameter: str
    values: tuple[float, ...]
    evaluate: Callable[[float, Mapping[str, Any]], Mapping[str, Any]]
    fixed: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.values:
            raise SearchError("sweep range must be nonempty")


@dataclass(frozen=True)
class SweepRecord:
    parameter: str
    value: float
    payload: Mapping[str, Any]


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep grid in order; one record per grid value."""
    return [
        SweepRecord(spec.parameter, float(v), dict(spec.evaluate(v, spec.fixed)))
        for v in spec.values
    ]


def uniform_average(
    objective: Callable[[np.ndarray], float],
    center: Sequence[float],
    width: float,
    samples: int = 21,
    perturbed: Sequence[int] | None = None,
) -> float:
    """Mean of the objective over a tensor grid of jointly perturbed coordinates.

    Each perturbed coordinate ranges over ``samples`` equispaced points on
    [center - width/2, center + width/2]; unperturbed coordinates stay fixed.
    """
    if width < 0:
        raise SearchError("width must be >= 0")
    center = np.asarray(center, dtype=float)
    if width == 0 or samples == 1:
        return float(objective(center))
    if perturbed is None:
        perturbed = list(range(len(center)))
    offsets = np.linspace(-width / 2, width / 2, samples)
    total = 0.0
    count = 0
    for combo in itertools.product(offsets, repeat=len(perturbed)):
        x = center.copy()
        for idx, off in zip(perturbed, combo):
            x[idx] += off
        total += float(objective(x))
        count += 1
    return total / count
