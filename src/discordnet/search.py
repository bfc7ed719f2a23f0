"""Derivative-free optimization over angle vectors, and window averages.

``multistart`` is the package's one refinement entry point: Nelder-Mead from
several starts, returning the first start that reaches the lowest value.
``optimize`` puts a deterministic coarse grid scan in front of it, and the
inner basis searches of ``correlations`` and the short carrier-angle
refinements of ``experiments`` call it directly.  Both evaluate through a
batch function mapping a (k, d) block of points to their k values, and raise
``SearchError`` as soon as a batch returns a non-finite value.

Every Nelder-Mead runs through ``_nelder_mead``: scipy's non-adaptive,
unbounded ``_minimize_neldermead`` rewritten as one generator per start,
advanced in lockstep so that each step evaluates the pending points of all
starts in one batched objective call.  It takes the same steps in the same
order, with the same ``maxfev`` cut, so its results are bit-identical to
``scipy.optimize.minimize(method="Nelder-Mead")`` whenever a batch row equals
the one-point value.

Nothing in this module starts a thread or a process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchSpec:
    """Optimization problem over a small angle vector.

    Give exactly one of ``objective``, which maps a 1-d float array of
    length ``dimension`` to a float, and ``batch``, which maps a (k,
    ``dimension``) block of points to their k values; ``dimension`` and
    ``bounds`` are required.  ``optimize`` hands out whole blocks either
    way, so a batch function can score each block in one pass.
    ``bounds`` only shape the start points: the grid and the random starts
    lie in the box, but the Nelder-Mead refinement is unbounded and may leave
    it, so an objective must accept any finite point (fold angles if needed).
    The grid stage ties all coordinates within each group listed in
    ``symmetry_groups``; the refinement is always unrestricted.
    """

    objective: Callable[[np.ndarray], float] | None = None
    dimension: int = 0
    bounds: tuple[tuple[float, float], ...] = ()
    grid_resolution: int = 13
    multistarts: int = 3
    random_starts: int = 2
    tolerance: float = 1e-7
    maximize: bool = False
    symmetry_groups: tuple[tuple[int, ...], ...] = ()
    seed: int = 0
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.objective is None) == (self.batch is None):
            raise SearchError("give exactly one of objective and batch")
        if self.dimension < 1:
            raise SearchError("dimension must be >= 1")
        if len(self.bounds) != self.dimension:
            raise SearchError("bounds must match dimension")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise SearchError("bounds must be finite with lo < hi")
        if self.grid_resolution < 2:
            raise SearchError("grid resolution must be >= 2")
        if min(self.multistarts, self.random_starts) < 0:
            raise SearchError("multistarts and random_starts must be >= 0")
        if self.multistarts + self.random_starts < 1:
            raise SearchError("need at least one refinement start")


@dataclass(frozen=True)
class SearchResult:
    argopt: np.ndarray
    value: float
    evaluations: int
    converged: bool  # every refinement start stopped on its tolerances


def _grid_points(spec: SearchSpec) -> np.ndarray:
    """Tensor grid over the box, one axis per symmetry group."""
    groups = spec.symmetry_groups or tuple((i,) for i in range(spec.dimension))
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
        values = _finite(batch(np.concatenate([pts for _, pts in pending])))
        current, pending = pending, []
        offset = 0
        for i, pts in current:
            advance(i, values[offset : offset + len(pts)])
            offset += len(pts)
    return results


def _finite(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise SearchError("objective returned a non-finite value")
    return values


def multistart(
    batch: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[np.ndarray],
    xatol: float,
    fatol: float,
    maxfev: int,
) -> SearchResult:
    """Minimize by Nelder-Mead from every start, in lockstep.

    Returns the first start that reaches the lowest value, the evaluations of
    all starts, and whether every start stopped on its tolerances rather
    than on ``maxfev``.  Raises ``SearchError`` when a batch returns a
    non-finite value.
    """
    if len(starts) == 0:
        raise SearchError("multistart needs at least one start")
    runs = _nelder_mead(batch, starts, xatol, fatol, maxfev)
    best = min(runs, key=lambda res: res.fun)
    return SearchResult(
        np.asarray(best.x, dtype=float),
        float(best.fun),
        sum(res.nfev for res in runs),
        all(res.success for res in runs),
    )


def optimize(spec: SearchSpec) -> SearchResult:
    """Grid scan + multistart Nelder-Mead; deterministic for a fixed seed.

    The best grid point is kept unless the refinement is strictly lower.
    """
    sign = -1.0 if spec.maximize else 1.0
    evaluate = spec.batch or (lambda pts: [spec.objective(p) for p in pts])

    def batch(pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(evaluate(pts), dtype=float)
        if vals.shape != (len(pts),):
            raise SearchError(f"batch returned shape {vals.shape} for {len(pts)} points")
        return sign * vals

    pts = _grid_points(spec)
    vals = _finite(batch(pts))

    order = np.argsort(vals, kind="stable")
    starts = [pts[i] for i in order[: spec.multistarts]]
    rng = np.random.default_rng(spec.seed)
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    for _ in range(spec.random_starts):
        starts.append(lo + rng.random(spec.dimension) * (hi - lo))
    refined = multistart(batch, starts, spec.tolerance, spec.tolerance ** 2, 400 * spec.dimension)

    best, value = pts[order[0]].copy(), float(vals[order[0]])
    if refined.value < value:
        best, value = refined.argopt, refined.value
    evaluations = len(pts) + refined.evaluations
    return SearchResult(best, sign * value, evaluations, refined.converged)


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
