import math

import numpy as np
import pytest
from scipy.optimize import minimize

from discordnet import protocol, states
from discordnet.correlations import _DiscordObjective, _GqdObjective
from discordnet.search import (
    SearchError,
    SearchSpec,
    _nelder_mead,
    multistart,
    optimize,
    uniform_average,
)


def quadratic(x):
    return float(np.sum((x - 0.3) ** 2))


def test_quadratic_minimum():
    spec = SearchSpec(objective=quadratic, dimension=2, bounds=((-1, 1), (-1, 1)))
    res = optimize(spec)
    assert abs(res.value) < 1e-10
    assert np.max(np.abs(res.argopt - 0.3)) < 1e-4
    assert res.converged


def test_unbounded_objective_is_not_converged():
    # a linear objective has no minimum: every start runs out of evaluations
    spec = SearchSpec(objective=lambda x: float(x[0] + x[1]), dimension=2,
                      bounds=((-1, 1), (-1, 1)))
    res = optimize(spec)
    assert not res.converged
    assert res.value < -1.0


def test_maximize_flag():
    spec = SearchSpec(
        objective=lambda x: float(np.cos(x[0])),
        dimension=1,
        bounds=((0.5, 2 * math.pi),),
        maximize=True,
    )
    res = optimize(spec)
    # interior maximum at 2*pi is excluded; cos peaks at the lower bound
    assert res.value <= 1.0
    assert res.value >= math.cos(0.5) - 1e-9


def test_symmetric_grid_ties_coordinates():
    seen = []

    def obj(x):
        seen.append(x.copy())
        return float((x[0] - x[1]) ** 2 + (x[0] - 0.5) ** 2)

    spec = SearchSpec(
        objective=obj,
        dimension=2,
        bounds=((0, 1), (0, 1)),
        grid_resolution=5,
        symmetry_groups=((0, 1),),
        multistarts=1,
        random_starts=0,
    )
    res = optimize(spec)
    # grid stage only explores the diagonal: 5 points, not 25
    grid_pts = seen[:5]
    assert all(p[0] == p[1] for p in grid_pts)
    assert abs(res.value) < 1e-8


def test_determinism():
    spec = SearchSpec(
        objective=lambda x: float(np.sin(3 * x[0]) + 0.5 * np.cos(5 * x[1])),
        dimension=2,
        bounds=((0, math.pi), (0, math.pi)),
        random_starts=3,
        seed=7,
    )
    r1, r2 = optimize(spec), optimize(spec)
    assert r1.value == r2.value
    assert np.array_equal(r1.argopt, r2.argopt)


def test_budget_monotonicity():
    def rugged(x):
        return float(np.sin(7 * x[0]) * np.cos(9 * x[1]) + 0.1 * x[0])

    cheap = optimize(
        SearchSpec(rugged, 2, ((0, math.pi), (0, math.pi)), grid_resolution=3,
                   multistarts=1, random_starts=0)
    )
    rich = optimize(
        SearchSpec(rugged, 2, ((0, math.pi), (0, math.pi)), grid_resolution=15,
                   multistarts=4, random_starts=2)
    )
    assert rich.value <= cheap.value + 1e-12


def test_spec_validation():
    with pytest.raises(SearchError):
        SearchSpec(quadratic, 0, ())
    with pytest.raises(SearchError):
        SearchSpec(quadratic, 1, ((1.0, 0.0),))
    with pytest.raises(SearchError):
        SearchSpec(quadratic, 1, ((0.0, 1.0),), grid_resolution=1)
    with pytest.raises(SearchError):
        SearchSpec(quadratic, 2, ((0.0, 1.0),))
    with pytest.raises(SearchError):
        SearchSpec(quadratic, 1, ((0.0, 1.0),), multistarts=0, random_starts=0)
    box = dict(dimension=1, bounds=((0.0, 1.0),))
    with pytest.raises(SearchError, match="exactly one"):
        SearchSpec(**box)
    with pytest.raises(SearchError, match="exactly one"):
        SearchSpec(objective=quadratic, batch=lambda pts: pts[:, 0], **box)
    with pytest.raises(SearchError, match="shape"):
        optimize(SearchSpec(batch=lambda pts: pts, **box))


def test_uniform_average_zero_width():
    f = lambda x: float(x[0] ** 2 + x[1])
    assert uniform_average(f, [0.4, 0.1], 0.0) == f(np.array([0.4, 0.1]))


def test_uniform_average_linear_function():
    # averaging a linear function over a symmetric window returns the center value
    f = lambda x: float(2 * x[0] - 3 * x[1] + 1)
    avg = uniform_average(f, [0.5, 0.2], 0.3, samples=7)
    assert abs(avg - f(np.array([0.5, 0.2]))) < 1e-12


def test_uniform_average_subset_of_coordinates():
    f = lambda x: float(x[0] ** 2 + x[1])
    avg = uniform_average(f, [0.0, 5.0], 1.0, samples=11, perturbed=[0])
    offsets = np.linspace(-0.5, 0.5, 11)
    assert abs(avg - (np.mean(offsets**2) + 5.0)) < 1e-12


# -- the lockstep Nelder-Mead against scipy's, bit for bit --------------------


def _pointwise(f):
    return lambda pts: np.array([f(x) for x in pts], dtype=float)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def cusp(x):
    # a minimum at a cusp: started on it, every contraction fails, so the
    # simplex shrinks within the first few steps
    return float(np.sum(np.sqrt(np.abs(x - 0.3))))


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    d = 2 ** n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return states.DensityMatrix(tuple(f"Q{i}" for i in range(n)), m / np.trace(m))


def _gqd_problem(n):
    obj = _GqdObjective(_random_state(n, 100 + n))
    starts = [np.full(2 * n, 0.7), np.linspace(0.0, 3.0, 2 * n)]
    return lambda x: obj.batch(x[:, :n], x[:, n:]), starts


def _discord_problem():
    obj = _DiscordObjective(protocol.final_state_closed_form(0.9, 0.6, 0.3, 1.1), "M2")
    starts = [np.array([0.4, 0.0]), np.array([2.5, 4.0]), np.array([1.2, 2.2])]
    return lambda x: obj.batch(x[:, :1], x[:, 1:]), starts


PROBLEMS = {
    **{
        f"rosenbrock{d}": (
            _pointwise(rosenbrock),
            [np.linspace(-1.2, 1.0, d), np.zeros(d), np.full(d, 2.0)],
        )
        for d in (2, 3, 4)
    },
    **{
        f"cusp{d}": (_pointwise(cusp), [np.full(d, 0.3), np.ones(d), np.linspace(-1.2, 1.0, d)])
        for d in (3, 4)
    },
    "gqd_n2": _gqd_problem(2),
    "gqd_n3": _gqd_problem(3),
    "discord": _discord_problem(),
}


def _one_point(batch):
    return lambda x: batch(np.asarray(x)[None, :])[0]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_lockstep_nelder_mead_is_scipy_bit_for_bit(name):
    batch, starts = PROBLEMS[name]
    dim = len(starts[0])
    xatol, fatol = 1e-7, 1e-10
    # Cuts in the initial simplex, in reflections, expansions, contractions
    # and shrinks, and one run to convergence.
    for maxfev in [*range(1, 61), 400 * dim]:
        got = _nelder_mead(batch, starts, xatol, fatol, maxfev)
        for x0, res in zip(starts, got):
            want = minimize(
                _one_point(batch), x0, method="Nelder-Mead",
                options={"xatol": xatol, "fatol": fatol, "maxiter": maxfev, "maxfev": maxfev},
            )
            where = f"{name}, start {x0}, maxfev {maxfev}"
            assert np.array_equal(res.x, want.x), where
            assert res.fun == want.fun, where
            assert res.nfev == want.nfev, where
            assert res.success == want.success, where
            for mine, theirs in zip(res.final_simplex, want.final_simplex):
                assert np.array_equal(mine, theirs), where
        # multistart: the first start that reaches the lowest value, the
        # evaluations of all starts, and converged only when every start did
        best = multistart(batch, starts, xatol, fatol, maxfev)
        first = got[int(np.argmin([res.fun for res in got]))]
        assert np.array_equal(best.argopt, first.x) and best.value == first.fun
        assert best.evaluations == sum(res.nfev for res in got)
        assert best.converged == all(res.success for res in got)


def test_lockstep_nelder_mead_without_maxiter_is_scipy():
    # the experiments' short refinements give scipy only maxfev
    for maxfev in range(1, 61):
        (res,) = _nelder_mead(_pointwise(rosenbrock), [np.array([0.9, 0.0, 0.0, 0.0])],
                              1e-4, 1e-8, maxfev)
        want = minimize(rosenbrock, np.array([0.9, 0.0, 0.0, 0.0]), method="Nelder-Mead",
                        options={"xatol": 1e-4, "fatol": 1e-8, "maxfev": maxfev})
        assert np.array_equal(res.x, want.x) and res.fun == want.fun
        assert (res.nfev, res.success) == (want.nfev, want.success)


def test_multistart_keeps_the_first_of_tied_starts():
    # mirrored starts of an even objective take mirrored steps and tie exactly
    even = _pointwise(lambda x: float(np.sum((np.abs(x) - 0.3) ** 2) + 0.1 * x[0] ** 2))
    x0 = np.array([0.9, -0.4])
    for starts in ([x0, -x0], [-x0, x0]):
        runs = _nelder_mead(even, starts, 1e-7, 1e-10, 800)
        assert runs[0].fun == runs[1].fun and not np.array_equal(runs[0].x, runs[1].x)
        best = multistart(even, starts, 1e-7, 1e-10, 800)
        assert np.array_equal(best.argopt, runs[0].x)


def test_objective_batch_rows_equal_one_point_calls():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        obj = _GqdObjective(_random_state(n, n))
        pts = rng.uniform(0.0, 2 * math.pi, size=(24, 2 * n))
        single = [obj.batch(p[:n][None, :], p[n:][None, :])[0] for p in pts]
        for size in range(1, len(pts) + 1):
            rows = obj.batch(pts[:size, :n], pts[:size, n:])
            assert np.array_equal(rows, single[:size]), (n, size)
    obj = _DiscordObjective(_random_state(3, 9), "Q1")
    pts = rng.uniform(0.0, 2 * math.pi, size=(24, 2))
    single = [obj.batch(p[None, :1], p[None, 1:])[0] for p in pts]
    for size in range(1, len(pts) + 1):
        assert np.array_equal(obj.batch(pts[:size, :1], pts[:size, 1:]), single[:size]), size


def test_nonfinite_objective_rejected():
    spec = SearchSpec(lambda x: float("nan"), 1, ((0, 1),))
    with pytest.raises(SearchError):
        optimize(spec)
    # finite on the 5 grid points and NaN everywhere else: the grid passes,
    # the first refinement step does not
    grid = set(np.linspace(0.0, 1.0, 5))
    spec = SearchSpec(lambda x: float(x[0]) if x[0] in grid else math.nan, 1, ((0, 1),),
                      grid_resolution=5)
    with pytest.raises(SearchError, match="non-finite"):
        optimize(spec)
    with pytest.raises(SearchError, match="non-finite"):
        multistart(lambda pts: np.where(pts[:, 0] == 0.4, 0.0, math.inf),
                   [np.array([0.4])], xatol=1e-6, fatol=1e-6, maxfev=100)


def _rugged_batch(pts):
    return np.sin(7 * pts[:, 0]) * np.cos(9 * pts[:, 1]) + 0.1 * pts[:, 0]


@pytest.mark.parametrize("point, batch, options", [
    (quadratic, lambda pts: np.sum((pts - 0.3) ** 2, axis=1),
     dict(dimension=2, bounds=((-1, 1), (-1, 1)))),
    (lambda x: float(_rugged_batch(x[None])[0]), _rugged_batch,
     dict(dimension=2, bounds=((0, math.pi), (0, math.pi)), grid_resolution=3,
          multistarts=1, random_starts=0)),
    (lambda x: float(_rugged_batch(x[None])[0]), _rugged_batch,
     dict(dimension=2, bounds=((0, math.pi), (0, math.pi)), grid_resolution=15,
          multistarts=4, random_starts=2, maximize=True)),
], ids=["quadratic", "rugged_cheap", "rugged_rich_max"])
def test_batch_objective_equals_its_point_form(point, batch, options):
    a = optimize(SearchSpec(objective=point, **options))
    b = optimize(SearchSpec(batch=batch, **options))
    assert np.array_equal(a.argopt, b.argopt)
    assert (a.value, a.evaluations, a.converged) == (b.value, b.evaluations, b.converged)
