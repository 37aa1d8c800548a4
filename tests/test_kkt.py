"""Simplex projection, closed-form per-pixel optima, and the projected
descent that must agree with them."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from attnctl.errors import ConfigurationError, DivergenceError, ShapeError
from attnctl.kkt import (
    PixelAttentionProblem,
    oracle_report,
    penalty_loss,
    penalty_optimum,
    projected_descent,
    reward_loss,
    reward_stationary_point,
    simplex_project,
    standard_problem,
)


# ---------------------------------------------------------------------------
# Simplex projection
# ---------------------------------------------------------------------------

def test_simplex_project_hand_cases():
    assert np.allclose(simplex_project([2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(simplex_project([1.0, 1.0]), [0.5, 0.5])
    assert np.allclose(simplex_project([0.25, 0.75]), [0.25, 0.75])
    # Shift from (0, 0.5, 0): add 1/6 everywhere to reach the simplex.
    assert np.allclose(simplex_project([0.0, 0.5, 0.0]),
                       [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])


def test_simplex_project_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(0.0, 3.0, size=rng.integers(1, 8))
        p = simplex_project(v)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(simplex_project(p), p, atol=1e-12)


# Seeded: each run draws the same examples and writes no example database.
_seeded = settings(derandomize=True, database=None, deadline=None, max_examples=200)
_vectors = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(np.array)


def ref_simplex_project(v):
    """Sort-based projection (Duchi et al. 2008), one rank at a time: theta
    is the shift at the largest rank j whose j-th largest entry exceeds
    (sum of the j largest - 1) / j."""
    u = sorted(v, reverse=True)
    theta, total = 0.0, 0.0
    for j, uj in enumerate(u, start=1):
        total += uj
        if uj > (total - 1.0) / j:
            theta = (total - 1.0) / j
    return np.maximum(np.asarray(v) - theta, 0.0)


@_seeded
@given(_vectors)
def test_simplex_project_lands_on_simplex(v):
    p = simplex_project(v)
    assert p.shape == v.shape
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


@_seeded
@given(_vectors)
def test_simplex_project_is_idempotent(v):
    p = simplex_project(v)
    assert np.allclose(simplex_project(p), p, rtol=0.0, atol=1e-12)


@_seeded
@given(_vectors)
def test_simplex_project_matches_sort_reference(v):
    assert np.allclose(simplex_project(v), ref_simplex_project(v), rtol=0.0, atol=1e-9)


def test_simplex_project_matches_slsqp():
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.normal(0.0, 2.0, size=4)
        res = minimize(
            lambda x: ((x - v) ** 2).sum(),
            x0=np.full(4, 0.25),
            jac=lambda x: 2.0 * (x - v),
            method="SLSQP",
            bounds=[(0.0, None)] * 4,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
        )
        assert res.success
        assert np.allclose(simplex_project(v), res.x, atol=1e-6)


def test_simplex_project_validation():
    with pytest.raises(ShapeError):
        simplex_project(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        simplex_project([])
    with pytest.raises(ValueError):
        simplex_project([1.0, np.nan])


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ShapeError):
        PixelAttentionProblem(np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        PixelAttentionProblem(np.full((2, 2), 0.5), 0.5)
    with pytest.raises(ValueError):
        PixelAttentionProblem(np.ones((1, 2)), 0.5)  # pixel in two instances
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigurationError):
            PixelAttentionProblem(np.eye(2), alpha)


def test_standard_problem_layout():
    problem = standard_problem(3, 0.5)
    assert problem.n_pixels == 4 and problem.k == 3
    assert np.array_equal(problem.masks[:3], np.eye(3))
    assert np.all(problem.masks[3] == 0.0)
    assert np.array_equal(problem.own_token(), [1, 2, 3, 0])
    targets = problem.targets()
    assert np.all(targets[:, 0] == 0.0)
    assert targets[0, 1] == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        standard_problem(0, 0.5)


# ---------------------------------------------------------------------------
# Closed-form optima
# ---------------------------------------------------------------------------

def test_reward_costed_hand_solution():
    problem = standard_problem(2, 0.5)
    sol = reward_stationary_point(problem, "costed")
    # Instance pixel: projection of (0, 0.5, 0) adds 1/6 to every coordinate.
    assert np.allclose(sol.dist[0], [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    assert sol.multipliers[0] == pytest.approx(-1.0 / 3.0)
    # Background pixel: projection of the origin is uniform.
    assert np.allclose(sol.dist[2], [1.0 / 3.0] * 3)
    assert sol.multipliers[2] == pytest.approx(-2.0 / 3.0)
    assert sol.feasible.all()
    # Stationarity: the negative gradient has equal components on the support,
    # matching the shared multiplier.
    grad = 2.0 * (sol.dist[0] - problem.targets()[0])
    assert np.allclose(grad, -sol.multipliers[0])


def test_reward_free_hand_solution():
    problem = standard_problem(2, 0.5)
    sol = reward_stationary_point(problem, "free")
    assert np.allclose(sol.dist[0], [0.5, 0.5, 0.0])
    assert np.allclose(sol.dist[2], [1.0, 0.0, 0.0])
    assert np.all(sol.multipliers == 0.0)
    assert sol.feasible.all()
    with pytest.raises(ConfigurationError):
        reward_stationary_point(problem, "banana")


def test_penalty_optimum_is_one_hot():
    problem = standard_problem(2, 0.5)
    opt = penalty_optimum(problem)
    assert np.array_equal(opt, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert penalty_loss(problem, opt) == 0.0


def test_loss_values_at_uniform():
    problem = standard_problem(2, 0.5)
    uniform = np.full((3, 3), 1.0 / 3.0)
    # Per instance pixel: (1/3)^2 + (1/3 - 1/2)^2 + (1/3)^2 = 1/4.
    assert reward_loss(problem, uniform) == pytest.approx(0.25 + 0.25 + 1.0 / 3.0)
    # Two penalized coordinates per pixel, each (1/3)^2.
    assert penalty_loss(problem, uniform) == pytest.approx(3 * 2.0 / 9.0)
    free = reward_loss(problem, uniform, "free")
    assert free == pytest.approx(2 * (1.0 / 36.0 + 1.0 / 9.0) + 2.0 / 9.0)
    with pytest.raises(ShapeError):
        reward_loss(problem, np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        penalty_loss(problem, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Projected descent
# ---------------------------------------------------------------------------

def test_descent_reaches_reward_optimum():
    problem = standard_problem(2, 0.5)
    sol = reward_stationary_point(problem, "costed")
    rng = np.random.default_rng(1)
    for _ in range(10):
        init = rng.dirichlet(np.ones(3), size=3)
        res = projected_descent(problem, "reward", init=init)
        assert res.converged
        assert np.max(np.abs(res.dist - sol.dist)) <= 1e-6


def test_descent_reaches_penalty_optimum():
    # At k = 32 the penalty descent needs hundreds of iterations, so a cut
    # to DESCENT_MAX_ITER stops it unconverged.
    for k in (1, 2, 4, 32):
        problem = standard_problem(k, 0.5)
        opt = penalty_optimum(problem)
        rng = np.random.default_rng(k)
        for _ in range(5):
            init = rng.dirichlet(np.ones(k + 1), size=k + 1)
            res = projected_descent(problem, "penalty", init=init)
            assert res.converged
            assert np.max(np.abs(res.dist - opt)) <= 1e-6


def test_descent_losses_nonincreasing():
    problem = standard_problem(3, 0.8)
    res = projected_descent(problem, "reward", seed=7)
    assert all(a >= b - 1e-12 for a, b in zip(res.losses, res.losses[1:]))
    assert len(res.losses) == res.n_iter + 1


def test_descent_free_variant():
    problem = standard_problem(2, 0.5)
    sol = reward_stationary_point(problem, "free")
    res = projected_descent(problem, "reward", variant="free", seed=3)
    assert np.max(np.abs(res.dist - sol.dist)) <= 1e-6


def test_descent_validation():
    problem = standard_problem(2, 0.5)
    with pytest.raises(ConfigurationError):
        projected_descent(problem, "sideways")
    with pytest.raises(ConfigurationError):
        projected_descent(problem, "reward", step=0.0)
    with pytest.raises(ShapeError):
        projected_descent(problem, "reward", init=np.zeros((2, 3)))
    with pytest.raises(ConfigurationError):
        projected_descent(problem, "reward", variant="banana")


def test_descent_oversized_step_diverges():
    # Start just off the interior stationary point with a step beyond the
    # stability bound; the deviation grows 1.2x per iteration, so the loss
    # rises every step until the abort fires.
    problem = standard_problem(2, 0.5)
    sol = reward_stationary_point(problem, "costed")
    init = sol.dist + np.array([[1e-6, -5e-7, -5e-7]] * 3)
    with pytest.raises(DivergenceError):
        projected_descent(problem, "reward", init=init, step=1.1)


# ---------------------------------------------------------------------------
# Oracle report
# ---------------------------------------------------------------------------

def test_oracle_report_contents():
    report = oracle_report(2, 0.5, n_inits=5)
    # JSON-serializable end to end.
    round_trip = json.loads(json.dumps(report))
    inst = round_trip["reward"]["instance_pixel"]
    assert inst["background"] == pytest.approx(1.0 / 6.0)
    assert inst["target"] == pytest.approx(2.0 / 3.0)
    assert inst["off_target"] == pytest.approx(1.0 / 6.0)
    assert inst["multiplier"] == pytest.approx(-1.0 / 3.0)
    assert round_trip["reward"]["descent_max_dev"] <= 1e-5
    assert round_trip["penalty"]["descent_max_dev"] <= 1e-5
    pen = np.array(round_trip["penalty"]["analytic"])
    assert np.array_equal(pen, penalty_optimum(standard_problem(2, 0.5)))


def test_oracle_report_single_instance():
    report = oracle_report(1, 1.0, n_inits=3)
    assert report["reward"]["instance_pixel"]["off_target"] is None
    assert math.isclose(report["reward"]["instance_pixel"]["target"], 1.0)
