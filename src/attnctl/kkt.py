"""Closed-form optima for the per-pixel attention objectives, plus a projected
gradient descent that must land on them.

The abstraction: one pixel holds a probability vector over K + 1 attention
targets — coordinate 0 is the null/background token, coordinates 1..K the
instance tokens. The reward objective pulls the vector toward alpha-scaled
mask memberships; the penalty objective pushes mass off every coordinate
except the pixel's own token. Stationary points follow from the simplex KKT
conditions; the numerical descent exists to confirm them independently.

Two reward variants:
  - "costed": the null coordinate carries quadratic cost like the others; the
    stationary point is the Euclidean simplex projection of the target vector
    and the shared multiplier is 2*theta (the projection shift), which reduces
    to (2*alpha*S - 2)/(K+1) whenever the projection stays interior.
  - "free": the null coordinate is uncosted; the literal stationary point sets
    a_i = alpha*m_i and dumps the remainder on the null coordinate, with
    multiplier 0. It leaves the simplex when alpha*S > 1 (flagged infeasible).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import checked_array, frozen_array
from .errors import ConfigurationError, DivergenceError, ShapeError

REWARD_VARIANTS = ("costed", "free")
DESCENT_MAX_ITER = 5000
DESCENT_TOL = 1e-12     # converged once no coordinate moves by more
# The largest instance count of ``standard_problem``: its arrays are
# (k + 1) x (k + 1) floats, about 8 MB each at the bound.
ORACLE_MAX_K = 1024


@dataclass(frozen=True)
class PixelAttentionProblem:
    """Per-pixel mask memberships (n_pixels x K binary) and the reward scale.

    Each pixel belongs to at most one instance (row sums are 0 or 1); a zero
    row is a background pixel.
    """

    masks: np.ndarray
    alpha: float

    def __post_init__(self):
        m = frozen_array(self.masks, "masks", ndim=2)
        if not np.all((m == 0.0) | (m == 1.0)):
            raise ValueError("masks: entries must be 0 or 1")
        if np.any(m.sum(axis=1) > 1.0):
            raise ValueError("masks: each pixel belongs to at most one instance")
        if not 0.0 < float(self.alpha) <= 1.0:
            raise ConfigurationError("alpha: must lie in (0, 1]")
        object.__setattr__(self, "masks", m)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def n_pixels(self) -> int:
        return self.masks.shape[0]

    @property
    def k(self) -> int:
        return self.masks.shape[1]

    def targets(self) -> np.ndarray:
        """Reward pull targets (n, K+1): zero for the null coordinate,
        alpha-scaled memberships for the instance coordinates."""
        c = np.zeros((self.n_pixels, self.k + 1))
        c[:, 1:] = self.alpha * self.masks
        return c

    def own_token(self) -> np.ndarray:
        """Each pixel's own coordinate: its instance token, or 0 for
        background pixels."""
        own = np.zeros(self.n_pixels, dtype=np.int64)
        rows, cols = np.nonzero(self.masks)
        own[rows] = cols + 1
        return own


def _project_rows(v: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Euclidean projection of each row onto the probability simplex.

    Returns (projection, theta) with projection = max(v - theta, 0); the
    classic sort/cumulative-sum construction.
    """
    n, d = v.shape
    u = np.sort(v, axis=1)[:, ::-1]  # descending
    shifts = (u.cumsum(axis=1) - 1.0) / np.arange(1.0, d + 1.0)  # candidate theta per rank
    # theta is the shift at the last rank where u > shift; searching the
    # reversed rows finds it as the first
    last = (u > shifts)[:, ::-1].argmax(axis=1)
    theta = shifts[:, ::-1][np.arange(n), last]
    return np.maximum(v - theta[:, None], 0.0), theta


def simplex_project(v) -> np.ndarray:
    """Project one vector onto the probability simplex."""
    v = checked_array(v, "v", ndim=1)
    out, _ = _project_rows(v[None, :])
    return out[0]


@dataclass
class RewardSolution:
    dist: np.ndarray          # (n, K+1) stationary distributions
    multipliers: np.ndarray   # (n,) equality multipliers
    feasible: np.ndarray      # (n,) bool; always True for "costed"
    variant: str


def reward_stationary_point(problem: PixelAttentionProblem,
                            variant: str = "costed") -> RewardSolution:
    """Closed-form stationary point of the reward objective per pixel."""
    _check_variant(variant)
    c = problem.targets()
    s = problem.masks.sum(axis=1)
    if variant == "costed":
        dist, theta = _project_rows(c)
        return RewardSolution(dist=dist, multipliers=2.0 * theta,
                              feasible=np.ones(problem.n_pixels, dtype=bool),
                              variant=variant)
    dist = c.copy()
    dist[:, 0] = 1.0 - problem.alpha * s
    feasible = problem.alpha * s <= 1.0
    return RewardSolution(dist=dist, multipliers=np.zeros(problem.n_pixels),
                          feasible=feasible, variant=variant)


def penalty_optimum(problem: PixelAttentionProblem) -> np.ndarray:
    """One-hot optimum of the penalty objective: all mass on each pixel's own
    token. Unique because every other coordinate carries quadratic cost."""
    own = problem.own_token()
    dist = np.zeros((problem.n_pixels, problem.k + 1))
    dist[np.arange(problem.n_pixels), own] = 1.0
    return dist


def reward_loss(problem: PixelAttentionProblem, dist: np.ndarray,
                variant: str = "costed") -> float:
    _check_dist(problem, dist)
    return _objective(problem, "reward", variant)[0](dist)


def penalty_loss(problem: PixelAttentionProblem, dist: np.ndarray) -> float:
    _check_dist(problem, dist)
    return _objective(problem, "penalty", None)[0](dist)


def _check_variant(variant: str) -> None:
    if variant not in REWARD_VARIANTS:
        raise ConfigurationError(f"variant must be one of {REWARD_VARIANTS}")


def _objective(problem: PixelAttentionProblem, objective: str, variant):
    """Value and gradient functions of the reward (``variant`` costed or free)
    or of the penalty (no variant) over all pixels' distributions."""
    if objective == "penalty":
        pen = _penalized_selector(problem)
        pen2 = 2.0 * pen
        return (lambda x: float(((x * pen) ** 2).sum())), (lambda x: pen2 * x)
    _check_variant(variant)
    c = problem.targets()
    if variant == "costed":
        return (lambda x: float(((x - c) ** 2).sum())), (lambda x: 2.0 * (x - c))

    def free_grad(x):  # the null coordinate is uncosted
        g = 2.0 * (x - c)
        g[:, 0] = 0.0
        return g
    return (lambda x: float(((x[:, 1:] - c[:, 1:]) ** 2).sum())), free_grad


def _check_dist(problem: PixelAttentionProblem, dist: np.ndarray) -> None:
    dist = np.asarray(dist)
    if dist.shape != (problem.n_pixels, problem.k + 1):
        raise ShapeError(
            f"dist shape {dist.shape} != ({problem.n_pixels}, {problem.k + 1})"
        )


def _penalized_selector(problem: PixelAttentionProblem) -> np.ndarray:
    """1.0 on penalized coordinates (everything but the pixel's own token)."""
    own = problem.own_token()
    pen = np.ones((problem.n_pixels, problem.k + 1))
    pen[np.arange(problem.n_pixels), own] = 0.0
    return pen


@dataclass
class DescentResult:
    dist: np.ndarray
    losses: "list[float]"
    n_iter: int
    converged: bool


def projected_descent(problem: PixelAttentionProblem, objective: str,
                      init: np.ndarray | None = None,
                      variant: str = "costed", step: float = 0.5,
                      seed: int = 0) -> DescentResult:
    """Projected gradient descent on the simplex, all pixels in parallel.

    objective: "reward" or "penalty". Both objectives are 2-smooth, so the
    default step is 1/L = 0.5. Aborts with DivergenceError if the loss rises
    for 10 consecutive iterations (step too large).
    """
    if objective not in ("reward", "penalty"):
        raise ConfigurationError("objective must be 'reward' or 'penalty'")
    if step <= 0.0:
        raise ConfigurationError("step: must be > 0")
    n, d = problem.n_pixels, problem.k + 1
    if init is None:
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(d), size=n)
    else:
        a = np.asarray(init, dtype=np.float64).copy()
        if a.shape != (n, d):
            raise ShapeError(f"init shape {a.shape} != ({n}, {d})")
        a, _ = _project_rows(a)

    value, grad = _objective(problem, objective, variant)
    losses = [value(a)]
    rising = 0
    converged = False
    n_iter = 0
    for n_iter in range(1, DESCENT_MAX_ITER + 1):
        new, _ = _project_rows(a - step * grad(a))
        loss = value(new)
        if loss > losses[-1]:
            rising += 1
            if rising >= 10:
                raise DivergenceError(
                    f"loss rose for {rising} consecutive iterations "
                    f"(step {step} too large)"
                )
        else:
            rising = 0
        delta = float(np.abs(new - a).max())
        a = new
        losses.append(loss)
        if delta <= DESCENT_TOL:
            converged = True
            break
    return DescentResult(dist=a, losses=losses, n_iter=n_iter, converged=converged)


def standard_problem(k: int, alpha: float) -> PixelAttentionProblem:
    """K single-instance pixels (pixel i belongs to instance i+1) plus one
    background pixel — the configuration the oracle report is built on."""
    if not 1 <= k <= ORACLE_MAX_K:
        raise ConfigurationError(f"k: must lie in [1, {ORACLE_MAX_K}], got {k}")
    masks = np.zeros((k + 1, k))
    masks[np.arange(k), np.arange(k)] = 1.0
    return PixelAttentionProblem(masks, alpha)


def oracle_report(k: int, alpha: float, variant: str = "costed",
                  seed: int = 0, n_inits: int = 20) -> dict:
    """Analytic optima plus descent agreement, as a JSON-ready dict."""
    problem = standard_problem(k, alpha)
    reward = reward_stationary_point(problem, variant)
    pen_opt = penalty_optimum(problem)

    rng = np.random.default_rng(seed)
    reward_dev = 0.0
    penalty_dev = 0.0
    for _ in range(n_inits):
        init = rng.dirichlet(np.ones(k + 1), size=problem.n_pixels)
        if variant == "costed" or bool(np.all(reward.feasible)):
            res = projected_descent(problem, "reward", init=init, variant=variant)
            reward_dev = max(reward_dev,
                             float(np.max(np.abs(res.dist - reward.dist))))
        res = projected_descent(problem, "penalty", init=init)
        penalty_dev = max(penalty_dev,
                          float(np.max(np.abs(res.dist - pen_opt))))

    inst = reward.dist[0]
    report = {
        "k": k,
        "alpha": alpha,
        "variant": variant,
        "seed": seed,
        "inits": n_inits,
        "reward": {
            "analytic": [[float(v) for v in row] for row in reward.dist],
            "multipliers": [float(v) for v in reward.multipliers],
            "feasible": [bool(v) for v in reward.feasible],
            "descent_max_dev": reward_dev,
            "instance_pixel": {
                "background": float(inst[0]),
                "target": float(inst[1]),
                "off_target": float(inst[2]) if k >= 2 else None,
                "multiplier": float(reward.multipliers[0]),
            },
        },
        "penalty": {
            "analytic": [[float(v) for v in row] for row in pen_opt],
            "descent_max_dev": penalty_dev,
        },
    }
    return report
