"""Stage one of the engine: learn per-instance token embeddings from a single
latent by alternating reward and penalty attention losses.

The loop mirrors the coarse-to-fine recipe: every iteration jointly samples a
nonempty instance subset, noises the clean latent to a random level, and
descends a masked reconstruction loss plus a staged cross-attention loss —
reward (pull each token's attention toward its scaled mask) for the first
``coarse_iters`` iterations, penalty (push attention off everything outside
the mask) afterwards. A final parameter-refinement stage touches only the
value projections. Each stage backpropagates into what it updates and no
further: stage 1 into the embeddings only (no self-attention layer reaches
them, so its backward pass skips every one), stage 2 into the value
projections ``Wv`` only (no softmax backward).

The loop evaluates only the terms it weights. A term whose weight is 0 is
not computed and its trace cell reads nan; with ``lambda_rec = 0`` the
forward pass runs the decoder cross-attention layers alone (the only layers
the attention loss reads) and never reads the noise out, and an iteration
with no active term runs no forward or backward pass at all. Every iteration
still draws its subset, level and noise, so the random stream does not
depend on the weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (CROSS, AttentionRecord, BinaryMask, check_finite_fields, checked_array,
                   gated_layers, mask_at, matched_arrays)
from .denoiser import (
    DenoiserParams,
    NoiseSchedule,
    TokenEmbedding,
    default_params,
    ddim_add_noise,
    forward_cache,
    params_from_workspace,
    readout_eps,
    toy_schedule,
    workspace,
)
from .errors import ConfigurationError, DivergenceError, ShapeError
from .fileio import write_csv
from .gradients import backprop

BRANCH_REWARD = "reward"
BRANCH_PENALTY = "penalty"
BRANCH_STAGE2 = "stage2"


@dataclass(frozen=True)
class InstanceSet:
    """Disjoint instance masks on the latent grid plus their token ids.

    Token ids are column indices into the cross-attention maps; id 0 is
    reserved for the fixed background token.
    """

    masks: "tuple[BinaryMask, ...]"
    placeholder_ids: "tuple[int, ...]"
    # joint_sample's draws by subset code, each built on first use.
    _draws: "dict[int, SampleDraw]" = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = tuple(self.masks)
        ids = tuple(int(i) for i in self.placeholder_ids)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "placeholder_ids", ids)
        if not masks:
            raise ConfigurationError("InstanceSet: need at least one instance")
        if len(masks) != len(ids):
            raise ConfigurationError("InstanceSet: one placeholder id per mask required")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("InstanceSet: duplicate placeholder ids")
        if any(i < 1 for i in ids):
            raise ConfigurationError("InstanceSet: ids must be >= 1 (0 is the background token)")
        extent = (masks[0].height, masks[0].width)
        for m in masks:
            if (m.height, m.width) != extent:
                raise ShapeError("InstanceSet: masks must share extents")
            if m.is_empty():
                raise ConfigurationError("InstanceSet: empty instance mask")
        for a in range(len(masks)):
            for b in range(a + 1, len(masks)):
                if masks[a].intersects(masks[b]):
                    raise ConfigurationError(
                        f"InstanceSet: masks {a} and {b} overlap"
                    )

    @property
    def count(self) -> int:
        return len(self.masks)

    @property
    def extent(self) -> "tuple[int, int]":
        return (self.masks[0].height, self.masks[0].width)


@dataclass(frozen=True)
class SampleDraw:
    """A jointly sampled instance subset and its union reconstruction mask."""

    instance_indices: "tuple[int, ...]"
    m_rec: BinaryMask

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.instance_indices))
        object.__setattr__(self, "instance_indices", idx)
        if not idx:
            raise ConfigurationError("SampleDraw: subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise ConfigurationError("SampleDraw: duplicate instance indices")


def joint_sample(instances: InstanceSet, rng: np.random.Generator) -> SampleDraw:
    """Draw a uniformly random nonempty subset of instances.

    All 2^N - 1 subsets are equally likely; the reconstruction mask is the
    union of the drawn instances' masks. Each subset's draw is built once per
    instance set and returned again when the subset recurs.
    """
    n = instances.count
    if n > 62:
        raise ConfigurationError("joint_sample: more than 62 instances unsupported")
    code = int(rng.integers(1, (1 << n)))
    draw = instances._draws.get(code)
    if draw is None:
        chosen = tuple(i for i in range(n) if code >> i & 1)
        m_rec = BinaryMask.union([instances.masks[i] for i in chosen])
        draw = instances._draws[code] = SampleDraw(chosen, m_rec)
    return draw


@dataclass
class LearningConfig:
    """Scalars steering the embedding-learning loop."""

    alpha: float = 0.5            # mask scale inside the reward loss
    lambda_rec: float = 1.0
    lambda_attn: float = 0.01
    total_iters: int = 1200
    stage1_iters: int = 800       # embedding-only iterations
    coarse_iters: int = 200       # reward->penalty switch point
    t_max_attn: int = 35          # attention loss active for t <= this level
    t_min_attn: int = 0
    learn_rate: float = 5e-3
    stage2_rate: float = 2e-6     # value-projection refinement rate
    seed: int = 0

    def validate(self) -> None:
        check_finite_fields(self)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha: must lie in (0, 1]")
        # Written so that nan fails too: a nan weight would otherwise read
        # as a zero weight, whose term the loop does not evaluate.
        if not (self.lambda_rec >= 0.0 and self.lambda_attn >= 0.0):
            raise ConfigurationError("lambda_rec/lambda_attn: must be >= 0")
        if not 0 <= self.coarse_iters <= self.stage1_iters <= self.total_iters:
            raise ConfigurationError(
                "iteration counts must satisfy 0 <= coarse_iters <= stage1_iters <= total_iters"
            )
        if self.total_iters < 1:
            raise ConfigurationError("total_iters: must be >= 1")
        if self.t_min_attn < 0 or self.t_max_attn < self.t_min_attn:
            raise ConfigurationError("need 0 <= t_min_attn <= t_max_attn")
        if not self.learn_rate > 0.0:
            raise ConfigurationError("learn_rate: must be > 0")
        if not self.stage2_rate > 0.0:
            raise ConfigurationError(
                "stage2_rate: must be > 0 (stage1_iters = total_iters skips stage 2)")
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")


def _gated_masks(layers, masks) -> "dict[int, list[np.ndarray]]":
    """Per decoder cross-attention layer index: the flat instance masks at
    that layer's resolution."""
    return {li: [mask_at(m, layers[li].height, layers[li].width).flat()
                 for m in masks]
            for li in gated_layers(layers, CROSS)}


def _attn_branch(iteration: int, config: LearningConfig) -> str:
    """Reward while iteration < coarse_iters, penalty afterwards."""
    return BRANCH_REWARD if iteration < config.coarse_iters else BRANCH_PENALTY


def _record_ca_loss(instances: InstanceSet, draw: SampleDraw,
                    record: AttentionRecord, branch: str, alpha: float) -> float:
    """The loop's attention loss on a record's maps, after checking that
    every sampled token has a column in each gated layer."""
    record.token_layers([instances.placeholder_ids[i] for i in draw.instance_indices])
    gated_masks = _gated_masks(record.layers, instances.masks)
    return _attn_loss_and_grad(record.maps(), gated_masks, instances, draw,
                               branch, alpha)[0]


def reward_ca_loss(instances: InstanceSet, draw: SampleDraw,
                   record: AttentionRecord, alpha: float) -> float:
    """Sum over sampled instances and gated cross-attention layers of
    ||alpha * M_i - A_i||^2, where A_i is the instance token's column."""
    return _record_ca_loss(instances, draw, record, BRANCH_REWARD, alpha)


def penalty_ca_loss(instances: InstanceSet, draw: SampleDraw,
                    record: AttentionRecord) -> float:
    """Sum over sampled instances and gated cross-attention layers of
    ||(1 - M_i) * A_i||^2: squared attention mass leaking off each mask."""
    return _record_ca_loss(instances, draw, record, BRANCH_PENALTY, 0.0)


def staged_attn_loss(instances: InstanceSet, draw: SampleDraw,
                     record: AttentionRecord, iteration: int,
                     config: LearningConfig) -> float:
    """Reward loss while iteration < coarse_iters, penalty loss afterwards."""
    if iteration < 0:
        raise ConfigurationError("iteration must be >= 0")
    return _record_ca_loss(instances, draw, record, _attn_branch(iteration, config),
                           config.alpha)


def _rec_loss_and_grad(eps: np.ndarray, eps_hat: np.ndarray, m_rec: BinaryMask,
                       with_grad: bool = True) -> "tuple[float, np.ndarray | None]":
    """||M * eps - M * eps_hat||^2 and, if with_grad, its gradient with
    respect to eps_hat (None otherwise)."""
    m3 = m_rec.bits.astype(np.float64)[:, :, None]
    loss = float(((m3 * (eps - eps_hat)) ** 2).sum())
    return loss, (2.0 * m3 * (eps_hat - eps) if with_grad else None)


def masked_reconstruction_loss(eps: np.ndarray, eps_hat: np.ndarray,
                               m_rec: BinaryMask) -> float:
    """||M * eps - M * eps_hat||^2 with the mask broadcast over channels."""
    eps, eps_hat = matched_arrays(eps, eps_hat, "eps", "eps_hat")
    if eps.shape[:2] != (m_rec.height, m_rec.width):
        raise ShapeError(
            f"mask extent {m_rec.height}x{m_rec.width} does not match grid {eps.shape[:2]}"
        )
    return _rec_loss_and_grad(eps, eps_hat, m_rec, with_grad=False)[0]


def total_learning_loss(rec_loss: float, attn_loss: float,
                        config: LearningConfig) -> float:
    """lambda_rec * reconstruction + lambda_attn * staged attention, summed
    over the weighted terms only: a zero-weighted term is not evaluated (its
    loss reads nan) and adds nothing."""
    total = 0.0
    for weight, loss in ((config.lambda_rec, rec_loss), (config.lambda_attn, attn_loss)):
        if weight > 0.0:
            total += weight * loss
    return total


@dataclass(frozen=True)
class TraceRow:
    """One iteration's losses. A term whose weight is 0 is not evaluated
    and reads nan; a weighted attention term reads 0 on an iteration outside
    its window or in stage 2. ``total`` sums the weighted terms."""

    iteration: int
    branch: str      # reward | penalty | stage2
    rec_loss: float
    attn_loss: float
    total: float


TRACE_HEADER = ("iteration", "branch", "rec_loss", "attn_loss", "total")


def write_trace_csv(trace: "list[TraceRow]", path: str) -> None:
    write_csv(path, TRACE_HEADER,
              [(r.iteration, r.branch, r.rec_loss, r.attn_loss, r.total) for r in trace])


@dataclass
class LearningResult:
    tokens: "list[TokenEmbedding]"
    params: DenoiserParams
    schedule: NoiseSchedule
    trace: "list[TraceRow]" = field(default_factory=list)
    embedding_matrix: np.ndarray | None = None
    emb_at_coarse_end: np.ndarray | None = None


def _attn_loss_and_grad(maps, gated_masks, instances, draw, branch, alpha):
    """Loss value and per-layer dL/dA for the staged attention loss.

    maps holds every layer's attention weights in layer order; gated_masks
    maps layer index -> per-instance flat masks at that layer's resolution
    (decoder cross-attention layers only, see _gated_masks).
    """
    loss = 0.0
    d_attn: "list[np.ndarray | None]" = [None] * len(maps)
    for li, flat_masks in gated_masks.items():
        attn = maps[li]
        grad = np.zeros_like(attn)
        for i in draw.instance_indices:
            token = instances.placeholder_ids[i]
            m = flat_masks[i]
            col = attn[:, token]
            if branch == BRANCH_REWARD:
                diff = col - alpha * m
                loss += float((diff ** 2).sum())
                grad[:, token] += 2.0 * diff
            else:
                off = (1.0 - m) * col
                loss += float((off ** 2).sum())
                grad[:, token] += 2.0 * (1.0 - m) * off
        d_attn[li] = grad
    return loss, d_attn


def run_semantic_learning(scenario, config: LearningConfig,
                          schedule: NoiseSchedule | None = None,
                          params: DenoiserParams | None = None) -> LearningResult:
    """Learn instance embeddings from a scenario's clean latent.

    The scenario supplies the clean latent grid (``z0``), instance masks and
    token ids (``instance_set()``), and the channel width (``dim``). By
    default the denoiser weights are drawn from ``config.seed``; pass
    ``params`` to hold them fixed while the embedding init and sampling
    stream vary (the usual setup for seed-sensitivity comparisons). Returns
    the learned tokens, the (value-refined) denoiser parameters, and the full
    per-iteration loss trace. Raises DivergenceError naming the iteration if
    the weighted loss or an updated embedding or value weight goes
    non-finite.
    """
    config.validate()
    instances = scenario.instance_set()
    z0 = checked_array(scenario.z0, "scenario.z0", ndim=3)
    height, width, dim = z0.shape
    if (height, width) != instances.extent:
        raise ShapeError("instance masks must live on the latent grid")
    if schedule is None:
        schedule = toy_schedule()
    if schedule.total_steps <= config.t_max_attn:
        raise ConfigurationError(
            f"t_max_attn {config.t_max_attn} outside schedule ({schedule.total_steps} levels)"
        )

    if params is None:
        params = default_params(dim, height, width, seed=config.seed)
    elif (params.dim != dim
          or any(height % ls.height or width % ls.width for ls in params.layers)):
        raise ShapeError("params do not fit the scenario's latent grid")
    layers = workspace(params)
    rng = np.random.default_rng(config.seed)

    n_tokens = max(instances.placeholder_ids) + 1
    emb = np.zeros((n_tokens, dim))
    learnable = list(instances.placeholder_ids)
    for pid in learnable:
        emb[pid] = rng.normal(0.0, 0.02, size=dim)

    rec_active = config.lambda_rec > 0.0
    attn_active = config.lambda_attn > 0.0
    # Only the readout reads the encoder and self-attention layers, so
    # without the reconstruction term the forward pass runs the decoder
    # cross-attention layers alone; masks are keyed by position in that list.
    run_layers = layers if rec_active else [layers[i] for i in gated_layers(layers, CROSS)]
    gated_masks = _gated_masks(run_layers, instances.masks)

    trace: "list[TraceRow]" = []
    emb_at_coarse_end: np.ndarray | None = None

    for e in range(config.total_iters):
        if e == config.coarse_iters:
            emb_at_coarse_end = emb.copy()
        stage2 = e >= config.stage1_iters
        branch = BRANCH_STAGE2 if stage2 else _attn_branch(e, config)

        # Drawn on every iteration, evaluated or not, so that the random
        # stream does not depend on the weights.
        draw = joint_sample(instances, rng)
        t = int(rng.integers(0, schedule.total_steps))
        eps = rng.standard_normal(z0.shape)

        # A zero-weighted term is not evaluated and reads nan; a weighted
        # attention term outside its window or in stage 2 reads 0.
        rec = np.nan
        attn = 0.0 if attn_active else np.nan
        attn_now = attn_active and not stage2 and config.t_min_attn <= t <= config.t_max_attn
        d_eps = d_attn = None
        if rec_active or attn_now:
            cache = forward_cache(ddim_add_noise(z0, eps, t, schedule), emb, run_layers)
            if rec_active:
                rec, d_eps = _rec_loss_and_grad(eps, readout_eps(cache, cache.maps()),
                                                draw.m_rec)
                d_eps = config.lambda_rec * d_eps
            if attn_now:
                attn, grads = _attn_loss_and_grad(
                    cache.maps(), gated_masks, instances,
                    draw, branch, config.alpha,
                )
                d_attn = [None if g is None else config.lambda_attn * g
                          for g in grads]

        total = total_learning_loss(rec, attn, config)
        if not np.isfinite(total):
            raise DivergenceError(
                f"loss became non-finite at iteration {e} (branch {branch})"
            )

        # With no active term there is no gradient, so no backprop or update.
        if d_attn is not None or d_eps is not None:
            res = backprop(cache, d_attn=d_attn, d_eps=d_eps,
                           wrt=("wv",) if stage2 else ("emb",))
            if not stage2:
                for pid in learnable:
                    emb[pid] -= config.learn_rate * res.d_emb[pid]
                updated = [emb]
            else:
                for lw, d_wv in zip(run_layers, res.d_wv):
                    lw.wv -= config.stage2_rate * d_wv
                updated = [lw.wv for lw in run_layers]
            if not all(np.isfinite(a).all() for a in updated):
                raise DivergenceError(
                    f"{'value weights' if stage2 else 'embeddings'} became non-finite "
                    f"at iteration {e} (branch {branch})"
                )

        trace.append(TraceRow(e, branch, rec, attn, total))

    if emb_at_coarse_end is None and config.coarse_iters >= config.total_iters:
        emb_at_coarse_end = emb.copy()

    tokens = [
        TokenEmbedding(i, emb[i], learnable=i in instances.placeholder_ids)
        for i in range(n_tokens)
    ]
    return LearningResult(
        tokens=tokens,
        params=params_from_workspace(dim, layers),
        schedule=schedule,
        trace=trace,
        embedding_matrix=emb.copy(),
        emb_at_coarse_end=emb_at_coarse_end,
    )
