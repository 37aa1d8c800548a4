"""Stage one of the engine: learn per-instance token embeddings from a single
latent by alternating reward and penalty attention losses.

The loop mirrors the coarse-to-fine recipe: every iteration jointly samples a
nonempty instance subset, noises the clean latent to a random level, and
descends a masked reconstruction loss plus a staged cross-attention loss —
reward (pull each token's attention toward its scaled mask) for the first
``coarse_iters`` iterations, penalty (push attention off everything outside
the mask) afterwards. A final parameter-refinement stage touches only the
value projections.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CROSS, AttentionRecord, BinaryMask, gated_layers, mask_at
from .denoiser import (
    DenoiserParams,
    NoiseSchedule,
    TokenEmbedding,
    default_params,
    ddim_add_noise,
    forward_cache,
    params_from_workspace,
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
    pixel_norm: bool = False      # divide per-layer attention terms by pixel count
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha: must lie in (0, 1]")
        if self.lambda_rec < 0.0 or self.lambda_attn < 0.0:
            raise ConfigurationError("lambda_rec/lambda_attn: must be >= 0")
        if not 0 <= self.coarse_iters <= self.stage1_iters <= self.total_iters:
            raise ConfigurationError(
                "iteration counts must satisfy 0 <= coarse_iters <= stage1_iters <= total_iters"
            )
        if self.total_iters < 1:
            raise ConfigurationError("total_iters: must be >= 1")
        if self.t_min_attn < 0 or self.t_max_attn < self.t_min_attn:
            raise ConfigurationError("need 0 <= t_min_attn <= t_max_attn")
        if self.learn_rate <= 0.0 or self.stage2_rate < 0.0:
            raise ConfigurationError("learn_rate must be > 0 and stage2_rate >= 0")
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
                    record: AttentionRecord, branch: str, alpha: float,
                    pixel_norm: bool) -> float:
    """The loop's attention loss on a record's maps, after checking that
    every sampled token has a column in each gated layer."""
    for layer in record.gated_cross():
        for i in draw.instance_indices:
            token = instances.placeholder_ids[i]
            if token >= layer.amap.cols:
                raise ConfigurationError(
                    f"token id {token} absent from record (only {layer.amap.cols} columns)"
                )
    gated_masks = _gated_masks(record.layers, instances.masks)
    return _attn_loss_and_grad(record.maps(), gated_masks, instances, draw,
                               branch, alpha, pixel_norm)[0]


def reward_ca_loss(instances: InstanceSet, draw: SampleDraw,
                   record: AttentionRecord, alpha: float,
                   pixel_norm: bool = False) -> float:
    """Sum over sampled instances and gated cross-attention layers of
    ||alpha * M_i - A_i||^2, where A_i is the instance token's column."""
    return _record_ca_loss(instances, draw, record, BRANCH_REWARD, alpha, pixel_norm)


def penalty_ca_loss(instances: InstanceSet, draw: SampleDraw,
                    record: AttentionRecord, pixel_norm: bool = False) -> float:
    """Sum over sampled instances and gated cross-attention layers of
    ||(1 - M_i) * A_i||^2: squared attention mass leaking off each mask."""
    return _record_ca_loss(instances, draw, record, BRANCH_PENALTY, 0.0, pixel_norm)


def staged_attn_loss(instances: InstanceSet, draw: SampleDraw,
                     record: AttentionRecord, iteration: int,
                     config: LearningConfig) -> float:
    """Reward loss while iteration < coarse_iters, penalty loss afterwards."""
    if iteration < 0:
        raise ConfigurationError("iteration must be >= 0")
    return _record_ca_loss(instances, draw, record, _attn_branch(iteration, config),
                           config.alpha, config.pixel_norm)


def _rec_loss_and_grad(eps: np.ndarray, eps_hat: np.ndarray,
                       m_rec: BinaryMask) -> "tuple[float, np.ndarray]":
    """||M * eps - M * eps_hat||^2 and its gradient with respect to eps_hat."""
    m3 = m_rec.bits.astype(np.float64)[:, :, None]
    return float(((m3 * (eps - eps_hat)) ** 2).sum()), 2.0 * m3 * (eps_hat - eps)


def masked_reconstruction_loss(eps: np.ndarray, eps_hat: np.ndarray,
                               m_rec: BinaryMask) -> float:
    """||M * eps - M * eps_hat||^2 with the mask broadcast over channels."""
    eps = np.asarray(eps, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if eps.shape != eps_hat.shape:
        raise ShapeError(f"eps shape {eps.shape} != eps_hat shape {eps_hat.shape}")
    if eps.shape[:2] != (m_rec.height, m_rec.width):
        raise ShapeError(
            f"mask extent {m_rec.height}x{m_rec.width} does not match grid {eps.shape[:2]}"
        )
    return _rec_loss_and_grad(eps, eps_hat, m_rec)[0]


def total_learning_loss(rec_loss: float, attn_loss: float,
                        config: LearningConfig) -> float:
    """lambda_rec * reconstruction + lambda_attn * staged attention."""
    return config.lambda_rec * rec_loss + config.lambda_attn * attn_loss


@dataclass(frozen=True)
class TraceRow:
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


def _attn_loss_and_grad(maps, gated_masks, instances, draw, branch, alpha,
                        pixel_norm):
    """Loss value and per-layer dL/dA for the staged attention loss.

    maps holds every layer's attention weights in layer order; gated_masks
    maps layer index -> per-instance flat masks at that layer's resolution
    (decoder cross-attention layers only, see _gated_masks).
    """
    loss = 0.0
    d_attn: "list[np.ndarray | None]" = [None] * len(maps)
    for li, flat_masks in gated_masks.items():
        attn = maps[li]
        norm = attn.shape[0] if pixel_norm else 1
        grad = np.zeros_like(attn)
        for i in draw.instance_indices:
            token = instances.placeholder_ids[i]
            m = flat_masks[i]
            col = attn[:, token]
            if branch == BRANCH_REWARD:
                diff = col - alpha * m
                loss += float((diff ** 2).sum()) / norm
                grad[:, token] += 2.0 * diff / norm
            else:
                off = (1.0 - m) * col
                loss += float((off ** 2).sum()) / norm
                grad[:, token] += 2.0 * (1.0 - m) * off / norm
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
    per-iteration loss trace. Raises DivergenceError if the total loss goes
    non-finite.
    """
    config.validate()
    instances = scenario.instance_set()
    z0 = np.asarray(scenario.z0, dtype=np.float64)
    if z0.ndim != 3:
        raise ShapeError("scenario.z0 must be (H, W, channels)")
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

    gated_masks = _gated_masks(layers, instances.masks)

    trace: "list[TraceRow]" = []
    emb_at_coarse_end: np.ndarray | None = None

    for e in range(config.total_iters):
        if e == config.coarse_iters:
            emb_at_coarse_end = emb.copy()
        stage2 = e >= config.stage1_iters

        draw = joint_sample(instances, rng)
        t = int(rng.integers(0, schedule.total_steps))
        eps = rng.standard_normal(z0.shape)
        z_t = ddim_add_noise(z0, eps, t, schedule)
        cache = forward_cache(z_t, emb, layers)

        rec, d_eps = _rec_loss_and_grad(eps, cache.eps_hat, draw.m_rec)

        attn = 0.0
        d_attn: "list[np.ndarray | None] | None" = None
        if stage2:
            branch = BRANCH_STAGE2
        else:
            branch = _attn_branch(e, config)
            if config.t_min_attn <= t <= config.t_max_attn:
                attn, d_attn = _attn_loss_and_grad(
                    [lc.attn for lc in cache.layers], gated_masks, instances,
                    draw, branch, config.alpha, config.pixel_norm,
                )

        total = total_learning_loss(rec, attn, config)
        if not np.isfinite(total):
            raise DivergenceError(
                f"loss became non-finite at iteration {e} (branch {branch})"
            )

        if stage2:
            res = backprop(cache, d_attn=None, d_eps=config.lambda_rec * d_eps)
            if config.stage2_rate > 0.0:
                for li, lw in enumerate(layers):
                    lw.wv -= config.stage2_rate * res.d_wv[li]
        else:
            if d_attn is not None:
                upstream = [None if g is None else config.lambda_attn * g
                            for g in d_attn]
            else:
                upstream = None
            res = backprop(cache, d_attn=upstream, d_eps=config.lambda_rec * d_eps)
            for pid in learnable:
                emb[pid] -= config.learn_rate * res.d_emb[pid]

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
