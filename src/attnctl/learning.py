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

The loop runs in chunks of iterations. Much of a forward pass does not
depend on what its stage updates: the noised latent, its pools and every
layer's queries depend only on the draw; in stage 1 the self-attention
layers (map, values and output) are fixed too, and in stage 2 every map. A
chunk draws its iterations' subsets, levels and noise in the per-iteration
order, then computes that frozen half once, with a leading batch axis, for
the iterations it will evaluate (``denoiser.frozen_pass``). A chunk never
straddles ``stage1_iters``, and its buffers hold at most ``CHUNK_ENTRIES``
float64 entries, so a grid whose one iteration needs more runs one
iteration per chunk. Every output is bit for bit that of the
one-iteration-at-a-time loop.

An evaluated iteration does its arithmetic and little else. What every
iteration would otherwise work out again is bound once: per run the
weights, rates and window, the learnable rows and the loss terms by token
(``_LossMasks``, with each drawn subset's terms picked once); per chunk the
frozen pass's one forward cache, whose entries
``denoiser.iteration_cache`` points at the iteration's latent, and
``gradients.backprop``'s per-layer decisions for the stage's gradient,
kept on that cache. An iteration then computes the keys and maps of the
cross-attention layers on its embeddings, its losses and their gradients
(a weight of 1 multiplies nothing), the backward pass (a map of one row
block with no block loop) and the update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (CROSS, ROW_BLOCK, SELF, AttentionRecord, BinaryMask, check_finite_fields,
                   checked_array, gated_layers, mask_at, matched_arrays)
from .denoiser import (
    DenoiserParams,
    NoiseSchedule,
    TokenEmbedding,
    default_params,
    frozen_pass,
    iteration_cache,
    noised_latents,
    params_from_workspace,
    readout_from_outputs,
    toy_schedule,
    workspace,
)
from .errors import ConfigurationError, DivergenceError, ShapeError
from .fileio import write_csv
from .gradients import backprop

BRANCH_REWARD = "reward"
BRANCH_PENALTY = "penalty"
BRANCH_STAGE2 = "stage2"

# A chunk of iterations holds at most this many float64 entries of
# per-iteration buffers (512 KiB); a grid whose one iteration needs more
# runs one iteration per chunk. Half a row block: chunks of a whole one
# (1 MiB) raised an 8x8 learning process's peak resident memory by about
# 0.4 MB more, as the C heap keeps the freed chunk arrays; a quarter was
# no lower than half, and slower.
CHUNK_ENTRIES = ROW_BLOCK // 2


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
    # m_rec as the reconstruction loss's weight, built once per draw.
    rec_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.instance_indices))
        object.__setattr__(self, "instance_indices", idx)
        if not idx:
            raise ConfigurationError("SampleDraw: subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise ConfigurationError("SampleDraw: duplicate instance indices")
        object.__setattr__(self, "rec_weight", _rec_weight(self.m_rec))


def _rec_weight(mask: BinaryMask) -> np.ndarray:
    """A mask as the reconstruction loss's (H, W, 1) float weight."""
    return mask.bits.astype(np.float64)[:, :, None]


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


class _MaskTerms(NamedTuple):
    """One flat instance mask m in the forms the attention losses read,
    with the token whose column they charge."""

    token: int
    target: np.ndarray   # alpha * m, the reward loss's target column
    off: np.ndarray      # 1 - m, the penalty's weight
    off2: np.ndarray     # 2 (1 - m), the penalty gradient's weight


class _LossMasks(dict):
    """``_gated_masks``'s output as ``_MaskTerms``: layer index -> one
    per instance, each with its instance's token. The loop builds it once
    per run; ``for_draw`` picks a draw's terms, once per subset."""

    def __init__(self, gated_masks, alpha: float, tokens: "tuple[int, ...]"):
        super().__init__({li: [_MaskTerms(token, alpha * m, 1.0 - m, 2.0 * (1.0 - m))
                               for token, m in zip(tokens, flat_masks)]
                          for li, flat_masks in gated_masks.items()})
        self._by_subset: "dict[tuple[int, ...], list]" = {}

    def for_draw(self, draw: "SampleDraw") -> "list[tuple[int, list[_MaskTerms]]]":
        """(layer index, the drawn instances' terms) for each gated layer."""
        terms = self._by_subset.get(draw.instance_indices)
        if terms is None:
            terms = self._by_subset[draw.instance_indices] = [
                (li, [layer_terms[i] for i in draw.instance_indices])
                for li, layer_terms in self.items()]
        return terms


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


def _rec_loss_and_grad(eps: np.ndarray, eps_hat: np.ndarray, m3: np.ndarray,
                       with_grad: bool = True) -> "tuple[float, np.ndarray | None]":
    """||M * eps - M * eps_hat||^2 and, if with_grad, its gradient with
    respect to eps_hat (None otherwise); ``m3`` is M as an (H, W, 1) float
    array (``SampleDraw.rec_weight``). Both come from one masked residual
    M (eps_hat - eps): its square is that of M (eps - eps_hat), and as M is
    0 or 1, twice it is 2 M (eps_hat - eps), bit for bit."""
    residual = eps_hat - eps
    residual *= m3
    loss = float((residual ** 2).sum())
    if not with_grad:
        return loss, None
    residual *= 2.0
    return loss, residual


def masked_reconstruction_loss(eps: np.ndarray, eps_hat: np.ndarray,
                               m_rec: BinaryMask) -> float:
    """||M * eps - M * eps_hat||^2 with the mask broadcast over channels."""
    eps, eps_hat = matched_arrays(eps, eps_hat, "eps", "eps_hat")
    if eps.shape[:2] != (m_rec.height, m_rec.width):
        raise ShapeError(
            f"mask extent {m_rec.height}x{m_rec.width} does not match grid {eps.shape[:2]}"
        )
    return _rec_loss_and_grad(eps, eps_hat, _rec_weight(m_rec), with_grad=False)[0]


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


class TraceRow(NamedTuple):
    """One iteration's losses. A term whose weight is 0 is not evaluated
    and reads nan; a weighted attention term reads 0 on an iteration outside
    its window or in stage 2. ``total`` sums the weighted terms. A named
    tuple: the loop builds one per iteration, for less than half the cost
    of a frozen dataclass."""

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
    (decoder cross-attention layers only, see _gated_masks), or is their
    ``_LossMasks`` for this alpha and these instances, built once by the
    caller. A drawn instance's token has one column of dA, written once
    (the tokens are distinct); every other column is zero.
    """
    terms = gated_masks if isinstance(gated_masks, _LossMasks) \
        else _LossMasks(gated_masks, alpha, instances.placeholder_ids)
    reward = branch == BRANCH_REWARD
    loss = 0.0
    d_attn: "list[np.ndarray | None]" = [None] * len(maps)
    for li, layer_terms in terms.for_draw(draw):
        attn = maps[li]
        grad = d_attn[li] = np.zeros(attn.shape)
        for token, target, off, off2 in layer_terms:
            col = attn[:, token]
            if reward:
                diff = col - target
                loss += float((diff ** 2).sum())
                np.multiply(2.0, diff, out=grad[:, token])
            else:
                diff = off * col
                loss += float((diff ** 2).sum())
                np.multiply(off2, diff, out=grad[:, token])
    return loss, d_attn


def _iteration_entries(shape, layers, n_tokens: int) -> int:
    """An upper bound on the float64 entries one iteration adds to a
    chunk's buffers: its noise, noised latent and the noising's temporary,
    and per layer its features, queries, output, keys, values and map."""
    height, width, dim = shape
    total = 3 * height * width * dim
    for l in layers:
        n = l.height * l.width
        m = n if l.attn_type == SELF else n_tokens
        total += 3 * n * dim + 2 * m * dim + n * m
    return total


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
    for pid in instances.placeholder_ids:
        emb[pid] = rng.normal(0.0, 0.02, size=dim)

    # What every iteration reads, bound once per run: the weights and
    # rates, the attention window and the learnable rows (a row mask).
    rec_weight, attn_weight = config.lambda_rec, config.lambda_attn
    rec_active = rec_weight > 0.0
    attn_active = attn_weight > 0.0
    t_min, t_max, levels_total = config.t_min_attn, config.t_max_attn, schedule.total_steps
    coarse_iters, learn_rate = config.coarse_iters, config.learn_rate
    learnable = np.zeros((n_tokens, 1), dtype=bool)
    learnable[list(instances.placeholder_ids)] = True
    # Only the readout reads the encoder and self-attention layers, so
    # without the reconstruction term the forward pass runs the decoder
    # cross-attention layers alone; masks are keyed by position in that list.
    run_layers = layers if rec_active else [layers[i] for i in gated_layers(layers, CROSS)]
    loss_masks = _LossMasks(_gated_masks(run_layers, instances.masks), config.alpha,
                            instances.placeholder_ids)
    chunk = max(1, CHUNK_ENTRIES // _iteration_entries(z0.shape, run_layers, n_tokens))
    noise = np.empty((chunk, *z0.shape))
    levels = np.empty(chunk, dtype=np.intp)

    trace: "list[TraceRow]" = []
    emb_at_coarse_end: np.ndarray | None = None

    start = 0
    while start < config.total_iters:
        stage2 = start >= config.stage1_iters
        stop = min(start + chunk, config.total_iters if stage2 else config.stage1_iters)
        wrt = ("wv",) if stage2 else ("emb",)  # what the stage updates
        attn_stage = attn_active and not stage2

        # Each iteration draws its subset, level and noise, evaluated or
        # not, so that the random stream does not depend on the weights. An
        # evaluated iteration's noise takes the next row of the chunk; an
        # unevaluated one's is drawn into the row after them, and dropped.
        plan = []
        rows = 0
        for e in range(start, stop):
            draw = joint_sample(instances, rng)
            t = int(rng.integers(0, levels_total))
            rng.standard_normal(out=noise[rows])
            attn_now = attn_stage and t_min <= t <= t_max
            row = None
            if rec_active or attn_now:
                row = rows
                levels[row] = t
                rows += 1
            plan.append((e, draw, row, attn_now))

        # Free the last chunk's arrays (the cache holds views of them)
        # before this chunk's are built. Its frozen half is computed once,
        # with a batch axis: the noised latents, their pools and queries,
        # and in stage 1 (which updates emb) every self-attention layer with
        # its output A V, in stage 2 (which updates wv) every map.
        frozen = outs = cache = None
        if rows:
            frozen = frozen_pass(noised_latents(z0, noise[:rows], levels[:rows], schedule),
                                 run_layers, emb if stage2 else None, values=not stage2)
            outs = [None if fl.v is None else np.matmul(fl.attn, fl.v)
                    for fl in frozen.layers] if rec_active else None

        for e, draw, row, attn_now in plan:
            if e == coarse_iters:
                emb_at_coarse_end = emb.copy()
            branch = BRANCH_STAGE2 if stage2 else _attn_branch(e, config)

            # A zero-weighted term is not evaluated and reads nan; a weighted
            # attention term outside its window or in stage 2 reads 0. A
            # weight of 1 multiplies nothing.
            rec = np.nan
            attn = 0.0 if attn_active else np.nan
            d_eps = d_attn = None
            if row is not None:
                cache = iteration_cache(frozen, row, emb, values=rec_active)
                if rec_active:
                    eps_hat = readout_from_outputs(cache, [
                        lc.attn @ lc.v if out is None else out[row]
                        for lc, out in zip(cache.layers, outs)])
                    rec, d_eps = _rec_loss_and_grad(noise[row], eps_hat, draw.rec_weight)
                    if rec_weight != 1.0:
                        d_eps *= rec_weight
                if attn_now:
                    attn, d_attn = _attn_loss_and_grad(
                        cache.maps(), loss_masks, instances, draw, branch, config.alpha)
                    if attn_weight != 1.0:
                        for g in d_attn:
                            if g is not None:
                                g *= attn_weight

            total = total_learning_loss(rec, attn, config)
            if not math.isfinite(total):
                raise DivergenceError(
                    f"loss became non-finite at iteration {e} (branch {branch})"
                )

            # With no active term there is no gradient, so no backprop or update.
            if d_attn is not None or d_eps is not None:
                res = backprop(cache, d_attn=d_attn, d_eps=d_eps, wrt=wrt)
                if not stage2:
                    np.subtract(emb, learn_rate * res.d_emb, out=emb, where=learnable)
                    finite = np.isfinite(emb).all()
                else:
                    for lw, d_wv in zip(run_layers, res.d_wv):
                        lw.wv -= config.stage2_rate * d_wv
                    finite = all(np.isfinite(lw.wv).all() for lw in run_layers)
                if not finite:
                    raise DivergenceError(
                        f"{'value weights' if stage2 else 'embeddings'} became non-finite "
                        f"at iteration {e} (branch {branch})"
                    )

            trace.append(TraceRow(e, branch, rec, attn, total))
        start = stop

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
