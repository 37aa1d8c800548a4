"""Embedding learning: losses with hand-checked values, sampling, the loop."""
import itertools
import tracemalloc

import numpy as np
import pytest

from attnctl import core, learning
from attnctl.core import AttentionMap, AttentionRecord, BinaryMask, LayerAttention
from attnctl.denoiser import default_params, toy_schedule
from attnctl.errors import ConfigurationError, DivergenceError, ShapeError
from attnctl.gradients import GRADIENTS
from attnctl.learning import (
    InstanceSet,
    LearningConfig,
    SampleDraw,
    joint_sample,
    masked_reconstruction_loss,
    penalty_ca_loss,
    reward_ca_loss,
    run_semantic_learning,
    staged_attn_loss,
    total_learning_loss,
)
from attnctl.scenario import generate_scenario


def _record_1x2(col1, kind="decoder"):
    """A single CA layer over a 1x2 grid; token 1's column is col1."""
    weights = np.zeros((2, 2))
    weights[:, 1] = col1
    weights[:, 0] = 1.0 - weights[:, 1]
    return AttentionRecord((LayerAttention(kind, "CA", 1, 2, AttentionMap(weights)),))


def _one_instance():
    return InstanceSet((BinaryMask([[1, 0]]),), (1,))


def _draw_all(instances):
    return SampleDraw(tuple(range(instances.count)),
                      BinaryMask.union(list(instances.masks)))


# ---------------------------------------------------------------------------
# Instance sets and joint sampling
# ---------------------------------------------------------------------------

def test_instance_set_validation():
    a = BinaryMask([[1, 0], [0, 0]])
    b = BinaryMask([[0, 1], [0, 0]])
    InstanceSet((a, b), (1, 2))
    with pytest.raises(ConfigurationError):
        InstanceSet((a, a), (1, 2))                   # overlap
    with pytest.raises(ConfigurationError):
        InstanceSet((a, b), (1, 1))                   # duplicate ids
    with pytest.raises(ConfigurationError):
        InstanceSet((a,), (0,))                       # 0 reserved for background
    with pytest.raises(ConfigurationError):
        InstanceSet((BinaryMask([[0, 0]]),), (1,))    # empty mask
    with pytest.raises(ShapeError):
        InstanceSet((a, BinaryMask([[0, 1]])), (1, 2))
    with pytest.raises(ConfigurationError):
        InstanceSet((), ())


def test_sample_draw_sorts_and_validates():
    d = SampleDraw((2, 0), BinaryMask([[1]]))
    assert d.instance_indices == (0, 2)
    with pytest.raises(ConfigurationError):
        SampleDraw((), BinaryMask([[1]]))
    with pytest.raises(ConfigurationError):
        SampleDraw((1, 1), BinaryMask([[1]]))


def test_joint_sample_covers_all_subsets_uniformly():
    a = BinaryMask([[1, 0], [0, 0]])
    b = BinaryMask([[0, 1], [0, 0]])
    instances = InstanceSet((a, b), (1, 2))
    rng = np.random.default_rng(7)
    counts = {}
    for _ in range(5000):
        draw = joint_sample(instances, rng)
        counts[draw.instance_indices] = counts.get(draw.instance_indices, 0) + 1
        # The reconstruction mask is always the union of the drawn instances.
        expect = BinaryMask.union([instances.masks[i] for i in draw.instance_indices])
        assert np.array_equal(draw.m_rec.bits, expect.bits)
    assert sorted(counts) == [(0,), (0, 1), (1,)]
    for subset, n in counts.items():
        assert abs(n / 5000 - 1.0 / 3.0) < 0.02, f"{subset}: {n}"


# ---------------------------------------------------------------------------
# Losses with hand-checked values
# ---------------------------------------------------------------------------

def test_reward_ca_loss_hand_value():
    # alpha*M = (0.5, 0), token column = (1, 1): (0.5-1)^2 + (0-1)^2 = 1.25.
    instances = _one_instance()
    record = _record_1x2([1.0, 1.0])
    loss = reward_ca_loss(instances, _draw_all(instances), record, alpha=0.5)
    assert loss == pytest.approx(1.25, abs=1e-12)


def test_reward_ca_loss_zero_at_scaled_mask():
    instances = _one_instance()
    record = _record_1x2([0.5, 0.0])
    assert reward_ca_loss(instances, _draw_all(instances), record, 0.5) == \
        pytest.approx(0.0, abs=1e-12)


def test_penalty_ca_loss_hand_value():
    # Column (0.3, 0.7), mask (1, 0): only the off-mask 0.7 is charged.
    instances = _one_instance()
    record = _record_1x2([0.3, 0.7])
    loss = penalty_ca_loss(instances, _draw_all(instances), record)
    assert loss == pytest.approx(0.49, abs=1e-12)


def test_penalty_zero_iff_support_inside_mask():
    instances = _one_instance()
    rng = np.random.default_rng(3)
    for _ in range(50):
        col = rng.uniform(0.0, 1.0, size=2)
        record = _record_1x2(col)
        loss = penalty_ca_loss(instances, _draw_all(instances), record)
        if col[1] == 0.0:
            assert loss == 0.0
        else:
            assert loss > 0.0
    # Exactly zero when all mass sits on the mask.
    assert penalty_ca_loss(instances, _draw_all(instances), _record_1x2([0.8, 0.0])) == 0.0


def test_losses_reject_encoder_only_record():
    # Encoder layers carry no loss, so a record with no decoder CA layer has
    # nothing to charge: an error, as in leakage_mass, not a silent zero.
    instances = _one_instance()
    record = _record_1x2([1.0, 1.0], kind="encoder")
    draw = _draw_all(instances)
    with pytest.raises(ConfigurationError, match="no decoder cross-attention"):
        reward_ca_loss(instances, draw, record, 0.5)
    with pytest.raises(ConfigurationError, match="no decoder cross-attention"):
        penalty_ca_loss(instances, draw, record)
    with pytest.raises(ConfigurationError, match="no decoder cross-attention"):
        staged_attn_loss(instances, draw, record, 0, LearningConfig())


def test_losses_only_charge_sampled_instances():
    # Three instances, so a subset of every size: each loss of a subset is
    # the sum of its instances' losses alone.
    masks = [BinaryMask([[1, 0, 0]]), BinaryMask([[0, 1, 0]]), BinaryMask([[0, 0, 1]])]
    instances = InstanceSet(tuple(masks), (1, 2, 3))
    weights = np.array([[0.2, 0.3, 0.4, 0.1], [0.1, 0.6, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25]])
    record = AttentionRecord(
        (LayerAttention("decoder", "CA", 1, 3, AttentionMap(weights)),))

    def draw(subset):
        return SampleDraw(subset, BinaryMask.union([masks[i] for i in subset]))

    for loss in (penalty_ca_loss, lambda *args: reward_ca_loss(*args, 0.5)):
        single = [loss(instances, draw((i,)), record) for i in range(3)]
        assert all(v > 0.0 for v in single)
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(3), size) for size in (2, 3)):
            assert loss(instances, draw(subset), record) == \
                pytest.approx(sum(single[i] for i in subset))


def test_loss_rejects_missing_token_column():
    instances = InstanceSet((BinaryMask([[1, 0]]),), (5,))
    record = _record_1x2([0.5, 0.5])       # only columns 0 and 1 exist
    with pytest.raises(ConfigurationError):
        reward_ca_loss(instances, SampleDraw((0,), instances.masks[0]), record, 0.5)


def test_staged_attn_loss_switches_branches():
    instances = _one_instance()
    record = _record_1x2([0.3, 0.7])
    draw = _draw_all(instances)
    cfg = LearningConfig(coarse_iters=10)
    r = reward_ca_loss(instances, draw, record, cfg.alpha)
    p = penalty_ca_loss(instances, draw, record)
    assert staged_attn_loss(instances, draw, record, 0, cfg) == pytest.approx(r)
    assert staged_attn_loss(instances, draw, record, 9, cfg) == pytest.approx(r)
    assert staged_attn_loss(instances, draw, record, 10, cfg) == pytest.approx(p)
    with pytest.raises(ConfigurationError):
        staged_attn_loss(instances, draw, record, -1, cfg)


def test_masked_reconstruction_loss_hand_value():
    eps = np.array([[[1.0], [2.0]]])
    eps_hat = np.zeros((1, 2, 1))
    m = BinaryMask([[1, 0]])
    assert masked_reconstruction_loss(eps, eps_hat, m) == pytest.approx(1.0)
    with pytest.raises(ShapeError):
        masked_reconstruction_loss(eps, np.zeros((1, 3, 1)), m)
    with pytest.raises(ShapeError):
        masked_reconstruction_loss(eps, eps_hat, BinaryMask([[1, 0, 0]]))


def test_total_learning_loss_weights():
    cfg = LearningConfig(lambda_rec=1.0, lambda_attn=0.01)
    assert total_learning_loss(2.0, 3.0, cfg) == pytest.approx(2.03)


def test_learning_config_validation():
    LearningConfig().validate()
    for bad in [
        dict(alpha=0.0),
        dict(alpha=1.5),
        dict(lambda_rec=-1.0),
        dict(coarse_iters=10, stage1_iters=5),
        dict(stage1_iters=20, total_iters=10),
        dict(t_min_attn=5, t_max_attn=3),
        dict(learn_rate=0.0),
        dict(seed=-1),
        dict(lambda_rec=float("nan")),
        dict(lambda_attn=float("nan")),
        dict(learn_rate=float("nan")),
        dict(stage2_rate=float("nan")),
    ]:
        with pytest.raises(ConfigurationError):
            LearningConfig(**bad).validate()


# ---------------------------------------------------------------------------
# The learning loop
# ---------------------------------------------------------------------------

def _tiny_scenario():
    return generate_scenario((4, 4), 1, rho=0.5, seed=0, dim=4)


def test_run_semantic_learning_trace_and_branches():
    cfg = LearningConfig(total_iters=12, stage1_iters=8, coarse_iters=4,
                         t_max_attn=9, seed=0)
    result = run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    assert len(result.trace) == 12
    branches = [row.branch for row in result.trace]
    assert branches[:4] == ["reward"] * 4
    assert branches[4:8] == ["penalty"] * 4
    assert branches[8:] == ["stage2"] * 4
    assert result.emb_at_coarse_end is not None
    assert all(np.isfinite(row.total) for row in result.trace)


def test_run_semantic_learning_token_layout():
    cfg = LearningConfig(total_iters=3, stage1_iters=3, coarse_iters=1, t_max_attn=5)
    result = run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    assert [t.token_id for t in result.tokens] == [0, 1]
    assert not result.tokens[0].learnable
    assert np.array_equal(result.tokens[0].vector, np.zeros(4))
    assert result.tokens[1].learnable
    assert np.any(result.tokens[1].vector != 0.0)


def test_stage_one_leaves_denoiser_weights_alone():
    sc = _tiny_scenario()
    base = default_params(sc.dim, 4, 4, seed=11)
    cfg = LearningConfig(total_iters=6, stage1_iters=6, coarse_iters=3, t_max_attn=5)
    result = run_semantic_learning(sc, cfg, schedule=toy_schedule(10), params=base)
    for before, after in zip(base.layers, result.params.layers):
        assert np.array_equal(before.wq, after.wq)
        assert np.array_equal(before.wk, after.wk)
        assert np.array_equal(before.wv, after.wv)


def test_stage_two_updates_only_value_projections():
    sc = _tiny_scenario()
    base = default_params(sc.dim, 4, 4, seed=11)
    cfg = LearningConfig(total_iters=6, stage1_iters=2, coarse_iters=1,
                         t_max_attn=5, stage2_rate=1e-3)
    result = run_semantic_learning(sc, cfg, schedule=toy_schedule(10), params=base)
    changed = 0
    for before, after in zip(base.layers, result.params.layers):
        assert np.array_equal(before.wq, after.wq)
        assert np.array_equal(before.wk, after.wk)
        changed += int(not np.array_equal(before.wv, after.wv))
    assert changed > 0


def test_attention_gate_zeroes_out_of_window_terms():
    # With the gate shut for every level > 0, attention terms appear only on
    # iterations that happened to draw t = 0.
    cfg = LearningConfig(total_iters=40, stage1_iters=40, coarse_iters=40,
                         t_min_attn=0, t_max_attn=0)
    result = run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    zero_rows = sum(1 for row in result.trace if row.attn_loss == 0.0)
    assert zero_rows > 20                       # t = 0 has probability 1/10
    assert any(row.attn_loss > 0.0 for row in result.trace)


def test_injected_params_must_fit_grid():
    sc = _tiny_scenario()
    with pytest.raises(ShapeError):
        run_semantic_learning(sc, LearningConfig(total_iters=1, stage1_iters=1,
                                                 coarse_iters=0, t_max_attn=5),
                              schedule=toy_schedule(10),
                              params=default_params(sc.dim, 6, 6, seed=0))
    with pytest.raises(ShapeError):
        run_semantic_learning(sc, LearningConfig(total_iters=1, stage1_iters=1,
                                                 coarse_iters=0, t_max_attn=5),
                              schedule=toy_schedule(10),
                              params=default_params(8, 4, 4, seed=0))


def test_schedule_must_cover_attention_window():
    cfg = LearningConfig(total_iters=1, stage1_iters=1, coarse_iters=0, t_max_attn=35)
    with pytest.raises(ConfigurationError):
        run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergent_rate_raises():
    cfg = LearningConfig(total_iters=12, stage1_iters=12, coarse_iters=6,
                         t_max_attn=9, learn_rate=1e300)
    with pytest.raises(DivergenceError):
        run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))


def test_learning_is_deterministic():
    cfg = LearningConfig(total_iters=8, stage1_iters=6, coarse_iters=3, t_max_attn=9)
    a = run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    b = run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    assert np.array_equal(a.tokens[1].vector, b.tokens[1].vector)
    assert [r.total for r in a.trace] == [r.total for r in b.trace]


def _count_backprop_calls(monkeypatch, config):
    """Run the loop on the tiny scenario, logging in order each attention
    loss evaluation ("attn") and each backprop call with the d_eps it got."""
    events = []
    attn_loss_and_grad, backprop = learning._attn_loss_and_grad, learning.backprop

    def logged_attn(*args):
        events.append(("attn", None))
        return attn_loss_and_grad(*args)

    def logged_backprop(cache, d_attn=None, d_eps=None, wrt=GRADIENTS):
        events.append(("backprop", d_eps))
        return backprop(cache, d_attn=d_attn, d_eps=d_eps, wrt=wrt)

    monkeypatch.setattr(learning, "_attn_loss_and_grad", logged_attn)
    monkeypatch.setattr(learning, "backprop", logged_backprop)
    result = run_semantic_learning(_tiny_scenario(), config, schedule=toy_schedule(10))
    return result, events


def test_zero_rec_weight_backprops_only_attention_iterations(monkeypatch):
    # Levels 0..4 of 10 carry the attention term; the last 10 iterations are
    # stage 2, which has none. With lambda_rec = 0 an iteration without the
    # attention term has no gradient at all, so it must not backpropagate.
    cfg = LearningConfig(lambda_rec=0.0, lambda_attn=1.0, total_iters=40,
                         stage1_iters=30, coarse_iters=10, t_max_attn=4)
    result, events = _count_backprop_calls(monkeypatch, cfg)
    kinds = [kind for kind, _ in events]
    n_attn = kinds.count("attn")
    assert 0 < n_attn < 30
    # Each attention evaluation is followed by exactly one backprop, which
    # gets no readout gradient.
    assert kinds == ["attn", "backprop"] * n_attn
    assert all(d_eps is None for kind, d_eps in events if kind == "backprop")
    assert sum(row.attn_loss != 0.0 for row in result.trace) == n_attn


def test_active_rec_weight_backprops_every_iteration(monkeypatch):
    cfg = LearningConfig(lambda_rec=1.0, total_iters=12, stage1_iters=8,
                         coarse_iters=4, t_max_attn=4)
    _, events = _count_backprop_calls(monkeypatch, cfg)
    calls = [d_eps for kind, d_eps in events if kind == "backprop"]
    assert len(calls) == 12
    assert all(d_eps is not None for d_eps in calls)


@pytest.mark.parametrize("lambda_rec", [0.0, 1.0])
def test_each_stage_backpropagates_only_into_what_it_updates(monkeypatch, lambda_rec):
    # Stage 1 updates the embeddings and stage 2 the value weights, so each
    # asks backprop for that one gradient. Every level of 10 carries the
    # attention term, so every stage-1 iteration backpropagates.
    cfg = LearningConfig(lambda_rec=lambda_rec, lambda_attn=1.0, total_iters=12,
                         stage1_iters=8, coarse_iters=4, t_max_attn=9)
    requests = []
    backprop = learning.backprop

    def recorded_backprop(cache, d_attn=None, d_eps=None, wrt=GRADIENTS):
        requests.append(wrt)
        return backprop(cache, d_attn=d_attn, d_eps=d_eps, wrt=wrt)

    monkeypatch.setattr(learning, "backprop", recorded_backprop)
    run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    # Without the reconstruction term stage 2 has no gradient at all.
    assert requests == [("emb",)] * 8 + [("wv",)] * (4 if lambda_rec else 0)


def _log_forward_passes(monkeypatch, config):
    """Run the loop on the tiny scenario, logging the noise level of each
    latent it noises (a chunk noises its evaluated iterations' latents in
    one call), the layer tags of each iteration's forward cache, and
    counting readouts."""
    log = {"t": [], "layers": [], "readouts": 0}
    noised, complete, readout = (learning.noised_latents, learning.iteration_cache,
                                 learning.readout_from_outputs)

    def logged_noise(z0, eps, levels, schedule):
        log["t"].extend(int(t) for t in levels)
        return noised(z0, eps, levels, schedule)

    def logged_cache(frozen, c, emb, values=True):
        cache = complete(frozen, c, emb, values)
        log["layers"].append([(lc.work.kind, lc.work.attn_type) for lc in cache.layers])
        return cache

    def logged_readout(cache, outputs):
        log["readouts"] += 1
        return readout(cache, outputs)

    monkeypatch.setattr(learning, "noised_latents", logged_noise)
    monkeypatch.setattr(learning, "iteration_cache", logged_cache)
    monkeypatch.setattr(learning, "readout_from_outputs", logged_readout)
    result = run_semantic_learning(_tiny_scenario(), config, schedule=toy_schedule(10))
    return result, log


def test_forward_pass_runs_only_what_the_weighted_terms_read(monkeypatch):
    # Levels 0..4 of 10 carry the attention term; the last 10 iterations
    # are stage 2, which has none.
    cfg = dict(lambda_attn=1.0, total_iters=40, stage1_iters=30, coarse_iters=10,
               t_max_attn=4)
    every_layer = [("encoder", "CA"), ("decoder", "CA"), ("decoder", "SA")]

    # With the reconstruction term, every iteration runs every layer and
    # reads the noise out.
    full, log = _log_forward_passes(monkeypatch, LearningConfig(lambda_rec=1.0, **cfg))
    assert log["layers"] == [every_layer] * 40
    assert log["readouts"] == 40
    assert all(np.isfinite(row.rec_loss) for row in full.trace)
    levels = log["t"]

    # Without it, only stage-1 iterations inside the attention window run a
    # forward pass, over the decoder cross-attention layer alone, on the
    # same noise levels (the random stream is drawn in full either way).
    attn_only, log = _log_forward_passes(monkeypatch, LearningConfig(lambda_rec=0.0, **cfg))
    in_window = [t for e, t in enumerate(levels) if e < 30 and t <= 4]
    assert 0 < len(in_window) < 30
    assert log["t"] == in_window
    assert log["layers"] == [[("decoder", "CA")]] * len(in_window)
    assert log["readouts"] == 0
    assert all(np.isnan(row.rec_loss) for row in attn_only.trace)
    assert [row.total for row in attn_only.trace] == \
        [row.attn_loss for row in attn_only.trace]

    # With no weighted term nothing is evaluated at all.
    idle, log = _log_forward_passes(
        monkeypatch, LearningConfig(lambda_rec=0.0, **{**cfg, "lambda_attn": 0.0}))
    assert log == {"t": [], "layers": [], "readouts": 0}
    assert all(np.isnan(row.rec_loss) and np.isnan(row.attn_loss) and row.total == 0.0
               for row in idle.trace)


@pytest.mark.parametrize("stage2", [False, True])
def test_non_finite_update_on_the_last_iteration_raises(monkeypatch, stage2):
    # The loss of the last iteration is finite; only the update it makes
    # is not, and the state is checked after every update.
    cfg = LearningConfig(total_iters=6, stage1_iters=4 if stage2 else 6, coarse_iters=2,
                         t_max_attn=9, stage2_rate=1e-3)
    calls = []
    backprop = learning.backprop

    def poisoned_backprop(cache, d_attn=None, d_eps=None, wrt=GRADIENTS):
        res = backprop(cache, d_attn=d_attn, d_eps=d_eps, wrt=wrt)
        calls.append(None)
        if len(calls) == cfg.total_iters:
            if stage2:
                res.d_wv[0] = np.full_like(res.d_wv[0], np.inf)
            else:
                res.d_emb = np.full_like(res.d_emb, np.inf)
        return res

    monkeypatch.setattr(learning, "backprop", poisoned_backprop)
    what = "value weights" if stage2 else "embeddings"
    with pytest.raises(DivergenceError, match=f"{what} became non-finite at iteration 5"):
        run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    assert len(calls) == cfg.total_iters


def test_unused_term_cannot_diverge_an_attention_only_run():
    # A huge step makes the embeddings large but finite. The readout of
    # such embeddings squares to inf, which once stopped the run although
    # lambda_rec = 0 keeps that loss out of every gradient.
    cfg = LearningConfig(lambda_rec=0.0, learn_rate=1e308, total_iters=12,
                         stage1_iters=8, coarse_iters=4, t_max_attn=9)
    result = run_semantic_learning(_tiny_scenario(), cfg, schedule=toy_schedule(10))
    assert np.isfinite(result.embedding_matrix).all()
    assert np.abs(result.embedding_matrix).max() > 1e300


def _no_pool():
    raise AssertionError("the row-block pool was requested")


def test_learning_at_8x8_runs_every_row_block_inline(monkeypatch):
    # Every map of an 8x8 grid is one row block, so no block reaches the
    # row-block workers.
    monkeypatch.setattr(core, "_row_pool", _no_pool)
    sc = generate_scenario((8, 8), 2, rho=0.8, seed=0, dim=16)
    cfg = LearningConfig(total_iters=40, stage1_iters=30, coarse_iters=10,
                         lambda_rec=1.0, seed=0)
    result = run_semantic_learning(sc, cfg)
    assert len(result.trace) == 40


def test_chunked_learning_peak_stays_within_one_chunk_bound(monkeypatch):
    # A chunk's buffers hold at most CHUNK_ENTRIES float64 entries, so a
    # default 16x16 run peaks at most one row block (1 MiB) above the run
    # that holds one iteration per chunk.
    scen = generate_scenario((16, 16), 2, rho=0.8, seed=0, dim=4)

    def traced_peak():
        tracemalloc.start()
        try:
            run_semantic_learning(scen, LearningConfig())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = 8 * core.ROW_BLOCK
    chunked = traced_peak()
    monkeypatch.setattr(learning, "CHUNK_ENTRIES", 1)
    one_per_chunk = traced_peak()
    assert chunked <= one_per_chunk + bound
