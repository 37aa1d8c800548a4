"""Box control: rasterization, the decay schedule, scores, masking, the loop."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from attnctl import core, gradients, refine, synthesis
from attnctl.core import AttentionMap, AttentionRecord, BinaryMask, LayerAttention
from attnctl.denoiser import _token_matrix, default_params, forward_cache, toy_schedule
from attnctl.refine import RefinementConfig
from attnctl.errors import (
    ConfigurationError,
    DegenerateInputWarning,
    DivergenceError,
    ShapeError,
)
from attnctl.gradients import GRADIENTS
from attnctl.sapass import STREAM, SAPass, permitted_columns
from attnctl.scenario import generate_scenario, synthesis_tokens
from attnctl.synthesis import (
    BoxSpec,
    ScheduleParams,
    SynthesisConfig,
    alpha_decay,
    apply_attention_masking,
    combined_attn_loss,
    default_groups,
    fg_bg_energies,
    instance_masks_from_boxes,
    latent_opt_step,
    mean_energies,
    penalty_box_score,
    rasterize_box,
    reward_box_score,
    run_synthesis,
    steps_header,
    write_steps_csv,
)


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------

def test_box_spec_validation():
    BoxSpec(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        BoxSpec(0.0, 0.0, 1.1, 1.0)
    with pytest.raises(ConfigurationError):
        BoxSpec(0.5, 0.0, 0.5, 1.0)       # zero width
    with pytest.raises(ConfigurationError):
        BoxSpec(0.0, 0.8, 1.0, 0.2)       # inverted
    with pytest.raises(ConfigurationError):
        BoxSpec(float("nan"), 0.0, 1.0, 1.0)


def test_rasterize_box_cell_centers():
    full = rasterize_box(BoxSpec(0.0, 0.0, 1.0, 1.0), 4, 4)
    assert full.count == 16
    quad = rasterize_box(BoxSpec(0.0, 0.0, 0.5, 0.5), 4, 4)
    assert np.array_equal(quad.bits, np.pad(np.ones((2, 2), np.uint8), ((0, 2), (0, 2))))
    # Closed interval: a box edge on a cell center keeps that cell.
    thin = rasterize_box(BoxSpec(0.0, 0.0, 0.125, 1.0), 4, 4)
    assert np.array_equal(thin.bits[:, 0], np.ones(4))
    assert thin.count == 4


def test_instance_masks_from_boxes_all_resolutions():
    masks = instance_masks_from_boxes([BoxSpec(0.0, 0.0, 0.5, 1.0)], [(4, 4), (2, 2)])
    assert set(masks[0]) == {(4, 4), (2, 2)}
    assert masks[0][(2, 2)].count == 2


# ---------------------------------------------------------------------------
# Penalty-weight decay
# ---------------------------------------------------------------------------

def test_alpha_decay_anchor_values():
    sched = ScheduleParams()
    assert alpha_decay(1, sched, 15) == pytest.approx(0.5, abs=1e-15)
    assert alpha_decay(3, sched, 15) == pytest.approx(0.2, abs=1e-15)
    assert alpha_decay(15, sched, 15) == pytest.approx(0.1, abs=1e-12)
    # Cosine midpoint between linear_end = 3 and horizon = 15.
    assert alpha_decay(9, sched, 15) == pytest.approx(0.15, abs=1e-12)


def test_alpha_decay_monotone_nonincreasing():
    sched = ScheduleParams()
    values = [alpha_decay(t, sched, 15) for t in range(1, 16)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_alpha_decay_range_checks():
    sched = ScheduleParams()
    with pytest.raises(ValueError):
        alpha_decay(0, sched, 15)
    with pytest.raises(ValueError):
        alpha_decay(16, sched, 15)
    with pytest.raises(ConfigurationError):
        ScheduleParams(alpha_final=0.3, alpha_min=0.2).validate()
    with pytest.raises(ConfigurationError):
        ScheduleParams(linear_end=0).validate()
    with pytest.raises(ConfigurationError, match="linear_end"):
        alpha_decay(1, ScheduleParams(linear_end=15), 15)


# ---------------------------------------------------------------------------
# Energies and scores
# ---------------------------------------------------------------------------

def _ca_record():
    # 1x2 grid, 2 tokens; token 0's column is (0.6, 0.2).
    weights = np.array([[0.6, 0.4], [0.2, 0.8]])
    return AttentionRecord(
        (LayerAttention("decoder", "CA", 1, 2, AttentionMap(weights)),))


def test_fg_bg_energies_cross_attention():
    fg, bg = fg_bg_energies(_ca_record(), 0, BinaryMask([[1, 0]]), [0])
    assert fg == pytest.approx(0.36, abs=1e-12)   # (1*0.6)^2
    assert bg == pytest.approx(0.04, abs=1e-12)   # (1*0.2)^2


def test_fg_bg_energies_self_attention():
    weights = np.array([[0.7, 0.3], [0.5, 0.5]])
    record = AttentionRecord(
        (LayerAttention("decoder", "SA", 1, 2, AttentionMap(weights)),))
    fg, bg = fg_bg_energies(record, 0, BinaryMask([[1, 0]]), [])
    assert fg == pytest.approx(0.49, abs=1e-12)   # in-box row, in-box target
    assert bg == pytest.approx(0.09, abs=1e-12)   # in-box row, out-of-box target


def test_fg_bg_energies_validation():
    record = _ca_record()
    with pytest.raises(ShapeError):
        fg_bg_energies(record, 5, BinaryMask([[1, 0]]), [0])
    with pytest.raises(ShapeError):
        fg_bg_energies(record, 0, BinaryMask([[1, 0, 0]]), [0])
    with pytest.raises(ConfigurationError):
        fg_bg_energies(record, 0, BinaryMask([[1, 0]]), [])
    with pytest.raises(ConfigurationError):
        fg_bg_energies(record, 0, BinaryMask([[1, 0]]), [9])


def test_mean_energies():
    fg, bg = mean_energies([0.36, 0.16, 0.08], [0.3, 0.2, 0.1])
    assert fg == pytest.approx(0.2)
    assert bg == pytest.approx(0.2)
    with pytest.raises(ConfigurationError):
        mean_energies([], [])
    with pytest.raises(ConfigurationError):
        mean_energies([1.0], [1.0, 2.0])


def test_reward_box_score():
    assert reward_box_score(1.0, 1.0) == pytest.approx(0.25)
    assert reward_box_score(3.0, 1.0) == pytest.approx(1.0 / 16.0)
    assert reward_box_score(1.0, 0.0) == 0.0
    with pytest.warns(DegenerateInputWarning):
        assert reward_box_score(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        reward_box_score(-1.0, 0.5)


def test_penalty_box_score():
    assert penalty_box_score(0.0) == 0.0
    assert penalty_box_score(math.e - 1.0) == pytest.approx(1.0, abs=1e-12)
    for x in (0.1, 0.5, 2.0):
        assert penalty_box_score(x) == pytest.approx(math.log1p(x))
    with pytest.raises(ValueError):
        penalty_box_score(-0.1)


def test_combined_attn_loss_matches_manual_assembly():
    record = _ca_record()
    masks = [{(1, 2): BinaryMask([[1, 0]])}]
    sched = ScheduleParams()
    cfg = SynthesisConfig(lambda_ca=1.5, lambda_sa=0.5)
    per, total = combined_attn_loss(record, masks, [[0]], 2, sched, cfg)
    alpha_t = alpha_decay(2, sched, cfg.bound_steps)
    expected = 1.5 * (reward_box_score(0.36, 0.04)
                      + alpha_t * penalty_box_score(0.04))
    assert per[0] == pytest.approx(expected, abs=1e-12)
    assert total == pytest.approx(expected ** 2, abs=1e-12)

    cfg_no_oob = SynthesisConfig(lambda_ca=1.5, use_out_of_box=False)
    per2, _ = combined_attn_loss(record, masks, [[0]], 2, sched, cfg_no_oob)
    assert per2[0] == pytest.approx(1.5 * reward_box_score(0.36, 0.04), abs=1e-12)
    with pytest.raises(ConfigurationError):
        combined_attn_loss(record, masks, [[0], [1]], 2, sched, cfg)


@pytest.mark.parametrize("token", [2, 5, -1])
def test_combined_attn_loss_rejects_token_outside_record(token):
    # The record has token columns 0 and 1; -1 must not read the last one.
    masks = [{(1, 2): BinaryMask([[1, 0]])}]
    with pytest.raises(ConfigurationError, match=f"token id {token}"):
        combined_attn_loss(_ca_record(), masks, [[token]], 2, ScheduleParams(),
                           SynthesisConfig())


def test_latent_opt_step():
    out = latent_opt_step(np.ones((1, 1, 1)), np.full((1, 1, 1), 2.0), 0.1)
    assert out[0, 0, 0] == pytest.approx(0.8)
    with pytest.raises(ShapeError):
        latent_opt_step(np.ones((2, 1, 1)), np.ones((1, 1, 1)), 0.1)
    with pytest.raises(ConfigurationError):
        latent_opt_step(np.ones((1, 1, 1)), np.ones((1, 1, 1)), -0.1)
    with pytest.raises(DivergenceError):
        latent_opt_step(np.ones((1, 1, 1)), np.full((1, 1, 1), np.nan), 0.1)


# ---------------------------------------------------------------------------
# Attention masking
# ---------------------------------------------------------------------------

def _masking_setup():
    # 2x2 grid, 3 tokens (background + 2 instances); instance boxes are the
    # left and right columns.
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 3))
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    record = AttentionRecord(
        (LayerAttention("decoder", "CA", 2, 2, AttentionMap(weights)),))
    left = BinaryMask([[1, 0], [1, 0]])
    right = BinaryMask([[0, 1], [0, 1]])
    masks = [{(2, 2): left}, {(2, 2): right}]
    return record, masks, [[1], [2]]


def test_masking_zeroes_off_mask_token_weight():
    record, masks, groups = _masking_setup()
    masked = apply_attention_masking(record, masks, groups)
    w = masked.layers[0].amap.weights
    left_flat = masks[0][(2, 2)].flat()
    right_flat = masks[1][(2, 2)].flat()
    assert np.all(w[left_flat < 0.5, 1] == 0.0)
    assert np.all(w[right_flat < 0.5, 2] == 0.0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_masking_is_idempotent_without_dead_rows():
    record, masks, groups = _masking_setup()
    once = apply_attention_masking(record, masks, groups)
    twice = apply_attention_masking(once, masks, groups)
    assert np.allclose(once.layers[0].amap.weights,
                       twice.layers[0].amap.weights, atol=1e-12)


def test_masking_uniform_fallback_warns():
    # Two tokens, both grouped: pixels outside every box lose all their mass
    # and fall back to a uniform row.
    weights = np.full((4, 2), 0.5)
    record = AttentionRecord(
        (LayerAttention("decoder", "CA", 2, 2, AttentionMap(weights)),))
    masks = [{(2, 2): BinaryMask([[1, 0], [0, 0]])},
             {(2, 2): BinaryMask([[0, 1], [0, 0]])}]
    with pytest.warns(DegenerateInputWarning):
        masked = apply_attention_masking(record, masks, [[0], [1]])
    w = masked.layers[0].amap.weights
    assert np.allclose(w[2], [0.5, 0.5])          # fallback row
    assert np.allclose(w.sum(axis=1), 1.0)


@pytest.mark.parametrize("token", [3, -1])
def test_masking_rejects_token_outside_record(token):
    record, masks, _ = _masking_setup()      # token columns 0, 1 and 2
    with pytest.raises(ConfigurationError, match=f"token id {token}"):
        apply_attention_masking(record, masks, [[1], [token]])


def test_masking_self_attention_blocks_cross_box_targets():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((4, 4))
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    record = AttentionRecord(
        (LayerAttention("decoder", "SA", 2, 2, AttentionMap(weights)),))
    left = BinaryMask([[1, 0], [1, 0]])
    right = BinaryMask([[0, 1], [0, 1]])
    masked = apply_attention_masking(record, [{(2, 2): left}, {(2, 2): right}],
                                     [[1], [2]])
    w = masked.layers[0].amap.weights
    # Pixels 0 and 2 are in the left box: their attention to right-box
    # targets (columns 1 and 3) must vanish.
    assert np.all(w[np.ix_([0, 2], [1, 3])] == 0.0)
    assert np.all(w[np.ix_([1, 3], [0, 2])] == 0.0)
    assert np.allclose(w.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# The sampling loop
# ---------------------------------------------------------------------------

def _loop_fixture():
    sc = generate_scenario((4, 4), 2, rho=0.0, seed=0, dim=4)
    tokens = synthesis_tokens(sc)
    params = default_params(4, 4, 4, seed=2)
    return sc, tokens, params


def test_run_synthesis_step_metrics_layout():
    sc, tokens, params = _loop_fixture()
    cfg = SynthesisConfig(total_steps=20, bound_steps=5, seed=0)
    sched = ScheduleParams()
    result = run_synthesis(tokens, params, sc.boxes(), cfg, sched=sched,
                           schedule=toy_schedule(20))
    assert len(result.steps) == 20
    for i, s in enumerate(result.steps, start=1):
        assert s.step == i
        assert s.t == 20 - i
        assert len(s.per_instance) == 2
        assert len(s.leakage) == 2
        assert all(0.0 <= v <= 1.0 for v in s.leakage)
        if i > 5:      # outside the optimization phase nothing moves in-step
            assert s.total_after == s.total
        if i >= 5:     # decay step is clamped at bound_steps
            assert s.alpha_t == pytest.approx(alpha_decay(5, sched, 5))
    assert result.z_final.shape == (4, 4, 4)
    assert np.all(np.isfinite(result.z_final))


def test_latent_steps_backpropagate_into_the_latent_only(monkeypatch):
    sc, tokens, params = _loop_fixture()
    requests = []
    backprop = synthesis.backprop

    def recorded_backprop(cache, d_attn=None, d_eps=None, wrt=GRADIENTS):
        requests.append(wrt)
        return backprop(cache, d_attn=d_attn, d_eps=d_eps, wrt=wrt)

    monkeypatch.setattr(synthesis, "backprop", recorded_backprop)
    run_synthesis(tokens, params, sc.boxes(), SynthesisConfig(total_steps=20, bound_steps=5),
                  sched=ScheduleParams(), schedule=toy_schedule(20))
    assert requests == [("z",)] * 5


def test_run_synthesis_is_deterministic_and_seed_sensitive():
    sc, tokens, params = _loop_fixture()
    cfg = SynthesisConfig(total_steps=20, bound_steps=5, seed=0)
    kw = dict(sched=ScheduleParams(), schedule=toy_schedule(20))
    a = run_synthesis(tokens, params, sc.boxes(), cfg, **kw)
    b = run_synthesis(tokens, params, sc.boxes(), cfg, **kw)
    assert np.array_equal(a.z_final, b.z_final)
    c = run_synthesis(tokens, params, sc.boxes(),
                      SynthesisConfig(total_steps=20, bound_steps=5, seed=1), **kw)
    assert not np.array_equal(a.z_final, c.z_final)


def test_run_synthesis_initial_latent_override():
    sc, tokens, params = _loop_fixture()
    cfg = SynthesisConfig(total_steps=20, bound_steps=5)
    kw = dict(sched=ScheduleParams(), schedule=toy_schedule(20))
    z0 = np.zeros((4, 4, 4))
    a = run_synthesis(tokens, params, sc.boxes(), cfg, initial_latent=z0, **kw)
    b = run_synthesis(tokens, params, sc.boxes(), cfg, initial_latent=z0, **kw)
    assert np.array_equal(a.z_final, b.z_final)
    with pytest.raises(ShapeError):
        run_synthesis(tokens, params, sc.boxes(), cfg,
                      initial_latent=np.zeros((2, 2, 4)), **kw)


def test_an_empty_refined_mask_warns_from_the_caller(monkeypatch):
    # The warning names the caller of run_synthesis on every supported
    # Python: before 3.12 a comprehension is a frame of its own, so the
    # step loop is a plain loop.
    sc = generate_scenario((16, 16), 2, rho=0.8, seed=0, dim=4)
    params = default_params(4, 16, 16, seed=7)
    cfg = SynthesisConfig(beta=128.0, total_steps=8, bound_steps=4, update_interval=2, seed=3)
    assign = refine.assign_clusters

    def second_emptied(*args):
        first, second = assign(*args)
        return [first, BinaryMask(np.zeros_like(second.bits))]

    monkeypatch.setattr(refine, "assign_clusters", second_emptied)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_synthesis(synthesis_tokens(sc, gain=10.0), params, sc.boxes(), cfg,
                      sched=ScheduleParams(), refinement=RefinementConfig())
    empty = [w for w in caught if "refined mask for instance 1 is empty" in str(w.message)]
    assert len(empty) == 2  # steps 6 and 8 refresh
    assert all(w.filename == __file__ for w in empty)


def test_run_synthesis_config_cross_checks():
    sc, tokens, params = _loop_fixture()
    with pytest.raises(ConfigurationError):
        run_synthesis(tokens, params, sc.boxes(),
                      SynthesisConfig(total_steps=20, bound_steps=5),
                      sched=ScheduleParams(linear_end=5),
                      schedule=toy_schedule(20))
    with pytest.raises(ConfigurationError):
        run_synthesis(tokens, params, sc.boxes(),
                      SynthesisConfig(total_steps=20, bound_steps=5),
                      sched=ScheduleParams(),
                      schedule=toy_schedule(30))
    with pytest.raises(ConfigurationError):
        run_synthesis(tokens, params, [], SynthesisConfig())
    # A box too small to own any cell at the gated resolution is an error.
    with pytest.raises(ConfigurationError):
        run_synthesis(tokens, params, [BoxSpec(0.4, 0.4, 0.45, 0.45)],
                      SynthesisConfig(total_steps=20, bound_steps=5),
                      sched=ScheduleParams(),
                      schedule=toy_schedule(20), groups=[[1]])
    with pytest.raises(ConfigurationError):
        run_synthesis(tokens, params, sc.boxes(),
                      SynthesisConfig(total_steps=20, bound_steps=5),
                      sched=ScheduleParams(),
                      schedule=toy_schedule(20), groups=[[1]])


def test_default_groups_uses_learnable_tokens():
    sc, tokens, _ = _loop_fixture()
    assert default_groups(tokens, 2) == [[1], [2]]
    with pytest.raises(ConfigurationError):
        default_groups(tokens, 3)


def test_write_steps_csv(tmp_path):
    sc, tokens, params = _loop_fixture()
    cfg = SynthesisConfig(total_steps=20, bound_steps=5)
    result = run_synthesis(tokens, params, sc.boxes(), cfg,
                           sched=ScheduleParams(),
                           schedule=toy_schedule(20))
    path = tmp_path / "steps.csv"
    write_steps_csv(result.steps, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(steps_header(2))
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "19"
    with pytest.raises(ConfigurationError):
        write_steps_csv([], str(path))


def _synthesis_64x64():
    """The benchmark's 64x64 inputs on 8 steps: steps 1-4 optimize, all
    mask, and steps 6 and 8 refresh the masks."""
    sc = generate_scenario((64, 64), 2, rho=0.8, seed=0, dim=16)
    tokens = synthesis_tokens(sc, gain=10.0)
    params = default_params(16, 64, 64, seed=7)
    cfg = SynthesisConfig(beta=128.0, total_steps=8, bound_steps=4,
                          update_interval=2, seed=3)
    latent = np.random.default_rng(0).standard_normal((64, 64, 16))
    return sc, tokens, params, cfg, latent


def _run_64x64(sc, tokens, params, cfg, latent):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        return run_synthesis(tokens, params, sc.boxes(), cfg,
                             sched=ScheduleParams(),
                             refinement=RefinementConfig(),
                             initial_latent=latent)


def test_run_synthesis_keeps_about_one_self_attention_map_alive():
    # At 64x64 the decoder self attention is a 1024 x 1024 map of 8 MB,
    # which no step builds, refresh steps included. A step holds the map's
    # in-box rows (384 of 1024 here), the row-block workers' scratch and,
    # while it optimizes, row-block buffers of the backward pass; a refresh
    # step's pass reads out 32 more columns per row, the sketch that K-means
    # clusters. The previous forward pass's rows and gradients must be gone
    # by then. So the bound is the one without refinement.
    inputs = _synthesis_64x64()
    sa_map_bytes = (32 * 32) ** 2 * 8
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = _run_64x64(*inputs)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert result.refined
    assert result.steps[0].total_after != result.steps[0].total
    assert peak <= 1.25 * sa_map_bytes, f"peak {peak / sa_map_bytes:.2f} maps"


def test_steps_that_do_not_refresh_keep_under_one_and_a_quarter_maps():
    # Without refinement no step builds the whole 8 MB self-attention map.
    # A step holds the map's 384 in-box rows, the row-block workers'
    # scratch (at most two row blocks) and, while it optimizes, one row
    # block of the box-loss gradient and of the softmax backward.
    sc, tokens, params, cfg, latent = _synthesis_64x64()
    sa_map_bytes = (32 * 32) ** 2 * 8
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_synthesis(tokens, params, sc.boxes(), cfg, sched=ScheduleParams(),
                               initial_latent=latent)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert not result.refined
    assert result.steps[0].total_after != result.steps[0].total
    assert peak <= 1.25 * sa_map_bytes, f"peak {peak / sa_map_bytes:.2f} maps"


# ---------------------------------------------------------------------------
# Row blocks on the row-block workers
# ---------------------------------------------------------------------------

class _InlinePool:
    """Stands in for the row-block pool: runs every block in the caller."""

    map = staticmethod(map)


def _masks_64x64(sc, params):
    resolutions = sorted({(l.height, l.width) for l in params.layers})
    return instance_masks_from_boxes(sc.boxes(), resolutions)


def _stream_passes(cache, masks):
    """Each self-attention layer's ``STREAM`` pass, built as a synthesis
    step's ``_forward`` builds one, run over the cache's whole map: its
    softmax rows are read as the pass reads its exponentials, and the map
    is left as it was."""
    passes = {}
    for li, lc in enumerate(cache.layers):
        if lc.work.attn_type == "SA":
            n = lc.attn.shape[0]
            sa = passes[li] = SAPass(synthesis._row_layout(masks, lc.work), STREAM,
                                     core.row_scratch(n, n), gated=False)
            sa.start(lc.v)
            sa.finish(core.map_row_blocks(
                lambda blk, buf: sa.read_rows(blk, lc.attn[blk], buf), n, n, sa.scratch))
    return passes


def _threaded_outputs(sc, tokens, params, cfg, latent):
    """Everything a 64x64 run computes in row blocks: the forward maps, the
    masked readout and a whole synthesis run."""
    cache = forward_cache(latent, _token_matrix(tokens, params.dim), params.layers)
    maps = [m.copy() for m in cache.maps()]
    masks = _masks_64x64(sc, params)
    eps = synthesis._masked_readout(cache, masks, [[1], [2]], _stream_passes(cache, masks))
    return maps, eps, _run_64x64(sc, tokens, params, cfg, latent)


def test_threaded_row_blocks_match_the_inline_run_bitwise(monkeypatch):
    # The 1024 x 1024 self-attention map is 8 row blocks. On a machine with
    # one CPU both runs are inline and the test compares a run with itself.
    inputs = _synthesis_64x64()
    pool_requests = []
    real_pool = core._row_pool

    def counted_pool():
        pool_requests.append(1)
        return real_pool()

    monkeypatch.setattr(core, "_row_pool", counted_pool)
    maps, eps, result = _threaded_outputs(*inputs)
    assert pool_requests or core._cpu_count() == 1
    monkeypatch.setattr(core, "_row_pool", lambda: _InlinePool)
    maps_1, eps_1, result_1 = _threaded_outputs(*inputs)

    assert [m.tobytes() for m in maps] == [m.tobytes() for m in maps_1]
    assert eps.tobytes() == eps_1.tobytes()
    assert result.z_final.tobytes() == result_1.z_final.tobytes()
    assert result.steps == result_1.steps
    assert result.refined == result_1.refined
    for mset, mset_1 in zip(result.masks, result_1.masks):
        assert mset.keys() == mset_1.keys()
        assert all(np.array_equal(mset[r].bits, mset_1[r].bits) for r in mset)


def test_lane_backward_matches_the_inline_run_bitwise(monkeypatch):
    # An optimizing step's backward runs the 384 in-box rows of the 64x64
    # self-attention map as six blocks of 64 rows, half a lane buffer each,
    # so three go to each lane: per block the box-loss gradient, the softmax
    # backward, the dQ rows and a dK partial, which the caller adds in block
    # order. On a machine with one CPU both runs are inline and the test
    # compares a run with itself.
    inputs = _synthesis_64x64()
    calls, grads = [], []
    map_blocks, real_backprop = gradients.map_row_blocks, synthesis.backprop

    def recorded_map(fn, n_rows, n_cols, scratch=None, blocks=None):
        calls.append((len(blocks), len(scratch)))
        return map_blocks(fn, n_rows, n_cols, scratch, blocks)

    def recorded_backprop(cache, **kwargs):
        result = real_backprop(cache, **kwargs)
        grads.append(result.d_z.tobytes())
        return result

    monkeypatch.setattr(gradients, "map_row_blocks", recorded_map)
    monkeypatch.setattr(synthesis, "backprop", recorded_backprop)
    _run_64x64(*inputs)
    assert len(grads) == inputs[3].bound_steps
    assert calls == [(6, min(core._cpu_count(), core.SCRATCH_LANES))] * len(grads)
    threaded = list(grads)
    grads.clear()
    monkeypatch.setattr(core, "_row_pool", lambda: _InlinePool)
    _run_64x64(*inputs)
    assert grads == threaded


def test_threaded_readout_warns_once_from_the_caller_on_a_dead_row():
    sc, tokens, params, _, latent = _synthesis_64x64()
    masks = _masks_64x64(sc, params)
    cache = forward_cache(latent, _token_matrix(tokens, params.dim), params.layers)
    sa = cache.layers[2]
    assert sa.work.attn_type == "SA" and len(core.row_blocks(*sa.attn.shape)) > 1
    rows, allowed = next(permitted_columns(
        synthesis._flat_masks(masks, sa.work) > 0.5))
    sa.attn[rows[0], allowed] = 0.0  # an in-box row with no permitted mass
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eps = synthesis._masked_readout(cache, masks, [[1], [2]],
                                        _stream_passes(cache, masks))
    assert [w.category for w in caught] == [DegenerateInputWarning]
    assert caught[0].filename == __file__
    assert np.all(np.isfinite(eps))
