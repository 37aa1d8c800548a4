"""Attention-map and mask primitives: validation, oracles, invariants."""
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attnctl import core
from attnctl.core import (
    NARROW_COLS,
    ROW_BLOCK,
    AttentionMap,
    AttentionRecord,
    BinaryMask,
    LayerAttention,
    downsample_mask,
    map_row_blocks,
    resample_mask_nearest,
    row_blocks,
    scaled_dot_attention,
    softmax_rows,
    softmax_rows_inplace,
)
from attnctl.errors import ResampleError, ShapeError


def test_attention_map_accepts_row_stochastic():
    amap = AttentionMap([[0.25, 0.75], [1.0, 0.0]])
    assert amap.rows == 2
    assert amap.cols == 2
    assert np.allclose(amap.weights.sum(axis=1), 1.0)


def test_attention_map_rejects_bad_rows():
    with pytest.raises(ValueError):
        AttentionMap([[0.5, 0.6]])          # sums to 1.1
    with pytest.raises(ValueError):
        AttentionMap([[1.5, -0.5]])         # entries outside [0, 1]
    with pytest.raises(ValueError):
        AttentionMap([[np.nan, 1.0]])
    with pytest.raises(ShapeError):
        AttentionMap([0.5, 0.5])            # 1-D
    with pytest.raises(ShapeError):
        AttentionMap(np.ones((0, 3)))


def test_attention_map_is_immutable():
    amap = AttentionMap([[0.5, 0.5]])
    with pytest.raises(ValueError):
        amap.weights[0, 0] = 0.9


def test_attention_map_column():
    amap = AttentionMap([[0.2, 0.8], [0.6, 0.4]])
    assert np.allclose(amap.column(1), [0.8, 0.4])
    with pytest.raises(ShapeError):
        amap.column(2)
    with pytest.raises(ShapeError):
        amap.column(-1)


def test_softmax_rows_two_logit_oracle():
    # exp(0) : exp(ln 2) = 1 : 2, so the row is (1/3, 2/3).
    amap = softmax_rows([[0.0, math.log(2.0)]])
    assert amap.weights[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert amap.weights[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_softmax_rows_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.standard_normal((5, 7)) * 3.0
        shift = rng.standard_normal((5, 1)) * 100.0
        a = softmax_rows(logits).weights
        b = softmax_rows(logits + shift).weights
        assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rows_extreme_logits_stay_finite():
    amap = softmax_rows([[1000.0, 0.0], [-1000.0, 0.0]])
    assert np.all(np.isfinite(amap.weights))
    assert amap.weights[0, 0] == pytest.approx(1.0)
    assert amap.weights[1, 1] == pytest.approx(1.0)


def _row_reduced_softmax(z):
    """The softmax with numpy's row reductions, the form every width used
    before narrow maps reduced column by column."""
    z = z - z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    return z / z.sum(axis=1, keepdims=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, NARROW_COLS - 1).flatmap(lambda w: st.tuples(
    st.integers(1, 300), st.just(w), st.integers(0, 2 ** 32 - 1), st.floats(0.1, 30.0))))
def test_narrow_softmax_matches_the_row_reduction_bitwise(problem):
    rows, width, seed, spread = problem
    logits = np.random.default_rng(seed).standard_normal((rows, width)) * spread
    got = softmax_rows_inplace(logits.copy())
    want = _row_reduced_softmax(logits)
    assert got.tobytes() == want.tobytes()


def test_map_row_blocks_returns_results_in_block_order():
    n_cols = 1024
    blocks = row_blocks(1024, n_cols)
    assert len(blocks) == 1024 * n_cols // ROW_BLOCK
    assert map_row_blocks(lambda blk: blk, 1024, n_cols) == list(blocks)


def test_map_row_blocks_runs_a_single_block_inline(monkeypatch):
    def no_pool():
        raise AssertionError("a one-block map reached the pool")

    monkeypatch.setattr(core, "_row_pool", no_pool)
    threads = map_row_blocks(lambda blk: threading.current_thread(), 64, 64)
    assert threads == [threading.current_thread()]


def test_map_row_blocks_raises_a_block_error():
    def fail_on_third(blk):
        if blk.start == row_blocks(1024, 1024)[2].start:
            raise ValueError("block 2")
        return blk

    with pytest.raises(ValueError, match="block 2"):
        map_row_blocks(fail_on_third, 1024, 1024)


def test_scaled_dot_attention_hand_value():
    # One query [1, 0] against keys [1, 0] and [0, 1]: logits (1/sqrt(2), 0).
    amap = scaled_dot_attention([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    e = math.exp(1.0 / math.sqrt(2.0))
    assert amap.weights[0, 0] == pytest.approx(e / (e + 1.0), abs=1e-12)


def test_scaled_dot_attention_zero_queries_are_uniform():
    amap = scaled_dot_attention(np.zeros((3, 4)), np.random.default_rng(1).standard_normal((5, 4)))
    assert np.allclose(amap.weights, 1.0 / 5.0)


def test_scaled_dot_attention_dim_mismatch():
    with pytest.raises(ShapeError):
        scaled_dot_attention(np.zeros((2, 3)), np.zeros((2, 4)))


def test_binary_mask_basics():
    m = BinaryMask([[1, 0], [0, 1]])
    assert (m.height, m.width) == (2, 2)
    assert m.count == 2
    assert not m.is_empty()
    assert np.array_equal(m.flat(), [1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        BinaryMask([[2, 0]])
    with pytest.raises(ShapeError):
        BinaryMask([1, 0])


def test_binary_mask_intersects_and_union():
    a = BinaryMask([[1, 0], [0, 0]])
    b = BinaryMask([[0, 1], [0, 0]])
    c = BinaryMask([[1, 1], [0, 0]])
    assert not a.intersects(b)
    assert a.intersects(c)
    u = BinaryMask.union([a, b])
    assert np.array_equal(u.bits, c.bits)
    with pytest.raises(ShapeError):
        a.intersects(BinaryMask([[1]]))
    with pytest.raises(ShapeError):
        BinaryMask.union([])


def test_binary_mask_text_round_trip():
    m = BinaryMask([[1, 0, 1], [0, 1, 0]])
    text = m.to_text()
    assert text.splitlines()[0] == "2 3"
    back = BinaryMask.from_text(text)
    assert np.array_equal(back.bits, m.bits)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 40).flatmap(lambda h: st.integers(1, 40).flatmap(
    lambda w: hnp.arrays(np.uint8, (h, w), elements=st.integers(0, 1)))))
def test_binary_mask_text_round_trips_exactly(bits):
    mask = BinaryMask(bits)
    back = BinaryMask.from_text(mask.to_text())
    assert back.bits.shape == mask.bits.shape
    assert back.bits.tobytes() == mask.bits.tobytes()


@pytest.mark.parametrize("bad", [
    "",
    "2\n1 0\n0 1",
    "2 2\n1 0\n0 2",
    "2 2\n1 0",
    "a b\n1 0",
])
def test_binary_mask_from_text_rejects_garbage(bad):
    with pytest.raises(ValueError):
        BinaryMask.from_text(bad)


def test_binary_mask_from_text_names_the_bad_line():
    with pytest.raises(ValueError, match="line 3"):
        BinaryMask.from_text("2 2\n1 0\n0 x\n")


def test_downsample_mask_majority_rule():
    bits = np.zeros((4, 4), dtype=np.uint8)
    bits[0:2, 0:2] = 1          # full block -> 1
    bits[0, 2] = 1              # quarter block -> 0
    bits[2:4, 0] = 1            # half block -> 1 (mean 0.5 rounds up)
    down = downsample_mask(BinaryMask(bits), 2, 2)
    assert np.array_equal(down.bits, [[1, 0], [1, 0]])


def test_downsample_mask_requires_divisible_extents():
    with pytest.raises(ResampleError):
        downsample_mask(BinaryMask(np.ones((4, 4), dtype=np.uint8)), 3, 2)
    with pytest.raises(ResampleError):
        downsample_mask(BinaryMask(np.ones((4, 4), dtype=np.uint8)), 0, 2)


def test_resample_mask_nearest():
    m = BinaryMask([[1, 0], [0, 1]])
    same = resample_mask_nearest(m, 2, 2)
    assert np.array_equal(same.bits, m.bits)
    up = resample_mask_nearest(m, 4, 4)
    assert np.array_equal(up.bits[0:2, 0:2], np.ones((2, 2)))
    assert np.array_equal(up.bits[0:2, 2:4], np.zeros((2, 2)))
    with pytest.raises(ResampleError):
        resample_mask_nearest(m, 0, 4)


def test_layer_attention_validation():
    amap = AttentionMap(np.full((4, 4), 0.25))
    LayerAttention("decoder", "SA", 2, 2, amap)
    with pytest.raises(ValueError):
        LayerAttention("middle", "SA", 2, 2, amap)
    with pytest.raises(ValueError):
        LayerAttention("decoder", "XX", 2, 2, amap)
    with pytest.raises(ShapeError):
        LayerAttention("decoder", "SA", 2, 3, amap)   # 6 pixels vs 4 rows
    with pytest.raises(ShapeError):
        LayerAttention("decoder", "SA", 2, 2, AttentionMap(np.full((4, 2), 0.5)))


def test_attention_record_gating():
    ca = AttentionMap(np.full((4, 2), 0.5))
    sa = AttentionMap(np.full((4, 4), 0.25))
    record = AttentionRecord((
        LayerAttention("encoder", "CA", 2, 2, ca),
        LayerAttention("decoder", "CA", 2, 2, ca),
        LayerAttention("decoder", "SA", 2, 2, sa),
    ))
    assert [l.kind for l in record.gated_cross()] == ["decoder"]
    assert [l.attn_type for l in record.gated_self()] == ["SA"]
    with pytest.raises(ShapeError):
        AttentionRecord(())
