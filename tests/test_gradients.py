"""Finite-difference verification of the hand-written backward pass."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnctl import gradients
from attnctl.core import NARROW_COLS, softmax_rows_inplace
from attnctl.denoiser import forward_cache
from attnctl.gradcheck import (
    REL_TOL,
    _step_box_grads,
    build_fixture,
    central_diff,
    compare,
    format_results,
    run_gradcheck,
)
from attnctl.gradients import RowGrad, backprop, softmax_rows_backward
from attnctl.sapass import SARowGrad


def test_central_diff_on_quadratic():
    x = np.array([1.0, -2.0, 0.5])
    g = central_diff(lambda: float((x ** 2).sum()), x)
    # Central differences are exact for quadratics up to roundoff.
    assert np.allclose(g, 2.0 * x, atol=1e-9)


def test_compare_reports_relative_error():
    res = compare("demo", np.array([1.0, 2.0]), np.array([1.0, 2.0 * (1 + 1e-3)]))
    assert res.max_rel == pytest.approx(1e-3 / (1 + 1e-3), rel=1e-6)
    assert not res.passed
    tiny = compare("tiny", np.array([1e-12]), np.array([-1e-12]))
    assert tiny.max_rel == 0.0                # below the absolute floor


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_hand_gradients_match_finite_differences(seed):
    results = run_gradcheck(seed)
    names = {r.name for r in results}
    assert "reward_attn_wrt_embeddings" in names
    assert "penalty_attn_wrt_embeddings" in names
    assert "masked_rec_wrt_embeddings" in names
    assert "stage1_total_wrt_embeddings" in names
    assert "combined_box_wrt_latent" in names
    assert "combined_box_wrt_embeddings" in names
    assert any(n.startswith("masked_rec_wrt_value_proj") for n in names)
    for r in results:
        assert r.max_rel <= REL_TOL, f"{r.name}: max rel {r.max_rel:.3e}"


def test_gradcheck_box_backward_runs_on_the_in_box_rows(monkeypatch):
    # The box-loss checks verify the backward an optimizing synthesis step
    # runs: on a cache that keeps the self-attention map's in-box rows alone,
    # a gradient on exactly those rows, on the run's lanes.
    calls = []
    softmax_rows = gradients._softmax_rows

    def spy(lc, upstream, *args):
        calls.append((lc.rows, upstream))
        return softmax_rows(lc, upstream, *args)

    monkeypatch.setattr(gradients, "_softmax_rows", spy)
    assert all(r.passed for r in run_gradcheck(0))
    assert len(calls) == 2  # combined_box_wrt_latent and _wrt_embeddings
    for rows, upstream in calls:
        assert rows is not None and isinstance(upstream, SARowGrad)
        assert np.array_equal(upstream.rows, rows) and upstream.scratch


def test_backprop_refuses_a_row_gradient_off_its_compact_rows():
    fx = build_fixture(0)
    compact, d_attn = _step_box_grads(fx, 0.3)
    sa = [li for li, g in enumerate(d_attn) if isinstance(g, RowGrad)]
    assert sa
    whole = forward_cache(fx.z, fx.emb, fx.layers)
    dense = [np.zeros(lc.attn.shape) if li in sa else d_attn[li]
             for li, lc in enumerate(whole.layers)]
    backprop(compact, d_attn=d_attn)
    backprop(whole, d_attn=dense)
    with pytest.raises(ValueError, match="RowGrad"):  # with a readout gradient
        backprop(compact, d_attn=d_attn, d_eps=np.zeros(fx.z.shape))
    with pytest.raises(ValueError, match="RowGrad"):  # on a whole-map cache
        backprop(whole, d_attn=d_attn)
    with pytest.raises(ValueError, match="RowGrad"):  # a dense one on the compact rows
        backprop(compact, d_attn=dense)


def test_format_results_mentions_verdict():
    text = format_results(run_gradcheck(0))
    assert "all gradients verified" in text
    assert "tolerance" in text


def _row_reduced_softmax_backward(attn, d_attn):
    """The softmax backward with numpy's row reduction, the form every width
    used before narrow maps reduced column by column."""
    out = d_attn * attn
    inner = out.sum(axis=1, keepdims=True)
    return (d_attn - inner) * attn


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, NARROW_COLS - 1).flatmap(lambda w: st.tuples(
    st.integers(1, 300), st.just(w), st.integers(0, 2 ** 32 - 1), st.floats(0.1, 30.0))))
def test_narrow_softmax_backward_matches_the_row_reduction_bitwise(problem):
    # Some upstream entries are +0 and -0, as a loss gradient's columns
    # outside the sampled tokens are.
    rows, width, seed, spread = problem
    rng = np.random.default_rng(seed)
    attn = softmax_rows_inplace(rng.standard_normal((rows, width)) * spread)
    d_attn = rng.standard_normal((rows, width))
    zeros = rng.random((rows, width)) < 0.3
    d_attn[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    got = softmax_rows_backward(attn, d_attn)
    want = _row_reduced_softmax_backward(attn, d_attn)
    assert got.tobytes() == want.tobytes()
