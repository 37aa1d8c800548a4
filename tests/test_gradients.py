"""Finite-difference verification of the hand-written backward pass."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnctl.core import NARROW_COLS, softmax_rows_inplace
from attnctl.gradcheck import (
    REL_TOL,
    central_diff,
    compare,
    format_results,
    run_gradcheck,
)
from attnctl.gradients import softmax_rows_backward


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
