"""Noise schedule, DDIM arithmetic, the toy forward pass, and serialization."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attnctl.core import CROSS, DECODER, ENCODER, SELF
from attnctl.denoiser import (
    DenoiserParams,
    LayerSpec,
    NoiseSchedule,
    TokenEmbedding,
    _blocks,
    _cell_sums,
    ddim_add_noise,
    ddim_step,
    default_params,
    forward_denoise,
    load_params,
    params_from_text,
    params_to_text,
    predict_clean,
    tokens_from_text,
    tokens_to_text,
    toy_schedule,
)
from attnctl.errors import ConfigurationError, ShapeError


def _tokens(dim, seed=0):
    rng = np.random.default_rng(seed)
    return [
        TokenEmbedding(0, np.zeros(dim)),
        TokenEmbedding(1, rng.standard_normal(dim), learnable=True),
        TokenEmbedding(2, rng.standard_normal(dim), learnable=True),
    ]


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

@st.composite
def _pooled_grids(draw):
    """A grid of h x w blocks of bh x bw cells, d channels and 0-2 batch
    axes, and the layer extents (h, w) it pools to. Values span magnitudes
    and include signed zeros, so that a sum in another order shows."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    bh, bw = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    d = draw(st.sampled_from([1, 2, 4, 16]))
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (*lead, h * bh, w * bw, d)
    grid = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    grid[rng.random(shape) < 0.1] = 0.0
    grid[rng.random(shape) < 0.1] = -0.0
    return grid, h, w


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_pooled_grids())
def test_cell_sums_match_numpys_block_sum_bitwise(problem):
    grid, h, w = problem
    *lead, H, W, d = grid.shape
    got = _cell_sums(grid, h, w)
    if (H, W) == (h, w):  # a block of one cell sums to its value, -0.0 included
        assert np.shares_memory(got, grid) and got.tobytes() == grid.tobytes()
        return
    ref = _blocks(grid, h, w).sum(axis=(-4, -2)).reshape(*lead, h * w, d)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Schedule and DDIM arithmetic
# ---------------------------------------------------------------------------

def test_noise_schedule_validation():
    NoiseSchedule([1.0, 0.5, 0.2])           # 1.0 is allowed
    with pytest.raises(ValueError):
        NoiseSchedule([0.5, 0.5])             # not strictly decreasing
    with pytest.raises(ValueError):
        NoiseSchedule([0.2, 0.5])
    with pytest.raises(ValueError):
        NoiseSchedule([1.1, 0.5])
    with pytest.raises(ValueError):
        NoiseSchedule([0.5, 0.0])
    with pytest.raises(ShapeError):
        NoiseSchedule([0.5])


def test_toy_schedule_endpoints():
    sched = toy_schedule(50)
    assert sched.total_steps == 50
    assert sched.abar(0) == pytest.approx(0.9999)
    assert sched.abar(49) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        sched.abar(50)
    with pytest.raises(ValueError):
        sched.abar(-1)


def test_ddim_worked_example():
    # abar_1 = 0.25, abar_0 = 0.81.  Mixing z0 = 2 with eps = 1 at level 1
    # gives z = 0.5*2 + sqrt(0.75); stepping back with the true eps lands on
    # 0.9*2 + sqrt(0.19).
    sched = NoiseSchedule([0.81, 0.25])
    z0 = np.full((1, 1, 1), 2.0)
    eps = np.ones((1, 1, 1))
    z1 = ddim_add_noise(z0, eps, 1, sched)
    assert z1[0, 0, 0] == pytest.approx(1.0 + math.sqrt(0.75), abs=1e-12)
    back = ddim_step(z1, eps, 1, 0, sched)
    assert back[0, 0, 0] == pytest.approx(1.8 + math.sqrt(0.19), abs=1e-12)


def test_ddim_step_exact_at_unit_signal():
    # With abar_0 = 1.0 the reverse step must reproduce z0 exactly when the
    # true noise is supplied.
    sched = NoiseSchedule([1.0, 0.25])
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal((3, 2, 4))
    eps = rng.standard_normal((3, 2, 4))
    z1 = ddim_add_noise(z0, eps, 1, sched)
    assert np.allclose(ddim_step(z1, eps, 1, 0, sched), z0, atol=1e-12)


def test_predict_clean_inverts_add_noise():
    sched = toy_schedule(10)
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal((4, 4, 3))
    eps = rng.standard_normal((4, 4, 3))
    for t in range(10):
        z_t = ddim_add_noise(z0, eps, t, sched)
        assert np.allclose(predict_clean(z_t, eps, t, sched), z0, atol=1e-9)


def test_ddim_step_requires_decreasing_t():
    sched = toy_schedule(10)
    z = np.zeros((1, 1, 1))
    with pytest.raises(ValueError):
        ddim_step(z, z, 3, 3, sched)
    with pytest.raises(ValueError):
        ddim_step(z, z, 3, 5, sched)


def test_ddim_shape_checks():
    sched = toy_schedule(10)
    with pytest.raises(ShapeError):
        ddim_add_noise(np.zeros((2, 2, 1)), np.zeros((2, 2, 2)), 0, sched)
    with pytest.raises(ShapeError):
        predict_clean(np.zeros((2, 2, 1)), np.zeros((1, 2, 1)), 0, sched)


# ---------------------------------------------------------------------------
# Parameters and forward pass
# ---------------------------------------------------------------------------

def test_default_params_layout():
    params = default_params(4, 8, 6, seed=0)
    kinds = [(l.kind, l.attn_type, l.height, l.width) for l in params.layers]
    assert kinds == [
        ("encoder", "CA", 8, 6),
        ("decoder", "CA", 4, 3),
        ("decoder", "SA", 4, 3),
    ]
    assert params.dim == 4
    with pytest.raises(ConfigurationError):
        default_params(4, 7, 6)               # odd height


def test_params_require_gated_layers():
    w = np.eye(2)
    enc = LayerSpec("encoder", "CA", 2, 2, w, w, w)
    dec_ca = LayerSpec("decoder", "CA", 2, 2, w, w, w)
    dec_sa = LayerSpec("decoder", "SA", 2, 2, w, w, w)
    DenoiserParams(2, (dec_ca, dec_sa))
    with pytest.raises(ConfigurationError):
        DenoiserParams(2, (enc, dec_sa))      # no decoder CA
    with pytest.raises(ConfigurationError):
        DenoiserParams(2, (dec_ca,))          # no SA layer
    with pytest.raises(ConfigurationError):
        DenoiserParams(2, ())


def test_layer_spec_validation():
    w = np.eye(3)
    with pytest.raises(ConfigurationError):
        LayerSpec("neither", "CA", 2, 2, w, w, w)
    with pytest.raises(ConfigurationError):
        LayerSpec("decoder", "CB", 2, 2, w, w, w)
    with pytest.raises(ShapeError):
        LayerSpec("decoder", "CA", 2, 2, w, np.eye(2), w)
    with pytest.raises(ValueError):
        LayerSpec("decoder", "CA", 2, 2, w, w, w * np.nan)


def test_token_embedding_validation():
    tok = TokenEmbedding(3, [1.0, 2.0])
    assert tok.vector.dtype == np.float64
    with pytest.raises(ValueError):
        tok.vector[0] = 5.0                   # frozen array
    with pytest.raises(ShapeError):
        TokenEmbedding(0, [[1.0]])
    with pytest.raises(ValueError):
        TokenEmbedding(0, [np.inf])


def test_forward_denoise_shapes_and_rows():
    params = default_params(4, 4, 4, seed=1)
    z = np.random.default_rng(0).standard_normal((4, 4, 4))
    eps_hat, record = forward_denoise(z, 0, _tokens(4), params)
    assert eps_hat.shape == (4, 4, 4)
    assert np.all(np.isfinite(eps_hat))
    assert len(record.layers) == 3
    for layer in record.layers:
        w = layer.amap.weights
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
    ca = record.gated_cross()[0]
    assert ca.amap.cols == 3                 # one column per token
    sa = record.gated_self()[0]
    assert sa.amap.cols == sa.amap.rows == 4  # 2x2 grid


def test_forward_denoise_is_timestep_independent():
    params = default_params(4, 4, 4, seed=1)
    z = np.random.default_rng(0).standard_normal((4, 4, 4))
    sched = toy_schedule(50)
    a, _ = forward_denoise(z, 0, _tokens(4), params, sched)
    b, _ = forward_denoise(z, 30, _tokens(4), params, sched)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        forward_denoise(z, 50, _tokens(4), params, sched)


def test_forward_denoise_input_validation():
    params = default_params(4, 4, 4, seed=1)
    with pytest.raises(ShapeError):
        forward_denoise(np.zeros((4, 4)), 0, _tokens(4), params)
    with pytest.raises(ShapeError):
        forward_denoise(np.zeros((4, 4, 3)), 0, _tokens(4), params)
    with pytest.raises(ValueError):
        forward_denoise(np.full((4, 4, 4), np.nan), 0, _tokens(4), params)
    bad = [TokenEmbedding(0, np.zeros(4)), TokenEmbedding(0, np.ones(4))]
    with pytest.raises(ConfigurationError):
        forward_denoise(np.zeros((4, 4, 4)), 0, bad, params)
    with pytest.raises(ShapeError):
        forward_denoise(np.zeros((4, 4, 4)), 0, [TokenEmbedding(0, np.zeros(5))], params)


def test_forward_denoise_golden_regression():
    # Frozen values from the initial implementation; any numeric drift in the
    # forward pass shows up here before it reaches the experiments.
    rng = np.random.default_rng(42)
    params = default_params(4, 4, 4, seed=3)
    z = rng.standard_normal((4, 4, 4))
    tokens = [TokenEmbedding(0, np.zeros(4)),
              TokenEmbedding(1, rng.standard_normal(4), learnable=True),
              TokenEmbedding(2, rng.standard_normal(4), learnable=True)]
    eps_hat, record = forward_denoise(z, 0, tokens, params)
    assert eps_hat[0, 0, 0] == pytest.approx(-0.017502445112772522, abs=1e-15)
    assert float(eps_hat.sum()) == pytest.approx(-0.7605513461543677, abs=1e-12)
    assert record.layers[1].amap.weights[0, 0] == pytest.approx(
        0.33546945820836777, abs=1e-15)
    assert record.layers[2].amap.weights[0, 0] == pytest.approx(
        0.2496573805339107, abs=1e-15)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_params_text_round_trip(tmp_path):
    params = default_params(3, 4, 4, seed=9)
    text = params_to_text(params)
    back = params_from_text(text)
    assert back.dim == params.dim
    assert len(back.layers) == len(params.layers)
    for a, b in zip(params.layers, back.layers):
        assert (a.kind, a.attn_type, a.height, a.width) == \
               (b.kind, b.attn_type, b.height, b.width)
        # repr-based float formatting round-trips exactly
        assert np.array_equal(a.wq, b.wq)
        assert np.array_equal(a.wk, b.wk)
        assert np.array_equal(a.wv, b.wv)


def test_params_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        params_from_text("not-a-params-file\n")
    good = params_to_text(default_params(2, 2, 2, seed=0))
    with pytest.raises(ValueError):
        params_from_text(good.replace("wk", "wx", 1))


@pytest.mark.parametrize("kind", ["params", "tokens"])
def test_truncated_text_raises_value_error_naming_the_line(kind):
    if kind == "params":
        text, parse = params_to_text(default_params(2, 2, 2, seed=0)), params_from_text
    else:
        text, parse = tokens_to_text(_tokens(2, seed=1)), tokens_from_text
    first_line = len(text.splitlines()[0]) + 1
    for cut in range(first_line, len(text)):
        # A cut inside the last number may still parse; any other cut must
        # raise ValueError with a line number, never an IndexError.
        try:
            parse(text[:cut])
        except ValueError as exc:
            assert "line" in str(exc), (cut, str(exc))


def test_parse_errors_name_the_line():
    params_text = params_to_text(default_params(2, 2, 2, seed=0))
    with pytest.raises(ValueError, match=r"file ends after line 5"):
        params_from_text("\n".join(params_text.splitlines()[:5]))
    tokens_text = tokens_to_text(_tokens(2, seed=1))
    with pytest.raises(ValueError, match=r"line 4: bad token header"):
        tokens_from_text(tokens_text.replace("token 0 fixed", "token 0", 1))


def test_load_params_names_the_path(tmp_path):
    path = tmp_path / "denoiser.txt"
    path.write_text(params_to_text(default_params(2, 2, 2, seed=0))[:120])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_params(str(path))


def test_tokens_to_text_refuses_mixed_widths():
    tokens = _tokens(2, seed=1)
    tokens[2] = TokenEmbedding(2, np.ones(3), learnable=True)
    with pytest.raises(ShapeError, match=r"token 2 has dim 3, token 0 has dim 2"):
        tokens_to_text(tokens)


def test_tokens_text_round_trip():
    tokens = _tokens(5, seed=4)
    back = tokens_from_text(tokens_to_text(tokens))
    assert [t.token_id for t in back] == [0, 1, 2]
    assert [t.learnable for t in back] == [False, True, True]
    for a, b in zip(tokens, back):
        assert np.array_equal(a.vector, b.vector)
    with pytest.raises(ValueError):
        tokens_from_text("wrong header\n")


# Finite float64 values, with the edges of the format drawn often: signed
# zeros, the smallest subnormals, the largest subnormal, the smallest
# normal and the largest finite magnitudes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, -2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623155e308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _random_params(draw):
    """A stack of 2-5 layers in random order, with a decoder cross-attention
    and a self-attention layer among them, random extents and weights."""
    dim = draw(st.integers(1, 5))
    tags = draw(st.lists(st.tuples(st.sampled_from([ENCODER, DECODER]),
                                   st.sampled_from([CROSS, SELF])), max_size=3))
    tags = draw(st.permutations(
        tags + [(DECODER, CROSS), (draw(st.sampled_from([ENCODER, DECODER])), SELF)]))
    weights = hnp.arrays(np.float64, (dim, dim), elements=_FLOATS)
    layers = [LayerSpec(kind, attn_type, draw(st.integers(1, 64)), draw(st.integers(1, 64)),
                        draw(weights), draw(weights), draw(weights))
              for kind, attn_type in tags]
    return DenoiserParams(dim, tuple(layers))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_random_params())
def test_params_text_round_trips_exactly(params):
    back = params_from_text(params_to_text(params))
    assert back.dim == params.dim
    assert [(l.kind, l.attn_type, l.height, l.width) for l in back.layers] == \
        [(l.kind, l.attn_type, l.height, l.width) for l in params.layers]
    for a, b in zip(params.layers, back.layers):
        for name in ("wq", "wk", "wv"):
            assert _same_bits(getattr(a, name), getattr(b, name))


@st.composite
def _random_tokens(draw):
    """1-6 tokens of one random width, with random ids, flags and vectors."""
    dim = draw(st.integers(1, 8))
    return [TokenEmbedding(draw(st.integers(0, 2 ** 31 - 1)),
                           draw(hnp.arrays(np.float64, dim, elements=_FLOATS)),
                           draw(st.booleans()))
            for _ in range(draw(st.integers(1, 6)))]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_random_tokens())
def test_tokens_text_round_trips_exactly(tokens):
    back = tokens_from_text(tokens_to_text(tokens))
    assert [(t.token_id, t.learnable) for t in back] == \
        [(t.token_id, t.learnable) for t in tokens]
    for a, b in zip(tokens, back):
        assert _same_bits(a.vector, b.vector)
