"""The text parsers' failure contract: a mutated file raises ValueError.

The params, tokens, mask and config parsers read files a user may have
truncated or edited. Whatever the damage, each either parses the text or
raises ``ValueError`` (``ShapeError`` and ``ConfigurationError`` are
subclasses), which the CLI reports as ``error: ...`` with exit status 1;
no other exception type may escape. Each case mutates a valid file a few
times: characters inserted, deleted or replaced, the text truncated, lines
duplicated or dropped, numbers replaced by ``nan``, ``inf`` or ``1e999``.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnctl.core import BinaryMask
from attnctl.denoiser import (
    TokenEmbedding,
    default_params,
    params_from_text,
    params_to_text,
    tokens_from_text,
    tokens_to_text,
)
from attnctl.harness import config_from_text

_CONFIG = """\
[scenario]
height = 8
width = 8
instances = 2
rho = 0.8
seed = 3

[learning]
lambda_rec = 1
total_iters = 40
stage1_iters = 30
coarse_iters = 10
learn_rate = 0.005

[synthesis]
beta = 128
bound_steps = 10
use_out_of_box = true

[refinement]
enabled = off

[boxes]
box_0 = 0 0 0.5 0.5
group_0 = 1
box_1 = 0.5 0.5 1 1
group_1 = 2
"""

# (parser, a valid text it reads)
_PARSERS = {
    "params": (params_from_text, params_to_text(default_params(2, 4, 4, seed=0))),
    "tokens": (tokens_from_text, tokens_to_text(
        [TokenEmbedding(0, np.zeros(2)), TokenEmbedding(1, np.array([0.1, -0.25]), True),
         TokenEmbedding(2, np.array([1e-3, 7.0]), True)])),
    "mask": (BinaryMask.from_text, BinaryMask([[1, 0, 1], [0, 1, 1]]).to_text()),
    "config": (config_from_text, _CONFIG),
}

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e-?\d+)?")
_SPECIALS = ("nan", "inf", "-inf", "1e999", "-1e999")


@st.composite
def _mutation(draw, text: str) -> str:
    """One mutation of ``text``."""
    kind = draw(st.sampled_from(["insert", "delete", "replace", "truncate",
                                 "duplicate line", "drop line", "special number"]))
    pos = draw(st.integers(0, len(text)))
    if kind == "insert":
        return text[:pos] + draw(st.text(min_size=1, max_size=3)) + text[pos:]
    if kind == "delete":
        return text[:pos] + text[pos + draw(st.integers(1, 8)):]
    if kind == "replace":
        return text[:pos] + draw(st.characters()) + text[pos + 1:]
    if kind == "truncate":
        return text[:pos]
    lines = text.splitlines(keepends=True)
    if kind in ("duplicate line", "drop line"):
        if not lines:
            return text
        i = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:i + 1] + lines[i:] if kind == "duplicate line"
                       else lines[:i] + lines[i + 1:])
    numbers = list(_NUMBER.finditer(text))
    if not numbers:
        return text
    m = numbers[draw(st.integers(0, len(numbers) - 1))]
    return text[:m.start()] + draw(st.sampled_from(_SPECIALS)) + text[m.end():]


@st.composite
def _mutated(draw, text: str) -> str:
    for _ in range(draw(st.integers(1, 3))):
        text = draw(_mutation(text))
    return text


@pytest.mark.parametrize("name", sorted(_PARSERS))
def test_parsers_read_their_own_files(name):
    parse, text = _PARSERS[name]
    parse(text)


@pytest.mark.parametrize("name", sorted(_PARSERS))
def test_a_mutated_file_raises_only_value_errors(name):
    parse, text = _PARSERS[name]

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_mutated(text))
    def check(mutated):
        try:
            parse(mutated)
        except ValueError:
            pass

    check()
