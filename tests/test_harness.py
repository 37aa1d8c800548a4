"""INI config parsing, experiment orchestration, and run reports."""
import dataclasses
import hashlib
import json
import math
import os

import pytest

from attnctl import core
from attnctl.errors import ConfigurationError
from attnctl.harness import (
    METRICS_HEADER,
    ControlConfig,
    ScenarioConfig,
    config_from_text,
    parse_config,
    report,
    run_experiment,
)
from attnctl.learning import LearningConfig
from attnctl.synthesis import BoxSpec, ScheduleParams, SynthesisConfig

TINY_CONFIG = """\
[scenario]
height = 8
width = 8
instances = 2
rho = 0.8
seed = 0

[learning]
total_iters = 20
stage1_iters = 15
coarse_iters = 5

[synthesis]
total_steps = 16
"""


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    base = tmp_path_factory.mktemp("exp")
    config = base / "exp.ini"
    config.write_text(TINY_CONFIG)
    result = run_experiment(str(config), str(base / "run"))
    return base, result


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_empty_text_gives_defaults():
    assert config_from_text("") == ControlConfig()


def test_section_overrides():
    cfg = config_from_text(
        "[scenario]\nheight = 6\nrho = 0.25\n"
        "[learning]\ntotal_iters = 1500\nlearn_rate = 0.5\n"
        "[refinement]\nenabled = off\n"
    )
    assert cfg.scenario.height == 6
    assert cfg.scenario.rho == 0.25
    assert cfg.scenario.width == 8  # untouched default
    assert cfg.learning.total_iters == 1500
    assert cfg.learning.learn_rate == 0.5
    assert not cfg.refinement.enabled


@pytest.mark.parametrize("raw,expected", [
    ("true", True), ("Yes", True), ("1", True), ("ON", True),
    ("false", False), ("No", False), ("0", False), ("off", False),
])
def test_bool_values(raw, expected):
    cfg = config_from_text(f"[refinement]\nenabled = {raw}\n")
    assert cfg.refinement.enabled is expected


def test_unknown_section_and_key():
    with pytest.raises(ConfigurationError, match="unknown config section"):
        config_from_text("[party]\nx = 1\n")
    with pytest.raises(ConfigurationError, match=r"\[scenario\] unknown key"):
        config_from_text("[scenario]\nbananas = 2\n")


def test_coercion_error_names_section_and_key():
    with pytest.raises(ConfigurationError, match=r"\[scenario\] height"):
        config_from_text("[scenario]\nheight = tall\n")
    with pytest.raises(ConfigurationError, match=r"\[refinement\] enabled"):
        config_from_text("[refinement]\nenabled = maybe\n")


_FLOAT_FIELDS = [(cls, f.name) for cls in (ScenarioConfig, LearningConfig,
                                           SynthesisConfig, ScheduleParams)
                 for f in dataclasses.fields(cls) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,name", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
def test_validate_rejects_non_finite_numbers(cls, name, value):
    # Config files cannot carry these (the parser names the section); a
    # dataclass built in Python is stopped by its own validate().
    config = cls(**{name: value})
    with pytest.raises(ConfigurationError, match=f"^{name}: must be a finite number"):
        config.validate()


def test_syntax_error_is_wrapped():
    with pytest.raises(ConfigurationError, match="config syntax error"):
        config_from_text("no section header here\n")


def test_boxes_section_parsing():
    cfg = config_from_text(
        "[boxes]\n"
        "box_0 = 0.0 0.25 0.375 0.75\n"
        "group_0 = 1\n"
        "box_1 = 0.5, 0.25, 0.875, 0.75\n"
        "group_1 = 2 3\n"
    )
    assert cfg.boxes == [
        BoxSpec(0.0, 0.25, 0.375, 0.75),
        BoxSpec(0.5, 0.25, 0.875, 0.75),
    ]
    assert cfg.groups == [[1], [2, 3]]


@pytest.mark.parametrize("body", [
    "blob = 1",                          # unknown key
    "box_x = 0 0 1 1\ngroup_x = 1",      # non-integer index
    "box_0 = 0 0 1\ngroup_0 = 1",        # wrong arity
    "box_0 = 0 0 1 1",                   # missing group
    "group_0 = 1",                       # group without any box
    "box_1 = 0 0 1 1\ngroup_1 = 1",      # indices must start at 0
    "box_0 = 0 0 1 1\ngroup_0 =",        # empty group
    "box_0 = 0 0 1 1\ngroup_0 = a",      # non-integer token id
    "box_0 = 0.5 0 0.25 1\ngroup_0 = 1", # x1 <= x0
])
def test_boxes_section_rejects(body):
    with pytest.raises(ConfigurationError):
        config_from_text(f"[boxes]\n{body}\n")


def test_horizon_must_match_bound_steps():
    with pytest.raises(ConfigurationError, match="horizon"):
        config_from_text("[synthesis]\nbound_steps = 10\n")
    cfg = config_from_text("[synthesis]\nbound_steps = 10\n"
                           "[schedule]\nhorizon = 10\n")
    assert cfg.schedule.horizon == 10


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read config"):
        parse_config(str(tmp_path / "nope.ini"))


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------

def test_run_writes_declared_artifacts(experiment):
    base, result = experiment
    run = base / "run"
    with open(run / "manifest.json") as fh:
        manifest = json.load(fh)
    for name in manifest["outputs"]:
        assert (run / name).exists(), name
    assert set(result.files) == set(manifest["outputs"]) | {"manifest.json"}
    expected = {"learn_trace.csv", "embeddings.txt", "denoiser.txt",
                "synth_steps.csv", "metrics.csv", "pca.csv", "oracle.json",
                "config.ini", "final_mask_0.txt", "final_mask_1.txt"}
    assert expected <= set(manifest["outputs"])
    config_bytes = (base / "exp.ini").read_bytes()
    assert manifest["config_sha256"] == hashlib.sha256(config_bytes).hexdigest()
    assert manifest["config"]["learning"]["total_iters"] == 20


def test_run_metrics_layout(experiment):
    base, _ = experiment
    lines = (base / "run" / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("learning", "0"), ("learning", "1"),
        ("synthesis", "0"), ("synthesis", "1"),
    ]
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0  # leakage_mass
        assert 0.0 <= float(r[3]) <= 1.0  # argmax_iou


def test_rerun_is_byte_identical(experiment, tmp_path):
    base, _ = experiment
    run_experiment(str(base / "exp.ini"), str(tmp_path / "again"))
    with open(base / "run" / "manifest.json") as fh:
        names = json.load(fh)["outputs"] + ["manifest.json"]
    for name in names:
        a = (base / "run" / name).read_bytes()
        b = (tmp_path / "again" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"


def test_run_rejects_box_count_mismatch(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text(TINY_CONFIG + "\n[boxes]\nbox_0 = 0 0 0.5 0.5\ngroup_0 = 1\n")
    with pytest.raises(ConfigurationError, match="boxes configured"):
        run_experiment(str(config), str(tmp_path / "run"))


def test_report_contents(experiment):
    base, _ = experiment
    text = report(str(base / "run"))
    assert "config hash: verified" in text
    assert "versions: attnctl" in text
    assert "learning: 20 iterations" in text
    assert "synthesis: 16 steps" in text
    assert "learning instance 0: leakage" in text
    assert "MISSING" not in text


def test_report_flags_tampered_config(experiment, tmp_path):
    base, _ = experiment
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in os.listdir(base / "run"):
        (copy / name).write_bytes((base / "run" / name).read_bytes())
    (copy / "config.ini").write_text(TINY_CONFIG + "\n# tampered\n")
    assert "config hash: MISMATCH" in report(str(copy))


def test_report_requires_run_directory(tmp_path):
    with pytest.raises(ConfigurationError, match="manifest.json"):
        report(str(tmp_path))


def test_experiment_at_16x16_runs_every_row_block_inline(monkeypatch, tmp_path):
    # A 16x16 grid's largest map, the 8x8 decoder self attention, is one row
    # block, so the default experiment never requests the row-block pool.
    def no_pool():
        raise AssertionError("the row-block pool was requested")

    monkeypatch.setattr(core, "_row_pool", no_pool)
    config = tmp_path / "exp.ini"
    config.write_text("[scenario]\nheight = 16\nwidth = 16\n")
    run_experiment(str(config), str(tmp_path / "run"))
    assert (tmp_path / "run" / "manifest.json").is_file()
