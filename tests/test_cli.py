"""End-to-end command-line behavior: exit codes, output text, artifacts."""
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from attnctl.cli import main
from attnctl.denoiser import TokenEmbedding, save_tokens
from attnctl.kkt import ORACLE_MAX_K

CONFIG = """\
[scenario]
height = 8
width = 8
instances = 2
rho = 0.8
seed = 0

[learning]
total_iters = 12
stage1_iters = 8
coarse_iters = 4

[synthesis]
total_steps = 16
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    (base / "run.ini").write_text(CONFIG)
    (base / "diverge.ini").write_text(
        CONFIG.replace("coarse_iters = 4", "coarse_iters = 4\nlearn_rate = 1e300"))
    return base


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "attnctl" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_oracle_prints_json(capsys, tmp_path):
    out_file = tmp_path / "oracle.json"
    assert main(["oracle", "--k", "2", "--alpha", "0.5",
                 "--out", str(out_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    inst = payload["reward"]["instance_pixel"]
    assert inst["background"] == pytest.approx(1.0 / 6.0)
    assert inst["multiplier"] == pytest.approx(-1.0 / 3.0)
    assert json.loads(out_file.read_text()) == payload


@pytest.mark.parametrize("k", [ORACLE_MAX_K + 1, 20_000, 100_000_000])
def test_oracle_with_too_many_instances_exits_one_before_allocating(capsys, k):
    # k = 10^8 once asked numpy for 71 PiB and ended in a traceback.
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        code = main(["oracle", "--k", str(k), "--alpha", "0.5"])
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert code == 1
    assert f"[1, {ORACLE_MAX_K}]" in capsys.readouterr().err
    assert peak < 1 << 20


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    assert "all gradients verified" in capsys.readouterr().out


def test_bad_config_exits_one(capsys, tmp_path):
    missing = tmp_path / "nope.ini"
    assert main(["learn", str(missing), "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nheight = tall\n")
    assert main(["learn", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", [("learning", "learn_rate"), ("synthesis", "beta")])
def test_non_finite_config_number_exits_one(capsys, tmp_path, section, key, value):
    # A nan learn_rate once ran and was reported as numeric divergence.
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    assert main(["learn", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"[{section}] {key}: must be a finite number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,line,message", [
    ("synthesis", "seed = -1", "error: [synthesis] seed: must be >= 0"),
    ("scenario", "height = 1", "error: [scenario] height: must be >= 2"),
], ids=["synthesis-seed", "scenario-height"])
def test_config_validation_error_names_section_and_key(capsys, tmp_path, section, line,
                                                        message):
    # [scenario], [learning] and [synthesis] each have a seed, so a bare
    # "seed" would not say which one is wrong.
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{line}\n")
    assert main(["learn", str(config), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_exits_two(capsys, workspace, tmp_path):
    code = main(["learn", str(workspace / "diverge.ini"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "numeric divergence" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning",
                            "ignore::attnctl.errors.DegenerateInputWarning")
@pytest.mark.parametrize("refinement", ["false", "true"])
def test_synthesis_divergence_exits_two_and_names_the_step(capsys, tmp_path, refinement):
    # Instance embeddings of +-1e300 give value vectors near 1e300, so the
    # first step's readout makes the latent huge and the second step's
    # cross-attention logits overflow. With beta = 0 no latent gradient is
    # taken, so only the guard after each DDIM step can catch it.
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    save_tokens([TokenEmbedding(0, np.zeros(4)),
                 TokenEmbedding(1, 1e300 * sign, learnable=True),
                 TokenEmbedding(2, -1e300 * sign, learnable=True)],
                str(tmp_path / "emb.txt"))
    config = tmp_path / "diverge.ini"
    config.write_text("[scenario]\nheight = 8\nwidth = 8\n\n[synthesis]\nbeta = 0\n\n"
                      f"[refinement]\nenabled = {refinement}\n")
    code = main(["synthesize", str(config), "--out", str(tmp_path / "out"),
                 "--embeddings", str(tmp_path / "emb.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric divergence: ")
    assert "step 2" in err


@pytest.mark.parametrize("command", ["learn", "synthesize", "experiment"])
def test_ini_syntax_error_names_the_config_path(capsys, tmp_path, command):
    config = tmp_path / "broken.ini"
    config.write_text("[scenario\nheight = 8\n")
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(config) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["learn", "synthesize", "experiment"])
def test_non_utf8_config_names_the_path_and_offset(capsys, tmp_path, command):
    config = tmp_path / "latin1.ini"
    config.write_bytes(b"[scenario]\nheight = \xff\n")
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(config) in err
    assert "offset 20" in err and "line 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["learn", "synthesize", "experiment"])
def test_manifest_lists_every_artifact_but_itself(capsys, workspace, tmp_path, command):
    out = tmp_path / command
    assert main([command, str(workspace / "run.ini"), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert "manifest.json" not in outputs
    for name in outputs:
        assert (out / name).exists(), name
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "config hash: verified" in text
    assert "MISSING" not in text


def test_learn_writes_artifacts(capsys, workspace):
    out = workspace / "learn_run"
    assert main(["learn", str(workspace / "run.ini"), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "learned 2 instance embeddings in 12 iterations" in text
    for name in ("learn_trace.csv", "embeddings.txt", "denoiser.txt",
                 "metrics.csv", "config.ini", "manifest.json"):
        assert (out / name).exists(), name


def test_synthesize_from_learned_artifacts(capsys, workspace):
    learn_out = workspace / "learn_run"
    if not learn_out.exists():  # ordering safety: rebuild the inputs
        assert main(["learn", str(workspace / "run.ini"),
                     "--out", str(learn_out)]) == 0
        capsys.readouterr()
    out = workspace / "synth_run"
    code = main(["synthesize", str(workspace / "run.ini"), "--out", str(out),
                 "--embeddings", str(learn_out / "embeddings.txt"),
                 "--params", str(learn_out / "denoiser.txt")])
    assert code == 0
    text = capsys.readouterr().out
    assert "synthesis finished" in text
    assert (out / "synth_steps.csv").exists()
    assert (out / "final_mask_0.txt").exists()
    assert (out / "final_mask_1.txt").exists()


def test_synthesize_with_truncated_params_exits_one(capsys, workspace, tmp_path):
    learn_out = workspace / "learn_run"
    if not learn_out.exists():  # ordering safety: rebuild the inputs
        assert main(["learn", str(workspace / "run.ini"),
                     "--out", str(learn_out)]) == 0
    capsys.readouterr()
    truncated = tmp_path / "denoiser.txt"
    truncated.write_bytes((learn_out / "denoiser.txt").read_bytes()[:300])
    code = main(["synthesize", str(workspace / "run.ini"),
                 "--out", str(tmp_path / "out"), "--params", str(truncated)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(truncated) in err and "line" in err
    assert "Traceback" not in err


def test_synthesize_standalone(capsys, workspace, tmp_path):
    out = tmp_path / "synth"
    assert main(["synthesize", str(workspace / "run.ini"),
                 "--out", str(out)]) == 0
    assert "final leakage per instance" in capsys.readouterr().out
    assert (out / "manifest.json").exists()


def test_experiment_and_report(capsys, workspace):
    out = workspace / "exp_run"
    assert main(["experiment", str(workspace / "run.ini"),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "experiment complete" in text
    assert "config hash: verified" in text

    assert main(["report", str(out)]) == 0
    assert "synthesis: 16 steps" in capsys.readouterr().out


@pytest.mark.parametrize("boxes", ["", "\n[boxes]\nbox_0 = 0 0 0.6 0.5\ngroup_0 = 2\n"
                                       "box_1 = 0.4 0.5 1 1\ngroup_1 = 1\n"])
def test_experiment_equals_learn_then_synthesize(capsys, tmp_path, boxes):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG + boxes)
    exp, learn, synth = tmp_path / "exp", tmp_path / "learn", tmp_path / "synth"
    assert main(["experiment", str(config), "--out", str(exp)]) == 0
    assert main(["learn", str(config), "--out", str(learn)]) == 0
    assert main(["synthesize", str(config), "--out", str(synth),
                 "--embeddings", str(learn / "embeddings.txt"),
                 "--params", str(learn / "denoiser.txt")]) == 0
    capsys.readouterr()
    for name in ("learn_trace.csv", "embeddings.txt", "denoiser.txt"):
        assert (exp / name).read_bytes() == (learn / name).read_bytes(), name
    masks = sorted(p.name for p in exp.glob("final_mask_*.txt"))
    assert masks == ["final_mask_0.txt", "final_mask_1.txt"]
    for name in ["synth_steps.csv"] + masks:
        assert (exp / name).read_bytes() == (synth / name).read_bytes(), name
    exp_rows = (exp / "metrics.csv").read_text().splitlines()
    assert [r for r in exp_rows if not r.startswith("synthesis,")] == \
        (learn / "metrics.csv").read_text().splitlines()


def test_report_on_empty_dir_exits_one(capsys, tmp_path):
    assert main(["report", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name,text", [
    ("learn_trace.csv", ""),
    ("synth_steps.csv", "step,t,alpha,total\n1,49\n"),
])
def test_report_on_malformed_csv_exits_one(capsys, workspace, tmp_path, name, text):
    exp_out = workspace / "exp_run"
    if not exp_out.exists():  # ordering safety: rebuild the run
        assert main(["experiment", str(workspace / "run.ini"),
                     "--out", str(exp_out)]) == 0
    capsys.readouterr()
    run_dir = tmp_path / "run"
    shutil.copytree(exp_out, run_dir)
    (run_dir / name).write_text(text)
    assert main(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert name in err
    assert "Traceback" not in err



def _set_cell(path, lineno, column, value):
    lines = path.read_text().splitlines()
    cells = lines[lineno - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,edit,where", [
    ("manifest.json", "[]\n", "expected a JSON object"),
    ("manifest.json", '{"outputs": 3}\n', "an 'outputs' list"),
    ("manifest.json", "not json\n", "line 1 column 1"),
    ("metrics.csv", "stage,instance\nlearning,0\n", "line 1: no column leakage_mass"),
    ("metrics.csv", (2, "leakage_mass", "abc"), "line 2: leakage_mass 'abc'"),
    ("metrics.csv", (3, "argmax_iou", ""), "line 3: argmax_iou ''"),
    ("learn_trace.csv", (5, "total", "x"), "line 5: total 'x'"),
    ("synth_steps.csv", (3, "total", "q"), "line 3: total 'q'"),
    ("synth_steps.csv", (1, "total", "sum"), "line 1: no column total"),
], ids=["manifest-list", "manifest-outputs-number", "manifest-not-json",
        "metrics-two-columns", "metrics-leakage-text", "metrics-iou-empty",
        "trace-total-text", "steps-total-text", "steps-no-total"])
def test_report_on_malformed_run_file_names_the_file_and_line(
        capsys, workspace, tmp_path, name, edit, where):
    # A [] manifest, a two-column metrics.csv and a missing total column
    # once ended in tracebacks; a non-numeric cell or invalid JSON printed
    # the parser's message with no path.
    exp_out = workspace / "exp_run"
    if not exp_out.exists():  # ordering safety: rebuild the run
        assert main(["experiment", str(workspace / "run.ini"),
                     "--out", str(exp_out)]) == 0
    capsys.readouterr()
    run_dir = tmp_path / "run"
    shutil.copytree(exp_out, run_dir)
    path = run_dir / name
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        _set_cell(path, *edit)
    assert main(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section,line,message", [
    ("schedule", "horizon = 15", "[schedule] unknown key 'horizon'"),
    ("synthesis", "use_masking = false", "[synthesis] unknown key 'use_masking'"),
    ("learning", "pixel_norm = true", "[learning] unknown key 'pixel_norm'"),
    ("refinement", "clusters = 3", "[refinement] unknown key 'clusters'"),
    ("synthesis", "update_interval = 0", "update_interval: must be >= 1"),
    ("learning", "stage2_rate = 0", "stage2_rate: must be > 0"),
], ids=["horizon", "use_masking", "pixel_norm", "clusters", "update_interval-0",
        "stage2_rate-0"])
def test_removed_and_narrowed_config_keys_exit_one(capsys, tmp_path, section, line,
                                                   message):
    # The decay horizon is bound_steps, masking is always on, the attention
    # loss has one scale and refinement clusters into boxes + 1; refresh is
    # switched off by [refinement] enabled and stage 2 by stage1_iters.
    config = tmp_path / "run.ini"
    text = CONFIG if f"[{section}]\n" in CONFIG else CONFIG + f"\n[{section}]\n"
    config.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    assert main(["learn", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not (tmp_path / "out").exists()
