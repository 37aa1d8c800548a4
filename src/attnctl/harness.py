"""Config files, experiment orchestration, and run reporting.

A run is driven by one INI-style config whose keys mirror the config
dataclass fields exactly (section [learning] -> LearningConfig, and so on).
``run_learn``, ``run_synthesize`` and ``run_experiment`` run the three run
commands. ``run_experiment`` chains scenario generation, semantic learning,
and box-controlled synthesis, then writes every artifact atomically: CSV
metrics, the oracle JSON, serialized embeddings/parameters, refined masks,
and a manifest sufficient to reproduce the run byte-for-byte.
"""
from __future__ import annotations

import configparser
import dataclasses
import hashlib
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import BinaryMask, check_finite_fields
from .denoiser import (
    default_params,
    forward_denoise,
    load_params,
    load_tokens,
    save_params,
    save_tokens,
)
from .errors import ConfigurationError
from .fileio import atomic_write_text, write_csv, write_json
from .kkt import oracle_report
from .learning import LearningConfig, LearningResult, run_semantic_learning, write_trace_csv
from .refine import RefinementConfig
from .scenario import (
    Scenario,
    argmax_iou_single,
    generate_scenario,
    leakage_mass,
    pca_project,
    synthesis_tokens,
)
from .synthesis import (
    BoxSpec,
    ScheduleParams,
    SynthesisConfig,
    SynthesisResult,
    default_groups,
    run_synthesis,
    write_steps_csv,
)


@dataclass
class ScenarioConfig:
    height: int = 8
    width: int = 8
    instances: int = 2
    rho: float = 0.8
    dim: int = 0            # 0 = smallest workable width
    noise_sigma: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        check_finite_fields(self)
        for name in ("height", "width"):
            if getattr(self, name) < 2:
                raise ConfigurationError(f"{name}: must be >= 2")
        if self.instances < 1:
            raise ConfigurationError("instances: must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigurationError("rho: must lie in [0, 1]")
        if self.noise_sigma < 0.0:
            raise ConfigurationError("noise_sigma: must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")
        if self.dim < 0:
            raise ConfigurationError("dim: must be >= 0")


@dataclass
class ControlConfig:
    """Every scalar the engine takes, grouped by stage."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    boxes: "list[BoxSpec] | None" = None
    groups: "list[list[int]] | None" = None

    def validate(self) -> None:
        """Each section's own checks, their messages prefixed with the
        section's name, then the checks across sections."""
        for section in _SECTIONS:
            try:
                getattr(self, section).validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"[{section}] {exc}") from exc
        if self.schedule.linear_end >= self.synthesis.bound_steps:
            raise ConfigurationError(
                "[schedule] linear_end must be < [synthesis] bound_steps"
            )
        if (self.boxes is None) != (self.groups is None):
            raise ConfigurationError("[boxes] must define box_i and group_i together")
        if self.boxes is not None and len(self.boxes) != len(self.groups):
            raise ConfigurationError("[boxes] needs one group_i per box_i")


_SECTIONS = {
    "scenario": ScenarioConfig,
    "learning": LearningConfig,
    "synthesis": SynthesisConfig,
    "schedule": ScheduleParams,
    "refinement": RefinementConfig,
}


def _coerce(section: str, key: str, raw: str, target_type) -> object:
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if target_type is int:
            return int(raw)
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"[{section}] {key}: cannot parse {raw!r} as {target_type.__name__}"
        ) from exc
    if not np.isfinite(value):
        raise ConfigurationError(f"[{section}] {key}: must be a finite number, got {raw!r}")
    return value


def _parse_boxes_section(items: "dict[str, str]"):
    boxes: "dict[int, BoxSpec]" = {}
    groups: "dict[int, list[int]]" = {}
    for key, raw in items.items():
        if key.startswith("box_"):
            idx_part, kind = key[4:], "box"
        elif key.startswith("group_"):
            idx_part, kind = key[6:], "group"
        else:
            raise ConfigurationError(f"[boxes] unknown key {key!r}")
        try:
            idx = int(idx_part)
        except ValueError as exc:
            raise ConfigurationError(f"[boxes] bad index in key {key!r}") from exc
        parts = raw.replace(",", " ").split()
        if kind == "box":
            if len(parts) != 4:
                raise ConfigurationError(
                    f"[boxes] {key}: expected 'x0 y0 x1 y1', got {raw!r}"
                )
            try:
                boxes[idx] = BoxSpec(*(float(p) for p in parts))
            except ValueError as exc:
                raise ConfigurationError(f"[boxes] {key}: {exc}") from exc
        else:
            try:
                groups[idx] = [int(p) for p in parts]
            except ValueError as exc:
                raise ConfigurationError(
                    f"[boxes] {key}: expected token ids, got {raw!r}"
                ) from exc
            if not groups[idx]:
                raise ConfigurationError(f"[boxes] {key}: group must be nonempty")
    if not boxes:
        raise ConfigurationError("[boxes] section present but defines no box_i")
    if sorted(boxes) != list(range(len(boxes))):
        raise ConfigurationError("[boxes] box indices must be 0..n-1")
    if sorted(groups) != list(range(len(boxes))):
        raise ConfigurationError("[boxes] needs group_i for every box_i")
    return ([boxes[i] for i in range(len(boxes))],
            [groups[i] for i in range(len(boxes))])


def config_from_text(text: str) -> ControlConfig:
    """Parse config text that was not read from a file."""
    return _config_from_ini(text, "<string>")


def _config_from_ini(text: str, source: str) -> ControlConfig:
    """Parse INI text; syntax errors name ``source`` (a path or "<string>")."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from exc
    cfg = ControlConfig()
    for section in cp.sections():
        if section == "boxes":
            cfg.boxes, cfg.groups = _parse_boxes_section(dict(cp.items(section)))
            continue
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        fields = {f.name: f.type for f in dataclasses.fields(target)}
        for key, raw in cp.items(section):
            if key not in fields:
                raise ConfigurationError(f"[{section}] unknown key {key!r}")
            current = getattr(target, key)
            setattr(target, key, _coerce(section, key, raw, type(current)))
    cfg.validate()
    return cfg


def parse_config(path: str) -> "tuple[ControlConfig, bytes]":
    """The config at ``path`` and the file's bytes, which a run directory
    copies and whose hash its manifest records."""
    try:
        with open(path, "rb") as fh:
            config_bytes = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        text = config_bytes.decode()
    except UnicodeDecodeError as exc:
        line = config_bytes.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(
            f"{path}: line {line}: not UTF-8 text "
            f"(byte 0x{config_bytes[exc.start]:02x} at offset {exc.start})") from None
    return _config_from_ini(text, path), config_bytes


def _config_dict(cfg: ControlConfig) -> dict:
    out = {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}
    if cfg.boxes is not None:
        out["boxes"] = [[b.x0, b.y0, b.x1, b.y1] for b in cfg.boxes]
        out["groups"] = cfg.groups
    return out


METRICS_HEADER = ("stage", "instance", "leakage_mass", "argmax_iou",
                  "final_loss", "final_total")


@dataclass
class ExperimentResult:
    out_dir: str
    scenario: Scenario
    learning: LearningResult
    synthesis: SynthesisResult
    files: "list[str]"


class RunDir:
    """An output directory and the names of the artifacts written to it."""

    def __init__(self, path: str):
        os.makedirs(path, exist_ok=True)
        self.path = path
        self.files: "list[str]" = []

    def file(self, name: str) -> str:
        """Path of artifact ``name``, which is listed in the manifest."""
        self.files.append(name)
        return os.path.join(self.path, name)


def _open_run(config_path: str, out_dir: str):
    """How every run command starts: the parsed config and the file's
    bytes, the run directory (created) and the configured scenario."""
    cfg, config_bytes = parse_config(config_path)
    run = RunDir(out_dir)
    sc = cfg.scenario
    scenario = generate_scenario(
        extents=(sc.height, sc.width), n_instances=sc.instances, rho=sc.rho,
        seed=sc.seed, dim=sc.dim, noise_sigma=sc.noise_sigma,
    )
    return cfg, config_bytes, run, scenario


def _learn(run: RunDir, cfg: ControlConfig,
           scenario: Scenario) -> "tuple[LearningResult, list]":
    """Learning on the scenario, with its artifacts written. Returns the
    result and the learning rows of metrics.csv: each instance token's
    leakage and argmax IoU on the clean latent."""
    learn = run_semantic_learning(scenario, cfg.learning)
    write_trace_csv(learn.trace, run.file("learn_trace.csv"))
    save_tokens(learn.tokens, run.file("embeddings.txt"))
    save_params(learn.params, run.file("denoiser.txt"))
    instances = scenario.instance_set()
    _, record = forward_denoise(scenario.z0, 0, learn.tokens, learn.params,
                                learn.schedule)
    return learn, [("learning", i,
                    leakage_mass(record, token, instances.masks[i]),
                    argmax_iou_single(record, token, instances.masks[i]),
                    learn.trace[-1].rec_loss, learn.trace[-1].total)
                   for i, token in enumerate(instances.placeholder_ids)]


def _synthesize(run: RunDir, cfg: ControlConfig, scenario: Scenario, tokens,
                params) -> "tuple[SynthesisResult, list[list[int]], list[BinaryMask]]":
    """Synthesis in the configured boxes and token groups (by default the
    scenario's boxes and one learnable token each), with synth_steps.csv
    and each instance's final control mask at the latent resolution
    written. Returns the result, the groups and those masks."""
    boxes = cfg.boxes if cfg.boxes is not None else scenario.boxes()
    groups = cfg.groups if cfg.groups is not None else default_groups(tokens, len(boxes))
    synth = run_synthesis(
        tokens, params, boxes, cfg.synthesis, sched=cfg.schedule, groups=groups,
        refinement=cfg.refinement,
    )
    write_steps_csv(synth.steps, run.file("synth_steps.csv"))
    finals = [mset[(scenario.height, scenario.width)] for mset in synth.masks]
    for i, mask in enumerate(finals):
        atomic_write_text(run.file(f"final_mask_{i}.txt"), mask.to_text())
    return synth, groups, finals


def write_manifest(run: RunDir, cfg: ControlConfig, config_bytes: bytes) -> None:
    """Copy the config into the run and write manifest.json: the config hash,
    the parsed config, library versions and every artifact but itself."""
    atomic_write_text(run.file("config.ini"), config_bytes.decode())
    write_json(os.path.join(run.path, "manifest.json"), {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "config": _config_dict(cfg),
        "versions": {
            "attnctl": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": sorted(set(run.files)),
    })


def run_learn(config_path: str, out_dir: str) -> "tuple[LearningResult, list]":
    """Learning alone on the configured scenario: its artifacts, metrics.csv
    and the manifest. Returns the result and the rows of metrics.csv."""
    cfg, config_bytes, run, scenario = _open_run(config_path, out_dir)
    learn, rows = _learn(run, cfg, scenario)
    write_csv(run.file("metrics.csv"), METRICS_HEADER, rows)
    write_manifest(run, cfg, config_bytes)
    return learn, rows


def run_synthesize(config_path: str, out_dir: str,
                   embeddings_path: "str | None" = None,
                   params_path: "str | None" = None) -> SynthesisResult:
    """Synthesis alone, from the token embeddings and denoiser params files
    of a learn run; without them, from the scenario's ready-made tokens and
    params seeded by [learning] seed. Writes its artifacts and the manifest."""
    cfg, config_bytes, run, scenario = _open_run(config_path, out_dir)
    if embeddings_path:
        tokens = load_tokens(embeddings_path)
    else:
        tokens = synthesis_tokens(scenario)
    if params_path:
        params = load_params(params_path)
    else:
        params = default_params(tokens[0].vector.size, scenario.height,
                                scenario.width, seed=cfg.learning.seed)
    synth, _, _ = _synthesize(run, cfg, scenario, tokens, params)
    write_manifest(run, cfg, config_bytes)
    return synth


def run_experiment(config_path: str, out_dir: str) -> ExperimentResult:
    """Learning followed by synthesis on the configured scenario; writes all
    artifacts plus a manifest with the config hash and library versions."""
    cfg, config_bytes, run, scenario = _open_run(config_path, out_dir)
    if cfg.boxes is not None and len(cfg.boxes) != scenario.n_instances:
        raise ConfigurationError(
            f"{len(cfg.boxes)} boxes configured for {scenario.n_instances} instances"
        )
    learn, metrics_rows = _learn(run, cfg, scenario)
    synth, groups, finals = _synthesize(run, cfg, scenario, learn.tokens, learn.params)

    _, synth_record = forward_denoise(synth.z_final, 0, learn.tokens,
                                      learn.params, learn.schedule)
    last = synth.steps[-1]
    for i, group in enumerate(groups):
        metrics_rows.append((
            "synthesis", i,
            leakage_mass(synth_record, group[0], finals[i]),
            argmax_iou_single(synth_record, group[0], finals[i]),
            last.per_instance[i], last.total,
        ))
    write_csv(run.file("metrics.csv"), METRICS_HEADER, metrics_rows)

    # Disentanglement diagnostic: 2-D projection of the clean latent's pixel
    # features, labeled by instance membership (-1 = background).
    labels = -np.ones((scenario.height, scenario.width), dtype=np.int64)
    for i, m in enumerate(scenario.masks):
        labels[m.bits == 1] = i
    proj = pca_project(scenario.z0.reshape(-1, scenario.dim))
    pca_rows = []
    for r in range(scenario.height):
        for c in range(scenario.width):
            p = proj[r * scenario.width + c]
            pca_rows.append((r, c, int(labels[r, c]), float(p[0]), float(p[1])))
    write_csv(run.file("pca.csv"), ("row", "col", "label", "pc1", "pc2"), pca_rows)

    write_json(run.file("oracle.json"),
               oracle_report(scenario.n_instances, cfg.learning.alpha))

    write_manifest(run, cfg, config_bytes)
    return ExperimentResult(out_dir=out_dir, scenario=scenario, learning=learn,
                            synthesis=synth,
                            files=sorted(set(run.files) | {"manifest.json"}))


def _read_csv(path: str, columns: "dict[str, type]") -> "list[dict]":
    """Each row of a run-directory CSV as its ``columns``, by name, converted
    to str or float. A malformed file raises ValueError naming the file and,
    where there is one, the line."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = [(i + 1, ln.rstrip("\n")) for i, ln in enumerate(fh) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected a CSV header line")
    header = lines[0][1].split(",")
    missing = [name for name in columns if name not in header]
    if missing:
        raise ValueError(f"{path}: line {lines[0][0]}: no column {', '.join(missing)}")
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}: line {lineno} has {len(cells)} fields, the header {len(header)}"
            )
        row = {}
        for name, kind in columns.items():
            cell = cells[header.index(name)]
            try:
                row[name] = kind(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: {name} {cell!r} is not a number") from None
        rows.append(row)
    return rows


def report(run_dir: str) -> str:
    """Human-readable summary of a finished run directory; a malformed file
    raises an error naming it (and the line, where there is one)."""
    import json

    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigurationError(f"{run_dir}: no manifest.json (not a run directory?)")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ValueError(f"{manifest_path}: not a JSON manifest: {exc}") from None
    versions = manifest.get("versions", {}) if isinstance(manifest, dict) else None
    outputs = manifest.get("outputs", []) if isinstance(manifest, dict) else None
    if not (isinstance(versions, dict) and isinstance(outputs, list)
            and all(isinstance(name, str) for name in outputs)):
        raise ValueError(f"{manifest_path}: expected a JSON object with a 'versions' "
                         "object and an 'outputs' list of file names")

    lines = [f"run directory: {run_dir}"]
    lines.append("versions: " + ", ".join(f"{k} {v}" for k, v in sorted(versions.items())))

    config_copy = os.path.join(run_dir, "config.ini")
    if os.path.exists(config_copy):
        with open(config_copy, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        status = "verified" if digest == manifest.get("config_sha256") else "MISMATCH"
        lines.append(f"config hash: {status}")

    trace_path = os.path.join(run_dir, "learn_trace.csv")
    if os.path.exists(trace_path):
        rows = _read_csv(trace_path, {"total": float})
        if rows:
            lines.append(
                f"learning: {len(rows)} iterations, total loss "
                f"{rows[0]['total']:.6g} -> {rows[-1]['total']:.6g}"
            )

    steps_path = os.path.join(run_dir, "synth_steps.csv")
    if os.path.exists(steps_path):
        rows = _read_csv(steps_path, {"total": float})
        if rows:
            lines.append(
                f"synthesis: {len(rows)} steps, control loss "
                f"{rows[0]['total']:.6g} -> {rows[-1]['total']:.6g}"
            )

    metrics_path = os.path.join(run_dir, "metrics.csv")
    if os.path.exists(metrics_path):
        for row in _read_csv(metrics_path, {"stage": str, "instance": str,
                                            "leakage_mass": float, "argmax_iou": float}):
            lines.append(
                f"{row['stage']} instance {row['instance']}: leakage "
                f"{row['leakage_mass']:.4f}, argmax IoU {row['argmax_iou']:.4f}"
            )

    missing = [name for name in outputs
               if not os.path.exists(os.path.join(run_dir, name))]
    if missing:
        lines.append("MISSING outputs: " + ", ".join(sorted(missing)))
    return "\n".join(lines)
