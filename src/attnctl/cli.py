"""Command-line entry point.

Exit codes: 0 on success, 1 on validation/configuration errors, 2 on numeric
divergence (a non-finite learning loss or synthesis latent, named by its
iteration or step, or a failed gradient check).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ConfigurationError, DivergenceError
from .fileio import atomic_write_text
from .gradcheck import REL_TOL, format_results, run_gradcheck
from .harness import report, run_experiment, run_learn, run_synthesize
from .kkt import ORACLE_MAX_K, REWARD_VARIANTS, oracle_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnctl",
        description="Attention-controlled learning and synthesis on toy latents.",
    )
    parser.add_argument("--version", action="version", version=f"attnctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn instance embeddings from a config")
    p.add_argument("config", help="INI config file")
    p.add_argument("--out", required=True, help="output run directory")

    p = sub.add_parser("synthesize", help="run box-controlled synthesis")
    p.add_argument("config", help="INI config file")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--embeddings", help="token embeddings file from a learn run")
    p.add_argument("--params", help="denoiser params file from a learn run")

    p = sub.add_parser("experiment", help="learn then synthesize, with manifest")
    p.add_argument("config", help="INI config file")
    p.add_argument("--out", required=True, help="output run directory")

    p = sub.add_parser("oracle", help="closed-form per-pixel optima as JSON")
    p.add_argument("--k", type=int, required=True,
                   help=f"number of instance tokens, at most {ORACLE_MAX_K}; run time grows "
                        "about 7x per doubling (1.1 s at 32, 21.7 s at 128)")
    p.add_argument("--alpha", type=float, required=True, help="reward mask scale")
    p.add_argument("--variant", choices=REWARD_VARIANTS, default="costed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here instead of only stdout")

    p = sub.add_parser("gradcheck", help="verify hand gradients vs finite differences")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("run_dir", help="directory produced by learn/synthesize/experiment")

    return parser


def _cmd_learn(args) -> int:
    learn, rows = run_learn(args.config, args.out)
    print(f"learned {len(rows)} instance embeddings "
          f"in {len(learn.trace)} iterations")
    for row in rows:
        print(f"instance {row[1]}: leakage {row[2]:.4f}, argmax IoU {row[3]:.4f}")
    print(f"artifacts in {args.out}")
    return 0


def _cmd_synthesize(args) -> int:
    result = run_synthesize(args.config, args.out, args.embeddings, args.params)
    last = result.steps[-1]
    print(f"synthesis finished: control loss {result.steps[0].total:.6g} -> "
          f"{last.total:.6g} over {len(result.steps)} steps")
    print("final leakage per instance: "
          + ", ".join(f"{v:.4f}" for v in last.leakage))
    print(f"artifacts in {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    result = run_experiment(args.config, args.out)
    print(f"experiment complete; {len(result.files)} artifacts in {result.out_dir}")
    print(report(args.out))
    return 0


def _cmd_oracle(args) -> int:
    payload = oracle_report(args.k, args.alpha, variant=args.variant,
                            seed=args.seed)
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.seed)
    print(format_results(results))
    if all(r.max_rel <= REL_TOL for r in results):
        return 0
    return 2


def _cmd_report(args) -> int:
    print(report(args.run_dir))
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "synthesize": _cmd_synthesize,
    "experiment": _cmd_experiment,
    "oracle": _cmd_oracle,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
