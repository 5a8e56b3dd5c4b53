"""Command-line front end: instance generation, experiment runs, the
acceptance verifier, and instance inspection."""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .errors import ConfigError, DsbloError, GeneratorError
from .experiment import load_config, run_experiment
from .problem import generate_instance, load_instance, save_instance


def _count(text: str) -> int:
    """An integer >= 0, as the config key ``progress_every`` takes."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _cmd_generate(args) -> int:
    box = None if args.no_box else args.box_radius
    try:
        inst = generate_instance(args.du, args.dl, args.k, args.seed,
                                 n_components=args.components, box_radius=box)
    except (GeneratorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_instance(inst, args.output)
    print(f"wrote {args.output}")
    print(f"fingerprint: {inst.fingerprint}")
    return 0


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out_dir:
        cfg.output_dir = args.out_dir
    if args.progress:
        cfg.progress_every = args.progress
    summary = run_experiment(cfg)
    for run in summary["runs"]:
        status = run.get("status", "?")
        line = f"[{status}] {run['label']} seed={run['seed']}"
        if status == "ok" and run.get("final_F") is not None:
            line += f" final_F={run['final_F']:.6g}"
        print(line)
        if status == "error" and args.verbose:
            print(run["error"], file=sys.stderr)
    print(f"outputs in {summary['output_dir']}")
    return 1 if summary["failed"] else 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_verify(args.level)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.1f}s): {r.detail}")
    report = {
        "level": args.level,
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 2)}
            for r in results
        ],
    }
    if args.json:
        print(json.dumps(report, indent=1))
    return 0 if report["passed"] else 1


def _cmd_inspect(args) -> int:
    try:
        inst = load_instance(args.instance)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read instance: {exc}", file=sys.stderr)
        return 1
    poly = inst.constraints
    print(f"fingerprint:   {inst.fingerprint}")
    print(f"dimensions:    d_u={inst.d_u} d_l={inst.d_l}")
    print(f"constraints:   {poly.k} rows ({poly.n_random_rows} random, "
          f"{poly.k - poly.n_random_rows} box)")
    print(f"components:    {inst.n_components}")
    print(f"seed:          {inst.seed}")
    print(f"box radius:    {inst.box_radius}")
    print(f"strong conv.:  mu_g={inst.mu_g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dsblo",
        description="doubly stochastic solver and benchmark harness for "
                    "linearly constrained bilevel problems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random quadratic instance")
    g.add_argument("--du", type=int, required=True, help="upper-level dimension")
    g.add_argument("--dl", type=int, required=True, help="lower-level dimension")
    g.add_argument("--k", type=int, required=True, help="number of random constraint rows")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--components", type=int, default=1,
                   help="upper-level finite-sum components (default 1)")
    g.add_argument("--box-radius", type=float, default=10.0,
                   help="half-width of the appended box rows (default 10)")
    g.add_argument("--no-box", action="store_true",
                   help="skip box rows (requires a certifiably bounded set)")
    g.add_argument("-o", "--output", required=True, help="instance file to write")
    g.set_defaults(fn=_cmd_generate)

    r = sub.add_parser("run", help="run a configured experiment")
    r.add_argument("--config", required=True, help="experiment config (JSON)")
    r.add_argument("--out-dir", help="override the configured output directory")
    r.add_argument("--progress", type=_count, default=0, metavar="N",
                   help="print a live line every N iterations (default 0: none)")
    r.add_argument("-v", "--verbose", action="store_true")
    r.set_defaults(fn=_cmd_run)

    v = sub.add_parser("verify", help="run the acceptance checks")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.add_argument("--json", action="store_true", help="also print a JSON report")
    v.set_defaults(fn=_cmd_verify)

    i = sub.add_parser("inspect", help="summarize an instance file")
    i.add_argument("instance")
    i.set_defaults(fn=_cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DsbloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
