"""Experiment orchestration: config loading, per-run CSV logs, a combined
objective-vs-time SVG, and the (algorithm, seed) runs, one after another."""

from __future__ import annotations

import json
import math
import numbers
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from .algorithm import (DsbloParams, ManualMode, RunLog, TheoryMode,
                        run_dsblo, run_igd_baseline)
from .diagnostics import build_report, stationarity_profile
from .errors import ConfigError
from .problem import QuadraticBilevel, generate_instance, load_instance

CSV_HEADER = "t,wall_time_s,F,eta,m_norm,stationarity_norm,q_norm"


@dataclass
class AlgorithmSpec:
    name: str             # "dsblo" or "igd"
    label: str
    # dsblo: the run's DsbloParams, whose seed each run replaces;
    # igd: the keyword arguments of run_igd_baseline except the seed
    params: Union[DsbloParams, dict]


@dataclass
class ExperimentConfig:
    algorithms: List[AlgorithmSpec]
    seeds: List[int]
    output_dir: str = "out"
    # generate_instance's keyword arguments, or the instance read from a file
    instance: Union[dict, QuadraticBilevel, None] = None
    formats: tuple = ("csv", "svg")
    eval_every: Optional[int] = None
    wall_clock_budget_s: Optional[float] = None
    progress_every: int = 0  # live per-iteration lines every N steps (0 = off)


_REQUIRED = object()


def _number(doc: dict, key: str, where: str, default=_REQUIRED,
            integer: bool = False, low: Optional[int] = None):
    """``doc[key]`` checked as an int (``integer``) or a float, and against
    ``low``; ``default`` when the key is absent or null."""
    v = doc.get(key)
    if v is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing {key}")
        return default
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(v, bool) or not isinstance(v, kind) or (low is not None and v < low):
        want = ("an integer" if integer else "a number") + ("" if low is None else f" >= {low}")
        raise ConfigError(f"{where}: {key} must be {want}, got {v!r}")
    return int(v) if integer else float(v)


def _dsblo_params(doc: dict, where: str) -> DsbloParams:
    """Flat manual constants, or ``"mode": {"kind": "theory", ...}`` with
    top-level ``epsilon`` and ``delta_bar``."""
    if "ll_tol" in doc:
        raise ConfigError(f"{where}: ll_tol is an igd setting; dsblo solves the "
                          "lower level to delta_y")
    mode_doc = doc.get("mode")
    if mode_doc is None:
        mode = ManualMode(
            beta=_number(doc, "beta", where), gamma1=_number(doc, "gamma1", where),
            gamma2=_number(doc, "gamma2", where), K=_number(doc, "K", where, integer=True),
            delta_y=_number(doc, "delta_y", where, 1e-8),
        )
    elif isinstance(mode_doc, dict) and mode_doc.get("kind") == "theory":
        mode = TheoryMode(
            delta_v=_number(mode_doc, "delta_v", where),
            l_f_bar=_number(mode_doc, "l_f_bar", where),
            lf_delta=_number(mode_doc, "lf_delta", where, None),
        )
    else:
        raise ConfigError(f"{where}: unknown dsblo mode {mode_doc!r}")
    return DsbloParams(
        T=_number(doc, "T", where, integer=True, low=1), mode=mode,
        epsilon=_number(doc, "epsilon", where, None),
        delta_bar=_number(doc, "delta_bar", where, None),
        perturb_radius=_number(doc, "perturb_radius", where, 1e-3),
        option=doc.get("option", "deterministic"),
        batch_size=_number(doc, "batch_size", where, 1, integer=True, low=1),
    )


def _parse_algorithm(doc: dict, idx: int) -> AlgorithmSpec:
    name = doc.get("name")
    if name not in ("dsblo", "igd"):
        raise ConfigError(f"algorithm #{idx}: unknown name {name!r}")
    where = f"algorithm #{idx} ({name})"
    if name == "dsblo":
        params = _dsblo_params(doc, where)
    else:
        params = {"step": _number(doc, "step", where),
                  "T": _number(doc, "T", where, integer=True, low=1),
                  "ll_tol": _number(doc, "ll_tol", where, 1e-8),
                  "perturb_radius": _number(doc, "perturb_radius", where, 1e-3)}
    return AlgorithmSpec(name=name, label=doc.get("label", name), params=params)


def config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    """Parse and check a config document; malformed input raises
    ``ConfigError`` here rather than failing the runs later."""
    algs = [_parse_algorithm(a, i) for i, a in enumerate(doc.get("algorithms", []))]
    if not algs:
        raise ConfigError("config lists no algorithms")
    labels = [a.label for a in algs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"algorithm labels are not unique: {labels}")

    if "instance" in doc and isinstance(doc["instance"], dict):
        d = doc["instance"]
        if "path" in d:
            if not isinstance(d["path"], str):
                raise ConfigError(f"instance: path must be a string, got {d['path']!r}")
            path = (base_dir / d["path"]).resolve()
            try:
                inst = load_instance(path)
            except FileNotFoundError:
                raise ConfigError(f"instance file not found: {path}") from None
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"cannot read instance file {path}: {exc}") from exc
        else:
            box = d.get("box_radius", 10.0)  # an explicit null means no box rows
            inst = {
                "d_u": _number(d, "d_u", "instance", integer=True, low=1),
                "d_l": _number(d, "d_l", "instance", integer=True, low=1),
                "k": _number(d, "k", "instance", integer=True, low=0),
                "seed": _number(d, "seed", "instance", integer=True, low=0),
                "n_components": _number(d, "n_components", "instance", 1, integer=True, low=1),
                "box_radius": None if box is None else _number(d, "box_radius", "instance", 10.0),
            }
            if box is not None and box <= 0:
                raise ConfigError(f"instance: box_radius must be positive, got {box!r}")
    else:
        raise ConfigError("config needs an 'instance' section (spec or path)")

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds must be a nonempty list, got {seeds!r}")
    seeds = [_number({"seed": s}, "seed", "seeds", integer=True, low=0) for s in seeds]
    formats = tuple(doc.get("formats", ["csv", "svg"]))
    for f in formats:
        if f not in ("csv", "svg"):
            raise ConfigError(f"unknown output format {f!r}")
    return ExperimentConfig(
        algorithms=algs,
        seeds=seeds,
        output_dir=doc.get("output_dir", "out"),
        instance=inst,
        formats=formats,
        eval_every=_number(doc, "eval_every", "config", None, integer=True, low=0),
        wall_clock_budget_s=_number(doc, "wall_clock_budget_s", "config", None),
        progress_every=_number(doc, "progress_every", "config", 0, integer=True, low=0),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc, base_dir=path.parent)


def _fmt(v) -> str:
    if v is None:
        return ""
    v = float(v)
    if math.isnan(v):
        return ""
    return repr(v)


def write_csv(log: RunLog, path) -> None:
    """One row per iterate with the pinned column schema; F and the window
    norm are blank where not evaluated / not yet defined."""
    if log.schedule is not None:
        prof = stationarity_profile(log, log.schedule.beta, log.schedule.K)
    else:
        prof = np.asarray([r.m_norm for r in log.records])
    lines = [CSV_HEADER]
    for rec, st in zip(log.records, prof):
        lines.append(",".join([
            str(rec.t),
            repr(float(rec.wall_time)),
            _fmt(rec.F_exact),
            repr(float(rec.eta)),
            repr(float(rec.m_norm)),
            _fmt(st),
            repr(float(rec.q_norm)),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def write_objective_svg(series: List[dict], path, title="objective vs wall time") -> None:
    """Minimal native SVG line plot: each series is a dict with keys
    ``label``, ``time`` and ``value`` (equal-length sequences)."""
    W, H = 760, 460
    ml, mr, mt, mb = 70, 20, 40, 50
    plotted = [s for s in series if len(s["time"]) > 0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{_svg_escape(title)}</text>',
    ]
    if plotted:
        xs = np.concatenate([np.asarray(s["time"], dtype=float) for s in plotted])
        ys = np.concatenate([np.asarray(s["value"], dtype=float) for s in plotted])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 <= x0:
            x1 = x0 + 1.0
        if y1 <= y0:
            y1 = y0 + 1.0

        def px(x):
            return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

        def py(y):
            return H - mb - (y - y0) / (y1 - y0) * (H - mt - mb)

        # axes
        parts.append(f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="black"/>')
        parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="black"/>')
        for frac in (0.0, 0.5, 1.0):
            xv = x0 + frac * (x1 - x0)
            yv = y0 + frac * (y1 - y0)
            parts.append(
                f'<text x="{px(xv):.1f}" y="{H - mb + 18}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{xv:.3g}</text>')
            parts.append(
                f'<text x="{ml - 8}" y="{py(yv):.1f}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{yv:.3g}</text>')
        parts.append(
            f'<text x="{(ml + W - mr) / 2}" y="{H - 12}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">wall time (s)</text>')
        parts.append(
            f'<text x="16" y="{(mt + H - mb) / 2}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" transform="rotate(-90 16 {(mt + H - mb) / 2})">'
            f'F(x_t)</text>')
        for i, s in enumerate(plotted):
            color = _PALETTE[i % len(_PALETTE)]
            pts = " ".join(
                f"{px(float(t)):.2f},{py(float(v)):.2f}"
                for t, v in zip(s["time"], s["value"])
            )
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            ly = mt + 16 + 16 * i
            parts.append(f'<line x1="{W - mr - 150}" y1="{ly - 4}" x2="{W - mr - 122}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{W - mr - 116}" y="{ly}" font-size="12" '
                         f'font-family="sans-serif">{_svg_escape(s["label"])}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _run_one(inst: QuadraticBilevel, spec: AlgorithmSpec, seed: int,
             eval_every: int, cancel, progress=None) -> RunLog:
    if spec.name == "dsblo":
        log = run_dsblo(inst, replace(spec.params, seed=seed), eval_every=eval_every,
                        cancel=cancel, progress=progress)
    else:
        log = run_igd_baseline(inst, **spec.params, seed=seed, eval_every=eval_every,
                               cancel=cancel, progress=progress)
    log.diagnostics_report = build_report(log)
    return log


def _live_printer(label: str, seed: int, every: int):
    def cb(rec):
        if rec.t == 1 or rec.t % every == 0:
            f_part = f" F={rec.F_exact:.6g}" if rec.F_exact is not None else ""
            print(f"{label} seed={seed} t={rec.t} |m|={rec.m_norm:.4g} "
                  f"eta={rec.eta:.3g}{f_part}", flush=True)
    return cb


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every (algorithm, seed) pair, write per-run CSV and run-log files
    plus one combined SVG, and return a summary. Individual failures are
    recorded without stopping the other runs."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    inst = cfg.instance
    if isinstance(inst, dict):
        inst = generate_instance(**inst)
    fp = inst.fingerprint
    eval_every = cfg.eval_every
    if eval_every is None:
        eval_every = 1 if inst.d_u < 25 else 5

    t0 = time.monotonic()
    budget = cfg.wall_clock_budget_s
    cancel = (lambda: time.monotonic() - t0 > budget) if budget is not None else None

    jobs = [(spec, seed) for spec in cfg.algorithms for seed in cfg.seeds]
    summary = {"output_dir": str(out_dir), "instance_fingerprint": fp,
               "runs": [], "failed": False}
    many_seeds = len(cfg.seeds) > 1

    series = []
    for spec, seed in jobs:
        stem = f"{spec.label}_seed{seed}" if many_seeds else spec.label
        entry = {"label": spec.label, "seed": seed}
        live = None
        if cfg.progress_every > 0:
            live = _live_printer(spec.label, seed, cfg.progress_every)
        try:
            log = _run_one(inst, spec, seed, eval_every, cancel, progress=live)
        except Exception:  # recorded in the summary; the other runs go on
            entry.update(status="error", error=traceback.format_exc(limit=8))
            summary["failed"] = True
            summary["runs"].append(entry)
            continue
        csv_path = out_dir / f"{stem}.csv"
        if "csv" in cfg.formats:
            write_csv(log, csv_path)
            entry["csv"] = str(csv_path)
        meta = {
            "algorithm": log.algorithm,
            "label": spec.label,
            "seed": seed,
            "params": log.params,
            "instance_fingerprint": log.instance_fingerprint,
            "timings": log.timings,
            "truncated": log.truncated,
            "diagnostics": json.loads(log.diagnostics_report),
        }
        (out_dir / f"{stem}.runlog.json").write_text(json.dumps(meta, indent=1) + "\n")
        f_pairs = [(r.wall_time, r.F_exact) for r in log.records if r.F_exact is not None]
        series.append({
            "label": stem,
            "time": [p[0] for p in f_pairs],
            "value": [p[1] for p in f_pairs],
        })
        entry.update(status="ok", truncated=log.truncated,
                     final_F=f_pairs[-1][1] if f_pairs else None)
        summary["runs"].append(entry)

    if "svg" in cfg.formats:
        svg_path = out_dir / "objective_vs_time.svg"
        write_objective_svg(series, svg_path)
        summary["svg"] = str(svg_path)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary
