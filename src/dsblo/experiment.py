"""Experiment orchestration: config loading, per-run CSV logs, a combined
objective-vs-time SVG, and the (algorithm, seed) runs, one after another.

Environment override: DSBLO_OUT_DIR replaces the configured output directory.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .algorithm import (DsbloParams, ManualMode, RunLog, TheoryMode,
                        run_dsblo, run_igd_baseline)
from .diagnostics import build_report, stationarity_profile
from .errors import ConfigError
from .problem import QuadraticBilevel, generate_instance, load_instance

CSV_HEADER = "t,wall_time_s,F,eta,m_norm,stationarity_norm,q_norm"


@dataclass
class InstanceSpec:
    d_u: int
    d_l: int
    k: int
    seed: int
    n_components: int = 1
    box_radius: Optional[float] = 10.0


@dataclass
class AlgorithmSpec:
    name: str             # "dsblo" or "igd"
    label: str
    settings: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    algorithms: List[AlgorithmSpec]
    seeds: List[int]
    output_dir: str = "out"
    instance: Optional[InstanceSpec] = None
    instance_path: Optional[str] = None
    formats: tuple = ("csv", "svg")
    eval_every: Optional[int] = None
    wall_clock_budget_s: Optional[float] = None
    progress_every: int = 0  # live per-iteration lines every N steps (0 = off)


def _parse_algorithm(doc: dict, idx: int) -> AlgorithmSpec:
    if "name" not in doc:
        raise ConfigError(f"algorithm #{idx} has no name")
    name = doc["name"]
    if name not in ("dsblo", "igd"):
        raise ConfigError(f"algorithm #{idx}: unknown name {name!r}")
    if "T" not in doc:
        raise ConfigError(f"algorithm #{idx} ({name}): missing iteration count T")
    if name == "igd" and "step" not in doc:
        raise ConfigError(f"algorithm #{idx} (igd): missing step")
    label = doc.get("label", name)
    settings = {k: v for k, v in doc.items() if k not in ("name", "label")}
    return AlgorithmSpec(name=name, label=label, settings=settings)


def config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    algs = [_parse_algorithm(a, i) for i, a in enumerate(doc.get("algorithms", []))]
    if not algs:
        raise ConfigError("config lists no algorithms")
    labels = [a.label for a in algs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"algorithm labels are not unique: {labels}")

    inst = None
    inst_path = None
    if "instance" in doc and isinstance(doc["instance"], dict):
        d = doc["instance"]
        if "path" in d:
            inst_path = str((base_dir / d["path"]).resolve()) if not os.path.isabs(d["path"]) else d["path"]
            if not os.path.exists(inst_path):
                raise ConfigError(f"instance file not found: {inst_path}")
        else:
            try:
                inst = InstanceSpec(
                    d_u=int(d["d_u"]), d_l=int(d["d_l"]), k=int(d["k"]),
                    seed=int(d["seed"]), n_components=int(d.get("n_components", 1)),
                    box_radius=d.get("box_radius", 10.0),
                )
            except KeyError as exc:
                raise ConfigError(f"instance spec is missing field {exc}") from exc
    else:
        raise ConfigError("config needs an 'instance' section (spec or path)")

    seeds = [int(s) for s in doc.get("seeds", [0])]
    if not seeds:
        raise ConfigError("empty seed list")
    formats = tuple(doc.get("formats", ["csv", "svg"]))
    for f in formats:
        if f not in ("csv", "svg"):
            raise ConfigError(f"unknown output format {f!r}")
    return ExperimentConfig(
        algorithms=algs,
        seeds=seeds,
        output_dir=doc.get("output_dir", "out"),
        instance=inst,
        instance_path=inst_path,
        formats=formats,
        eval_every=doc.get("eval_every"),
        wall_clock_budget_s=doc.get("wall_clock_budget_s"),
        progress_every=int(doc.get("progress_every", 0)),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc, base_dir=path.parent)


def _resolve_instance(cfg: ExperimentConfig) -> QuadraticBilevel:
    if cfg.instance_path:
        return load_instance(cfg.instance_path)
    s = cfg.instance
    return generate_instance(s.d_u, s.d_l, s.k, s.seed,
                             n_components=s.n_components, box_radius=s.box_radius)


def _build_dsblo_params(settings: dict, seed: int) -> DsbloParams:
    mode_doc = settings.get("mode", "manual")
    if mode_doc == "manual" or (isinstance(mode_doc, dict) and mode_doc.get("kind", "manual") == "manual"):
        src = mode_doc if isinstance(mode_doc, dict) else settings
        mode = ManualMode(
            beta=float(src["beta"]), gamma1=float(src["gamma1"]),
            gamma2=float(src["gamma2"]), K=int(src["K"]),
            delta_y=float(src.get("delta_y", settings.get("ll_tol", 1e-8))),
        )
    elif mode_doc == "theory" or (isinstance(mode_doc, dict) and mode_doc.get("kind") == "theory"):
        src = mode_doc if isinstance(mode_doc, dict) else settings
        mode = TheoryMode(
            delta_v=float(src["delta_v"]), l_f_bar=float(src["l_f_bar"]),
            lf_delta=src.get("lf_delta"),
        )
    else:
        raise ConfigError(f"unknown dsblo mode {mode_doc!r}")
    return DsbloParams(
        T=int(settings["T"]),
        mode=mode,
        epsilon=settings.get("epsilon"),
        delta_bar=settings.get("delta_bar"),
        perturb_radius=float(settings.get("perturb_radius", 1e-3)),
        option=settings.get("option", "deterministic"),
        ll_tol=float(settings.get("ll_tol", 1e-8)),
        seed=seed,
        batch_size=int(settings.get("batch_size", 1)),
    )


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
        params = _build_dsblo_params(spec.settings, seed)
        log = run_dsblo(inst, params, eval_every=eval_every, cancel=cancel,
                        progress=progress)
    else:
        s = spec.settings
        log = run_igd_baseline(
            inst, step=float(s["step"]), T=int(s["T"]),
            ll_tol=float(s.get("ll_tol", 1e-8)), seed=seed,
            perturb_radius=float(s.get("perturb_radius", 1e-3)),
            eval_every=eval_every, cancel=cancel, progress=progress,
        )
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
    out_dir = Path(os.environ.get("DSBLO_OUT_DIR", cfg.output_dir))
    out_dir.mkdir(parents=True, exist_ok=True)

    inst = _resolve_instance(cfg)
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
