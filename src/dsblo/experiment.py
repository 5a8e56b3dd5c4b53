"""Experiment orchestration: config loading, per-run CSV logs, a combined
objective-vs-time SVG, and the (algorithm, seed) runs, one after another."""

from __future__ import annotations

import json
import numbers
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from .algorithm import (DsbloParams, ManualMode, RunLog, TheoryMode,
                        run_dsblo, run_igd_baseline, schedule)
from .diagnostics import build_report, eval_F_exact
from .errors import ConfigError, GeneratorError, ScheduleInfeasible
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
    instance: QuadraticBilevel  # generated from the spec, or read from the file
    output_dir: str = "out"
    formats: tuple = ("csv", "svg")
    eval_every: Optional[int] = None
    wall_clock_budget_s: Optional[float] = None
    progress_every: int = 0  # live per-iteration lines every N steps (0 = off)


_REQUIRED = object()


def _number(doc: dict, key: str, where: str, default=_REQUIRED,
            integer: bool = False, low: Optional[int] = None, positive: bool = False):
    """``doc[key]`` checked as an int (``integer``) or a float, against
    ``low`` and, with ``positive``, as > 0; ``default`` when the key is
    absent or null."""
    v = doc.get(key)
    if v is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing {key}")
        return default
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(v, bool) or not isinstance(v, kind) or (low is not None and v < low)
            or (positive and v <= 0)):
        want = (("an integer" if integer else "a number") + ("" if low is None else f" >= {low}")
                + (" > 0" if positive else ""))
        raise ConfigError(f"{where}: {key} must be {want}, got {v!r}")
    return int(v) if integer else float(v)


# the keys an algorithm entry of each kind takes, and a theory mode section
_DSBLO_KEYS = {"name", "label", "T", "perturb_radius", "option", "batch_size", "mode"}
_MANUAL_KEYS = _DSBLO_KEYS | {"beta", "gamma1", "gamma2", "K", "delta_y"}
_THEORY_KEYS = _DSBLO_KEYS | {"epsilon", "delta_bar"}
_THEORY_MODE_KEYS = {"kind", "delta_v", "l_f_bar", "lf_delta"}
_IGD_KEYS = {"name", "label", "T", "perturb_radius", "step"}


def _known_keys(doc: dict, keys: set, where: str) -> None:
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _dsblo_params(doc: dict, where: str) -> DsbloParams:
    """Flat manual constants, or ``"mode": {"kind": "theory", ...}`` with
    top-level ``epsilon`` and ``delta_bar``, which only a theory entry takes."""
    mode_doc = doc.get("mode")
    if mode_doc is None:
        for key in ("epsilon", "delta_bar"):
            if key in doc:
                raise ConfigError(f"{where}: {key} is a theory-mode target; a manual "
                                  "entry's window radius is K/gamma1")
        _known_keys(doc, _MANUAL_KEYS, where)
        mode = ManualMode(
            beta=_number(doc, "beta", where), gamma1=_number(doc, "gamma1", where),
            gamma2=_number(doc, "gamma2", where), K=_number(doc, "K", where, integer=True),
            delta_y=_number(doc, "delta_y", where, 1e-8),
        )
    elif isinstance(mode_doc, dict) and mode_doc.get("kind") == "theory":
        _known_keys(doc, _THEORY_KEYS, where)
        _known_keys(mode_doc, _THEORY_MODE_KEYS, f"{where} mode")
        mode = TheoryMode(
            epsilon=_number(doc, "epsilon", where), delta_bar=_number(doc, "delta_bar", where),
            delta_v=_number(mode_doc, "delta_v", where),
            l_f_bar=_number(mode_doc, "l_f_bar", where),
            lf_delta=_number(mode_doc, "lf_delta", where, None),
        )
    else:
        raise ConfigError(f"{where}: unknown dsblo mode {mode_doc!r}")
    params = DsbloParams(
        T=_number(doc, "T", where, integer=True, low=1), mode=mode,
        perturb_radius=_number(doc, "perturb_radius", where, 1e-3, positive=True),
        option=doc.get("option", "deterministic"),
        batch_size=_number(doc, "batch_size", where, 1, integer=True, low=1),
    )
    try:
        schedule(params)
    except (ValueError, ScheduleInfeasible) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return params


def _parse_algorithm(doc: dict, idx: int) -> AlgorithmSpec:
    name = doc.get("name")
    if name not in ("dsblo", "igd"):
        raise ConfigError(f"algorithm #{idx}: unknown name {name!r}")
    where = f"algorithm #{idx} ({name})"
    if "ll_tol" in doc:
        raise ConfigError(f"{where}: ll_tol was removed; every lower-level solve is "
                          "exact, its KKT residual certified to 1e-10")
    if name == "dsblo":
        params = _dsblo_params(doc, where)
    else:
        _known_keys(doc, _IGD_KEYS, where)
        params = {"step": _number(doc, "step", where, low=0),
                  "T": _number(doc, "T", where, integer=True, low=1),
                  "perturb_radius": _number(doc, "perturb_radius", where, 1e-3,
                                            positive=True)}
    # the label names the run's output files inside output_dir
    label = doc.get("label", name)
    if not isinstance(label, str) or label in ("", ".", "..") or Path(label).name != label:
        raise ConfigError(f"{where}: label must be a plain file name, got {label!r}")
    return AlgorithmSpec(name=name, label=label, params=params)


def _instance(d: dict, base_dir: Path) -> QuadraticBilevel:
    """The instance an ``instance`` section names: read from its ``path``,
    or generated from its spec."""
    if "path" in d:
        if not isinstance(d["path"], str):
            raise ConfigError(f"instance: path must be a string, got {d['path']!r}")
        path = (base_dir / d["path"]).resolve()
        try:
            return load_instance(path)
        except FileNotFoundError:
            raise ConfigError(f"instance file not found: {path}") from None
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read instance file {path}: {exc}") from exc
    box = d.get("box_radius", 10.0)  # an explicit null means no box rows
    spec = {
        "d_u": _number(d, "d_u", "instance", integer=True, low=1),
        "d_l": _number(d, "d_l", "instance", integer=True, low=1),
        "k": _number(d, "k", "instance", integer=True, low=0),
        "seed": _number(d, "seed", "instance", integer=True, low=0),
        "n_components": _number(d, "n_components", "instance", 1, integer=True, low=1),
        "box_radius": None if box is None else _number(d, "box_radius", "instance", 10.0,
                                                      positive=True),
    }
    try:
        return generate_instance(**spec)
    except GeneratorError as exc:
        raise ConfigError(f"instance: {exc}") from exc


def config_from_dict(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    """Parse and check a config document; malformed input raises
    ``ConfigError`` here rather than failing the runs later."""
    algs = [_parse_algorithm(a, i) for i, a in enumerate(doc.get("algorithms", []))]
    if not algs:
        raise ConfigError("config lists no algorithms")
    labels = [a.label for a in algs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"algorithm labels are not unique: {labels}")

    d = doc.get("instance")
    if not isinstance(d, dict):
        raise ConfigError("config needs an 'instance' section (spec or path)")
    inst = _instance(d, base_dir)

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds must be a nonempty list, got {seeds!r}")
    seeds = [_number({"seed": s}, "seed", "seeds", integer=True, low=0) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds are not unique: {seeds}")
    formats = doc.get("formats", ["csv", "svg"])
    if not isinstance(formats, list):
        raise ConfigError(f"formats must be a list, got {formats!r}")
    for f in formats:
        if f not in ("csv", "svg"):
            raise ConfigError(f"unknown output format {f!r}")
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    return ExperimentConfig(
        algorithms=algs,
        seeds=seeds,
        instance=inst,
        output_dir=output_dir,
        formats=tuple(formats),
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


def _floats(values) -> list:
    return list(map(repr, map(float, values)))


def _blank_or_floats(values) -> list:
    return ["" if v is None or v != v else repr(float(v)) for v in values]


def write_csv(log: RunLog, path) -> None:
    """One row per iterate with the pinned column schema; F and the window
    norm are blank where not evaluated / not yet defined. The stationarity
    column is ``log.stationarity``: a run without a schedule logs its
    momentum norms there. Each column is formatted in one pass, a number
    as the ``repr`` of its float."""
    recs = log.records
    rows = zip([str(r.t) for r in recs], _floats([r.wall_time for r in recs]),
               _blank_or_floats([r.F_exact for r in recs]), _floats([r.eta for r in recs]),
               _floats([r.m_norm for r in recs]), _blank_or_floats(log.stationarity.tolist()),
               _floats([r.q_norm for r in recs]))
    Path(path).write_text("\n".join([CSV_HEADER, *map(",".join, rows)]) + "\n")


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

        def px(x):  # also maps an array, for the polylines
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
            pts = " ".join([f"{a:.2f},{b:.2f}" for a, b in zip(
                px(np.asarray(s["time"], dtype=float)).tolist(),
                py(np.asarray(s["value"], dtype=float)).tolist())])
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
    """One run of ``spec`` with the given seed."""
    if spec.name == "dsblo":
        return run_dsblo(inst, replace(spec.params, seed=seed), eval_every=eval_every,
                         cancel=cancel, progress=progress)
    return run_igd_baseline(inst, **spec.params, seed=seed, eval_every=eval_every,
                            cancel=cancel, progress=progress)


def _live_printer(label: str, seed: int, every: int, inst: QuadraticBilevel,
                  eval_every: int):
    """Progress lines every ``every`` steps. A record's F is filled in only
    after the run, so the lines that show F (``eval_every`` > 0) solve it
    here, without a start."""
    def cb(rec):
        if rec.t == 1 or rec.t % every == 0:
            f_part = f" F={eval_F_exact(inst, rec.x):.6g}" if eval_every else ""
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
            live = _live_printer(spec.label, seed, cfg.progress_every, inst, eval_every)
        try:
            log = _run_one(inst, spec, seed, eval_every, cancel, progress=live)
            report = build_report(log)
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
            "instance_fingerprint": fp,
            "timings": log.timings,
            "lower_level": log.lower_level,
            "truncated": log.truncated,
            "diagnostics": report,
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
