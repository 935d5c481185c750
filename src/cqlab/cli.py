"""Command-line surface: config loading, experiment dispatch, result and
plot-data persistence.

Configs are strict JSON: unknown keys are rejected, defaults are applied
and echoed into the run manifest.  All numeric CSV output uses shortest
round-trip decimals, so identical config and seed reproduce byte-identical
tables regardless of --threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError
from .experiments import (
    ExperimentConfig,
    SweepResult,
    alpha_sweep,
    build_operator,
    build_second_moment_state,
    chebyshev_experiment,
    check_config,
    finite_qm_demo,
    higher_order_check,
    moments_check,
    nongaussian_experiment,
    pure_state_experiment,
)

OUT_DIR_ENV = "CQLAB_OUT_DIR"

DEFAULT_ALPHA_GRID = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]


def load_config(path) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a config file; returns the config and the echoed
    dict with defaults filled in (this echo is what the manifest embeds)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> tuple[ExperimentConfig, dict]:
    check_config(raw)
    for key in ("dim", "functional", "mc_samples", "seed"):
        if key not in raw:
            raise ConfigError(f"missing required config key: {key!r}")
    functional = raw["functional"]
    state = raw.get("state", {"shape": "isotropic"})
    slope_band = raw.get("slope_band")
    if slope_band is not None and (len(slope_band) != 2 or slope_band[0] > slope_band[1]
                                   or not all(math.isfinite(x) for x in slope_band)):
        raise ConfigError("'slope_band' must be [lo, hi], finite numbers with lo <= hi")
    grid = raw.get("alpha_grid", DEFAULT_ALPHA_GRID)
    echoed = {
        "dim": raw["dim"],
        "alpha_grid": [float(a) for a in grid],
        "functional": functional,
        "state": state,
        "mc_samples": raw["mc_samples"],
        "seed": raw["seed"],
        "order": raw.get("order", 1),
        "slope_band": list(slope_band) if slope_band is not None else None,
    }
    cfg = ExperimentConfig(
        dim=echoed["dim"],
        alpha_grid=tuple(echoed["alpha_grid"]),
        functional_spec=functional,
        state_spec=state,
        mc_samples=echoed["mc_samples"],
        seed=echoed["seed"],
        order=echoed["order"],
    )
    return cfg, echoed


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if not isinstance(x, str) else x for x in row) + "\n")


def _strict_json(doc) -> str:
    """Standard JSON text for a report: non-finite floats become null."""

    def finite(x):
        if is_dataclass(x):  # a check or a table row
            return finite(asdict(x))
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x

    return json.dumps(finite(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def emit_plot_data(result: SweepResult, out_dir: Path) -> list[Path]:
    """Log-log data file for the remainder plus a fitted-line overlay.

    Numbers carry 17 significant digits.  A noise-limited sweep gets a
    noise-floor marker column instead of a fit file.
    """
    if not result.rows:
        raise ValueError("sweep result has no rows")
    files = []
    data = out_dir / "sweep_loglog.dat"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        if result.noise_limited:
            fh.write("# alpha abs_remainder below_noise\n")
            for r in result.rows:
                fh.write(f"{r.alpha:.17g} {abs(r.remainder):.17g} {int(r.below_noise)}\n")
        else:
            fh.write("# alpha abs_remainder\n")
            for r in result.rows:
                fh.write(f"{r.alpha:.17g} {abs(r.remainder):.17g}\n")
    files.append(data)
    if result.fitted_slope is not None:
        fit = out_dir / "sweep_fit.dat"
        alphas = [r.alpha for r in result.rows]
        with open(fit, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# slope={result.fitted_slope!r} intercept={result.fitted_intercept!r}\n")
            for a in (min(alphas), max(alphas)):
                y = float(np.exp(result.fitted_intercept + result.fitted_slope * np.log(a)))
                fh.write(f"{a:.17g} {y:.17g}\n")
        files.append(fit)
    return files


def _pure_state(cfg: ExperimentConfig, workers: int) -> dict:
    psi = cfg.state_spec.get("psi")
    if psi is None:
        raise ConfigError("pure-state runs need state.psi")
    a = build_operator(cfg.functional_spec.get("operator"), cfg.dim)
    return pure_state_experiment(np.asarray(psi, dtype=np.float64), cfg.alpha_grid[0],
                                 a, cfg.mc_samples, cfg.seed, workers=workers)


def _nongaussian(cfg: ExperimentConfig, workers: int) -> dict:
    state = build_second_moment_state(cfg.state_spec, cfg.dim, cfg.alpha_grid[0])
    a = build_operator(cfg.functional_spec.get("operator"), cfg.dim)
    return nongaussian_experiment(state, a, cfg.mc_samples, cfg.seed, workers=workers)


CHECK_COLUMNS = ["check", "statistic", "reference", "stderr", "band", "passed"]


class _Table(NamedTuple):
    """How one subcommand produces its report and lays out its CSV table."""

    produce: Callable  # (cfg, workers) -> report
    csv_name: str
    grid: list[str] | None  # fields of the report's rows, or None for a check table


# The lambdas look the experiment functions up when they run, so a caller
# that rebinds a module global (a profiler, a test double) still sees it.
_TABLES = {
    "sweep": _Table(
        lambda cfg, workers: alpha_sweep(cfg, workers=workers), "sweep.csv",
        ["alpha", "classical_mc", "classical_analytic", "quantum_term", "remainder", "stderr"]),
    "pure-state": _Table(_pure_state, "pure_state.csv", None),
    "higher-order": _Table(
        lambda cfg, workers: higher_order_check(cfg, workers=workers), "higher_order.csv", None),
    "nongaussian": _Table(_nongaussian, "nongaussian.csv", None),
    "finite-qm": _Table(
        lambda cfg, workers: finite_qm_demo(cfg, workers=workers), "finite_qm.csv", None),
    "moments-check": _Table(
        lambda cfg, workers: moments_check(cfg, workers=workers), "moments.csv", None),
    "chebyshev": _Table(
        lambda cfg, workers: chebyshev_experiment(cfg, workers=workers), "chebyshev.csv",
        ["alpha", "C", "bound", "empirical", "noise"]),
}


def run(subcommand: str, cfg: ExperimentConfig, echoed: dict, out_dir,
        workers: int = 1) -> int:
    """Execute a subcommand; write manifest, CSV tables and the result doc.

    Exit status 0 on success, 2 when an acceptance band fails.
    """
    if subcommand not in _TABLES:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = _TABLES[subcommand]
    doc = table.produce(cfg, workers)
    files = [out / table.csv_name]
    if isinstance(doc, SweepResult):
        files += emit_plot_data(doc, out)
        doc = doc.report(echoed.get("slope_band"))
    if table.grid:
        write_csv(files[0], table.grid,
                  [[getattr(r, key) for key in table.grid] for r in doc["rows"]])
    else:
        write_csv(files[0], CHECK_COLUMNS, [
            [c.name, c.statistic, c.reference, c.stderr, c.band, str(c.passed).lower()]
            for c in doc["checks"]])

    result_path = out / "result.json"
    result_doc = {"subcommand": subcommand, "version": __version__,
                  "passed": doc["passed"], "report": doc}
    result_path.write_text(_strict_json(result_doc), encoding="utf-8")

    manifest = {
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "config": echoed,
        "seed": cfg.seed,
        "results": {
            "result_doc": result_path.name,
            "files": {f.name: _sha256(f) for f in files},
        },
    }
    (out / "manifest.json").write_text(_strict_json(manifest), encoding="utf-8")
    return 0 if result_doc["passed"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqlab",
        description="Classical-to-quantum correspondence experiments on Gaussian "
                    "field ensembles.")
    parser.add_argument("subcommand", choices=tuple(_TABLES))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help=f"output directory "
                        f"(default ${OUT_DIR_ENV} or ./cqlab-out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="sampling workers; must not change any result")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for acceptance-band failures
        return 1 if exc.code else 0

    out_dir = args.out or os.environ.get(OUT_DIR_ENV, "cqlab-out")
    try:
        cfg, echoed = load_config(args.config)
        if args.seed is not None:
            echoed["seed"] = int(args.seed)
            cfg = replace(cfg, seed=int(args.seed))
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return run(args.subcommand, cfg, echoed, out_dir, workers=args.threads)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
