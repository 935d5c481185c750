"""Command-line surface: config loading, experiment dispatch, result and
plot-data persistence.

Configs are read and checked by `ExperimentConfig.from_json`, and the run
manifest embeds `cfg.to_json()`, defaults filled in.  All numeric CSV
output uses shortest round-trip decimals, so identical config and seed
reproduce byte-identical tables regardless of --threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, experiments
from .errors import ConfigError
from .experiments import ExperimentConfig
from .gaussian import sampling_workers

OUT_DIR_ENV = "CQLAB_OUT_DIR"


def load_config(path) -> ExperimentConfig:
    """Parse and check a config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    return ExperimentConfig.from_json(raw)


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


def emit_plot_data(report: dict, out_dir: Path) -> list[Path]:
    """Log-log data file for the remainder of an `alpha_sweep` report plus a
    fitted-line overlay.

    Numbers carry 17 significant digits.  A noise-limited sweep gets a
    noise-floor marker column instead of a fit file.
    """
    rows, slope, intercept = report["rows"], report["fitted_slope"], report["fitted_intercept"]
    if not rows:
        raise ValueError("sweep report has no rows")
    files = []
    data = out_dir / "sweep_loglog.dat"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        if report["noise_limited"]:
            fh.write("# alpha abs_remainder below_noise\n")
            for r in rows:
                fh.write(f"{r.alpha:.17g} {abs(r.remainder):.17g} {int(r.below_noise)}\n")
        else:
            fh.write("# alpha abs_remainder\n")
            for r in rows:
                fh.write(f"{r.alpha:.17g} {abs(r.remainder):.17g}\n")
    files.append(data)
    if slope is not None:
        fit = out_dir / "sweep_fit.dat"
        alphas = [r.alpha for r in rows]
        with open(fit, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# slope={slope!r} intercept={intercept!r}\n")
            for a in (min(alphas), max(alphas)):
                y = float(np.exp(intercept + slope * np.log(a)))
                fh.write(f"{a:.17g} {y:.17g}\n")
        files.append(fit)
    return files


CHECK_COLUMNS = ["check", "statistic", "reference", "stderr", "band", "passed"]


class _Table(NamedTuple):
    """How one subcommand produces its report and lays out its CSV table."""

    experiment: str  # an `experiments` function cfg -> report
    csv_name: str
    grid: list[str] | None  # fields of the report's rows, or None for a check table
    plots: bool = False  # the report is a sweep's, drawn by `emit_plot_data`


# Experiments are looked up by name when they run, so a caller that rebinds
# a module global (a profiler, a test double) still sees it.
_TABLES = {
    "sweep": _Table("alpha_sweep", "sweep.csv", [
        "alpha", "classical_mc", "classical_analytic", "quantum_term", "remainder", "stderr"],
        plots=True),
    "pure-state": _Table("pure_state_run", "pure_state.csv", None),
    "higher-order": _Table("higher_order_check", "higher_order.csv", None),
    "nongaussian": _Table("nongaussian_run", "nongaussian.csv", None),
    "finite-qm": _Table("finite_qm_demo", "finite_qm.csv", None),
    "moments-check": _Table("moments_check", "moments.csv", None),
    "chebyshev": _Table("chebyshev_experiment", "chebyshev.csv",
                        ["alpha", "C", "bound", "empirical", "noise"]),
}


def run(subcommand: str, cfg: ExperimentConfig, out_dir, workers: int = 1) -> int:
    """Execute a subcommand's experiment in one `sampling_workers(workers)`
    block; write manifest, CSV tables and the result doc.

    Exit status 0 on success, 2 when an acceptance band fails.
    """
    if subcommand not in _TABLES:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = _TABLES[subcommand]
    with sampling_workers(workers) as blas_threads:
        doc = getattr(experiments, table.experiment)(cfg)
    files = [out / table.csv_name]
    if table.plots:
        files += emit_plot_data(doc, out)
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
        "config": cfg.to_json(),
        "seed": cfg.seed,
        "threads": workers,
        "blas_threads": blas_threads,
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
                        help="threads that fill sampling chunks, the calling one "
                        "included; must not change any result")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for acceptance-band failures
        return 1 if exc.code else 0

    out_dir = args.out or os.environ.get(OUT_DIR_ENV, "cqlab-out")
    # NumPy's overflow warnings span two lines each; report them in one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            status = run(args.subcommand, cfg, out_dir, workers=args.threads)
        # RuntimeError: a worker thread that cannot start, or a NumericalError
        except (ConfigError, ValueError, OSError, MemoryError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if caught:
        first = f"{caught[0].category.__name__}: {caught[0].message}".splitlines()[0]
        print(f"warning: {len(caught)} warning(s) during the run; first: {first}",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
