"""Benchmark workloads and the output checks applied to every CLI call.

A workload is the list of `cqlab` CLI calls that make up one pass.  Its
inputs come from the workload seed alone: generated configs take their
operator, state and Monte-Carlo seeds from it, and shipped configs get a
derived `--seed`.  The program sees only the config files.

Why these three workloads:

- `mc_sweep` spends almost all of its time on the Monte-Carlo path
  (Gaussian sampling, then the quadratic-form kernel of `eval_batch`) at
  dim 64 and has no Wick contraction, so kernel and `--threads` changes
  show here.
- `exact_forms` spends its time contracting and evaluating exact forms
  (`trace_forms` densifying a 64^4 pairing form, dense order-6
  `eval_diag_batch`) and hardly samples, so contraction changes show here
  and not in `mc_sweep`.
- `shipped_configs` runs every shipped config at dims 1-4, where per-call
  overhead, small-N sampling and CLI writes dominate; a change tuned for
  dim 64 that loses at small sizes shows only here.  The call list is
  fixed rather than globbed, so adding a config does not change the
  workload.

`exact_forms` is not listed in BENCHMARK.json.  Its memory-bound passes
follow the speed of a shared host: on a 2-core VM its median pass moved
between 1.5 s and 3.3 s within an hour, and the spread over ten runs
(0.28-0.29 of the median) exceeded the largest bound a metric may carry.
It stays runnable by hand for the exact-form layers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mc_sweep", "exact_forms", "shipped_configs")

# (subcommand, shipped config stem): every config through its own
# subcommand, plus chebyshev and finite-qm so that all 7 subcommands run.
SHIPPED_CALLS = (
    ("sweep", "cos_sweep"),
    ("sweep", "sin_sweep"),
    ("higher-order", "higher_order"),
    ("moments-check", "moments_check"),
    ("nongaussian", "nongaussian_laplace"),
    ("pure-state", "pure_state"),
    ("chebyshev", "cos_sweep"),
    ("finite-qm", "moments_check"),
)

EXACTNESS_RTOL = 1e-10
MC_SIGMAS = 4.0


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit config seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass."""

    label: str
    subcommand: str
    config: Path
    out_dir: Path
    seed: int | None = None
    slope_band: tuple[float, float] | None = None

    def argv(self, threads: int) -> list[str]:
        args = [self.subcommand, "--config", str(self.config), "--out", str(self.out_dir),
                "--threads", str(threads)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args


@dataclass(frozen=True)
class Workload:
    """The calls of one pass; `threads` is the `--threads` of timed passes
    and `trace_threads` that of traced passes (the single-threaded baseline)."""

    name: str
    calls: tuple[Call, ...]
    threads: int
    trace_threads: int


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Write the workload's generated configs under `work` and return its calls."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "mc_sweep":
        band = (1.9, 2.1)
        cfg = _write_config(work / "mc_sweep.json", {
            "dim": 64,
            "functional": {"family": "cos-quad-minus-one",
                           "operator": {"random": {"seed": derive_seed(seed, "operator")}}},
            "state": {"shape": "random", "seed": derive_seed(seed, "state")},
            "alpha_grid": [0.1, 0.03, 0.01, 0.003, 0.001],
            "mc_samples": 65536,
            "seed": derive_seed(seed, "mc"),
            "slope_band": list(band),
        })
        calls = (Call("sweep:mc_sweep", "sweep", cfg, work / "out-sweep", slope_band=band),)
        return Workload(name, calls, threads=2, trace_threads=1)
    if name == "exact_forms":
        higher = _write_config(work / "higher_order.json", {
            "dim": 64,
            "functional": {
                "family": "even-polynomial",
                "quadratic": {"random": {"seed": derive_seed(seed, "quadratic")}},
                "quartic": {"operator": {"random": {"seed": derive_seed(seed, "quartic")}},
                            "coeff": 0.5},
            },
            "state": {"shape": "random", "seed": derive_seed(seed, "state")},
            "alpha_grid": [0.05],
            "mc_samples": 20000,
            "seed": derive_seed(seed, "mc"),
            "order": 2,
        })
        moments = _write_config(work / "moments_check.json", {
            "dim": 6,
            "functional": {"family": "quadratic"},
            "state": {"shape": "isotropic"},
            "mc_samples": 32768,
            "seed": derive_seed(seed, "moments"),
            "order": 3,
        })
        calls = (Call("higher-order:dim64", "higher-order", higher, work / "out-higher"),
                 Call("moments-check:order6", "moments-check", moments, work / "out-moments"))
        return Workload(name, calls, threads=1, trace_threads=1)
    if name == "shipped_configs":
        calls = []
        for subcommand, stem in SHIPPED_CALLS:
            config = root / "configs" / f"{stem}.json"
            raw = json.loads(config.read_text(encoding="utf-8"))
            band = raw.get("slope_band") if subcommand == "sweep" else None
            label = f"{subcommand}:{stem}"
            calls.append(Call(label, subcommand, config, work / f"out-{subcommand}-{stem}",
                              seed=derive_seed(seed, label),
                              slope_band=tuple(band) if band else None))
        return Workload(name, tuple(calls), threads=1, trace_threads=1)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(path: Path):
    """Parse JSON that may not contain NaN or Infinity tokens."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def non_finite(doc, where: str = "$") -> list[str]:
    """Paths of numbers in `doc` that are not finite (e.g. 1e999)."""
    if isinstance(doc, float):
        return [] if math.isfinite(doc) else [where]
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in non_finite(v, f"{where}.{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in non_finite(v, f"{where}[{i}]")]
    return []


def _check_report(call: Call, report: dict) -> list[str]:
    """Re-check each claim from the reported numbers, ignoring `passed`."""
    if call.slope_band is not None:
        slope = report.get("fitted_slope")
        lo, hi = call.slope_band
        if not isinstance(slope, float) or not lo <= slope <= hi:
            return [f"fitted_slope {slope!r} outside slope_band [{lo}, {hi}]"]
    if call.subcommand == "higher-order":
        rel = report.get("relative_error")
        if not isinstance(rel, float) or not rel <= EXACTNESS_RTOL:
            return [f"relative_error {rel!r} above {EXACTNESS_RTOL}"]
    if call.subcommand == "moments-check":
        analytic, mc, stderr = (report.get(k) for k in ("analytic", "mc", "stderr"))
        if not all(isinstance(x, float) for x in (analytic, mc, stderr)):
            return ["moments-check report lacks analytic/mc/stderr"]
        if not abs(analytic - mc) <= MC_SIGMAS * stderr:
            return [f"|analytic - mc| = {abs(analytic - mc)!r} above "
                    f"{MC_SIGMAS} * stderr = {MC_SIGMAS * stderr!r}"]
    return []


def check_outputs(call: Call, exit_code: int) -> tuple[list[str], dict[str, str]]:
    """Problems found in one call's outputs, and the table hashes of its manifest."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        result = strict_json(call.out_dir / "result.json")
        manifest = strict_json(call.out_dir / "manifest.json")
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable output: {exc}"], {}
    problems += [f"non-finite number at {p}" for p in non_finite(result) + non_finite(manifest)]
    report = result.get("report")
    if not isinstance(report, dict):
        return problems + ["result.json has no report object"], {}
    problems += _check_report(call, report)
    hashes = manifest.get("results", {}).get("files", {})
    if not hashes:
        problems.append("manifest lists no tables")
    for name, digest in hashes.items():
        try:
            actual = hashlib.sha256((call.out_dir / name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"table {name} unreadable: {exc}")
            continue
        if actual != digest:
            problems.append(f"table {name} does not match its manifest hash")
    return problems, hashes
