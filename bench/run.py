"""Layered benchmark of the `cqlab` CLI.

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root (any checkout with `src/cqlab`).  With
`--trace 0` it prints the end-to-end metrics of one workload, measured with
tracing off:

- `wall_s`: median seconds of one pass (all of the workload's CLI calls,
  from entry into `cli.main` to return), over the timed passes;
- `setup_s`: median, over several fresh processes, of the time to import
  `cqlab.cli` (with NumPy/BLAS) and load the workload's configs;
- `peak_rss_mb`: peak resident memory of the process that ran the passes;
- `success_rate`: calls that passed every output check over calls
  attempted (the error rate is one minus this; a rate that is usually 0
  cannot carry a relative bound).

With `--trace 1` it prints the per-layer metrics of `tracer.PER_LAYER`
from a traced run.  Human-readable lines go first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Every process it starts runs to completion or is killed
and waited for; outputs go to `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio"))
SETUP_PROCESSES = 8   # plus the set-up of the timed process itself
RUN_BUDGET_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(mode: str, args, work: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.NamedTemporaryFile(dir=work, suffix=".json", delete=False) as fh:
        result = Path(fh.name)
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work", str(work), "--result", str(result)]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for the {mode} process")
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # subprocess.run kills and waits
            raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)


def _quantiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    text = f"n={len(values)} q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"
    if len(values) >= 20:
        # the highest percentile with at least ten samples beyond it
        pct = int(100 * (1 - 10 / len(values)))
        text += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4g}"
    return text


def run_end_to_end(args, work: Path, deadline: float) -> dict:
    setups = [_child("setup", args, work, deadline)["setup_s"] for _ in range(SETUP_PROCESSES)]
    doc = _child("timed", args, work, deadline)
    setups.append(doc["setup_s"])
    walls = doc["pass_walls"]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_mb"],
        "success_rate": (doc["attempted"] - doc["failed"]) / doc["attempted"],
    }
    print(f"{args.workload}: wall_s {metrics['wall_s']:.4f} s per pass "
          f"({len(walls)} timed passes at --threads {doc['threads']}; {_quantiles(walls)})")
    print(f"{args.workload}: setup_s {metrics['setup_s']:.4f} s "
          f"({len(setups)} fresh processes; {_quantiles(setups)})")
    print(f"{args.workload}: peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"{args.workload}: error_rate {doc['failed'] / doc['attempted']:.4g} "
          f"({doc['failed']} failed of {doc['attempted']} calls)")
    return {"metrics": metrics, "units": dict(END_TO_END), **doc}


def run_traced(args, work: Path, deadline: float) -> dict:
    doc = _child("traced", args, work, deadline)
    m = doc["metrics"]
    print(f"{args.workload}: {doc['traced_passes']} traced and {doc['untraced_passes']} "
          f"untraced passes at --threads {doc['threads']}; traced wall "
          f"{m['trace.wall_s']:.4f} s, overhead {m['trace.overhead_s']:.4f} s")
    print(f"{args.workload}: share of traced wall in eval_batch + draw_chunked "
          f"{m['trace.share_sample_evaluate']:.3f}; in trace_forms + dense eval_diag_batch "
          f"{m['trace.share_contract_dense_eval']:.3f}")
    if doc["silent_layers"]:
        print(f"{args.workload}: warning: predicted layers recorded no call: "
              + ", ".join(doc["silent_layers"]), file=sys.stderr)
    return {"units": dict(tracing.PER_LAYER), **doc}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the cqlab CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "cqlab" / "cli.py").is_file():
        print(f"error: no cqlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work = ROOT / ".bench_out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    try:
        doc = (run_traced if args.trace else run_end_to_end)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in doc["failures"]:
        print(f"{args.workload}: failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": doc["environment"]}))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": doc["metrics"][name], "unit": unit}
                    for name, unit in doc["units"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
