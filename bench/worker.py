"""One benchmark process, started by run.py.

Modes:

- `setup`: time importing `cqlab.cli` (with NumPy/BLAS) and loading the
  workload's configs, in this fresh process, then exit.
- `timed`: the same set-up, one untimed reference pass at the workload's
  `trace_threads`, then timed passes at its `threads` for `--seconds`;
  reports pass walls, failures and peak RSS.
- `traced`: an untimed reference pass at `threads`, then alternating
  untraced and traced passes at `trace_threads`; reports per-layer metrics
  and writes the spans to `spans.json` in the work directory.

Every call's outputs are checked, and every pass's table hashes must equal
those of the reference pass, which checks the `--threads` invariant from
outside on `mc_sweep` (reference at one thread count, passes at another).

    python3 bench/worker.py timed --workload mc_sweep --seed 1 --seconds 10 \
        --work .bench_out/mc_sweep --result result.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_REPORTED_FAILURES = 20
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_cli():
    """Import `cqlab.cli` and make sure it came from this checkout's src/."""
    import cqlab.cli as cli

    where = Path(cli.__file__).resolve()
    if (ROOT / "src").resolve() not in where.parents:
        raise SystemExit(f"error: cqlab imported from {where}, not from {ROOT / 'src'}")
    return cli


def timed_setup(workload: workloads.Workload):
    """Import the CLI and load every config of the workload; (cli, seconds)."""
    start = time.perf_counter()
    cli = import_cli()
    for call in workload.calls:
        cli.load_config(call.config)
    return cli, time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs passes of a workload through `cli.main` and checks every call."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.reference: dict[str, dict] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, threads: int, tracer: tracing.Tracer | None = None) -> float:
        """Seconds spent inside `cli.main` for one pass; the first pass sets
        the reference table hashes."""
        wall = 0.0
        hashes = {}
        for call in self.workload.calls:
            shutil.rmtree(call.out_dir, ignore_errors=True)
            self.attempted += 1
            start = time.perf_counter()
            try:
                exit_code = self.cli.main(call.argv(threads))
            except Exception as exc:  # a traceback is a failed call, not a dead benchmark
                exit_code = f"exception {type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            problems, hashes[call.label] = workloads.check_outputs(call, exit_code)
            if self.reference is not None and hashes[call.label] != self.reference[call.label]:
                problems.append(f"table hashes at --threads {threads} differ from the "
                                f"reference pass")
            if tracer is not None and call.out_dir.is_dir():
                tracer.count("cli.bytes_written", sum(
                    p.stat().st_size for p in call.out_dir.iterdir() if p.is_file()))
            if problems:
                self.failed += 1
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append(f"{call.label} --threads {threads}: "
                                         + "; ".join(problems))
        if self.reference is None:
            self.reference = hashes
        return wall

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


def run_timed(workload, seconds: float) -> dict:
    cli, setup_s = timed_setup(workload)
    runner = Runner(cli, workload)
    runner.run_pass(workload.trace_threads)
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        walls.append(runner.run_pass(workload.threads))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"setup_s": setup_s, "pass_walls": walls, "peak_rss_mb": peak_rss_mb,
            "threads": workload.threads, "environment": environment(), **runner.summary()}


def run_traced(workload, seconds: float, work: Path) -> dict:
    cli = import_cli()
    tracer = tracing.Tracer()
    runner = Runner(cli, workload)
    runner.run_pass(workload.threads)
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        # alternate which of the pair runs first, so order effects cancel
        if len(traced) % 2:
            untraced.append(runner.run_pass(workload.trace_threads))
        tracer.install()
        try:
            traced.append(runner.run_pass(workload.trace_threads, tracer))
        finally:
            tracer.uninstall()
        if len(traced) % 2:
            untraced.append(runner.run_pass(workload.trace_threads))
    totals = tracer.layer_totals()
    n = len(traced)
    traced_total = sum(traced)
    metrics = {name: totals.get(name, 0) / n for name, _ in tracing.PER_LAYER
               if not name.startswith("trace.")}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.share_sample_evaluate"] = (
        totals.get("functionals.eval_batch.busy_s", 0)
        + totals.get("gaussian.draw_chunked.busy_s", 0)) / traced_total
    metrics["trace.share_contract_dense_eval"] = (
        totals.get("wick.trace_forms.busy_s", 0)
        + totals.get("functionals.eval_diag_batch.dense.busy_s", 0)) / traced_total
    (work / "spans.json").write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    return {"metrics": metrics, "traced_passes": n, "untraced_passes": len(untraced),
            "threads": workload.trace_threads,
            "silent_layers": tracing.silent_layers(workload.name, totals),
            "environment": environment(), **runner.summary()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, ROOT, args.work)
    if args.mode == "setup":
        doc = {"setup_s": timed_setup(workload)[1]}
    elif args.mode == "timed":
        doc = run_timed(workload, args.seconds)
    else:
        try:
            doc = run_traced(workload, args.seconds, args.work)
        except tracing.TracerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    args.result.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
