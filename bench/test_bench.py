"""Tests of the benchmark itself: output checks, tracer coverage, and the
agreement of BENCHMARK.json with the metrics the code reports.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name in listed]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_every_per_layer_metric_names_a_traced_layer():
    layers = {layer for layer, *_ in tracing.TARGETS}
    layers |= {"functionals.eval_diag_batch.dense", "functionals.eval_diag_batch.pairing"}
    for name, _ in tracing.PER_LAYER:
        if name.startswith("trace.") or name == "cli.bytes_written":
            continue
        assert name.rsplit(".", 1)[0] in layers, name


def test_missing_public_name_is_an_error(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("wick.no_such_function", "wick", "no_such_function", None, None),))
    with pytest.raises(tracing.TracerError, match="cqlab.wick.no_such_function"):
        tracing.Tracer()


def test_wrapper_is_installed_in_every_importing_namespace():
    import cqlab
    import cqlab.correspondence
    import cqlab.wick

    original = cqlab.wick.trace_forms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = cqlab.wick.trace_forms
        assert wrapped is not original
        assert cqlab.correspondence.trace_forms is wrapped
        assert cqlab.trace_forms is wrapped
    finally:
        tracer.uninstall()
    assert cqlab.wick.trace_forms is original
    assert cqlab.correspondence.trace_forms is original


def test_eval_batch_is_traced_on_every_subclass_and_counted_once():
    from cqlab.functionals import Quadratic, ScaledFunctional

    class Shifted(Quadratic):
        def eval_batch(self, x):
            return super().eval_batch(x) + 1.0

    x = np.ones((10, 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ScaledFunctional(Quadratic(np.eye(3)), 2.0).eval_batch(x)
        Shifted(np.eye(3)).eval_batch(x)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["functionals.eval_batch.calls"] == 2
    assert totals["functionals.eval_batch.rows"] == 20
    assert totals["functionals.eval_batch.flops_computed"] == 2 * (2 * 10 * 3 * 3)


def test_silent_layers_lists_predicted_layers_without_calls():
    totals = {f"{layer}.calls": 1 for layer in tracing.PREDICTED_LAYERS["mc_sweep"]}
    assert tracing.silent_layers("mc_sweep", totals) == []
    del totals["functionals.eval_batch.calls"]
    assert tracing.silent_layers("mc_sweep", totals) == ["functionals.eval_batch"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_records_every_predicted_layer(name, tmp_path):
    """Fails when a wrapper is bypassed, so a used layer records no calls."""
    workload = workloads.build(name, 7, ROOT, tmp_path)
    runner = worker.Runner(worker.import_cli(), workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_pass(workload.trace_threads, tracer)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    assert tracing.silent_layers(name, tracer.layer_totals()) == []


def _write_outputs(out: Path, report: dict, text: str | None = None) -> None:
    out.mkdir()
    (out / "table.csv").write_text("a\n1.0\n")
    digest = hashlib.sha256(b"a\n1.0\n").hexdigest()
    (out / "manifest.json").write_text(json.dumps({"results": {"files": {"table.csv": digest}}}))
    (out / "result.json").write_text(text if text is not None else
                                     json.dumps({"passed": True, "report": report}))


def test_checks_accept_a_good_sweep(tmp_path):
    call = workloads.Call("sweep", "sweep", tmp_path / "c.json", tmp_path / "out",
                          slope_band=(1.9, 2.1))
    _write_outputs(call.out_dir, {"fitted_slope": 2.0})
    problems, hashes = workloads.check_outputs(call, 0)
    assert problems == []
    assert list(hashes) == ["table.csv"]


@pytest.mark.parametrize("text, fragment", [
    ('{"passed": true, "report": {"fitted_slope": NaN}}', "non-standard JSON"),
    ('{"passed": true, "report": {"fitted_slope": 1e999}}', "non-finite"),
    ('{"passed": true, "report": {"fitted_slope": 2.5}}', "outside slope_band"),
    ('{"passed": true, "report": {"fitted_slope": null}}', "outside slope_band"),
])
def test_checks_do_not_trust_passed(tmp_path, text, fragment):
    call = workloads.Call("sweep", "sweep", tmp_path / "c.json", tmp_path / "out",
                          slope_band=(1.9, 2.1))
    _write_outputs(call.out_dir, {}, text)
    problems, _ = workloads.check_outputs(call, 0)
    assert any(fragment in p for p in problems), problems


@pytest.mark.parametrize("subcommand, report", [
    ("higher-order", {"relative_error": 1e-9}),
    ("moments-check", {"analytic": 1.0, "mc": 1.5, "stderr": 0.1}),
])
def test_checks_recompute_bands(tmp_path, subcommand, report):
    call = workloads.Call(subcommand, subcommand, tmp_path / "c.json", tmp_path / "out")
    _write_outputs(call.out_dir, report)
    problems, _ = workloads.check_outputs(call, 0)
    assert problems


def test_checks_catch_a_table_that_does_not_match_its_hash(tmp_path):
    call = workloads.Call("pure-state", "pure-state", tmp_path / "c.json", tmp_path / "out")
    _write_outputs(call.out_dir, {})
    (call.out_dir / "table.csv").write_text("a\n2.0\n")
    problems, _ = workloads.check_outputs(call, 0)
    assert any("manifest hash" in p for p in problems)


def test_generated_configs_follow_the_seed(tmp_path):
    a = workloads.build("mc_sweep", 1, ROOT, tmp_path / "a")
    b = workloads.build("mc_sweep", 1, ROOT, tmp_path / "b")
    c = workloads.build("mc_sweep", 2, ROOT, tmp_path / "c")
    text = [w.calls[0].config.read_text() for w in (a, b, c)]
    assert text[0] == text[1] != text[2]
    shipped = workloads.build("shipped_configs", 1, ROOT, tmp_path / "d")
    assert len({call.subcommand for call in shipped.calls}) == 7
    assert all(call.seed is not None for call in shipped.calls)


def test_a_pass_whose_tables_differ_from_the_reference_fails(tmp_path):
    call = workloads.Call("pure-state", "pure-state", tmp_path / "c.json", tmp_path / "out")

    class FakeCli:
        @staticmethod
        def main(argv):
            threads = argv[argv.index("--threads") + 1]
            _write_outputs(call.out_dir, {})
            if threads == "2":  # a worker count that moves output bits
                table = b"a\n1.0000000000000002\n"
                (call.out_dir / "table.csv").write_bytes(table)
                digest = hashlib.sha256(table).hexdigest()
                (call.out_dir / "manifest.json").write_text(
                    json.dumps({"results": {"files": {"table.csv": digest}}}))
            return 0

    runner = worker.Runner(FakeCli(), workloads.Workload("fake", (call,), 2, 1))
    runner.run_pass(1)
    runner.run_pass(1)
    assert runner.failed == 0
    runner.run_pass(2)
    assert runner.failed == 1
    assert "differ from the reference pass" in runner.failures[0]
