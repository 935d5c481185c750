from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab.cli import emit_plot_data, load_config, main, run
from cqlab.errors import ConfigError
from cqlab.experiments import Check, SweepResult, SweepRow


MINIMAL = {
    "dim": 2,
    "functional": {"family": "quadratic", "operator": "identity"},
    "alpha_grid": [0.1, 0.01],
    "mc_samples": 10_000,
    "seed": 7,
}

COS_SWEEP = {
    "dim": 1,
    "functional": {"family": "cos-quad-minus-one", "operator": {"matrix": [[1.0]]}},
    "alpha_grid": [0.1, 0.03, 0.01, 0.003, 0.001],
    "mc_samples": 2_000,
    "seed": 11,
    "slope_band": [1.9, 2.1],
}


def _check(result: dict, name: str) -> dict:
    return next(c for c in result["report"]["checks"] if c["name"] == name)


def _write(tmp_path: Path, cfg: dict, name="cfg.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_load_minimal_config(tmp_path):
    cfg, echoed = load_config(_write(tmp_path, MINIMAL))
    assert cfg.dim == 2
    assert cfg.alpha_grid == (0.1, 0.01)
    assert cfg.mc_samples == 10_000
    assert echoed["order"] == 1
    assert echoed["state"] == {"shape": "isotropic"}


def test_load_config_rejects_ascending_grid(tmp_path):
    bad = dict(MINIMAL, alpha_grid=[0.01, 0.1])
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, bad))


def test_load_config_rejects_small_sample_count(tmp_path):
    bad = dict(MINIMAL, mc_samples=10)
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, bad))


def test_load_config_rejects_unknown_keys(tmp_path):
    bad = dict(MINIMAL, typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(_write(tmp_path, bad))


def test_load_config_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"dim": 2,\n  "oops"\n}')
    with pytest.raises(ConfigError, match=r"parse error at line \d"):
        load_config(p)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_sweep_run_produces_artifacts(tmp_path):
    cfg_path = _write(tmp_path, COS_SWEEP)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "alpha,classical_mc,classical_analytic,quantum_term,remainder,stderr"
    assert len(csv_lines) == 6  # header + 5 rows
    result = json.loads((out / "result.json").read_text())
    assert result["passed"] is True
    assert 1.9 <= result["report"]["fitted_slope"] <= 2.1
    assert (out / "sweep_loglog.dat").exists()
    assert (out / "sweep_fit.dat").exists()


def test_sweep_slope_band_gates_exit_code(tmp_path):
    bad_band = dict(COS_SWEEP, slope_band=[2.9, 3.1])
    cfg_path = _write(tmp_path, bad_band)
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_moments_check_run(tmp_path):
    cfg = {
        "dim": 4,
        "functional": {"family": "quadratic"},
        "alpha_grid": [0.1],
        "mc_samples": 50_000,
        "seed": 17,
        "order": 2,
    }
    out = tmp_path / "out"
    rc = main(["moments-check", "--config", str(_write(tmp_path, cfg)), "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert _check(result, "repeated_axis")["statistic"] == 3.0
    assert _check(result, "moment")["passed"] is True


def test_pure_state_rejects_nonunit_vector(tmp_path):
    cfg = {
        "dim": 2,
        "functional": {"family": "quadratic", "operator": {"diagonal": [2.0, 5.0]}},
        "alpha_grid": [0.05],
        "state": {"shape": "rank1", "psi": [1.0, 1.0]},
        "mc_samples": 5_000,
        "seed": 3,
    }
    rc = main(["pure-state", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "o")])
    assert rc == 1  # psi is not normalized


def test_pure_state_run(tmp_path):
    s = 1.0 / np.sqrt(2.0)
    cfg = {
        "dim": 2,
        "functional": {"family": "quadratic", "operator": {"matrix": [[0.0, 1.0], [1.0, 0.0]]}},
        "alpha_grid": [0.05],
        "state": {"shape": "rank1", "psi": [s, s]},
        "mc_samples": 20_000,
        "seed": 3,
    }
    out = tmp_path / "o"
    rc = main(["pure-state", "--config", str(_write(tmp_path, cfg)), "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert _check(result, "span")["passed"] is True


def test_chebyshev_and_nongaussian_runs(tmp_path):
    cfg = {
        "dim": 4,
        "functional": {"family": "quadratic"},
        "alpha_grid": [0.1, 0.01, 0.001],
        "mc_samples": 20_000,
        "seed": 19,
    }
    rc = main(["chebyshev", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "c")])
    assert rc == 0
    cfg_ng = dict(cfg, state={"sampler": "product-laplace"})
    rc = main(["nongaussian", "--config", str(_write(tmp_path, cfg_ng, "ng.json")),
               "--out", str(tmp_path / "n")])
    assert rc == 0


def test_finite_qm_and_higher_order_runs(tmp_path):
    cfg = {
        "dim": 3,
        "functional": {"family": "quadratic", "operator": "identity"},
        "alpha_grid": [0.05],
        "mc_samples": 20_000,
        "seed": 23,
        "order": 2,
        "state": {"shape": "random", "seed": 5},
    }
    rc = main(["finite-qm", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "f")])
    assert rc == 0
    rc = main(["higher-order", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "h")])
    assert rc == 0
    result = json.loads((tmp_path / "h" / "result.json").read_text())
    assert result["report"]["relative_error"] <= 1e-10


def test_seed_override_changes_results(tmp_path):
    cfg_path = _write(tmp_path, COS_SWEEP)
    main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "99"])
    a = (tmp_path / "a" / "sweep.csv").read_text()
    b = (tmp_path / "b" / "sweep.csv").read_text()
    assert a != b  # classical_mc column moves with the seed
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["seed"] == 99


def test_nan_slope_fails_its_band(tmp_path):
    empty = SweepResult((), float("nan"), 0.0, False, 0)
    assert not empty.report([1.9, 2.1])["passed"]
    nan_op = dict(COS_SWEEP, functional={"family": "cos-quad-minus-one",
                                         "operator": {"matrix": [[float("nan")]]}})
    rc = main(["sweep", "--config", str(_write(tmp_path, nan_op)), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_nan_sweep_writes_standard_json(tmp_path):
    nan_op = dict(COS_SWEEP, functional={"family": "cos-quad-minus-one",
                                         "operator": {"matrix": [[float("nan")]]}})
    rc = main(["sweep", "--config", str(_write(tmp_path, nan_op)), "--out", str(tmp_path / "o")])
    assert rc == 2

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    result = json.loads((tmp_path / "o" / "result.json").read_text(), parse_constant=reject)
    json.loads((tmp_path / "o" / "manifest.json").read_text(), parse_constant=reject)
    assert result["passed"] is False
    assert result["report"]["fitted_slope"] is None
    assert result["report"]["rows"][0]["classical_mc"] is None


# Overflow probes: a huge dispersion leaves a stderr or a threshold C at inf,
# which used to let a 4-sigma band or a tail bound pass anything.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nongaussian_overflow_fails_its_gates(tmp_path):
    cfg = dict(MINIMAL, dim=4, alpha_grid=[1e300], mc_samples=1000,
               state={"sampler": "product-laplace"})
    rc = main(["nongaussian", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert json.loads((tmp_path / "o" / "result.json").read_text())["passed"] is False


def test_chebyshev_infinite_threshold_fails_its_gate(tmp_path):
    cfg = dict(MINIMAL, dim=4, alpha_grid=[1e308, 1e306, 1e304], mc_samples=1000)
    rc = main(["chebyshev", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    result = json.loads((tmp_path / "o" / "result.json").read_text())
    assert result["passed"] is False
    assert [c["passed"] for c in result["report"]["checks"]][:3] == [True, False, False]


def test_unusable_paths_are_one_line_errors(tmp_path, capsys):
    cfg_path = _write(tmp_path, MINIMAL)
    for argv in (["--config", str(cfg_path), "--out", str(cfg_path)],  # FileExistsError
                 ["--config", str(tmp_path), "--out", str(tmp_path / "o")]):  # IsADirectoryError
        assert main(["moments-check"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _limit_address_space():  # runs in the child only
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("cfg", [
    dict(COS_SWEEP, mc_samples=10 ** 12),
    dict(COS_SWEEP, dim=1_000_000, functional={"family": "cos-quad-minus-one",
                                               "operator": "identity"}),
])
def test_allocation_failure_is_a_one_line_error(tmp_path, cfg):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cqlab.cli", "sweep", "--config", str(_write(tmp_path, cfg)),
         "--out", str(tmp_path / "o")],
        preexec_fn=_limit_address_space, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1


def test_negative_seeds_are_taken_mod_2_64(tmp_path):
    def operator_seed(seed):
        return dict(COS_SWEEP, functional={"family": "cos-quad-minus-one",
                                           "operator": {"random": {"seed": seed}}})

    for name, seed in (("neg", -1), ("wrapped", 2 ** 64 - 1)):
        rc = main(["sweep", "--config", str(_write(tmp_path, operator_seed(seed), f"{name}.json")),
                   "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "neg" / "sweep.csv").read_bytes() == \
        (tmp_path / "wrapped" / "sweep.csv").read_bytes()

    cfg = {
        "dim": 3,
        "functional": {"family": "quadratic", "operator": "identity"},
        "alpha_grid": [0.05],
        "mc_samples": 20_000,
        "seed": 23,
        "state": {"shape": "random", "seed": 5},
    }
    cfg_path = _write(tmp_path, cfg, "fqm.json")
    for name, seed in (("fneg", "-3"), ("fwrapped", str(2 ** 64 - 3))):
        rc = main(["finite-qm", "--config", str(cfg_path), "--out", str(tmp_path / name),
                   "--seed", seed])
        assert rc == 0
    assert (tmp_path / "fneg" / "finite_qm.csv").read_bytes() == \
        (tmp_path / "fwrapped" / "finite_qm.csv").read_bytes()


def test_non_object_quartic_is_a_one_line_error(tmp_path, capsys):
    cfg = dict(MINIMAL, functional={"family": "even-polynomial", "quartic": [1]})
    with pytest.raises(ConfigError, match="quartic"):
        load_config(_write(tmp_path, cfg))
    rc = main(["higher-order", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("subcommand, cfg, fragment", [
    ("sweep", dict(MINIMAL, alpha_grid=COS_SWEEP["alpha_grid"],
                   state={"shape": "diagonal", "weights": [1.0, float("nan")]}),
     "finite nonnegative weights"),
    ("sweep", dict(COS_SWEEP, dim=True), "'dim' must be an integer"),
    ("sweep", dict(COS_SWEEP, dim=2.7), "'dim' must be an integer"),
    ("sweep", dict(COS_SWEEP, alpha_grid=[float("inf"), 0.01, 0.001]), "finite positive"),
    ("sweep", dict(COS_SWEEP, alpha_grid=0.1), "'alpha_grid' must be a list"),
    ("sweep", dict(COS_SWEEP, slope_band=[float("nan"), float("nan")]), "'slope_band' must be"),
    ("sweep", dict(COS_SWEEP, slope_band=["a", "b"]), "'slope_band' must be"),
    ("higher-order", dict(MINIMAL, order=5), "2n <= 8"),
])
def test_bad_numbers_are_one_line_errors(tmp_path, capsys, subcommand, cfg, fragment):
    rc = main([subcommand, "--config", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_higher_order_runs_at_order_four(tmp_path):
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs" /
                      "higher_order.json").read_text())
    cfg["order"] = 4
    rc = main(["higher-order", "--config", str(_write(tmp_path, cfg)),
               "--out", str(tmp_path / "h")])
    assert rc == 0
    result = json.loads((tmp_path / "h" / "result.json").read_text())
    assert result["report"]["order"] == 4
    assert result["report"]["relative_error"] <= 1e-10


def test_threads_do_not_change_bytes(tmp_path):
    cfg_path = _write(tmp_path, COS_SWEEP)
    main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "t1"), "--threads", "1"])
    main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "t8"), "--threads", "8"])
    for name in ("sweep.csv", "sweep_loglog.dat", "sweep_fit.dat"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t8" / name).read_bytes()


def test_manifest_round_trip_reproduces_hashes(tmp_path):
    cfg_path = _write(tmp_path, COS_SWEEP)
    main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r1")])
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    embedded = {k: v for k, v in manifest["config"].items() if v is not None}
    replay_cfg = _write(tmp_path, embedded, "replay.json")
    main(["sweep", "--config", str(replay_cfg), "--out", str(tmp_path / "r2")])
    manifest2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert manifest["results"]["files"] == manifest2["results"]["files"]


def test_emit_plot_data_fit_matches_result_doc(tmp_path):
    rows = tuple(
        SweepRow(alpha=a, classical_mc=0.0, classical_analytic=-1.5 * a * a,
                 quantum_term=0.0, remainder=-1.5 * a * a, stderr=0.0, below_noise=False)
        for a in (0.1, 0.01, 0.001))
    logs = np.log([0.1, 0.01, 0.001])
    slope, intercept = map(float, np.polyfit(logs, np.log([1.5e-2, 1.5e-4, 1.5e-6]), 1))
    result = SweepResult(rows, slope, intercept, False, 0)
    files = emit_plot_data(result, tmp_path)
    assert len(files) == 2
    data_lines = (tmp_path / "sweep_loglog.dat").read_text().splitlines()
    assert len(data_lines) == 4  # comment + 3 points
    header = (tmp_path / "sweep_fit.dat").read_text().splitlines()[0]
    assert header == f"# slope={slope!r} intercept={intercept!r}"


def test_emit_plot_data_noise_limited_marker(tmp_path):
    rows = (SweepRow(alpha=0.1, classical_mc=0.0, classical_analytic=0.0,
                     quantum_term=0.0, remainder=0.0, stderr=0.1, below_noise=True),)
    result = SweepResult(rows, None, None, True, 1)
    files = emit_plot_data(result, tmp_path)
    assert len(files) == 1
    lines = (tmp_path / "sweep_loglog.dat").read_text().splitlines()
    assert lines[0].endswith("below_noise")
    assert lines[1].split()[-1] == "1"


def test_emit_plot_data_rejects_empty():
    with pytest.raises(ValueError):
        emit_plot_data(SweepResult((), None, None, True, 0), Path("."))


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CQLAB_OUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    rc = main(["moments-check", "--config", str(_write(tmp_path, dict(
        MINIMAL, dim=3, order=1, mc_samples=2000)))])
    assert rc == 0
    assert (tmp_path / "envout" / "result.json").exists()


BIG = int("9" * 400)  # an integer literal no double can hold


def _with(cfg: dict, path: str, value) -> dict:
    """A deep copy of cfg with the dotted key path set to value."""
    out = copy.deepcopy(cfg)
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return out


POLY = {
    "dim": 2,
    "functional": {"family": "even-polynomial", "quadratic": "identity",
                   "quartic": {"operator": "identity", "coeff": 0.5}},
    "alpha_grid": [0.05],
    "mc_samples": 2_000,
    "seed": 3,
    "order": 2,
}
RANDOM_STATE = dict(COS_SWEEP, state={"shape": "random", "seed": 5})
DIAGONAL = dict(COS_SWEEP, dim=2, functional={"family": "cos-quad-minus-one"},
                state={"shape": "diagonal", "weights": [1.0, 1.0]})
PURE = {
    "dim": 2,
    "functional": {"family": "quadratic"},
    "alpha_grid": [0.05],
    "state": {"shape": "rank1", "psi": [0.6, 0.8]},
    "mc_samples": 2_000,
    "seed": 3,
}


@pytest.mark.parametrize("subcommand, cfg, where", [
    # these used to end in a traceback
    ("sweep", _with(COS_SWEEP, "functional.operator", {"random": "x"}),
     "'functional.operator.random'"),
    ("sweep", _with(COS_SWEEP, "functional.operator", {"random": {"seed": None}}),
     "'functional.operator.random.seed'"),
    ("sweep", _with(COS_SWEEP, "functional.operator", {"random": {"seed": [1]}}),
     "'functional.operator.random.seed'"),
    ("sweep", _with(COS_SWEEP, "functional.operator", {"matrix": {"a": 1}}),
     "'functional.operator.matrix'"),
    ("sweep", _with(DIAGONAL, "state.weights", {"a": 1}), "'state.weights'"),
    ("sweep", _with(RANDOM_STATE, "state.seed", [1]), "'state.seed'"),
    ("pure-state", _with(PURE, "state.psi", {"a": 1}), "'state.psi'"),
    ("higher-order", _with(POLY, "functional.quartic.coeff", [1]),
     "'functional.quartic.coeff'"),
    ("sweep", _with(COS_SWEEP, "alpha_grid", [BIG, 0.01, 0.001]), "'alpha_grid'"),
    ("sweep", _with(COS_SWEEP, "functional.operator", {"random": {"seed": 2, "scale": BIG}}),
     "'functional.operator.random.scale'"),
    ("sweep", _with(COS_SWEEP, "functional.operator", {"matrix": [[BIG]]}),
     "'functional.operator.matrix'"),
    # these used to run, truncated or coerced, and report "passed": true
    ("sweep", _with(COS_SWEEP, "functional.operator", {"random": {"seed": 2.7}}),
     "'functional.operator.random.seed'"),
    ("sweep", _with(RANDOM_STATE, "state.seed", True), "'state.seed'"),
    ("sweep", _with(DIAGONAL, "state.weights", [True, 1]), "'state.weights'"),
])
def test_nested_config_values_are_one_line_errors(tmp_path, capsys, subcommand, cfg, where):
    rc = main([subcommand, "--config", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{where} must be" in err


def test_null_means_absent_where_allowed(tmp_path):
    nulls = _with(_with(POLY, "slope_band", None), "functional.quartic.operator", None)
    _, echoed = load_config(_write(tmp_path, _with(nulls, "functional.quadratic", None)))
    assert echoed["slope_band"] is None
    cfg, _ = load_config(_write(tmp_path, _with(COS_SWEEP, "functional.operator", None)))
    assert cfg.functional_spec["operator"] is None
    load_config(_write(tmp_path, _with(POLY, "functional.quartic", None)))
    for path in ("state", "order", "alpha_grid", "state.seed", "functional.quartic.coeff"):
        with pytest.raises(ConfigError, match="must be"):
            load_config(_write(tmp_path, _with(POLY, path, None)))


def test_nan_sweep_without_band_fails(tmp_path):
    cfg = dict(COS_SWEEP, functional={"family": "cos-quad-minus-one",
                                      "operator": {"random": {"seed": 2, "scale": float("nan")}}})
    del cfg["slope_band"]
    rc = main(["sweep", "--config", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert json.loads((tmp_path / "o" / "result.json").read_text())["passed"] is False
    row = SweepRow(alpha=0.1, classical_mc=float("nan"), classical_analytic=None,
                   quantum_term=0.0, remainder=0.0, stderr=0.0, below_noise=True)
    assert not SweepResult((row,), None, None, True, 1).report(None)["passed"]


@pytest.mark.parametrize("subcommand, cfg", [
    ("sweep", {k: v for k, v in COS_SWEEP.items() if k != "slope_band"}),
    ("higher-order", POLY),
])
def test_manifest_config_replays_verbatim(tmp_path, subcommand, cfg):
    main([subcommand, "--config", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "r1")])
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    assert manifest["config"]["slope_band"] is None
    replay = _write(tmp_path, manifest["config"], "replay.json")
    assert main([subcommand, "--config", str(replay), "--out", str(tmp_path / "r2")]) == 0
    manifest2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert manifest["results"]["files"] == manifest2["results"]["files"]


SHIPPED_CONFIGS = [json.loads(p.read_text()) for p in sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.json"))]
_WORDS = ["seed", "scale", "matrix", "diagonal", "random", "identity", "operator", "coeff",
          "shape", "weights", "psi", "rank1", "isotropic", "quadratic", "even-polynomial"]
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from(_WORDS), st.text(max_size=3))
_KEY = st.one_of(st.sampled_from(_WORDS), st.text(max_size=3))
_DEPTH1 = st.one_of(_LEAF, st.lists(_LEAF, max_size=3),
                    st.dictionaries(_KEY, _LEAF, max_size=2))
_JSON = st.one_of(_DEPTH1, st.lists(_DEPTH1, max_size=3),
                  st.dictionaries(_KEY, _DEPTH1, max_size=2))


def _paths(node, prefix=()):
    """Every key path in a JSON tree, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(data, cfg):
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    value = data.draw(_JSON)
    if not path:
        return value
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


CHECK_FIELDS = {f.name for f in fields(Check)}


# A mutated number can overflow on purpose (a 1e153 operator entry); NumPy
# warns, and the run must then fail its checks, not stop with a traceback.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_configs_run_or_fail_in_one_line(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(SHIPPED_CONFIGS)))
    for _ in range(data.draw(st.integers(1, 2))):
        cfg = _mutate(data, cfg)
    if isinstance(cfg, dict):  # keep every run small
        for key, cap in (("dim", 4), ("mc_samples", 1000)):
            if type(cfg.get(key)) is int:
                cfg[key] = min(cfg[key], cap)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        for subcommand in ("sweep", "pure-state", "higher-order", "nongaussian",
                           "finite-qm", "moments-check", "chebyshev"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([subcommand, "--config", str(path), "--out", str(Path(tmp) / "o"),
                           "--threads", "1"])
            assert rc in (0, 1, 2), (subcommand, cfg)
            if rc == 1:
                assert err.getvalue().startswith("error: "), (subcommand, cfg)
                assert err.getvalue().count("\n") == 1, (subcommand, cfg)
                continue
            result = json.loads((Path(tmp) / "o" / "result.json").read_text())
            checks = result["report"]["checks"]
            assert checks and all(set(c) == CHECK_FIELDS for c in checks), (subcommand, cfg)
            assert result["passed"] == all(c["passed"] for c in checks), (subcommand, cfg)
            assert (rc == 2) == (not result["passed"]), (subcommand, cfg)
