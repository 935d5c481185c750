"""The golden outputs of the shipped configs, every subcommand on every
`configs/*.json`, and of the wide layouts, the subcommand `<name>` on each
`wide/<name>/*.json`: all run in process at --threads 1.

The shipped configs run at dims 1-4, where a chunk is 4096 rows and a run
one chunk.  The wide configs (dims 16-64, full rank, rank 1 and rank 32)
reach the paths the shipped ones do not: chunks of BLOCK_VALUES // width
rows, runs of several chunks with a short last one, and rank-sized draws.
`wide/README.md` says what each one covers.

`record` reduces one run to what `shipped.json` or `wide.json` pins: its
exit code, the first stderr line of an exit-1 run, and every number and
string of its tables and of `result.json`, less the names in `omit`.
Manifests are left out, because they hold a timestamp.  `mismatches`
compares a record with its golden entry: strings, booleans, nulls and the
structure exactly, numbers within RTOL relative, or within ZERO_ATOL where
either side is exactly 0.

A change that moves an output on purpose regenerates both files and
commits the diff:

    PYTHONPATH=src python tests/golden/regenerate.py

Before it overwrites a file, the script prints every path whose value
moved, compared exactly, as "path: old -> new".
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CONFIG_DIR = REPO / "configs"
GOLDEN_PATH = Path(__file__).resolve().with_name("shipped.json")
WIDE_DIR = Path(__file__).resolve().with_name("wide")
WIDE_GOLDEN_PATH = Path(__file__).resolve().with_name("wide.json")
SUBCOMMANDS = ("sweep", "pure-state", "higher-order", "nongaussian", "finite-qm",
               "moments-check", "chebyshev")

# BLAS and CPU rounding moved einsum-to-GEMM results by 1.7e-15 relative,
# and a moved Monte-Carlo stream moves a mean by about 1e-3, so 1e-12 admits
# the first and not the second.  A value that is exactly 0 has no relative
# scale; the operators and states of the shipped configs have entries of
# order 1 or less, so a round-off residue in its place stays below 1e-15.
RTOL = 1e-12
ZERO_ATOL = 1e-15

# What `wide.json` leaves out: result keys, CSV columns and whole files.
# A pinned number must keep within RTOL whatever BLAS blocking or CPU
# rounds it, so each value must be a sum or product whose rounding error is
# a few ulps of itself.  These are not:
# - "remainder", with the .dat files and the fitted slope and intercept
#   read from it, is the classical average less the quantum term: a
#   difference of nearly equal numbers, whose relative error is eps times
#   classical / remainder.  For the sin sweep at alpha = 1e-3 that is about
#   1e6 eps, 2e-10 (ROADMAP item 1 measured 4e-10).  Both terms are pinned.
# - "relative_error" of a higher-order run is |classical - generalized| /
#   |classical| of two exact paths: it is round-off alone.
# - "density_operator" and "observable" of a higher-order run are 64 x 64
#   matrices from GEMMs of random factors: an entry near zero from
#   cancellation has no relative bound, and ZERO_ATOL covers exact zeros
#   only.  They are also 0.4 MB per run.  The run's checks read them.
# - "covariance_max_error" of a pure-state run is max |x^T x / N / alpha -
#   v v^T| over a chunk-summed x^T x: an error of about 6e-5 left after a
#   cancellation of terms near 0.04, so its last 1e-11 relative is BLAS
#   rounding.  Its covariance_shape check is pinned.
WIDE_OMIT = frozenset({"remainder", "sweep_fit.dat", "sweep_loglog.dat", "fitted_slope",
                       "fitted_intercept", "relative_error", "density_operator", "observable",
                       "covariance_max_error"})

# cells of a CSV row, and the tokens of a .dat line and of its "key=value" header
_CELL_SEPARATOR = re.compile(r"[,\s=]")


def key(subcommand: str, config: Path) -> str:
    return f"{config.stem}/{subcommand}"


def wide_runs() -> list[tuple[str, Path]]:
    """(subcommand, config) of every wide layout, in order."""
    return [(config.parent.name, config) for config in sorted(WIDE_DIR.glob("*/*.json"))]


def wide_key(subcommand: str, config: Path) -> str:
    return f"{subcommand}/{config.stem}"


def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _without(doc, omit: frozenset):
    """The JSON document `doc` less every key in `omit`, at any depth."""
    if isinstance(doc, dict):
        return {k: _without(v, omit) for k, v in doc.items() if k not in omit}
    if isinstance(doc, list):
        return [_without(v, omit) for v in doc]
    return doc


def record(rc: int, stderr: str, out_dir: Path, omit: frozenset = frozenset()) -> dict:
    """The golden entry of one run that wrote into `out_dir`, less the
    files, result keys and CSV columns named in `omit`."""
    files = {}
    for path in sorted(out_dir.glob("*")) if out_dir.exists() else ():
        if path.name in omit:
            continue
        if path.name == "result.json":
            files[path.name] = _without(json.loads(path.read_text(encoding="utf-8")), omit)
        elif path.suffix in (".csv", ".dat"):
            rows = [[_cell(c) for c in _CELL_SEPARATOR.split(line)]
                    for line in path.read_text(encoding="utf-8").splitlines()]
            if path.suffix == ".csv" and rows:
                keep = [i for i, name in enumerate(rows[0]) if name not in omit]
                rows = [[row[i] for i in keep] for row in rows]
            files[path.name] = rows
    entry = {"exit": rc, "files": files}
    if rc == 1:
        entry["stderr"] = stderr.splitlines()[0]
    return entry


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mismatches(want, got, where: str = "", rtol: float = RTOL,
               zero_atol: float = ZERO_ATOL) -> list[str]:
    """"path: golden -> got" at each path where `got` departs from the golden
    `want`; with rtol = zero_atol = 0, at each path whose value moved."""
    if _is_number(want) and _is_number(got):
        gap = abs(want - got)
        if gap <= rtol * max(abs(want), abs(got)) or (0 in (want, got) and gap <= zero_atol):
            return []
    elif isinstance(want, dict) and isinstance(got, dict):
        if want.keys() == got.keys():
            return [m for k in want
                    for m in mismatches(want[k], got[k], f"{where}/{k}", rtol, zero_atol)]
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) == len(got):
            return [m for i, (w, g) in enumerate(zip(want, got))
                    for m in mismatches(w, g, f"{where}[{i}]", rtol, zero_atol)]
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where or '/'}: {want!r:.80} -> {got!r:.80}"]


def run(subcommand: str, config: Path, out_dir: Path, omit: frozenset = frozenset()) -> dict:
    """The golden entry of `subcommand` on `config`, run in process at
    --threads 1 into `out_dir`."""
    from cqlab.cli import main as cqlab_main

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = cqlab_main([subcommand, "--config", str(config), "--out", str(out_dir),
                         "--threads", "1"])
    return record(rc, stderr.getvalue(), out_dir, omit)


def _write(path: Path, golden: dict) -> None:
    """Print every path of `golden` whose value moved against `path`, then
    overwrite `path` with it."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for moved in mismatches(old, golden, rtol=0.0, zero_atol=0.0):
        print(moved)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} runs to {path.relative_to(REPO)}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _write(GOLDEN_PATH, {
            key(subcommand, config): run(subcommand, config,
                                         Path(tmp) / config.stem / subcommand)
            for config in sorted(CONFIG_DIR.glob("*.json")) for subcommand in SUBCOMMANDS})
        _write(WIDE_GOLDEN_PATH, {
            wide_key(subcommand, config): run(subcommand, config,
                                              Path(tmp) / "wide" / subcommand / config.stem,
                                              WIDE_OMIT)
            for subcommand, config in wide_runs()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
