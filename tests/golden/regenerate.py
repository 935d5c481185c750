"""The golden outputs of the shipped configs: every subcommand on every
`configs/*.json`, run in process at --threads 1.

`record` reduces one run to what `shipped.json` pins: its exit code, the
first stderr line of an exit-1 run, and every number and string of its
tables and of `result.json`.  Manifests are left out, because they hold a
timestamp.  `mismatches` compares a record with its golden entry: strings,
booleans, nulls and the structure exactly, numbers within RTOL relative, or
within ZERO_ATOL where either side is exactly 0.

A change that moves an output on purpose regenerates the file and commits
the diff:

    PYTHONPATH=src python tests/golden/regenerate.py

Before it overwrites the file, the script prints every path whose value
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
SUBCOMMANDS = ("sweep", "pure-state", "higher-order", "nongaussian", "finite-qm",
               "moments-check", "chebyshev")

# BLAS and CPU rounding moved einsum-to-GEMM results by 1.7e-15 relative,
# and a moved Monte-Carlo stream moves a mean by about 1e-3, so 1e-12 admits
# the first and not the second.  A value that is exactly 0 has no relative
# scale; the operators and states of the shipped configs have entries of
# order 1 or less, so a round-off residue in its place stays below 1e-15.
RTOL = 1e-12
ZERO_ATOL = 1e-15

# cells of a CSV row, and the tokens of a .dat line and of its "key=value" header
_CELL_SEPARATOR = re.compile(r"[,\s=]")


def key(subcommand: str, config: Path) -> str:
    return f"{config.stem}/{subcommand}"


def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def record(rc: int, stderr: str, out_dir: Path) -> dict:
    """The golden entry of one run that wrote into `out_dir`."""
    files = {}
    for path in sorted(out_dir.glob("*")) if out_dir.exists() else ():
        if path.name == "result.json":
            files[path.name] = json.loads(path.read_text(encoding="utf-8"))
        elif path.suffix in (".csv", ".dat"):
            files[path.name] = [[_cell(c) for c in _CELL_SEPARATOR.split(line)]
                                for line in path.read_text(encoding="utf-8").splitlines()]
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


def main() -> int:
    from cqlab.cli import main as cqlab_main

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(CONFIG_DIR.glob("*.json")):
            for subcommand in SUBCOMMANDS:
                out_dir = Path(tmp) / config.stem / subcommand
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    rc = cqlab_main([subcommand, "--config", str(config), "--out", str(out_dir),
                                     "--threads", "1"])
                golden[key(subcommand, config)] = record(rc, stderr.getvalue(), out_dir)
    old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    for moved in mismatches(old, golden, rtol=0.0, zero_atol=0.0):
        print(moved)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} runs to {GOLDEN_PATH.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
