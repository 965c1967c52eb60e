"""Per-command wall time and peak memory, written to BENCH_<short sha>.json.

    python3 scripts/suite_bench.py [--out PATH]

Runs space-info and each `verify` suite at its defaults on the seed-7
phase ({"seed": 7, "n": n}) at n = 1, 2 and 3, with h = 0.5 at n = 1 and
h = 1 above; weyl at n >= 2 gets the lambda_list e_1 and (0, 0.6 + 0.8i),
padded with zeros at n = 3.  space-info also runs at n = 5 and n = 8.
The n = 3 bound (dense SVD norms at d = 2,925, about 70 s) is skipped,
and the file says so.

Each row runs in a fresh interpreter that starts `time.perf_counter`
just before `import btlab.cli`, calls `btlab.cli.main(argv)` in-process
and reads `ru_maxrss` of its own process at the end, so the wall time
leaves out interpreter start and the peak RSS includes numpy.  The row's
`import_s` is the part of `wall_s` up to the end of `import btlab.cli`
(numpy included); `wall_s - import_s` is the command itself.  The file
also records the machine, Python, numpy, the `*_NUM_THREADS` settings
(the CLI pins each unset one to 1) and the commit.  Standard library
only; run it from any directory.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("space-info", "gram", "weyl", "bound", "diag", "deformation",
            "egorov", "sw")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SKIPPED = [{"command": "bound", "n": 3,
            "why": "dense SVD norms at N = 24 (d = 2,925) take about 70 s; "
                   "run it once matrix-free or reduced norms land"}]

# The timed child: the clock starts before the CLI module is imported,
# the report goes to a buffer, and the last stdout line is the record.
_CHILD = """
import time
t0 = time.perf_counter()
import io, json, resource, sys
from contextlib import redirect_stderr, redirect_stdout
import btlab.cli
imported = time.perf_counter() - t0
buf, code = io.StringIO(), 0
try:
    with redirect_stdout(buf), redirect_stderr(buf):
        btlab.cli.main(sys.argv[1:])
except SystemExit as e:
    code = 0 if e.code is None else e.code
wall = time.perf_counter() - t0
kb = 1 if sys.platform == "darwin" else 1024  # ru_maxrss unit in bytes
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kb / 2 ** 20
print(json.dumps({"exit": code, "wall_s": wall, "import_s": imported,
                  "peak_rss_mb": rss,
                  "failed_checks": buf.getvalue().count("[FAIL]")}))
"""


def config(command: str, n: int, phase=None) -> dict:
    """The config of one row: `phase` (default the seed-7 phase in n
    variables) at h = 0.5 for n = 1 and h = 1 above, plus weyl's two
    lambda at n >= 2."""
    cfg = {"phase": phase or {"seed": 7, "n": n}, "h": 0.5 if n == 1 else 1.0}
    if command == "weyl" and n >= 2:
        zeros = [[0.0, 0.0]] * (n - 2)
        cfg["lambda_list"] = [[[1.0, 0.0], [0.0, 0.0], *zeros],
                              [[0.0, 0.0], [0.6, 0.8], *zeros]]
    return cfg


def run_row(command: str, n: int, phase=None) -> dict:
    """Run one command on `config(command, n, phase)` in a fresh
    interpreter; returns the row: the inputs, the exit code, the wall
    time and its import part, the peak RSS and the number of [FAIL]
    lines."""
    cfg = config(command, n, phase)
    argv = ["space-info"] if command == "space-info" else ["verify", command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, *argv, "--config", str(path),
             "--out", tmp], env=env, capture_output=True, text=True,
            check=True)
    return {"command": command, "n": n, "phase": cfg["phase"], "h": cfg["h"],
            **json.loads(proc.stdout.splitlines()[-1])}


def rows():
    """The (command, n) of every row, in run order."""
    for n in (1, 2, 3):
        for command in COMMANDS:
            if not any(s["command"] == command and s["n"] == n
                       for s in SKIPPED):
                yield command, n
    yield "space-info", 5
    yield "space-info", 8


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def environment() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="output path (default: "
                    "BENCH_<short sha>.json at the repository root)")
    args = ap.parse_args(argv)
    sha = _git("rev-parse", "--short", "HEAD")
    result = {
        "commit": sha,
        "dirty": bool(_git("status", "--porcelain", "--", "src")),
        "timing": "wall from before `import btlab.cli` to the end of "
                  "`main`, and import from before `import btlab.cli` to "
                  "its end, one fresh interpreter per row; peak RSS is "
                  "ru_maxrss of that interpreter",
        **environment(),
        "skipped": SKIPPED,
        "rows": [run_row(command, n) for command, n in rows()],
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
