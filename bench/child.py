"""One pass of a benchmark run, in a fresh interpreter.

    python3 bench/child.py PLAN.json RESULT.json

Imports ``btlab.cli`` first, exactly as the console entry point does, so its
BLAS/OpenMP pinning happens before numpy loads; the moment that import ends
is the set-up mark.  A "probe" plan stops there.  A "pass" plan then runs
the plan's CLI invocations once, in-process through ``btlab.cli.main``; a
"traced" plan does the same with every layer function wrapped by tracer.py.

The host's CPU speed wanders by 20-30 % over seconds to minutes, so every
child also times a fixed calibration unit (pure Python, numpy elementwise
and a small single-threaded BLAS product; none of it btlab code) on its
main thread's CPU clock: SETUP_UNITS of them right after the set-up mark,
a few before and after each pass, and during an untraced pass one every
CAL_PERIOD_S from a SIGALRM handler.  run.py divides the timings by the
units' mean, so its figures follow the program and not the host's speed.
The handler runs between bytecodes only, never inside btlab's C calls, and
touches none of btlab's state; its own time is recorded so run.py can
subtract it.
"""

import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import btlab.cli  # noqa: E402

READY = time.monotonic()

import numpy as np  # noqa: E402  (already loaded by btlab.cli)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

CAL_PERIOD_S = 0.1
SETUP_UNITS = 20
WARM_UNITS = 5

_rng = np.random.default_rng(0)
_Z = _rng.standard_normal(4000) + 1j * _rng.standard_normal(4000)
# 48 x 48 stays under OpenBLAS's threading threshold whatever the pinning.
_A = _rng.standard_normal((48, 48))


def unit():
    """One calibration unit; returns its (thread CPU, wall) seconds."""
    c0, t0 = time.thread_time(), time.perf_counter()
    acc = 0.0
    for i in range(6000):
        acc += (i * 0.5) % 7.0
    for _ in range(3):
        acc += float(np.abs(np.exp(_Z * 0.01) * _Z).sum())
    a = _A
    for _ in range(8):
        a = a @ _A
        a /= np.abs(a).max()
    return time.thread_time() - c0, time.perf_counter() - t0


def units(count):
    return [unit() for _ in range(count)]


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def invoke(inv, tracer=None):
    """Run one CLI invocation; return its exit code, checks and CSV digest."""
    csv = Path(inv["csv"])
    csv.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open(inv["span"]) if tracer else None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            btlab.cli.main(inv["argv"], prog_name="btlab")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (
            0 if exc.code is None else 1)
    except Exception:
        code = "crash"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    lines = out.getvalue().splitlines()
    digest = (hashlib.sha256(csv.read_bytes()).hexdigest()
              if csv.is_file() else None)
    return {
        "label": inv["label"],
        "code": code,
        "s": seconds,
        "passed": sum(line.startswith("[PASS]") for line in lines),
        "failed": [line for line in lines if line.startswith("[FAIL]")],
        "digest": digest,
        "stderr": err.getvalue()[-2000:],
    }


def run_pass(plan):
    """Run the invocations once, with calibration units just before and
    after.  Untraced, units run inside the pass too (see the module
    docstring); a traced pass runs none inside, so they land in no span."""
    tracer = None
    traced = plan["mode"] == "traced"
    if traced:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    during = []
    before = units(3)
    if not traced:
        signal.signal(signal.SIGALRM, lambda *_: during.append(unit()))
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    c0, t0 = _cpu_s(), time.perf_counter()
    results = [invoke(inv, tracer) for inv in plan["invocations"]]
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        # Time the in-pass units took, to be taken off wall_s and cpu_s.
        "cal_wall_s": sum(w for _, w in during),
        "cal_cpu_s": sum(c for c, _ in during),
        "cal_units": before + during + units(3),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "invocations": results,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        },
    }
    if tracer:
        out["layers"] = tracer.summary(out["wall_s"])
        Path(plan["spans"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "thread", "counts"],
             "spans": tracer.spans}))
    return out


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    units(WARM_UNITS)
    result = {"ready": READY, "setup_units": units(SETUP_UNITS)}
    if plan["mode"] != "probe":
        result.update(run_pass(plan))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
