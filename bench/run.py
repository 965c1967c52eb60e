"""btlab benchmark: whole suite invocations through the public CLI.

    python3 bench/run.py --workload n2-assembly --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all     # every workload, untraced then traced

A run writes the workload's config JSON, generated from --seed (the seed of
the seeded random phases), then runs passes over the workload's
`btlab space-info` / `btlab verify` invocations until --seconds is spent,
at least MIN_PASSES of them.  Each pass gets a fresh interpreter
(bench/child.py) that calls `btlab.cli.main` in-process, so every pass
starts cold like a console call.  src/btlab is only timed from outside.

--trace 0 prints the end-to-end metrics, measured untraced, in seconds at
reference speed: each child times a fixed calibration unit alongside its
work (see child.py), and a timing t whose units took u seconds on average
is reported as t * REF_UNIT_S / u, so the host's wandering CPU speed
cancels out.  The raw seconds are printed too and kept in result.json.
  wall_s       median over passes of one pass's wall time, less the
               calibration units run inside it
  cpu_s        the same for the child's user + system CPU
  setup_s      median over the pass interpreters and extra probe
               interpreters (MIN_SETUPS in all) of the time from spawning
               one until `import btlab.cli` is done, scaled by the units
               the child runs right after that
  peak_rss_mb  median over passes of the child's ru_maxrss
--trace 1 adds one traced pass in its own interpreter, which runs no
calibration units inside it, and prints the per-layer metrics (see
tracer.py) in raw seconds; trace.overhead_s is the traced pass's wall time,
scaled by the units run just before and after it, minus wall_s.

Outputs are checked on every run: each invocation must exit 0 or 1 and
write its CSV, every pass must reproduce the first pass's CSV sha256, and
n2-assembly-t2 must match a one-thread reference pass byte for byte.  A
failing check inside a suite ([FAIL], exit 1) is a result, not a failed
operation; it is counted in cli.checks_failed_frac.

The last stdout line is the JSON result; configs, CSVs, the full result and
the traced spans are written under .bench_out/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
MIN_PASSES = 3
MIN_SETUPS = 7
# Seconds of one calibration unit at reference speed (about its time on an
# idle 2 GHz Xeon vCPU); a fixed constant, so runs on different days compare.
REF_UNIT_S = 0.0012

FOCK = {"phase": {"preset": "fock", "beta": 1.0}, "h": 1.0}
N1_SUITES = ("space-info", "gram", "weyl", "bound", "diag", "deformation",
             "sw")
# Order 16 rather than the n = 2 default keeps a pass under 10 s.  The n = 2
# Weyl unitarity defect (~4.5e-4 at lambda = e1) comes from truncation, not
# quadrature, so it shows at this order too.
N2_ARGS = ("--order", "16")

# Shrunken configs for the smoke test: every layer runs, in about a second.
SMOKE = {"order": 10, "N": 4, "n_schedule": [4, 6], "t_grid": [1.0],
         "h_list": [0.4, 0.3, 0.2, 0.1],
         "lambda_grid": {"lo": -2.0, "hi": 2.0, "steps": [1.0, 0.5]},
         "X_grid": {"lo": -1.0, "hi": 1.0, "step": 1.0}}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _n2(seed, threads):
    cfg = {"phase": {"seed": seed, "n": 2}, "h": 1.0,
           "lambda_list": [[[1.0, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [0.6, 0.8]]]}
    calls = [(s, *N2_ARGS, "--threads", str(threads))
             for s in ("gram", "diag", "weyl")]
    return {"seeded": (cfg, calls)}


# name -> seed -> {config name: (config, [(suite, *extra CLI args)])}
WORKLOADS = {
    "n2-assembly": lambda seed: _n2(seed, 1),
    "n2-assembly-t2": lambda seed: _n2(seed, 2),
    "n1-egorov": lambda seed: {"fock": (FOCK, [("egorov",)])},
    "n1-suites": lambda seed: {
        "fock": (FOCK, [(s,) for s in N1_SUITES]),
        "seeded": ({"phase": {"seed": seed, "n": 1}, "h": 0.5},
                   [(s,) for s in N1_SUITES]),
    },
}
# Workloads whose CSVs must equal another workload's, byte for byte.
REFERENCE = {"n2-assembly-t2": "n2-assembly"}


def invocations(workload, seed, rundir, tag, smoke):
    out = []
    for name, (cfg, calls) in WORKLOADS[workload](seed).items():
        cfg_path = rundir / f"{name}.json"
        cfg_path.write_text(json.dumps({**cfg, **SMOKE} if smoke else cfg))
        outdir = rundir / tag / name
        for suite, *extra in calls:
            if suite == "space-info":
                argv, csv = ["space-info"], "space_info.csv"
            else:
                argv, csv = ["verify", suite], f"{suite}.csv"
            argv += ["--config", str(cfg_path), "--out", str(outdir), *extra]
            out.append({"label": f"{name}:{suite}", "argv": argv,
                        "csv": str(outdir / csv),
                        "span": tracer.cli_span(suite)})
    return out


def spawn(plan, rundir, name, deadline):
    """Run child.py on `plan`; return (its result, seconds until ready)."""
    plan_path, result_path = rundir / f"{name}.plan", rundir / f"{name}.json"
    plan_path.write_text(json.dumps(plan))
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(plan_path), str(result_path)],
        stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"error: {name} did not finish in time")
    if code != 0 or not result_path.is_file():
        sys.exit(f"error: {name} exited with code {code}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - t0


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def check_outputs(runs):
    """(attempted, failed, checks attempted, checks failed, bad invocations)
    over every child's invocations; expected digests are the first pass's."""
    records = [inv for r in runs for inv in r["invocations"]]
    expected = {inv["label"]: inv["digest"]
                for inv in runs[0]["invocations"]}
    bad = [inv for inv in records
           if inv["code"] not in (0, 1) or inv["digest"] is None
           or inv["digest"] != expected.get(inv["label"])]
    fail_lines = sum(len(inv["failed"]) for inv in records)
    checks = sum(inv["passed"] for inv in records) + fail_lines + len(records)
    return len(records), len(bad), checks, fail_lines + len(bad), bad


def speed(units):
    """Reference speed over the host's speed while `units` ran."""
    return REF_UNIT_S / statistics.mean(cpu for cpu, _ in units)


def normalised(p):
    """(wall_s, cpu_s) of a pass at reference speed, calibration removed."""
    k = speed(p["cal_units"])
    return ((p["wall_s"] - p["cal_wall_s"]) * k,
            (p["cpu_s"] - p["cal_cpu_s"]) * k)


def _spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"],
                    help="'all' runs every workload untraced, then traced")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken configs, for the benchmark's own test")
    args = ap.parse_args()
    if not (ROOT / "src" / "btlab" / "cli.py").is_file():
        sys.exit(f"error: no btlab sources under {ROOT / 'src'}")
    if args.workload != "all":
        run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        return
    for trace in (0, 1):
        for workload in WORKLOADS:
            print(f"== {workload} --trace {trace}")
            run(workload, args.seed, args.seconds, trace, args.smoke)


def run(workload, seed, seconds, trace, smoke):
    """One benchmark run; prints its report and, last, the JSON result."""
    deadline = time.monotonic() + DEADLINE_S
    rundir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    plan = {"mode": "pass", "spans": str(rundir / "spans.json"),
            "invocations": invocations(workload, seed, rundir,
                                       "out", smoke)}

    passes, setups, lengths = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        result, setup = spawn(plan, rundir, f"pass{len(passes)}", deadline)
        passes.append(result)
        setups.append(setup * speed(result["setup_units"]))
        lengths.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + statistics.median(lengths) > seconds):
            break
    extra = []
    if workload in REFERENCE:
        ref = {**plan, "invocations": invocations(
            REFERENCE[workload], seed, rundir, "ref", smoke)}
        extra.append(spawn(ref, rundir, "reference", deadline)[0])
    if trace:
        traced = spawn({**plan, "mode": "traced"}, rundir, "traced",
                       deadline)[0]
        extra.append(traced)
    else:
        while len(setups) < MIN_SETUPS:
            probe, setup = spawn({"mode": "probe"}, rundir,
                                 f"probe{len(setups)}", deadline)
            setups.append(setup * speed(probe["setup_units"]))

    attempted, failed, checks, checks_failed, bad = check_outputs(
        passes + extra)
    walls, cpus = zip(*map(normalised, passes))
    wall = statistics.median(walls)
    raw_wall = statistics.median(p["wall_s"] - p["cal_wall_s"] for p in passes)
    speeds = [speed(p["cal_units"]) for p in passes]
    env = {"git_sha": git_sha(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), **passes[0]["env"],
           "workload": workload, "seed": seed}
    print(f"env: {json.dumps(env)}")
    for inv in passes[0]["invocations"]:
        print(f"  {inv['label']:<20} exit {inv['code']}  pass {inv['passed']}"
              f"  fail {len(inv['failed'])}  {inv['s']:.3f} s"
              f"  sha256 {(inv['digest'] or '-')[:16]}")
        for line in inv["failed"]:
            print(f"      {line}")
    for inv in bad:
        print(f"  output check failed: {inv['label']} exit {inv['code']}"
              f" digest {inv['digest']} {inv['stderr'].strip()[-300:]}")
    print(f"raw wall over {len(walls)} passes: median {raw_wall:.4f} s, "
          f"IQR {_spread([p['wall_s'] for p in passes]):.4f} s; reference "
          f"speed / host speed: {min(speeds):.3f} to {max(speeds):.3f}")
    print(f"wall_s over {len(walls)} passes: median {wall:.4f} s, "
          f"IQR {_spread(walls):.4f} s; cpu_s median "
          f"{statistics.median(cpus):.4f} s; setup_s over {len(setups)}: "
          f"median {statistics.median(setups):.4f} s, "
          f"IQR {_spread(setups):.4f} s")
    print(f"checks: {checks_failed} of {checks} failed "
          f"(check lines plus one output check per invocation)")

    if trace:
        values = dict(traced["layers"])
        values["cli.checks_failed_frac"] = checks_failed / checks
        values["trace.overhead_s"] = (
            traced["wall_s"] * speed(traced["cal_units"]) - wall)
        specs = tracer.metric_specs()
        for layer in tracer.LAYERS:
            own = values[f"{layer}.self_s"]
            print(f"  layer {layer:<11} self {own:9.4f} s "
                  f"{100 * own / traced['wall_s']:5.1f}%  moves: "
                  f"{tracer.LAYER_MOVES[layer]}")
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                p["maxrss_kb"] for p in passes) / 1024.0,
        }
        specs = [(name, unit, None) for name, unit in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in specs}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    (rundir / "result.json").write_text(json.dumps(
        {**summary, "env": env, "setups": setups, "passes": passes,
         "extra": extra}, indent=1))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
