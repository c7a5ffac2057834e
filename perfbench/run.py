"""circlekit benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Set-up is timed first (see perfsetup.py), then whole rounds
of the workload run until --seconds (default: run_seconds of BENCHMARK.json)
have passed.  With --trace 0 every
end-to-end metric of BENCHMARK.json is printed; with --trace 1 odd rounds run
with spans around circlekit's public calls and every per-layer metric is
printed instead.  Lines before the last one are a readable table; the last
line is the JSON result.  Exit code 2 means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # fresh processes timed per run for setup_s, after one untimed
# per-layer metrics that are extremes over every checked output of the run
WORST_METRICS = (
    "frag_rec_err_max",
    "cocycle_residual_max",
    "frag_diff.self_reported_rec_max",
    "frag_diff.outside_support_max",
    "frag_diff.bound_ratio_max",
    "frag_diff.min_localized_deriv",
)


def _probe_setup(name: str, env: dict, calibration_loop, cal_ref: float) -> tuple[float, dict]:
    """Median set-up time over fresh processes, and the medians of its parts,
    scaled to reference speed by calibrations taken around the probes."""
    if name == "cli_session":
        cmd = [sys.executable, "-m", "circlekit", "--help"]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("perfsetup.py")), name, str(SRC)]
    totals, parts, cals = [], {}, []
    for i in range(SETUP_PROBES + 1):
        cals += [calibration_loop(), calibration_loop()]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i == 0:
            continue  # compiles bytecode and warms the file cache
        if name == "cli_session":
            totals.append(wall)
            continue
        result = json.loads(proc.stdout)
        totals.append(result.pop("setup_s"))
        for key, value in result.items():
            parts.setdefault(key, []).append(value)
    scale = cal_ref / statistics.median(cals)
    return statistics.median(totals) * scale, {k: statistics.median(v) * scale for k, v in parts.items()}


def _layer_metrics(spec, tracer, scale, traced_rounds, extras) -> dict:
    import tracing  # imported by main once the thread limits are set

    stats = tracer.stats(scale)
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in extras:
            out[name] = extras[name]
            continue
        span, stat = tracing.COLD_EVAL.get(name, name).rsplit(".", 1)
        s = stats.get(span, {})
        calls = s.get("calls", 0)
        per_call = lambda key: s.get(key, 0.0) / calls if calls else 0.0  # noqa: E731
        value = {
            "calls": calls / traced_rounds,
            "points": s.get("points", 0) / traced_rounds,
            "ms": per_call("s") * 1e3,
            "self_ms": per_call("self_s") * 1e3,
            "s": per_call("s"),
            "residual_max": s.get("residual_max", 0.0),
        }.get(stat)
        if value is None:
            raise KeyError(f"per-layer metric {name} has no source")
        out[name] = value
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circlekit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no circlekit sources under {SRC}; run inside a checkout\n")
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    # at most 2 threads: the library is single-threaded numpy, verify --threads 2
    # is the only pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import perfsetup
    import tracing
    import workloads

    from circlekit import cocycles, diffeo, frag_diff, loops, periodic, verma

    env = workloads.cli_env(ROOT)
    setup_s, setup_parts = _probe_setup(args.workload, env, workloads.calibration_loop, workloads.CAL_REF_S)
    if args.workload in perfsetup.SETUPS:
        state, _ = perfsetup.SETUPS[args.workload]()
    else:
        state = {"root": ROOT, "env": env}

    workload = workloads.WORKLOADS[args.workload](args.seed, state)
    tracer = tracing.Tracer(workloads.VERMA_TOP) if args.trace else None
    rec = workloads.Recorder(tracer.clock if tracer else time.perf_counter, tracer)
    warm = workloads.Recorder(time.perf_counter)
    for r in range(workload.warmup_rounds):
        workload.round(warm, r, stream=100)
    rec.wrong.extend(warm.wrong)
    rec.wrong.extend(["warm-up operation failed"] * warm.failed)

    targets = []
    if tracer and args.workload != "cli_session":
        targets = tracing.targets(tracer, (periodic, diffeo, frag_diff, cocycles, loops, verma))
    start = time.perf_counter()
    rounds = 0
    while rounds < 1 + args.trace or time.perf_counter() - start < args.seconds:
        rec.round = rounds
        rec.traced = bool(args.trace) and rounds % 2 == 1
        rec.calibrate()
        if rec.traced:
            tracer.install(targets)
        try:
            workload.round(rec, rounds)
        finally:
            if rec.traced:
                tracer.uninstall()
        rec.fold()
        rounds += 1
    rec.fold(final=True)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(who).ru_maxrss)
    named = workload.named(rec)

    if args.trace:
        traced_rounds = rounds // 2
        untraced = rec.p50_ms(workload.primary, False)
        traced = rec.p50_ms(workload.primary, True)
        extras = {
            "sampling.inputs.ms": rec.inputs_s / rounds / rec.speed() * 1e3,
            "frag_diff.fragmenter_init.ms": setup_parts.get("frag_diff.fragmenter_init.ms", 0.0),
            "cli.startup_s": setup_s if args.workload == "cli_session" else 0.0,
            "trace.overhead_pct": (traced / untraced - 1.0) * 100.0 if untraced else 0.0,
            "trace.spans": len(tracer.spans) / traced_rounds,
        }
        extras.update({name: rec.worst.get(name, 0.0) for name in WORST_METRICS})
        metrics = _layer_metrics(spec, tracer, rec.scale, traced_rounds, extras)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tracer.write(ROOT / ".bench_out" / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        if tracer.absent:
            print("absent (reported as 0): " + ", ".join(tracer.absent))
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}
        for slot, ref in workload.slots.items():
            key, scale = ref if isinstance(ref, tuple) else (ref, 1.0)
            values[slot] = named[key][0] * scale
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(
        f"{args.workload}  seed {args.seed}  rounds {rounds}  trace {args.trace}  "
        f"operations {rec.attempted} attempted, {rec.failed} failed  "
        f"calibration loop at {rec.speed():.3f} x its reference time; times below are "
        f"scaled to the reference"
    )
    rows = [(k, v, u) for k, (v, u) in named.items()]
    rows += [("setup_s", setup_s, "s"), ("peak_rss_mb", peak_kb / 1024.0, "MB")]
    rows += [(k, v, units[k]) for k, v in metrics.items() if k not in ("setup_s", "peak_rss_mb")]
    for key, value, unit in rows:
        print(f"  {key:<40} {value:>16.6g} {unit}")
    result = {
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
