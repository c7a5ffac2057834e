"""Steadiness check: run every workload repeatedly and compare two sets of runs.

    python3 perfbench/steady.py [--workloads a,b] [--first-seed 1]

Each run is `perfbench/run.py` for run_seconds of BENCHMARK.json with its own
seed (first-seed, first-seed + 1, ...), one process at a time, workloads
interleaved; each of the two sets holds RUNS runs per workload.  For every
end-to-end metric the table gives each set's median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and says
whether

  * the spread stays within the metric's bound from BENCHMARK.json, and below
    a third of it, the margin to aim for;
  * the second set's median is no worse than the first set's by more than
    the bound;
  * every run fails exactly the same share of its operations.

The raw results go to .bench_out/steady-<time>.json.  Exit code 1 when any
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10  # per workload and set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    result["seed"] = seed
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")

    results = {name: [[] for _ in range(SETS)] for name in names}
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(RUNS):
            for name in names:
                r = run_once(name, seed, spec["run_seconds"])
                results[name][s].append(r)
                print(
                    f"set {s + 1} {name:<12} seed {seed:<5} {r['wall_s']:6.1f} s wall  "
                    f"correct={r['correct']} failed {r['failed']}/{r['attempted']}",
                    flush=True,
                )
            seed += 1

    ok = True
    report = {}
    for name in names:
        runs = [r for group in results[name] for r in group]
        shares = {r["failed"] / r["attempted"] for r in runs}
        wrong = [r["seed"] for r in runs if not r["correct"]]
        print(f"\n{name}: failed share {sorted(shares)} ({'same' if len(shares) == 1 else 'DIFFERS'}), "
              f"incorrect seeds {wrong or 'none'}")
        ok &= len(shares) == 1 and not wrong
        report[name] = {}
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            sets = [[r["metrics"][key]["value"] for r in group] for group in results[name]]
            stats = [summary(v) for v in sets]
            line = f"  {key:<22}"
            for med, q1, q3, spread in stats:
                line += f" | med {med:<11.5g} q1 {q1:<11.5g} q3 {q3:<11.5g} spread {spread:6.3f}"
            worst_spread = max(st[3] for st in stats)
            verdict = ["spread ok" if worst_spread <= bound else "SPREAD OVER BOUND"]
            if worst_spread > bound / 3:
                verdict.append("(over a third of the bound)")
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (stats[1][0] - stats[0][0]) / abs(stats[0][0])
            verdict.append(f"worse by {drift:+.3f} of bound {bound}")
            ok &= worst_spread <= bound and drift <= bound
            print(line + "  " + " ".join(verdict))
            report[name][key] = {"sets": sets, "summary": stats}

    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"results": results, "report": report}, indent=1))
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}; raw results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
