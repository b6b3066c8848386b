"""A/A comparison: run the benchmark on one code tree for a list of seeds,
twice, and report per end-to-end metric the median, the quartile spread
(as a share of the median) of each set, and how far the second set's
median moved from the first's, against the bounds in BENCHMARK.json.

    python3 e2ebench/aa.py --workload paths_indexed --seeds 1-10

Run from the root of a checkout.  Every run is a separate process and
every run counts; the report says how many runs marked themselves
disturbed (their calibration loop slowed or sped up by more than a fifth
during the run, or the hypervisor stole more than 5% of the CPU time).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, tally: dict) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if lines[-2].endswith("disturbed = 1"):
        tally["disturbed"] += 1
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  seed {seed}: {result['failed']} of {result['attempted']} statements failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    tally = {"disturbed": 0}
    runs = [[one_run(args.workload, s, spec["run_seconds"], tally) for s in seeds(args.seeds)]
            for _ in range(2)]
    ok = True
    for name, metric in bounds.items():
        cells, medians = [], []
        for values in ([r[name] for r in rs] for rs in runs):
            print(f"  {name}: " + " ".join(f"{v:.6g}" for v in values))
            medians.append(statistics.median(values))
            s = spread(values)
            within = s <= metric["bound"]
            ok &= within
            cells.append(f"median {medians[-1]:.6g} spread {s:.3f}{'' if within else ' (!)'}")
        worse = (medians[1] - medians[0]) / medians[0]
        if metric["better"] == "higher":
            worse = -worse
        moved_ok = worse <= metric["bound"]
        ok &= moved_ok
        cells.append(f"second vs first {worse:+.3f}{'' if moved_ok else ' (!)'}")
        print(f"{args.workload} {name} [bound {metric['bound']}]: " + "; ".join(cells))
    print(f"{args.workload}: {tally['disturbed']} of {2 * len(seeds(args.seeds))} runs disturbed")
    print(f"{args.workload}: {'within bounds' if ok else 'OUT OF BOUNDS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
