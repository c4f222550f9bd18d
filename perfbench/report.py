"""Run every workload in BENCHMARK.json and print all of its metrics.

    python3 perfbench/report.py          # full size: seed 1, run_seconds from BENCHMARK.json
    python3 perfbench/report.py --tiny   # smoke test of the benchmark itself

Run from the repository root.  Each workload runs twice through
perfbench/run.py, with --trace 0 (end-to-end metrics) and --trace 1
(per-layer metrics), always with seed 1; for another seed call
perfbench/run.py directly.  Every metric is printed with its unit.
Exits 1 unless every run ends cleanly with `correct` true, at least one
op attempted, and exactly the metrics BENCHMARK.json names, each a
finite number in the declared unit.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, seconds, tiny):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd + ["--tiny"] * tiny, cwd=ROOT, capture_output=True,
                         text=True, timeout=900)
    if out.returncode != 0:
        return None, [f"exit {out.returncode}: {out.stderr.strip()[-400:]}"]
    return json.loads(out.stdout.strip().splitlines()[-1]), []


def problems(result, wanted):
    found = []
    if result["correct"] is not True:
        found.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        found.append("attempted/failed are not counts with attempted >= 1")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    found += [f"unexpected metric {name}" for name in sorted(extra)]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            found.append(f"missing {m['name']}")
        elif got["unit"] != m["unit"]:
            found.append(f"{m['name']}: unit {got['unit']!r}, expected {m['unit']!r}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            found.append(f"{m['name']}: value {got['value']!r} is not a finite number")
    return found


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (smoke test)")
    args = parser.parse_args()

    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, found = run(workload, trace, spec["run_seconds"], args.tiny)
            if result is not None:
                print(f"{workload} trace={trace}: {result['attempted']} ops, "
                      f"{result['failed']} failed, correct={result['correct']}")
                for name, metric in result["metrics"].items():
                    print(f"  {workload:6s} {name:45s} {metric['value']:14.6g} {metric['unit']}")
                found = problems(result, wanted)
            for line in found:
                print(f"  PROBLEM {workload} trace={trace}: {line}")
            bad += len(found)
    print("all metrics present" if not bad else f"{bad} problem(s)")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
