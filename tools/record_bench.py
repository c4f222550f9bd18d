"""Record every benchmark metric of this checkout in BENCH_<label>.json.

    python3 tools/record_bench.py --label 6                      # full size
    python3 tools/record_bench.py --tiny --label smoke --out /tmp  # smoke test

Runs each workload of BENCHMARK.json through perfbench/report.py's runner,
once with --trace 0 (end-to-end metrics) and once with --trace 1
(per-layer metrics), always with seed 1, and writes the metrics with
their units, the seed, the git revision and the versions of Python,
numpy, scipy and kummer.  The benchmark itself is unchanged: this script
only runs it and keeps what it prints.  Exits 1, after writing the file,
if a run fails or its metrics are not exactly the ones BENCHMARK.json
names.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import kummer  # noqa: E402
from report import problems, run  # noqa: E402

SEED = 1  # the seed report.run passes to perfbench/run.py


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=30).stdout.strip()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="file name suffix: BENCH_<label>.json")
    parser.add_argument("--out", default=str(ROOT), help="output directory (default: repo root)")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (smoke test)")
    args = parser.parse_args()

    # perfbench/run.py runs under this same interpreter (sys.executable).
    versions = {"kummer": kummer.__version__, "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "machine": platform.machine(), "nproc": os.cpu_count()}
    record = {"label": args.label, "seed": SEED, "seconds": spec["run_seconds"],
              "tiny": args.tiny, "revision": git("rev-parse", "HEAD") or None,
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "versions": versions, "workloads": {}, "problems": []}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = record["workloads"][workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, found = run(workload, trace, spec["run_seconds"], args.tiny)
            if result is not None:
                found = problems(result, spec[key])
                entry[key] = result["metrics"]
                entry[f"{key}_ops"] = {k: result[k] for k in ("attempted", "failed", "correct")}
            record["problems"] += [f"{workload} trace={trace}: {line}" for line in found]
            print(f"{workload} trace={trace}: "
                  + ("; ".join(found) if found else f"{result['attempted']} ops, ok"))

    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}" + (f", {len(record['problems'])} problem(s)"
                             if record["problems"] else ""))
    sys.exit(1 if record["problems"] else 0)


if __name__ == "__main__":
    main()
