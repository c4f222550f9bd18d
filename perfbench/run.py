"""kummer benchmark: one seeded, closed-loop list of CLI operations per run.

    python3 perfbench/run.py --workload fan --seed 1 --seconds 15 --trace 0

Run from the repository root.  The process imports kummer from `src/`
once, then a single client calls `kummer.cli.main(argv)` for each
operation, sending the next only after the previous one returns.  Every
operation writes its CSV/JSON/SVG files into a scratch directory under
`.perfbench/`, and those files are checked against the workload's
oracle after the loop.  Set-up is sampled on its own: SETUP_SAMPLES
fresh interpreters each run `-X importtime -c "import kummer"`, which
gives `setup_s` (kummer's cumulative line) and the `setup.import.*`
breakdown alike.

End-to-end times are in reference seconds.  The shared machine this
benchmark was tuned on drifts in speed by up to half over seconds to
minutes; Python bytecode slows most, LAPACK kernels less.  A fixed
calibration loop with the benchmark's mix (two thirds Python
arithmetic, one third a LAPACK tridiagonal eigensolve) is timed before
the first op and after every op, and each op's wall time is scaled by
CALIBRATION_REF_S over the median of the loops timed around it.  That
loop tracks imports poorly, so each set-up sample is scaled the same way
by a cold import of a fixed set of standard-library modules
(REFERENCE_IMPORT), timed in a fresh interpreter just before it.  Raw
wall times are printed beside the scaled ones; per-layer times stay raw.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the op
list untraced and then traced, checks that both passes wrote identical
bytes, and prints the per-layer metrics; the spans go to
`.perfbench/trace-<workload>-<seed>.jsonl.gz`.  The metric names and units
come from BENCHMARK.json; the last line of stdout is the JSON result.

Ops that exit 1 or whose output misses its oracle count in `failed` and
lower `ok_frac`.  `correct` turns false when the run cannot be trusted:
an op exited with another code (an invalid generated command), or the
traced pass wrote different bytes from the untraced one.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads, here and in child
# interpreters; leave KUMMER_JOBS unset so `sweep` runs serially.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("KUMMER_JOBS", None)

import argparse
import contextlib
import functools
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from scipy.linalg import eigvalsh_tridiagonal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
IMPORT_MODULES = ("kummer", "kummer.meanfield", "scipy.optimize", "scipy.linalg", "numpy")
CALIBRATION_REF_S = 0.005  # about the median calibration_s() on a 2-core x86_64 box
REFERENCE_IMPORT = ("import asyncio, csv, decimal, email.mime.multipart, http.client, "
                    "logging.handlers, sqlite3, tarfile, unittest, xml.dom.minidom")
REFERENCE_IMPORT_S = 0.12  # about its median cold import time on the same box
_CAL_DIAG, _CAL_OFFDIAG = np.linspace(-1.0, 1.0, 300), np.full(299, 0.5)


def calibration_s():
    """Wall time of a fixed loop: ~3 ms of Python arithmetic, ~1.6 ms of LAPACK."""
    start = perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += (i % 7) * 0.5 - acc * 1e-6
    eigvalsh_tridiagonal(_CAL_DIAG, _CAL_OFFDIAG, lapack_driver="sterf")
    return perf_counter() - start


def to_reference(raw, loops, ref_s):
    """Scale raw[i] by ref_s over the median of the 8 loops around it.

    loops[i] is timed just before raw[i]; the window takes 4 loops
    before and 4 after, so one loop caught in a short burst does not skew
    the time next to it.
    """
    return [t * ref_s / statistics.median(loops[max(0, i - 3):i + 5])
            for i, t in enumerate(raw)]


def timed_with_calibration(calls):
    """Run each call; return (raw seconds, reference seconds) per call."""
    loops = [calibration_s()]
    raw = []
    for call in calls:
        raw.append(call())
        loops.append(calibration_s())
    return list(zip(raw, to_reference(raw, loops, CALIBRATION_REF_S)))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_times_s(statement):
    """Cold imports of `statement` in a fresh interpreter, from `-X importtime`.

    Returns the cumulative seconds per imported module and the total of
    the top-level imports, interpreter start-up included.
    """
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                         cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                         timeout=120, check=True)
    found, total = {}, 0.0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found[parts[2].strip()] = seconds = int(parts[1]) * 1e-6
            if not parts[2].startswith("  "):
                total += seconds
    return found, total


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_pass(cli, ops, workdir, tracer=None):
    """Run every op in order, one at a time; return per-op records."""
    records = []

    def call(i, op):
        out = workdir / f"op{i:03d}"
        argv = list(op.argv) + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception:
                # an uncaught error would end a real `kummer` process with exit 1
                traceback.print_exc()
                code = 1
        latency = perf_counter() - t0
        records.append({"code": code, "out": out, "stdout": stdout.getvalue(),
                        "stderr": stderr.getvalue()})
        return latency

    times = timed_with_calibration(functools.partial(call, i, op) for i, op in enumerate(ops))
    for rec, (raw, ref) in zip(records, times):
        rec["raw_s"], rec["ref_s"] = raw, ref
    return records


def check_pass(ops, records, check):
    """Apply the oracles; return (failed ops, integrity problems, output digests).

    An op fails when it exits 1 (kummer's computational-failure code) or
    its output misses the oracle; both count in `failed`.  Any other exit
    code means the generator built an invalid command, which makes the
    run itself untrustworthy.
    """
    failed, problems, digests = 0, [], []
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec["code"] == 0:
            rec["reason"] = check(op, str(rec["out"]), rec["stdout"])
        else:
            lines = rec["stderr"].strip().splitlines() or ["(no message)"]
            rec["reason"] = f"exit {rec['code']}: {lines[-1]}"
            if rec["code"] != 1:
                problems.append(f"op {i} {' '.join(op.argv)}: {rec['reason']}")
        failed += rec["reason"] is not None
        digest = hashlib.sha256(rec["stdout"].encode())
        if rec["out"].is_dir():
            for path in sorted(rec["out"].iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digests.append(digest.hexdigest())
    return failed, problems, digests


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_pct(n_ops):
    """Highest whole percentile with at least 10 ops beyond it."""
    return max(50, (100 * (n_ops - 10)) // n_ops)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny dimensions and two set-up samples (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "kummer" / "__init__.py").is_file():
        sys.exit(f"run.py: no kummer sources under {SRC}; run from a repository checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))

    import kummer
    import kummer.cli
    import workloads
    from tracing import Tracer, layer_metrics

    if not Path(kummer.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"run.py: imported kummer from {kummer.__file__}, not {SRC}")

    samples = [(import_times_s(REFERENCE_IMPORT)[1], import_times_s("import kummer")[0])
               for _ in range(2 if args.tiny else SETUP_SAMPLES)]
    breakdowns = [found for _, found in samples]
    setup_raw = [found["kummer"] for found in breakdowns]
    setup_ref = to_reference(setup_raw, [ref for ref, _ in samples], REFERENCE_IMPORT_S)
    env = environment()
    ops = workloads.generate(args.workload, args.seed, args.seconds, args.tiny)
    check = workloads.CHECKS[args.workload]

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        records = run_pass(kummer.cli, ops, scratch / "plain")
        failed, problems, digests = check_pass(ops, records, check)
        if args.trace:
            tracer = Tracer()
            tracer.install(kummer)
            try:
                traced = run_pass(kummer.cli, ops, scratch / "traced", tracer)
            finally:
                tracer.uninstall()
            failed, traced_problems, traced_digests = check_pass(ops, traced, check)
            problems += traced_problems
            problems += [f"op {i}: traced output differs from untraced" for i, (a, b)
                         in enumerate(zip(digests, traced_digests)) if a != b]
            tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl.gz",
                         {"workload": args.workload, "seed": args.seed, "env": env,
                          "ops": [" ".join(op.argv) for op in ops]})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = layer_metrics(tracer.spans,
                               {i for i, r in enumerate(traced) if r["reason"] is not None})
        for module in IMPORT_MODULES:
            values[f"setup.import.{module}_s"] = statistics.median(
                b[module] for b in breakdowns)
        values["trace.overhead_frac"] = (sum(r["ref_s"] for r in traced)
                                         / sum(r["ref_s"] for r in records) - 1.0)
        wanted = spec["per_layer"]
    else:
        pct = tail_pct(len(ops))
        work = sum(op.work for op, r in zip(ops, records) if r["reason"] is None)

        def time_metrics(setup_s, op_s):
            return {"setup_s": statistics.median(setup_s), "run_s": sum(op_s),
                    "op_p50_ms": 1e3 * statistics.median(op_s),
                    "op_tail_ms": 1e3 * percentile(op_s, pct), "work_per_s": work / sum(op_s)}

        raw = time_metrics(setup_raw, [r["raw_s"] for r in records])
        values = time_metrics(setup_ref, [r["ref_s"] for r in records])
        values["ok_frac"] = 1.0 - failed / len(ops)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
        print(f"# {len(ops)} ops, op_tail_ms is p{pct}; raw wall times: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))

    print("# env " + json.dumps(env))
    for i, (op, r) in enumerate(zip(ops, records)):
        if r["reason"] is not None:
            print(f"# failed op {i}: {' '.join(op.argv)}: {r['reason']}")
    for line in problems:
        print(f"# PROBLEM {line}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
