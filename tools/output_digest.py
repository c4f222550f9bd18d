"""Hash what a fixed set of kummer operations writes, to compare two checkouts byte for byte.

    python3 tools/output_digest.py --out digest.json
    python3 tools/output_digest.py --compare digest.json    # written by another checkout
    python3 tools/output_digest.py --tiny --out digest.json # smoke size

Every op is a `kummer` command line, run in this process through
`kummer.cli.main` with an output directory of its own.  Its digest is
its exit code, the sha256 of its stdout and the sha256 of every file it
wrote, by name.  Every `*.json` file an op writes must be strict JSON:
it must parse without NaN, Infinity or -Infinity.  The ops are the README recipes, one `spectrum` and one
`trajectory` op, `fixed-points` and `bifurcations` for every m, n <= 4
at eps in {-1.3, 0, 0.5} and v in {1, 1.3}, and the seed-1 op lists of
the four benchmark workloads, perfbench/workloads.generate(name, 1, 12);
an op listed twice runs once (446 ops).  --tiny takes
generate(name, 1, 12, tiny=True) and m, n <= 2 at eps in {-1.3, 0.5}
and v = 1 instead.  --out writes the digests as JSON; --compare reads
such a file, prints every op whose digest differs, with the files (or
stdout, or exit code) that differ, and every op that only one side ran.
The tool exits 1 if any op differs or ran on one side only, or if any
op wrote a JSON file that is not strict JSON.
"""

import os

# one BLAS thread, as in the benchmark; sweeps run serially
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from kummer import cli  # noqa: E402
from workloads import generate  # noqa: E402

README = [
    "sweep --m 2 --n 1 --N 80 --v 1 --eps-min -3 --eps-max 3 --eps-steps 301 --plot",
    "sweep --m 2 --n 2 --N 160 --v 1 --eps-min -3 --eps-max 3 --eps-steps 301 --plot",
    "sweep --m 3 --n 3 --N 360 --v 1 --eps-min -1 --eps-max 1 --eps-steps 301 --plot",
    "quantize --m 4 --n 1 --N 160 --v 1 --eps 0.5 --plot",
    "quantize --m 4 --n 3 --N 480 --v 1 --eps 0.5 --plot",
    "dos --m 2 --n 1 --N 9000 --v 1 --eps 0.5 --bins 200 --plot",
    "dos --m 3 --n 3 --N 9000 --v 1 --eps 0.08 --bins 200 --plot",
    "dos --m 3 --n 2 --N 9000 --v 1 --eps 0.4 --bins 200 --plot",
    "dos --m 3 --n 3 --N 72000 --v 1 --eps 0.08 --bins 400 --plot",
    "kummer-mesh --m 3 --n 3 --plot",
    "verify --m 2 --n 2 --N 160 --v 1 --eps 0.6",
]
WORKLOADS = ("fan", "wkb", "dos", "orbit")


def _trajectory():
    """A trajectory op from a point on the (2,1) surface at p = 0.1."""
    p, angle = 0.1, 0.7
    r = math.sqrt(2.0) * (0.5 + p) * math.sqrt(0.5 - p)  # r(p) of (2,1)
    return (f"trajectory --m 2 --n 1 --N 80 --eps 0.5 --sx={r * math.cos(angle)!r} "
            f"--sy={r * math.sin(angle)!r} --sz={p!r} --t-end 10 --plot")


def op_set(tiny=False):
    """The command lines, in order, each once."""
    ops = README + ["spectrum --m 3 --n 2 --N 120 --eps 0.4 --plot", _trajectory()]
    modes, eps_grid, v_grid = ((1, 2), ("-1.3", "0.5"), ("1",)) if tiny else (
        (1, 2, 3, 4), ("-1.3", "0", "0.5"), ("1", "1.3"))
    ops += [f"{cmd} --m {m} --n {n} --eps {eps} --v {v}" for cmd in ("fixed-points", "bifurcations")
            for m in modes for n in modes for eps in eps_grid for v in v_grid]
    for name in WORKLOADS:
        ops += [" ".join(op.argv) for op in generate(name, 1, 12, tiny=tiny)]
    return list(dict.fromkeys(" ".join(op.split()) for op in ops))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _strict_json(data):
    try:
        json.loads(data, parse_constant=_reject_constant)
    except ValueError:  # json.JSONDecodeError is a ValueError
        return False
    return True


def digest(argv, out):
    """The exit code, and the sha256 of the stdout and of each file, of one op.

    Also returns the names of the JSON files it wrote that are not strict JSON.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception:  # an uncaught error ends a `kummer` process with exit 1
            traceback.print_exc()
            code = 1
    if code not in (0, 1) or "Traceback" in stderr.getvalue():  # not a kummer error
        print(f"exit {code}: {' '.join(argv)}\n{stderr.getvalue()}", file=sys.stderr)
    files, not_strict = {}, []
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        files[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".json" and not _strict_json(data):
            not_strict.append(path.name)
    result = {"exit": code, "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
              "files": files}
    return result, not_strict


def _differences(ours, theirs):
    """What differs between two digests of one op: exit, stdout, file names."""
    names = [key for key in ("exit", "stdout") if ours[key] != theirs[key]]
    return names + [name for name in sorted(ours["files"].keys() | theirs["files"].keys())
                    if ours["files"].get(name) != theirs["files"].get(name)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true", help="the smoke-size op set")
    parser.add_argument("--out", help="write the digests to this JSON file")
    parser.add_argument("--compare", help="a JSON file written by --out to compare against")
    args = parser.parse_args()

    ops = op_set(args.tiny)
    start = time.perf_counter()
    digests, not_strict = {}, {}
    with tempfile.TemporaryDirectory(prefix="kummer-digest-") as scratch:
        for i, op in enumerate(ops):
            out = Path(scratch) / f"op{i:03d}"
            digests[op], bad = digest(op.split(), out)
            if bad:
                not_strict[op] = bad
            shutil.rmtree(out, ignore_errors=True)
    label = f"{len(ops)} ops{' (tiny)' if args.tiny else ''}"
    print(f"{label}, {time.perf_counter() - start:.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps({"label": label, "ops": digests}, indent=1) + "\n")
    for op, names in not_strict.items():
        print(f"  not strict JSON: {op}: {', '.join(names)}")
    print(f"{len(not_strict)} ops wrote JSON that is not strict")
    failed = bool(not_strict)
    if args.compare:
        other = json.loads(Path(args.compare).read_text())
        differ = {op: _differences(digests[op], other["ops"][op])
                  for op in digests if op in other["ops"] and other["ops"][op] != digests[op]}
        here = [op for op in digests if op not in other["ops"]]
        there = [op for op in other["ops"] if op not in digests]
        for op, names in differ.items():
            print(f"  differs: {op}: {', '.join(names)}")
        for tag, group in (("only here", here), ("only there", there)):
            for op in group:
                print(f"  {tag}: {op}")
        print(f"against {other['label']}: {len(differ)} ops differ, {len(here)} only here, "
              f"{len(there)} only there")
        failed = failed or bool(differ or here or there)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
