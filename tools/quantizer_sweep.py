"""Sweep the WKB quantizer over a grid of specs and score it against the eigensolve.

    python3 tools/quantizer_sweep.py --dim 41 --offset 0.0123 --out sweep41.json
    python3 tools/quantizer_sweep.py --dim 41 --offset 0.0123 --compare parent41.json
    python3 tools/quantizer_sweep.py --dim 11 --eps-steps 9        # smoke size

For every m, n <= 4 and eps in linspace(-2, 2, eps-steps) + offset
it runs `semiclassical_spectrum` on the spec of dimension --dim and scores
each level by its distance from the exact level in local spacings (the
central difference of the exact levels).  It prints the failures, the
number of specs whose worst level lies beyond 0.3 of a spacing, the
largest worst level and the wall time of the sweep.  --out keeps every
spec's levels and score as JSON; --compare reads such a file (from another
checkout, say) and reports, per spec, how far the worst level and every
level moved: in local spacings, and as the largest absolute move in scaled
energy with the number of specs that moved by more than 1e-12.  Exits 1 if
any spec failed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kummer import quantum, semiclassics  # noqa: E402
from kummer.model import ModelSpec  # noqa: E402

BAD = 0.3  # worst level, in local spacings, that counts a spec as poor
MOVED = 1e-12  # level move, in scaled energy, that counts a spec as moved


def _key(m, n, eps):
    return f"{m},{n},{eps!r}"


def score(case):
    """Levels and worst level (in local spacings) of one spec, or its error."""
    m, n, dim, eps = case
    spec = ModelSpec(m, n, (dim - 1) * m * n, eps=eps)
    out = {"m": m, "n": n, "eps": eps, "N": spec.N}
    try:
        levels = semiclassics.semiclassical_spectrum(spec).energies
    except Exception as exc:  # a failure is a result of the sweep
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
    spacings = np.gradient(exact)
    out["levels"] = levels.tolist()
    out["spacings"] = spacings.tolist()
    out["worst"] = float(np.max(np.abs(levels - exact) / spacings))
    return out


def compare(results, parent):
    """Lines reporting how far each spec moved against a saved sweep."""
    old = {_key(r["m"], r["n"], r["eps"]): r for r in parent["specs"]}
    worse, moved, same, missing, shifts = [], [], 0, 0, []
    for r in results:
        p = old.get(_key(r["m"], r["n"], r["eps"]))
        if p is None or "worst" not in p or "worst" not in r:
            missing += 1
            continue
        if r["worst"] > p["worst"] + 1e-5:
            worse.append((r["worst"] - p["worst"], r, p))
        a, b = np.array(r["levels"]), np.array(p["levels"])
        if len(a) == len(b) and np.array_equal(a, b):
            same += 1
        elif len(a) == len(b):
            moved.append((float(np.max(np.abs(a - b) / np.array(r["spacings"]))), r))
            shifts.append(float(np.max(np.abs(a - b))))
    lines = [f"against {parent['label']}: {same} specs bit-identical, "
             f"{len(moved)} moved, {missing} without a pair to compare",
             f"  largest level move {max(shifts, default=0.0):.3g} in scaled energy; "
             f"{sum(d > MOVED for d in shifts)} specs moved by more than {MOVED:g}"]
    if moved:
        small = sum(d <= 1e-5 for d, _ in moved)
        lines.append(f"  {small} moved by at most 1e-5 of a spacing; largest moves:")
        for d, r in sorted(moved, key=lambda x: -x[0])[:10]:
            lines.append(f"    ({r['m']},{r['n']},{r['N']}, eps={r['eps']:.4f}): {d:.3g}")
    lines.append(f"  {len(worse)} specs with a worst level worse by more than 1e-5")
    for d, r, p in sorted(worse, key=lambda x: -x[0]):
        lines.append(f"    ({r['m']},{r['n']},{r['N']}, eps={r['eps']:.4f}): "
                     f"{p['worst']:.3f} -> {r['worst']:.3f}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dim", type=int, default=41, help="subspace dimension of every spec")
    parser.add_argument("--offset", type=float, default=0.0123, help="added to every eps")
    parser.add_argument("--eps-steps", type=int, default=81, help="points of linspace(-2, 2)")
    parser.add_argument("--out", help="write every spec's result to this JSON file")
    parser.add_argument("--compare", help="a JSON file written by --out to compare against")
    args = parser.parse_args()

    grid = np.linspace(-2.0, 2.0, args.eps_steps) + args.offset
    cases = [(m, n, args.dim, float(eps)) for m in range(1, 5)
             for n in range(1, 5) for eps in grid]
    start = time.perf_counter()
    results = [score(case) for case in cases]
    wall = time.perf_counter() - start

    failed = [r for r in results if "error" in r]
    worst = [r["worst"] for r in results if "worst" in r]
    label = f"dim {args.dim}, offset {args.offset}, {len(cases)} specs"
    print(f"{label}: {len(failed)} failures, {sum(w > BAD for w in worst)} specs beyond "
          f"{BAD} of a spacing, worst level {max(worst, default=float('nan')):.3f}, "
          f"{wall:.1f} s")
    for r in failed:
        print(f"  FAIL ({r['m']},{r['n']},{r['N']}, eps={r['eps']:.4f}): {r['error']}")
    for r in sorted((r for r in results if r.get("worst", 0) > BAD), key=lambda r: -r["worst"]):
        print(f"  ({r['m']},{r['n']},{r['N']}, eps={r['eps']:.4f}): {r['worst']:.3f}")
    if args.compare:
        parent = json.loads(Path(args.compare).read_text())
        print("\n".join(compare(results, parent)))
    if args.out:
        Path(args.out).write_text(json.dumps({"label": label, "specs": results}) + "\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
