"""Deterministic CSV/JSON writers for every result type.

Each number is written once.  The CSVs hold the data: they carry a
`# schema=1` header comment, and floats are written with 17 significant
digits so doubles round-trip bit exactly.  A JSON sidecar holds only the
spec that its CSVs lack, as `{"spec": {...}}`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, fields
from itertools import chain, repeat

import numpy as np

from .meanfield import BifurcationEvent, FixedPoint
from .semiclassics import SADDLE_MARGIN


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header_fields, rows=(), comments=(), *, blocks=()):
    """Header, then every row written as `",".join(_fmt(x) for x in row)` would.

    The rows (an iterable of equal-length tuples) are formatted in bulk
    from one row template.  A column of floats gets %.17g, _fmt's float
    rule.  Any other column gets %s, which writes str(x) just as _fmt does
    for a non-float; a column that mixes floats with other values goes
    through _fmt first.

    The blocks, an iterable of (leading fields, values), follow the rows:
    block k stands for the rows (*leading, i, values[i]), i = 0, 1, ...
    Its leading fields go through _fmt once.  Its values, a sequence, get
    %.17g, which writes float(value); the rows of a block of length L are
    filled by one % from a template of L rows with the index written in,
    built once per call and block length.
    """
    columns = list(zip(*rows, strict=True))
    fmts, cells = [], []
    for col in columns:
        floats = [issubclass(t, float) for t in set(map(type, col))]
        fmts.append("%.17g" if all(floats) else "%s")
        cells.append(map(_fmt, col) if any(floats) and not all(floats) else col)
    templates = {}
    with open(path, "w") as fh:
        fh.write("# schema=1\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header_fields) + "\n")
        if columns:
            template = (",".join(fmts) + "\n") * len(columns[0])
            fh.write(template % tuple(chain.from_iterable(zip(*cells))))
        for leading, values in blocks:
            size = len(values)
            if size not in templates:
                templates[size] = "".join(f"%s,{i},%.17g\n" for i in range(size))
            prefix = ",".join(map(_fmt, leading))
            fh.write(templates[size] % tuple(chain.from_iterable(zip(repeat(prefix), values))))


def read_csv(path):
    """Rows of a schema=1 CSV as (header, list-of-string-tuples)."""
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(tuple(line.split(",")))
    return header, rows


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")


def _spec_json(stem, spec, drop=()):
    """The sidecar: the spec's fields, less those in `drop`."""
    write_json(stem + ".json", {"spec": {k: v for k, v in asdict(spec).items() if k not in drop}})


def write_spectrum(result, stem):
    raw = result.raw_eigenvalues
    write_csv(
        stem + ".csv",
        ("index", "raw", "scaled"),
        zip(range(len(raw)), raw.tolist(), result.scaled_eigenvalues.tolist()),
    )
    _spec_json(stem, result.spec)


def _write_records(stem, spec, cls, records, drop=()):
    """CSV of dataclass records, one column per field, and the spec sidecar."""
    write_csv(stem + ".csv", [f.name for f in fields(cls)], [astuple(r) for r in records])
    _spec_json(stem, spec, drop)


def write_fixed_points(spec, fps, stem):
    _write_records(stem, spec, FixedPoint, fps)


def write_bifurcations(spec, events, stem):
    _write_records(stem, spec, BifurcationEvent, events, drop=("eps",))


def write_sweep(table, stem):
    """sweep_levels.csv, one block of rows per eps, and sweep_fixed_points.csv.

    Each eps is formatted once for its block of levels (write_csv's block
    form), not once per level.
    """
    write_csv(
        stem + "_levels.csv",
        ("eps", "index", "scaled_energy"),
        blocks=zip(zip(table.eps_values.tolist()), map(np.ndarray.tolist, table.scaled_levels)),
    )
    counts = [len(v) for v in table.fixed_point_kinds]
    write_csv(
        stem + "_fixed_points.csv",
        ("eps", "energy", "stability"),
        zip(np.repeat(table.eps_values, counts).tolist(),
            np.concatenate(table.fixed_point_energies).tolist(),
            chain.from_iterable(table.fixed_point_kinds)),
    )
    _spec_json(stem, table.spec, drop=("eps",))


def write_trajectory(spec, record, stem):
    write_csv(
        stem + ".csv",
        ("t", "sx", "sy", "sz"),
        np.column_stack((record.times, record.states)).tolist(),
        comments=(f"drift_H={record.drift_h!r}", f"drift_C={record.drift_c!r}"),
    )
    _spec_json(stem, spec)


def write_mesh(mesh, stem):
    n_p, n_theta, _ = mesh.shape
    write_csv(
        stem + ".csv",
        ("sx", "sy", "sz"),
        mesh.reshape(-1, 3).tolist(),
        comments=(
            f"grid: {n_p} heights (south to north pole), {n_theta} azimuths per height",
            "row order: height-major, azimuth fastest",
        ),
    )


def write_semiclassical(result, stem, exact):
    write_csv(
        stem + ".csv",
        ("nu", "scaled_energy", "exact", "abs_deviation", "regime"),
        [(lv.nu, lv.energy, ex, abs(lv.energy - ex), lv.regime)
         for lv, ex in zip(result.levels, exact)],
    )
    _spec_json(stem, result.spec)


def write_dos(hist, centers, curve_values, stem, saddle_energies=(), margin=SADDLE_MARGIN):
    """Histogram and period curve; the curve is sampled at the bin centres
    and masked within `margin` of the saddle energies."""
    write_csv(
        stem + "_histogram.csv",
        ("bin_left", "bin_right", "bin_center", "density"),
        np.column_stack((hist.bin_edges[:-1], hist.bin_edges[1:], centers,
                         hist.density)).tolist(),
    )
    comments = ()
    if len(saddle_energies):
        listed = ", ".join(_fmt(float(s)) for s in saddle_energies)
        margin = np.format_float_scientific(margin, trim="-", exp_digits=1)
        comments = (f"log-divergent saddle energies (curve masked within {margin}): {listed}",)
    write_csv(
        stem + "_curve.csv",
        ("scaled_energy", "period_over_2pi"),
        zip(centers, curve_values),
        comments=comments,
    )
