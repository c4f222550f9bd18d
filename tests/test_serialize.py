import json
from dataclasses import fields

import numpy as np

from kummer import meanfield, quantum, semiclassics, serialize
from kummer.cli import main
from kummer.model import ModelSpec


def test_csv_round_trips_doubles(tmp_path):
    values = [0.1, 1 / 3, np.pi, 2**-52, 1e300, -7.123456789012345e-5]
    path = tmp_path / "vals.csv"
    serialize.write_csv(path, ("i", "x"), [(i, v) for i, v in enumerate(values)])
    _, rows = serialize.read_csv(path)
    back = [float(x) for _, x in rows]
    assert all(a == b for a, b in zip(values, back))  # bit exact


def test_csv_has_schema_header(tmp_path):
    path = tmp_path / "t.csv"
    serialize.write_csv(path, ("a",), [(1,)], comments=("note",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "# note"
    assert lines[2] == "a"


def test_spectrum_files(tmp_path):
    res = quantum.eigen_spectrum(ModelSpec(2, 1, 8, eps=0.5, v=1.0))
    stem = str(tmp_path / "spectrum")
    serialize.write_spectrum(res, stem)
    header, rows = serialize.read_csv(stem + ".csv")
    assert header == ["index", "raw", "scaled"]
    assert len(rows) == 5
    payload = json.loads(open(stem + ".json").read())
    assert payload["spec"]["m"] == 2
    assert payload["raw_eigenvalues"] == list(res.raw_eigenvalues)  # bit exact


def test_fixed_point_and_bifurcation_files(tmp_path):
    spec = ModelSpec(2, 2, 16, eps=0.6, v=1.0)
    serialize.write_fixed_points(
        spec, meanfield.find_fixed_points(spec), str(tmp_path / "fp")
    )
    serialize.write_bifurcations(
        spec, meanfield.classify_bifurcations(spec), str(tmp_path / "bif")
    )
    _, fp_rows = serialize.read_csv(tmp_path / "fp.csv")
    assert len(fp_rows) == 4
    payload = json.loads(open(tmp_path / "bif.json").read())
    assert len(payload["events"]) == 4


def test_mesh_documents_grid_order(tmp_path):
    spec = ModelSpec(2, 1, 8)
    mesh = meanfield.kummer_mesh(spec, 4, 3)
    serialize.write_mesh(spec, mesh, str(tmp_path / "mesh"))
    text = (tmp_path / "mesh.csv").read_text()
    assert "height-major" in text
    _, rows = serialize.read_csv(tmp_path / "mesh.csv")
    assert len(rows) == 12


def test_semiclassical_with_exact_column(tmp_path):
    spec = ModelSpec(1, 1, 6, eps=0.3, v=1.0)
    wkb = semiclassics.semiclassical_spectrum(spec)
    exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
    serialize.write_semiclassical(wkb, str(tmp_path / "q"), exact=exact)
    header, rows = serialize.read_csv(tmp_path / "q.csv")
    assert header == ["nu", "scaled_energy", "exact", "abs_deviation", "regime"]
    assert len(rows) == 7


def test_identical_inputs_identical_bytes(tmp_path):
    spec = ModelSpec(2, 1, 40, eps=0.5, v=1.0)
    table = quantum.sweep_epsilon(spec, np.linspace(-1, 1, 5))
    serialize.write_sweep(table, str(tmp_path / "a"))
    serialize.write_sweep(table, str(tmp_path / "b"))
    assert (tmp_path / "a_levels.csv").read_bytes() == (tmp_path / "b_levels.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_record_schemas(tmp_path):
    """One CSV column and one JSON key per record field, in field order."""
    schemas = {
        "fixed_points": ("fixed_points", meanfield.FixedPoint,
                         ["p", "q", "sx", "energy", "stability", "rate", "location"]),
        "bifurcations": ("events", meanfield.BifurcationEvent,
                         ["eps_critical", "kind", "location", "energy"]),
    }
    for m, n in ((2, 2), (1, 1)):  # (1, 1) has no bifurcation events
        out = tmp_path / f"{m}{n}"
        for command in ("fixed-points", "bifurcations"):
            assert main([command, "--m", str(m), "--n", str(n), "--eps", "0.6",
                         "--out", str(out)]) == 0
        for stem, (key, cls, names) in schemas.items():
            assert [f.name for f in fields(cls)] == names
            header, rows = serialize.read_csv(out / f"{stem}.csv")
            records = json.loads((out / f"{stem}.json").read_text())[key]
            assert header == names
            assert len(records) == len(rows)
            assert all(list(rec) == names for rec in records)
        if (m, n) == (1, 1):
            assert serialize.read_csv(out / "bifurcations.csv") == (schemas["bifurcations"][2], [])
            assert json.loads((out / "bifurcations.json").read_text())["events"] == []

    out = tmp_path / "q"
    assert main(["quantize", "--m", "1", "--n", "1", "--N", "6", "--eps", "0.3",
                 "--out", str(out)]) == 0
    levels = json.loads((out / "quantize.json").read_text())["levels"]
    assert len(levels) == 7
    assert all(list(lv) == ["nu", "energy", "regime"] for lv in levels)
