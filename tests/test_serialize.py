import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

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


def _per_value_csv(header_fields, rows, comments=()):
    """write_csv's bytes as one _fmt call per value would give them."""
    lines = ["# schema=1", *(f"# {line}" for line in comments), ",".join(header_fields)]
    lines += [",".join(serialize._fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


AWKWARD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
                  1e300, -1e300, 0.1, 1 / 3, 2.0**53, 1e17, 123.0, -7.123456789012345e-5]
AWKWARD_COLUMNS = {
    "float": AWKWARD_FLOATS,
    "np_float64": [np.float64(x) for x in AWKWARD_FLOATS],
    "float_and_np_float64": [np.float64(x) if i % 2 else x for i, x in enumerate(AWKWARD_FLOATS)],
    "np_float32": [np.float32(x) for x in (0.1, -0.0, 1 / 3, 3e38, float("nan"))] * 3,
    "int": [10**17, -(10**17), 2**63, 10**30, 0, -1, 7, 1, 2, 3, 4, 5, 6, 8, 9],
    "np_int64": [np.int64(v) for v in (2**62, -(2**63), 10**17, 0, -1)] * 3,
    "bool": [True, False, True] * 5,
    "np_bool": [np.bool_(True), np.bool_(False), np.True_] * 5,
    "str": ["pole", "%s", "%.17g", "100%", "a b"] * 3,
    "location": [0.25, "north", -0.0, "south", np.float64(1 / 3)] * 3,  # BifurcationEvent
    "int_and_float": [1, 1.0, 10**17, 1e17, np.int64(3)] * 3,
}


class TestBulkCsv:
    """write_csv formats in bulk; the bytes are those of one _fmt call per value."""

    HEADER = tuple(AWKWARD_COLUMNS)
    ROWS = list(zip(*AWKWARD_COLUMNS.values()))

    @pytest.mark.parametrize("name", HEADER)
    def test_each_column_alone(self, tmp_path, name):
        rows = [(x,) for x in AWKWARD_COLUMNS[name]]
        serialize.write_csv(tmp_path / "c.csv", (name,), rows)
        assert (tmp_path / "c.csv").read_text() == _per_value_csv((name,), rows)

    def test_all_columns_together(self, tmp_path):
        comments = ("drift_H=0.0", "100% of rows")
        serialize.write_csv(tmp_path / "t.csv", self.HEADER, self.ROWS, comments=comments)
        assert (tmp_path / "t.csv").read_text() == _per_value_csv(self.HEADER, self.ROWS, comments)

    def test_rows_as_generator(self, tmp_path):
        serialize.write_csv(tmp_path / "g.csv", self.HEADER, (row for row in self.ROWS))
        assert (tmp_path / "g.csv").read_text() == _per_value_csv(self.HEADER, self.ROWS)

    def test_no_rows_is_header_only(self, tmp_path):
        for rows in ([], iter(())):
            serialize.write_csv(tmp_path / "e.csv", ("a", "b"), rows)
            assert (tmp_path / "e.csv").read_text() == "# schema=1\na,b\n"

    def test_ragged_rows_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            serialize.write_csv(tmp_path / "r.csv", ("a", "b"), [(1.0, 2.0), (3.0,)])


def _expanded(blocks):
    """The rows (*leading, i, values[i]) that write_csv's blocks stand for."""
    return [(*leading, i, float(x)) for leading, values in blocks for i, x in enumerate(values)]


class TestBlockCsv:
    """The block form writes the bytes of its expanded rows, as one _fmt call per value would."""

    @pytest.mark.parametrize("sizes", [(0,), (1,), (3, 0, 1, 15, 3), (15, 15), (0, 0)])
    def test_awkward_floats_lead_and_follow(self, tmp_path, sizes):
        # every awkward float leads a block; the values are slices of them, so
        # block lengths are 0, 1 and unequal, and one length recurs
        blocks = [((lead,), AWKWARD_FLOATS[k % 7:k % 7 + size])
                  for k, lead in enumerate(AWKWARD_FLOATS) for size in sizes]
        serialize.write_csv(tmp_path / "b.csv", ("eps", "index", "x"), blocks=blocks)
        want = _per_value_csv(("eps", "index", "x"), _expanded(blocks))
        assert (tmp_path / "b.csv").read_text() == want

    def test_every_awkward_column_as_leading_fields(self, tmp_path):
        header = (*AWKWARD_COLUMNS, "index", "x")
        blocks = [(row, np.array(AWKWARD_FLOATS[:k])) for k, row in enumerate(TestBulkCsv.ROWS)]
        serialize.write_csv(tmp_path / "b.csv", header, blocks=iter(blocks),
                            comments=("100% of rows",))
        want = _per_value_csv(header, _expanded(blocks), ("100% of rows",))
        assert (tmp_path / "b.csv").read_text() == want

    def test_values_are_written_as_floats(self, tmp_path):
        # np.float32, int and bool values are written as float(value) is
        blocks = [(("a",), [np.float32(0.1), 3, True, np.float64(1 / 3), 10**17])]
        serialize.write_csv(tmp_path / "b.csv", ("k", "index", "x"), blocks=blocks)
        want = _per_value_csv(("k", "index", "x"), _expanded(blocks))
        assert (tmp_path / "b.csv").read_text() == want
        assert "0.10000000149011612" in want and ",1e+17\n" in want

    def test_rows_then_blocks(self, tmp_path):
        rows = [(0.5, 7, "x"), (-0.0, 8, "y")]
        blocks = [(("z",), [1e300, 5e-324]), (("w",), [])]
        serialize.write_csv(tmp_path / "b.csv", ("a", "b", "c"), rows, blocks=blocks)
        want = _per_value_csv(("a", "b", "c"), rows + _expanded(blocks))
        assert (tmp_path / "b.csv").read_text() == want

    def test_no_blocks_is_header_only(self, tmp_path):
        serialize.write_csv(tmp_path / "e.csv", ("a", "b"), blocks=iter(()))
        assert (tmp_path / "e.csv").read_text() == "# schema=1\na,b\n"


@pytest.mark.parametrize("m,n,N,steps", [(2, 1, 40, 9), (3, 3, 90, 1), (1, 4, 80, 31)])
def test_sweep_levels_match_per_value_rows(tmp_path, m, n, N, steps):
    # the rows sweep_levels.csv held when every level's row was formatted alone
    table = quantum.sweep_epsilon(ModelSpec(m, n, N), np.linspace(-1.3, 0.7, steps))
    serialize.write_sweep(table, str(tmp_path / "s"))
    rows = [(eps, i, x) for eps, levels in zip(table.eps_values.tolist(), table.scaled_levels)
            for i, x in enumerate(levels.tolist())]
    want = _per_value_csv(("eps", "index", "scaled_energy"), rows)
    assert (tmp_path / "s_levels.csv").read_text() == want


def test_spectrum_files(tmp_path):
    res = quantum.eigen_spectrum(ModelSpec(2, 1, 8, eps=0.5, v=1.0))
    stem = str(tmp_path / "spectrum")
    serialize.write_spectrum(res, stem)
    header, rows = serialize.read_csv(stem + ".csv")
    assert header == ["index", "raw", "scaled"]
    assert len(rows) == 5
    assert [float(raw) for _, raw, _ in rows] == list(res.raw_eigenvalues)  # bit exact
    assert [float(s) for _, _, s in rows] == list(res.scaled_eigenvalues)
    payload = json.loads(Path(stem + ".json").read_text())
    assert payload == {"spec": {"m": 2, "n": 1, "N": 8, "eps": 0.5, "v": 1.0}}


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
    _, bif_rows = serialize.read_csv(tmp_path / "bif.csv")
    assert len(bif_rows) == 4


def test_mesh_documents_grid_order(tmp_path):
    spec = ModelSpec(2, 1, 8)
    mesh = meanfield.kummer_mesh(spec, 4, 3)
    serialize.write_mesh(mesh, str(tmp_path / "mesh"))
    text = (tmp_path / "mesh.csv").read_text()
    assert "height-major" in text
    _, rows = serialize.read_csv(tmp_path / "mesh.csv")
    assert len(rows) == 12


def test_semiclassical_with_exact_column(tmp_path):
    # three regimes, so a regime column out of step with the levels shows
    spec = ModelSpec(4, 1, 40, eps=0.5, v=1.0)
    wkb = semiclassics.semiclassical_spectrum(spec)
    exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
    serialize.write_semiclassical(wkb, str(tmp_path / "q"), exact=exact)
    header, rows = serialize.read_csv(tmp_path / "q.csv")
    assert header == ["nu", "scaled_energy", "exact", "abs_deviation", "regime"]
    assert [int(r[0]) for r in rows] == list(range(spec.dim))
    assert [float(r[1]) for r in rows] == wkb.energies.tolist()
    assert [float(r[2]) for r in rows] == exact.tolist()
    assert tuple(r[4] for r in rows) == wkb.regimes and len(set(wkb.regimes)) == 3


def test_identical_inputs_identical_bytes(tmp_path):
    spec = ModelSpec(2, 1, 40, eps=0.5, v=1.0)
    table = quantum.sweep_epsilon(spec, np.linspace(-1, 1, 5))
    serialize.write_sweep(table, str(tmp_path / "a"))
    serialize.write_sweep(table, str(tmp_path / "b"))
    assert (tmp_path / "a_levels.csv").read_bytes() == (tmp_path / "b_levels.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_record_schemas(tmp_path):
    """One CSV column per record field, in field order; the sidecar holds only the spec."""
    schemas = {
        "fixed_points": (meanfield.FixedPoint,
                         ["p", "q", "sx", "energy", "stability", "rate", "location"]),
        "bifurcations": (meanfield.BifurcationEvent,
                         ["eps_critical", "kind", "location", "energy"]),
    }
    for m, n in ((2, 2), (1, 1)):  # (1, 1) has no bifurcation events
        out = tmp_path / f"{m}{n}"
        for command in ("fixed-points", "bifurcations"):
            assert main([command, "--m", str(m), "--n", str(n), "--eps", "0.6",
                         "--out", str(out)]) == 0
        for stem, (cls, names) in schemas.items():
            assert [f.name for f in fields(cls)] == names
            header, rows = serialize.read_csv(out / f"{stem}.csv")
            assert header == names
            assert json.loads((out / f"{stem}.json").read_text()).keys() == {"spec"}
        if (m, n) == (1, 1):
            assert serialize.read_csv(out / "bifurcations.csv") == (schemas["bifurcations"][1], [])

    out = tmp_path / "q"
    assert main(["quantize", "--m", "1", "--n", "1", "--N", "6", "--eps", "0.3",
                 "--out", str(out)]) == 0
    _, rows = serialize.read_csv(out / "quantize.csv")
    assert [int(nu) for nu, *_ in rows] == list(range(7))
    assert json.loads((out / "quantize.json").read_text()).keys() == {"spec"}


def _strict(name):
    raise ValueError(f"{name} is not strict JSON")


# each command's argv, its sidecar and the spec it holds; the fixed-points
# spec has a pole, whose q is NaN in the CSV
SIDECARS = {
    "spectrum": ("spectrum --m 3 --n 2 --N 60 --eps 0.4", "spectrum.json",
                 {"m": 3, "n": 2, "N": 60, "eps": 0.4, "v": 1.0}),
    "fixed-points": ("fixed-points --m 2 --n 1 --N 80 --eps 0.5 --v 1.3", "fixed_points.json",
                     {"m": 2, "n": 1, "N": 80, "eps": 0.5, "v": 1.3}),
    "bifurcations": ("bifurcations --m 3 --n 2 --N 60 --eps 0.4", "bifurcations.json",
                     {"m": 3, "n": 2, "N": 60, "v": 1.0}),
    "sweep": ("sweep --m 2 --n 1 --N 40 --eps-min -1 --eps-max 1 --eps-steps 5", "sweep.json",
              {"m": 2, "n": 1, "N": 40, "v": 1.0}),
    "trajectory": ("trajectory --m 2 --n 1 --N 80 --eps 0.5 --sx 0.5 --sy 0 --sz 0 --t-end 1",
                   "trajectory.json", {"m": 2, "n": 1, "N": 80, "eps": 0.5, "v": 1.0}),
    "quantize": ("quantize --m 2 --n 1 --N 80 --eps -0.5", "quantize.json",
                 {"m": 2, "n": 1, "N": 80, "eps": -0.5, "v": 1.0}),
}


@pytest.mark.parametrize("command", SIDECARS)
def test_sidecar_is_the_spec_only(tmp_path, command):
    argv, name, spec = SIDECARS[command]
    assert main(argv.split() + ["--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / name).read_text(), parse_constant=_strict) == {"spec": spec}
