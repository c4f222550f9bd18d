"""Command-line front end: datasets and SVG plots for every pipeline.

Exit codes: 0 success, 1 computational failure, 2 usage error.  A plain
key = value config file can seed any option; explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import meanfield, quantum, semiclassics, serialize, svgplot, verify
from .model import ModelSpec


class UsageError(Exception):
    pass


# option table: (dest, type, default, help); None default means required
# unless a command-specific fallback exists
_MODEL_OPTS = (
    ("m", int, None, "type-A particles consumed per conversion"),
    ("n", int, None, "type-B particles produced per conversion"),
    ("N", int, None, "total particle number (default 40*m*n)"),
    ("eps", float, 0.0, "energy parameter"),
    ("v", float, 1.0, "conversion strength"),
)

_COMMANDS = {
    "spectrum": (),
    "fixed-points": (),
    "bifurcations": (),
    "sweep": (
        ("eps_min", float, None, "lower end of the eps grid"),
        ("eps_max", float, None, "upper end of the eps grid"),
        ("eps_steps", int, None, "number of grid points"),
        ("jobs", int, 0, "worker processes (0 or 1: serial)"),
    ),
    "trajectory": (
        ("sx", float, None, "initial sx"),
        ("sy", float, None, "initial sy"),
        ("sz", float, None, "initial sz"),
        ("t_end", float, 100.0, "integration time"),
        ("dt", float, 1e-3, "fixed step size"),
        ("stride", int, 100, "store every this many steps"),
    ),
    "quantize": (),
    "dos": (
        ("bins", int, 200, "histogram bin count"),
    ),
    "kummer-mesh": (
        ("n_theta", int, 65, "azimuthal resolution"),
        ("n_p", int, 129, "height resolution"),
    ),
    "verify": (),
}


@dataclass
class RunConfig:
    command: str
    spec: ModelSpec
    options: dict
    out: str
    plot: bool


@cache  # built once per process: a parse leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer",
        description="spectra of bosonic n:m conversion systems: exact, "
        "mean-field and semiclassical",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in _COMMANDS.items():
        p = sub.add_parser(name)
        for dest, typ, _default, help_text in _MODEL_OPTS + extra:
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
        p.add_argument("--config", default=None, help="key = value option file")
        p.add_argument("--out", default=None, help="output directory (default .)")
        p.add_argument("--plot", action="store_true", default=None,
                       help="also write SVG plots")
    return parser


def _read_config_file(path):
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _config_bool(raw: str) -> bool:
    """A config file's boolean: 1/true/yes or 0/false/no, in any case."""
    word = raw.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(raw)
    return word in ("1", "true", "yes")


def _worker_count(jobs: int) -> int:
    """Sweep workers from --jobs; 0 runs serially."""
    if jobs < 0:
        raise UsageError(f"--jobs must be a non-negative integer, got {jobs!r}")
    return max(jobs, 1)


def parse_config(argv) -> RunConfig:
    """Merge command line over an optional config file into a RunConfig."""
    argv = list(argv)
    for k in range(len(argv) - 2, -1, -1):  # argparse takes -1.37e-3 for an option
        flag, value = argv[k], argv[k + 1]
        if flag.startswith("--") and "=" not in flag and value.startswith("-"):
            try:
                float(value)
            except ValueError:
                continue
            argv[k:k + 2] = [f"{flag}={value}"]
    args = _build_parser().parse_args(argv)
    table = {dest: (typ, default) for dest, typ, default, _ in
             _MODEL_OPTS + _COMMANDS[args.command]}
    table["out"] = (str, ".")
    table["plot"] = (bool, False)

    merged = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in table:
                raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
            typ = table[key][0]
            try:
                merged[key] = (_config_bool if typ is bool else typ)(raw)
            except ValueError:
                raise UsageError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}")
    for key in table:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value

    for key, (typ, default) in table.items():
        if key not in merged:
            merged[key] = default
    for key in ("m", "n"):
        if merged[key] is None:
            raise UsageError(f"--{key} is required")
    if merged["N"] is None:
        merged["N"] = 40 * merged["m"] * merged["n"]

    extra_required = [dest for dest, _, default, _ in _COMMANDS[args.command]
                      if default is None]
    for dest in extra_required:
        if merged[dest] is None:
            raise UsageError(f"--{dest.replace('_', '-')} is required for {args.command}")
    if args.command == "sweep":
        merged["jobs"] = _worker_count(merged["jobs"])
        for key in ("eps_min", "eps_max"):
            if not math.isfinite(merged[key]):
                raise UsageError(f"--{key.replace('_', '-')} must be finite, got {merged[key]!r}")

    try:
        spec = ModelSpec(merged["m"], merged["n"], merged["N"], merged["eps"], merged["v"])
    except ValueError as exc:
        raise UsageError(str(exc))
    options = {k: v for k, v in merged.items()
               if k not in ("m", "n", "N", "eps", "v", "out", "plot")}
    return RunConfig(args.command, spec, options, merged["out"], merged["plot"])


def _cmd_spectrum(cfg: RunConfig):
    result = quantum.eigen_spectrum(cfg.spec)
    stem = os.path.join(cfg.out, "spectrum")
    serialize.write_spectrum(result, stem)
    if cfg.plot:
        xs = list(range(len(result.scaled_eigenvalues)))
        svgplot.plot_levels(
            xs, [list(result.scaled_eigenvalues)], stem + ".svg",
            title=f"scaled spectrum  (m,n)=({cfg.spec.m},{cfg.spec.n})  N={cfg.spec.N}",
            xlabel="level index", ylabel="scaled energy",
        )


def _cmd_fixed_points(cfg: RunConfig):
    fps = meanfield.find_fixed_points(cfg.spec)
    serialize.write_fixed_points(cfg.spec, fps, os.path.join(cfg.out, "fixed_points"))


def _cmd_bifurcations(cfg: RunConfig):
    events = meanfield.classify_bifurcations(cfg.spec)
    serialize.write_bifurcations(cfg.spec, events, os.path.join(cfg.out, "bifurcations"))


def _cmd_sweep(cfg: RunConfig):
    opts = cfg.options
    grid = np.linspace(opts["eps_min"], opts["eps_max"], opts["eps_steps"])
    table = quantum.sweep_epsilon(cfg.spec, grid, jobs=opts["jobs"])
    stem = os.path.join(cfg.out, "sweep")
    serialize.write_sweep(table, stem)
    if cfg.plot:
        svgplot.plot_sweep(table, stem + ".svg")


def _cmd_trajectory(cfg: RunConfig):
    opts = cfg.options
    record = meanfield.integrate_trajectory(
        cfg.spec, (opts["sx"], opts["sy"], opts["sz"]),
        opts["t_end"], opts["dt"], stride=opts["stride"],
    )
    diverged = np.flatnonzero(~np.isfinite(record.states).all(axis=1))
    if len(diverged) or not (math.isfinite(record.drift_h) and math.isfinite(record.drift_c)):
        t = float(record.times[diverged[0] if len(diverged) else -1])
        raise ArithmeticError(f"the flow diverged by t = {t!r}: --dt {opts['dt']!r} is too large")
    stem = os.path.join(cfg.out, "trajectory")
    serialize.write_trajectory(cfg.spec, record, stem)
    print(f"drift_H = {record.drift_h:.3e}, drift_C = {record.drift_c:.3e}")
    if cfg.plot:
        svgplot.plot_levels(
            list(record.times),
            [list(record.states[:, 0]), list(record.states[:, 1]), list(record.states[:, 2])],
            stem + ".svg", title="trajectory", xlabel="t", ylabel="sx, sy, sz",
        )


def _cmd_quantize(cfg: RunConfig):
    wkb = semiclassics.semiclassical_spectrum(cfg.spec)
    exact = quantum.eigen_spectrum(cfg.spec).scaled_eigenvalues
    stem = os.path.join(cfg.out, "quantize")
    serialize.write_semiclassical(wkb, stem, exact=exact)
    dev = np.max(np.abs(wkb.energies - exact))
    print(f"max |semiclassical - exact| = {dev:.3e} (scaled energy)")
    if cfg.plot:
        xs = list(range(len(exact)))
        svgplot.plot_levels(
            xs, [list(exact), list(wkb.energies)], stem + ".svg",
            title=f"exact vs semiclassical  (m,n)=({cfg.spec.m},{cfg.spec.n})",
            xlabel="level index", ylabel="scaled energy",
        )


def _cmd_dos(cfg: RunConfig):
    hist = quantum.dos_histogram(cfg.spec, cfg.options["bins"])
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    saddles = [fp.energy for fp in meanfield.find_fixed_points(cfg.spec)
               if fp.stability == "saddle"]
    curve = semiclassics.dos_semiclassical(cfg.spec, centers, saddle_energies=saddles)
    stem = os.path.join(cfg.out, "dos")
    serialize.write_dos(hist, centers, curve, stem, saddle_energies=saddles)
    if cfg.plot:
        svgplot.plot_dos(cfg.spec, hist, centers, curve, stem + ".svg")


def _cmd_mesh(cfg: RunConfig):
    mesh = meanfield.kummer_mesh(cfg.spec, cfg.options["n_theta"], cfg.options["n_p"])
    stem = os.path.join(cfg.out, "kummer_mesh")
    serialize.write_mesh(mesh, stem)
    if cfg.plot:
        p_grid = np.linspace(-0.5, 0.5, 257)
        r_vals = meanfield.radius(cfg.spec, p_grid)
        svgplot.plot_shape_profile(cfg.spec, list(p_grid), list(r_vals), stem + ".svg")


def _cmd_verify(cfg: RunConfig):
    results = verify.run_all(cfg.spec)
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        raise RuntimeError(f"{failed} invariant check(s) failed")


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "fixed-points": _cmd_fixed_points,
    "bifurcations": _cmd_bifurcations,
    "sweep": _cmd_sweep,
    "trajectory": _cmd_trajectory,
    "quantize": _cmd_quantize,
    "dos": _cmd_dos,
    "kummer-mesh": _cmd_mesh,
    "verify": _cmd_verify,
}


def run(cfg: RunConfig) -> int:
    serialize.ensure_dir(cfg.out)
    try:
        _DISPATCH[cfg.command](cfg)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"kummer {cfg.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"kummer: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
