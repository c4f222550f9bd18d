"""Command-line front end: datasets and SVG plots for every pipeline.

One table, _COMMANDS, gives each command its handler and its own options,
which follow the model options that every command shares.  The parser,
the config merge, the required-option check and the dispatch all read
it.  A command writes its files under one stem, <out>/<command with "-"
as "_">, which run derives and hands to the handler.

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


# option rows: (dest, type, default, help); a None default means required,
# except for N, whose default 40*m*n comes from m and n.  Every command
# takes these; _COMMANDS, after the handlers, adds each command's own.
_MODEL_OPTS = (
    ("m", int, None, "type-A particles consumed per conversion"),
    ("n", int, None, "type-B particles produced per conversion"),
    ("N", int, None, "total particle number (default 40*m*n)"),
    ("eps", float, 0.0, "energy parameter"),
    ("v", float, 1.0, "conversion strength"),
)


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
    for name, (_handler, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for dest, typ, _default, help_text in _MODEL_OPTS + options:
            p.add_argument("--" + dest.replace("_", "-"), type=typ, default=None, help=help_text)
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


def parse_config(argv) -> RunConfig:
    """Table defaults, then an optional config file, then explicit flags, into a RunConfig."""
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
    command, options = args.command, _COMMANDS[args.command][1]
    table = {dest: (typ, default) for dest, typ, default, _ in _MODEL_OPTS + options}
    table.update(out=(str, "."), plot=(bool, False))

    merged = {key: default for key, (_, default) in table.items()}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in table:
                raise UsageError(f"unknown config key {key!r} for command {command!r}")
            typ = table[key][0]
            try:
                merged[key] = (_config_bool if typ is bool else typ)(raw)
            except ValueError:
                raise UsageError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}")
    merged.update((key, getattr(args, key)) for key in table if getattr(args, key) is not None)

    for rows, where in ((_MODEL_OPTS, ""), (options, f" for {command}")):
        for dest, *_ in rows:
            if merged[dest] is not None:
                continue
            if dest != "N":
                raise UsageError(f"--{dest.replace('_', '-')} is required{where}")
            merged["N"] = 40 * merged["m"] * merged["n"]  # m and n are checked above it
    if command == "sweep":
        if merged["jobs"] < 0:
            raise UsageError(f"--jobs must be a non-negative integer, got {merged['jobs']!r}")
        merged["jobs"] = max(merged["jobs"], 1)  # 0 runs serially
        for key in ("eps_min", "eps_max"):
            if not math.isfinite(merged[key]):
                raise UsageError(f"--{key.replace('_', '-')} must be finite, got {merged[key]!r}")
        if not math.isfinite(merged["eps_max"] - merged["eps_min"]):
            raise UsageError(f"--eps-min {merged['eps_min']!r} and --eps-max "
                             f"{merged['eps_max']!r} are too far apart: their difference overflows")
        if merged["eps_steps"] < 1:
            raise UsageError(f"--eps-steps must be a positive integer, got {merged['eps_steps']!r}")

    try:
        spec = ModelSpec(merged["m"], merged["n"], merged["N"], merged["eps"], merged["v"])
    except ValueError as exc:
        raise UsageError(str(exc))
    own = {dest: merged[dest] for dest, *_ in options}
    return RunConfig(command, spec, own, merged["out"], merged["plot"])


def _cmd_spectrum(cfg: RunConfig, stem: str):
    result = quantum.eigen_spectrum(cfg.spec)
    serialize.write_spectrum(result, stem)
    if cfg.plot:
        levels = result.scaled_eigenvalues
        svgplot.plot_levels(
            np.arange(len(levels)), [levels], stem + ".svg",
            title=f"scaled spectrum  (m,n)=({cfg.spec.m},{cfg.spec.n})  N={cfg.spec.N}",
            xlabel="level index", ylabel="scaled energy",
        )


def _cmd_fixed_points(cfg: RunConfig, stem: str):
    fps = meanfield.find_fixed_points(cfg.spec)
    serialize.write_fixed_points(cfg.spec, fps, stem)


def _cmd_bifurcations(cfg: RunConfig, stem: str):
    events = meanfield.classify_bifurcations(cfg.spec)
    serialize.write_bifurcations(cfg.spec, events, stem)


def _cmd_sweep(cfg: RunConfig, stem: str):
    opts = cfg.options
    grid = np.linspace(opts["eps_min"], opts["eps_max"], opts["eps_steps"])
    table = quantum.sweep_epsilon(cfg.spec, grid, jobs=opts["jobs"])
    serialize.write_sweep(table, stem)
    if cfg.plot:
        svgplot.plot_sweep(table, stem + ".svg")


def _cmd_trajectory(cfg: RunConfig, stem: str):
    opts = cfg.options
    record = meanfield.integrate_trajectory(
        cfg.spec, (opts["sx"], opts["sy"], opts["sz"]),
        opts["t_end"], opts["dt"], stride=opts["stride"],
    )
    diverged = np.flatnonzero(~np.isfinite(record.states).all(axis=1))
    if len(diverged) or not (math.isfinite(record.drift_h) and math.isfinite(record.drift_c)):
        t = float(record.times[diverged[0] if len(diverged) else -1])
        raise ArithmeticError(f"the flow diverged by t = {t!r}: --dt {opts['dt']!r} is too large")
    serialize.write_trajectory(cfg.spec, record, stem)
    print(f"drift_H = {record.drift_h:.3e}, drift_C = {record.drift_c:.3e}")
    if cfg.plot:
        svgplot.plot_levels(record.times, record.states.T, stem + ".svg",
                            title="trajectory", xlabel="t", ylabel="sx, sy, sz")


def _cmd_quantize(cfg: RunConfig, stem: str):
    wkb = semiclassics.semiclassical_spectrum(cfg.spec)
    exact = quantum.eigen_spectrum(cfg.spec).scaled_eigenvalues
    serialize.write_semiclassical(wkb, stem, exact=exact)
    dev = np.max(np.abs(wkb.energies - exact))
    print(f"max |semiclassical - exact| = {dev:.3e} (scaled energy)")
    if cfg.plot:
        svgplot.plot_levels(
            np.arange(len(exact)), [exact, wkb.energies], stem + ".svg",
            title=f"exact vs semiclassical  (m,n)=({cfg.spec.m},{cfg.spec.n})",
            xlabel="level index", ylabel="scaled energy",
        )


def _cmd_dos(cfg: RunConfig, stem: str):
    hist = quantum.dos_histogram(cfg.spec, cfg.options["bins"])
    curve = semiclassics.dos_semiclassical(cfg.spec, 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:]))
    serialize.write_dos(hist, curve, stem)
    if cfg.plot:
        svgplot.plot_dos(cfg.spec, hist, curve, stem + ".svg")


def _cmd_mesh(cfg: RunConfig, stem: str):
    mesh = meanfield.kummer_mesh(cfg.spec, cfg.options["n_theta"], cfg.options["n_p"])
    serialize.write_mesh(mesh, stem)
    if cfg.plot:
        p_grid = np.linspace(-0.5, 0.5, 257)
        r_vals = meanfield.radius(cfg.spec, p_grid)
        svgplot.plot_shape_profile(cfg.spec, p_grid, r_vals, stem + ".svg")


def _cmd_verify(cfg: RunConfig, stem: str):
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


# each command: (handler, its own option rows), in the order of --help
_COMMANDS = {
    "spectrum": (_cmd_spectrum, ()),
    "fixed-points": (_cmd_fixed_points, ()),
    "bifurcations": (_cmd_bifurcations, ()),
    "sweep": (_cmd_sweep, (
        ("eps_min", float, None, "lower end of the eps grid"),
        ("eps_max", float, None, "upper end of the eps grid"),
        ("eps_steps", int, None, "number of grid points"),
        ("jobs", int, 0, "worker processes (0 or 1: serial)"),
    )),
    "trajectory": (_cmd_trajectory, (
        ("sx", float, None, "initial sx"),
        ("sy", float, None, "initial sy"),
        ("sz", float, None, "initial sz"),
        ("t_end", float, 100.0, "integration time"),
        ("dt", float, 1e-3, "fixed step size"),
        ("stride", int, 100, "store every this many steps"),
    )),
    "quantize": (_cmd_quantize, ()),
    "dos": (_cmd_dos, (
        ("bins", int, 200, "histogram bin count"),
    )),
    "kummer-mesh": (_cmd_mesh, (
        ("n_theta", int, 65, "azimuthal resolution"),
        ("n_p", int, 129, "height resolution"),
    )),
    "verify": (_cmd_verify, ()),
}


def run(cfg: RunConfig) -> int:
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
    handler = _COMMANDS[cfg.command][0]
    try:
        handler(cfg, os.path.join(cfg.out, cfg.command.replace("-", "_")))
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
