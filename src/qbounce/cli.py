"""Command-line interface: basis tables, echo traces, delay scans, spectra.

Every output CSV starts with a provenance header (`# key = value` lines
holding the fully resolved configuration and the package version) so a
result file documents the run that produced it.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from importlib import resources

import numpy as np

from . import __version__, classical, quantum
from .airy import airy_zeros
from .basis import UnitSystem, build_basis
from .classical import mean_height_series
from .pulses import InputError, KickPulse, spin_branches
from .quantum import StateVector, ground_state, mean_height_trace
from .spectroscopy import (DEFAULT_NOISE_FLOOR, DelayScan,
                           find_peaks_and_match, retrieve_amplitudes,
                           scan_delay, spectrum)

PRESETS = ("fig1", "fig2", "fig4", "fig5", "fig6")


# ---------------------------------------------------------------- config

def _parse_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise InputError(f"not a boolean: {s!r}")


def _finite(s):
    x = float(s)
    if not np.isfinite(x):
        raise InputError(f"not a finite number: {s!r}")
    return x


def _positive(s):
    x = _finite(s)
    if x <= 0:
        raise InputError(f"not positive: {s!r}")
    return x


def _count(s, top=math.inf):
    n = int(s)
    if not 1 <= n <= top:
        raise InputError(f"not an integer in [1, {top}]: {s!r}")
    return n


def _basis_size(s):
    return _count(s, 400)  # airy_zeros returns at most 400 zeros


def _kind(s):
    return KickPulse(0.0, 1.0, kind=s).kind  # KickPulse rejects other kinds


def _initial(s):
    if s not in ("gaussian", "ground"):
        raise InputError(f"not 'gaussian' or 'ground': {s!r}")
    return s


# schema: key -> (type, default); REQUIRED means no default
REQUIRED = object()

_SCHEMAS = {
    "classical-echo": {
        "n": (_count, REQUIRED),
        "mu_z": (_finite, REQUIRED),
        "mu_v": (_finite, REQUIRED),
        "sigma_z": (_finite, REQUIRED),
        "sigma_v": (_finite, REQUIRED),
        "seed": (int, REQUIRED),
        "kick_amplitude": (_finite, REQUIRED),
        "kick_width": (_positive, REQUIRED),
        "kick_time": (_finite, REQUIRED),
        "t_max": (_finite, REQUIRED),
        "dt_sample": (_positive, REQUIRED),
        "steps_per_sigma": (_count, classical.DEFAULT_STEPS_PER_SIGMA),
    },
    "quantum-echo": {
        "basis_size": (_basis_size, REQUIRED),
        "kind": (_kind, REQUIRED),
        "initial": (_initial, REQUIRED),
        "mu_z": (_finite, 0.0),
        "sigma_z": (_finite, 0.0),
        "amplitude1": (_finite, REQUIRED),
        "width1": (_positive, REQUIRED),
        "time1": (_finite, REQUIRED),
        "amplitude2": (_finite, 0.0),
        "width2": (_positive, 1.0),
        "time2": (_finite, 0.0),
        "t_max": (_finite, REQUIRED),
        "dt_sample": (_positive, REQUIRED),
        "spin_average": (_parse_bool, True),
        "steps_per_sigma": (_count, quantum.DEFAULT_STEPS_PER_SIGMA),
    },
    "scan": {
        "basis_size": (_basis_size, REQUIRED),
        "kind": (_kind, REQUIRED),
        "amplitude1": (_finite, REQUIRED),
        "width1": (_positive, REQUIRED),
        "amplitude2": (_finite, REQUIRED),
        "width2": (_positive, REQUIRED),
        "tau_min": (_positive, REQUIRED),
        "tau_max": (_finite, REQUIRED),
        "dtau": (_positive, REQUIRED),
        "spin_average": (_parse_bool, True),
        "steps_per_sigma": (_count, quantum.DEFAULT_STEPS_PER_SIGMA),
    },
}


def parse_config_text(text, mode):
    """Flat `key = value` config; '#' comments; unknown keys are fatal."""
    schema = _SCHEMAS[mode]
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise InputError(f"line {lineno}: unknown key {key!r} for mode {mode!r}")
        if key in raw:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        conv = schema[key][0]
        try:
            raw[key] = conv(value)
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    for key, (_, default) in schema.items():
        if default is REQUIRED and key not in raw:
            raise InputError(f"missing required key {key!r} for mode {mode!r}")
    return {key: raw.get(key, default) for key, (_, default) in schema.items()}


def load_config(args, mode):
    if (args.config is None) == (args.preset is None):
        raise InputError("exactly one of --config and --preset is required")
    if args.preset is not None:
        ref = resources.files("qbounce.presets") / f"{args.preset}.cfg"
        text = ref.read_text()
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read config: {exc}") from None
    cfg = parse_config_text(text, mode)
    if getattr(args, "seed", None) is not None and "seed" in cfg:
        cfg["seed"] = args.seed
    return cfg


def _snapshot_times(text):
    try:
        snaps = sorted(map(float, text.split(","))) if text else []
    except ValueError:  # float() of the flag's text
        raise InputError(f"--snapshot: not a list of numbers: {text!r}") from None
    if not all(0.0 <= t < np.inf for t in snaps):
        raise InputError(f"--snapshot: times must be finite and >= 0: {text!r}")
    return snaps


def _check_span(cfg, start, stop_key):
    """A sample grid from ``start`` to cfg[stop_key] must not run backwards."""
    if cfg[stop_key] < start:
        raise InputError(f"{stop_key} = {cfg[stop_key]!r} precedes the grid "
                         f"start {start!r}")


# ---------------------------------------------------------------- output

def _resolve_out(args, path):
    if path is None:
        return None
    out_dir = getattr(args, "out_dir", None)
    return os.path.join(out_dir, path) if out_dir else path


_CSV_BLOCK_ROWS = 4096  # rows formatted and written at a time


def write_csv(path, header_items, columns, rows):
    """CSV with '# key = value' provenance lines, full double precision.

    ``rows`` is a sequence of numeric rows, such as a list of tuples or a
    2-d array.  Each value is written as its double with 17 significant
    digits, so an integer column reads as the integers themselves.  A
    column that holds one bit pattern throughout a block is formatted once,
    into the block's line format.
    """
    head = [f"# version = {__version__}"]
    head += [f"# {k} = {v}" for k, v in header_items]
    head.append(",".join(columns))

    def blocks():
        yield "\n".join(head) + "\n"
        for k in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = np.asarray(rows[k:k + _CSV_BLOCK_ROWS], dtype=np.float64)
            bits = block.view(np.int64)  # -0.0 and 0.0 stay apart
            same = np.all(bits == bits[0], axis=0)
            line = ",".join("%.17g" % x if c else "%.17g"
                            for x, c in zip(block[0].tolist(), same))
            yield (line + "\n") * len(block) % tuple(
                block[:, ~same].ravel().tolist())

    _emit(path, blocks())


def _emit(path, chunks):
    """Write the text ``chunks`` to ``path``, or to standard output if None."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def read_scan_csv(path):
    """Read a scan CSV back, including its provenance header.

    The '# key = value' lines and the column line are parsed here, the data
    rows by `np.loadtxt`.  A file that cannot be read, a ragged or
    non-numeric row, rows that do not match the column line and a file
    without data rows raise InputError naming the file.
    """
    header = {}
    columns = None
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    k, eq, v = line[1:].partition("=")
                    if eq:
                        header[k.strip()] = v.strip()
                elif line:
                    columns = line.split(",")
                    break
            # numpy warns on a file without data rows; that raises below
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:  # unreadable, ragged or not numbers
        raise InputError(f"{path}: {exc}") from None
    if columns is None or not len(data):
        raise InputError(f"{path}: no data rows")
    if data.shape[1] != len(columns):
        raise InputError(f"{path}: {len(columns)} columns named, but the "
                         f"rows hold {data.shape[1]}")
    return header, columns, data


# ---------------------------------------------------------------- commands

def cmd_basis(args):
    basis = build_basis(args.M)  # airy_zeros rejects M outside [1, 400]
    write_csv(_resolve_out(args, args.out), [("M", args.M)],
              ["i", "energy", "norm", "omega_i1"],
              np.column_stack((np.arange(1, args.M + 1), basis.zeros,
                               basis.norms, basis.zeros - basis.zeros[0])))
    return 0


def cmd_classical_echo(args):
    cfg = load_config(args, "classical-echo")
    snaps = _snapshot_times(args.snapshot)  # checked before any computation
    _check_span(cfg, 0.0, "t_max")
    pulse = KickPulse(cfg["kick_amplitude"], cfg["kick_width"],
                      cfg["kick_time"], "magnetic")
    sample = [cfg[k] for k in ("n", "mu_z", "mu_v", "sigma_z", "sigma_v", "seed")]
    times = np.arange(0.0, cfg["t_max"] + 1e-9, cfg["dt_sample"])
    series = mean_height_series(*sample, [pulse], times,
                                steps_per_sigma=cfg["steps_per_sigma"],
                                snapshots=snaps)
    (z_plus, plus), (z_minus, minus) = series[1], series[-1]
    write_csv(_resolve_out(args, args.out), sorted(cfg.items()),
              ["t", "z_plus", "z_minus", "z_avg"],
              np.column_stack((times, z_plus, z_minus, 0.5 * (z_plus + z_minus))))
    if snaps:
        rows = np.empty((2 * len(snaps), cfg["n"], 4))
        for block, e in zip(rows, plus + minus):
            block[:, 0], block[:, 3] = e.time, e.spin
            block[:, 1], block[:, 2] = e.z, e.v
        write_csv(_resolve_out(args, "snapshots.csv"), sorted(cfg.items()),
                  ["t", "z", "v", "s"], rows.reshape(-1, 4))
    return 0


def _quantum_pulses(cfg):
    pulses = [KickPulse(cfg["amplitude1"], cfg["width1"], cfg["time1"],
                        cfg["kind"])]
    if cfg["amplitude2"] != 0.0:
        pulses.append(KickPulse(cfg["amplitude2"], cfg["width2"],
                                cfg["time2"], cfg["kind"]))
    return pulses


def cmd_quantum_echo(args):
    cfg = load_config(args, "quantum-echo")
    pulses = _quantum_pulses(cfg)
    # start early enough that the first pulse window is fully covered
    t_start = min(0.0, min(p.window[0] for p in pulses))
    _check_span(cfg, t_start, "t_max")
    basis = build_basis(cfg["basis_size"])

    health = []  # header items beside the final norms
    if cfg["initial"] == "gaussian":
        coeffs, captured = basis.project_gaussian(cfg["mu_z"], cfg["sigma_z"])
        health.append(("captured_norm", captured))
    else:
        coeffs = ground_state(basis).coeffs

    times = np.arange(t_start, cfg["t_max"] + 1e-9, cfg["dt_sample"])
    branches = mean_height_trace(
        basis, StateVector(coeffs, t_start), pulses,
        spin_branches(cfg["kind"], cfg["spin_average"]), times,
        steps_per_sigma=cfg["steps_per_sigma"])
    (z_plus, _), (z_minus, _) = branches[0], branches[-1]
    avg = 0.5 * (z_plus + z_minus)
    norm_keys = (["final_norm_plus", "final_norm_minus"] if len(branches) == 2
                 else ["final_norm"])
    write_csv(_resolve_out(args, args.out), sorted(cfg.items()) + health +
              [(k, final.norm) for k, (_, final) in zip(norm_keys, branches)],
              ["t", "z_plus", "z_minus", "z_avg"],
              np.column_stack((times, z_plus, z_minus, avg)))
    return 0


def cmd_scan(args):
    cfg = load_config(args, "scan")
    _check_span(cfg, cfg["tau_min"], "tau_max")
    basis = build_basis(cfg["basis_size"])
    p1 = KickPulse(cfg["amplitude1"], cfg["width1"], 0.0, cfg["kind"])
    p2 = KickPulse(cfg["amplitude2"], cfg["width2"], 0.0, cfg["kind"])
    n = math.floor((cfg["tau_max"] - cfg["tau_min"]) / cfg["dtau"]
                   * (1.0 + 1e-12)) + 1  # to tau_max, as in whole_steps
    delays = cfg["tau_min"] + cfg["dtau"] * np.arange(n)
    scan = scan_delay(basis, p1, p2, delays,
                      spin_average=cfg["spin_average"],
                      steps_per_sigma=cfg["steps_per_sigma"])
    # a label for the reader: the scan steps every delay below
    # 6 (width1 + width2) through both kick windows
    overlap = scan.delays < 3.0 * (cfg["width1"] + cfg["width2"])
    write_csv(_resolve_out(args, args.out), sorted(cfg.items()),
              ["tau", "population", "overlap"],
              np.column_stack((scan.delays, scan.populations, overlap)))
    return 0


def _scan_from_csv(path, count):
    """The scan in the CSV at ``path``, the energies z_1..z_M of its
    header's basis_size M, and its header.  A scan on M states has M - 1
    lines, so ``count`` > M - 1 is a config error."""
    header, columns, data = read_scan_csv(path)
    if columns[:2] != ["tau", "population"]:
        raise InputError(f"{path}: expected scan columns tau,population")
    try:
        scan = DelayScan(data[:, 0], data[:, 1])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    if "basis_size" not in header:
        raise InputError(f"{path}: provenance header lacks basis_size")
    try:
        basis_size = _basis_size(header["basis_size"])
    except ValueError as exc:
        raise InputError(f"{path}: bad basis_size in header: {exc}") from None
    if count > basis_size - 1:
        raise InputError(f"--count: not in [1, {basis_size - 1}] for the "
                         f"scan's basis_size {basis_size}: {count}")
    return scan, airy_zeros(basis_size), header


def cmd_spectrum(args):
    if not 0.0 <= args.noise_floor <= 1.0:
        raise InputError(f"--noise-floor: not in [0, 1]: {args.noise_floor}")
    scan, zeros, header = _scan_from_csv(args.infile, args.count)
    try:
        spec = spectrum(scan, window=args.window)
    except InputError as exc:  # too few rows or a grid the FFT cannot take
        raise InputError(f"{args.infile}: {exc}") from None
    matches = find_peaks_and_match(spec, zeros, args.count,
                                   noise_floor=args.noise_floor)
    if len(matches) < args.count:
        print(f"warning: found {len(matches)} of {args.count} peaks",
              file=sys.stderr)
    # write_csv writes this run's version; the scan's goes as scan_version
    scan_keys = sorted(("scan_version" if k == "version" else k, v)
                       for k, v in header.items())
    write_csv(_resolve_out(args, args.out),
              scan_keys + [("window", args.window)], ["omega", "magnitude"],
              np.column_stack((spec.frequencies, spec.amplitudes)))
    peaks = [{"i": m.state, "omega_measured": m.omega_measured,
              "omega_theory": m.omega_theory,
              "rel_error_percent": m.rel_error_percent}
             for m in matches]
    _emit(_resolve_out(args, args.peaks), [json.dumps(peaks, indent=2) + "\n"])
    return 0


def cmd_retrieve(args):
    scan, zeros, _ = _scan_from_csv(args.infile, args.count)
    amps, residual = retrieve_amplitudes(scan, zeros, args.count)
    payload = {
        "states": [{"i": a.state, "magnitude": a.magnitude, "phase": a.phase,
                    "phase_ambiguity": a.phase_ambiguity} for a in amps],
        "fit_residual_rms": residual,
        "version": __version__,
    }
    _emit(_resolve_out(args, args.out), [json.dumps(payload, indent=2) + "\n"])
    return 0


def cmd_convert(args):
    if (args.mass is None) != (args.gravity is None):
        raise InputError("--mass and --gravity must be given together")
    units = (UnitSystem.neutron() if args.mass is None
             else UnitSystem(mass=args.mass, gravity=args.gravity))
    if args.quantity == "gradient":
        if args.direction != "to-dimensionless":
            raise InputError("gradient converts only to-dimensionless (a_k)")
        if args.mass is not None:
            raise InputError("gradient converts for the neutron only: a "
                             "custom particle has no magnetic moment")
        value = units.kick_amplitude(args.value)
    elif args.direction == "to-si":
        value = units.to_si(args.value, args.quantity)
    else:
        value = units.from_si(args.value, args.quantity)
    if not math.isfinite(value):
        raise InputError(f"{args.value} {args.quantity} converts to {value}")
    print(f"{value:.17g}")
    return 0


# ---------------------------------------------------------------- wiring

class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(sp, default_out):
    sp.add_argument("--out", default=default_out, help="output path")
    sp.add_argument("--out-dir", default=None, help="directory for outputs")


def _add_config_flags(sp):
    sp.add_argument("--config", default=None, help="flat key=value config file")
    sp.add_argument("--preset", default=None, choices=PRESETS,
                    help="built-in configuration")


def build_parser():
    parser = _Parser(prog="qbounce",
                     description="Quantum bouncer echoes and kick spectroscopy")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("basis", help="eigenbasis table (energies, frequencies)")
    sp.add_argument("--M", type=int, required=True, help="number of states")
    _add_io_flags(sp, None)
    sp.set_defaults(fn=cmd_basis)

    sp = sub.add_parser("classical-echo", help="classical ensemble echo trace")
    _add_config_flags(sp)
    sp.add_argument("--seed", type=int, default=None, help="override config seed")
    sp.add_argument("--snapshot", default=None,
                    help="comma-separated times for phase-space CSV dumps")
    _add_io_flags(sp, "series.csv")
    sp.set_defaults(fn=cmd_classical_echo)

    sp = sub.add_parser("quantum-echo", help="wave-packet echo trace")
    _add_config_flags(sp)
    _add_io_flags(sp, "series.csv")
    sp.set_defaults(fn=cmd_quantum_echo)

    sp = sub.add_parser("scan", help="two-kick delay scan of |c_1|^2")
    _add_config_flags(sp)
    _add_io_flags(sp, "scan.csv")
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("spectrum", help="FFT spectrum and peak extraction")
    sp.add_argument("--in", dest="infile", required=True, help="scan CSV")
    sp.add_argument("--peaks", default="peaks.json", help="peak list JSON path")
    sp.add_argument("--count", type=_count, default=5, help="peaks to extract")
    sp.add_argument("--window", default="hann", choices=("hann", "none"))
    sp.add_argument("--noise-floor", type=float, default=DEFAULT_NOISE_FLOOR,
                    help="peak threshold as a fraction of the strongest line")
    _add_io_flags(sp, "spec.csv")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("retrieve", help="amplitude/phase retrieval from a scan")
    sp.add_argument("--in", dest="infile", required=True, help="scan CSV")
    sp.add_argument("--count", type=_count, default=4,
                    help="number of excited states to fit")
    _add_io_flags(sp, "amps.json")
    sp.set_defaults(fn=cmd_retrieve)

    sp = sub.add_parser("convert", help="dimensionless <-> SI unit conversion")
    sp.add_argument("value", type=_finite)
    sp.add_argument("--quantity", required=True,
                    choices=("length", "time", "energy", "gradient"))
    sp.add_argument("--direction", required=True,
                    choices=("to-si", "to-dimensionless"))
    sp.add_argument("--mass", type=_positive, default=None,
                    help="particle mass in kg (default: neutron)")
    sp.add_argument("--gravity", type=_positive, default=None,
                    help="gravitational acceleration in m/s^2")
    sp.set_defaults(fn=cmd_convert)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
