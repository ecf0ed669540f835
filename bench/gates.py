"""Physics gates on the files the qbounce CLI writes.

Every helper here is independent of the qbounce package: the benchmark reads
the CLI's CSV and JSON outputs itself, computes its own echo envelope and
checks spectral lines against tabulated Airy zeros, so a change to the
package cannot loosen the checks that judge it.  Each gate raises GateError
on a bad output and returns the measured values on a good one.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# magnitudes of the first six zeros of Ai (DLMF table 9.9.1)
AIRY_ZEROS = (2.338107410459767, 4.087949444130971, 5.520559828095551,
              6.786708090071759, 7.944133587120853, 9.022650853340980)
LINES = {i: AIRY_ZEROS[i - 1] - AIRY_ZEROS[0] for i in range(2, 7)}

ENVELOPE_WINDOW = 9.0      # about one bounce period 2 sqrt(20)
DEAD_ZONE = (90.0, 108.0)  # between the kick at t = 60 and its echo
# echo peak over the envelope median in its +-2 tol search window: 1.6-2.1
# on fig5 shake traces over the workload's amplitude range, 1.0-1.1 with no echo
ECHO_FLOOR = 1.3


class GateError(Exception):
    """An output misses a physics gate."""


def read_csv(path):
    """Provenance header, column names and float data of a CLI CSV file.

    The header and column lines are read here; the data rows go straight to
    `np.loadtxt`, so the gate holds one float array, not a list per row.
    """
    header, columns, skip = {}, None, 0
    with open(path) as fh:
        for line in fh:
            skip += 1
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif line:
                columns = line.split(",")
                break
    if columns is None:
        raise GateError(f"{path}: no column line")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise GateError(f"{path}: {exc}") from None
    if data.size == 0:
        raise GateError(f"{path}: no data rows")
    if data.shape[1] != len(columns):
        raise GateError(f"{path}: {data.shape[1]} values per row for "
                        f"{len(columns)} columns")
    if not np.all(np.isfinite(data)):
        raise GateError(f"{path}: non-finite values")
    return header, columns, data


def columns(path, *names):
    """The named columns of a CLI CSV file, one array each."""
    _, present, data = read_csv(path)
    missing = [n for n in names if n not in present]
    if missing:
        raise GateError(f"{path}: no columns {missing} in {present}")
    return tuple(data[:, present.index(n)] for n in names)


def envelope(times, signal, window=ENVELOPE_WINDOW):
    """Rolling max of |signal - running mean| over ``window`` time units."""
    times = np.asarray(times, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    n = max(1, int(round(window / (times[1] - times[0]))))
    # reflect-pad so the running mean has no edge bias
    padded = np.concatenate([signal[n - 1:0:-1], signal, signal[-2:-n - 1:-1]])
    baseline = np.convolve(padded, np.ones(n) / n,
                           mode="same")[n - 1:n - 1 + len(signal)]
    resid = np.abs(signal - baseline)
    half = n // 2
    # resid >= 0, so zero padding leaves every centred maximum unchanged
    resid = np.concatenate([np.zeros(half), resid, np.zeros(half)])
    return sliding_window_view(resid, 2 * half + 1).max(axis=1)


def echo_stats(times, trace, echo_win, dead_win=DEAD_ZONE):
    """(peak time, peak envelope in ``echo_win``, mean envelope in ``dead_win``)."""
    env = envelope(times, trace)
    echo = (times >= echo_win[0]) & (times <= echo_win[1])
    dead = (times >= dead_win[0]) & (times <= dead_win[1])
    if not echo.any() or not dead.any():
        raise GateError(f"trace does not cover {echo_win} and {dead_win}")
    k = int(np.argmax(env[echo]))
    return float(times[echo][k]), float(env[echo][k]), float(env[dead].mean())


def check_echo(times, trace, min_contrast, echo_win=(110.0, 130.0)):
    """Echo envelope peaks inside ``echo_win``, ``min_contrast`` x the dead zone."""
    t_peak, peak, dead = echo_stats(times, trace, echo_win)
    contrast = peak / dead
    if not echo_win[0] <= t_peak <= echo_win[1]:
        raise GateError(f"echo peak at t = {t_peak:.1f} outside {echo_win}")
    if not contrast >= min_contrast:
        raise GateError(f"echo contrast {contrast:.2f} < {min_contrast}")
    return {"echo_t": t_peak, "contrast": contrast}


def check_recurrence(times, trace, min_ratio, win=(168.0, 192.0)):
    """Recurrence near 3 t_k clears ``min_ratio`` x the dead-zone level."""
    _, peak, dead = echo_stats(times, trace, win)
    ratio = peak / dead
    if not ratio >= min_ratio:
        raise GateError(f"recurrence {ratio:.2f} x dead zone < {min_ratio}")
    return {"recurrence": ratio}


def check_echo_times(times, trace, centres, tol):
    """An echo within ``tol`` of each centre, searched over +-2 tol.

    The envelope's peak must fall within ``tol`` of the centre and clear
    ``ECHO_FLOOR`` times the envelope's median over the search window, so
    a trace with no echo there fails instead of peaking near it by chance.
    """
    found = []
    for c in centres:
        win = (times >= c - 2 * tol) & (times <= c + 2 * tol)
        if not win.any():
            raise GateError(f"trace does not cover {c} +- {2 * tol}")
        env = envelope(times, trace)[win]
        k = int(np.argmax(env))
        t_peak, contrast = float(times[win][k]), env[k] / np.median(env)
        if abs(t_peak - c) > tol:
            raise GateError(f"echo at t = {t_peak:.1f}, expected {c} +- {tol}")
        if not contrast >= ECHO_FLOOR:
            raise GateError(f"echo near t = {c} stands {contrast:.2f} x the "
                            f"window median < {ECHO_FLOOR}")
        found.append(t_peak)
    return {"echo_times": found}


def check_traces_agree(a, b, tol):
    """Two traces on the same grid differ by at most ``tol`` anywhere."""
    if a.shape != b.shape:
        raise GateError(f"trace shapes differ: {a.shape} vs {b.shape}")
    dev = float(np.max(np.abs(a - b)))
    if not dev <= tol:
        raise GateError(f"traces differ by {dev:.3e} > {tol:.0e}")
    return {"trace_dev": dev}


def check_lines(peaks, max_rel_error_percent):
    """Peaks for lines i = 2..6 are all matched within the relative error.

    ``peaks`` is the list `qbounce spectrum` writes; each measured frequency
    is compared against the tabulated line, not the package's own value.
    """
    measured = {int(p["i"]): float(p["omega_measured"]) for p in peaks}
    missing = sorted(set(LINES) - set(measured))
    if missing:
        raise GateError(f"lines {missing} not matched")
    errors = {i: 100.0 * (measured[i] - w) / w for i, w in LINES.items()}
    worst = max(abs(e) for e in errors.values())
    if not worst <= max_rel_error_percent:
        raise GateError(f"worst line error {worst:.3f}% > "
                        f"{max_rel_error_percent}%")
    return {"worst_line_error_percent": worst}


def check_retrieval(payload):
    """`qbounce retrieve` output: every fitted value finite."""
    values = [payload["fit_residual_rms"]]
    for s in payload["states"]:
        values += [s["magnitude"], s["phase"]]
    if not payload["states"] or not all(math.isfinite(v) for v in values):
        raise GateError("retrieval produced no or non-finite values")
    return {"fit_residual_rms": payload["fit_residual_rms"]}


def check_scan(path, n_delays):
    """A scan CSV with ``n_delays`` populations, all in [0, 1]."""
    pops, = columns(path, "population")
    if len(pops) != n_delays:
        raise GateError(f"{path}: {len(pops)} delays, expected {n_delays}")
    if pops.min() < 0.0 or pops.max() > 1.0:
        raise GateError(f"{path}: population outside [0, 1]")
    return {}


def particle_energy(z, v):
    """Flight energy v^2/2 + 2z, conserved between pulses under z'' = -2."""
    return 0.5 * v * v + 2.0 * z


def check_energy(path, t_a, t_b, n, tol):
    """Each particle's energy agrees between two post-pulse snapshots.

    Rows are grouped by spin, then by time, in particle order, as
    `qbounce classical-echo --snapshot` writes them.
    """
    t, z, v, s = columns(path, "t", "z", "v", "s")
    worst = 0.0
    for spin in (1.0, -1.0):
        sel = {tt: (s == spin) & (t == tt) for tt in (t_a, t_b)}
        if any(int(m.sum()) != n for m in sel.values()):
            raise GateError(f"{path}: expected {n} particles per snapshot")
        e_a = particle_energy(z[sel[t_a]], v[sel[t_a]])
        e_b = particle_energy(z[sel[t_b]], v[sel[t_b]])
        worst = max(worst, float(np.max(np.abs(e_a - e_b))))
    if not worst <= tol:
        raise GateError(f"snapshot energies drift by {worst:.3e} > {tol:.0e}")
    return {"energy_dev": worst}


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
