"""Write every preset pipeline's outputs into one directory, or measure
the quantum presets' error budget.

Usage: python tools/preset_outputs.py OUTDIR
       python tools/preset_outputs.py --budget OUTDIR
       python tools/preset_outputs.py --diff OLD NEW

Runs the fig1 classical echo (with phase-space snapshots at t = 55, 60,
65 and 120), the fig2 and fig5 quantum echoes, and the fig4 and fig6
delay scans with their spectrum, peak list and retrieved amplitudes,
through `qbounce.cli.main` from this checkout's `src/`.  Each preset
writes into OUTDIR/<preset>/, twelve files in all, so the outputs of two
checkouts compare with `diff -r`.

--budget runs the four quantum presets into OUTDIR/<variant>/: at the
default steps per sigma, at half and at double it, and at twice the
preset's basis size.  It prints the largest absolute change of every
numeric output column (CSV columns, and the fields of the peak and
amplitude JSON lists) from the default run in each variant, and the ratio
of the change at double the steps to the change at twice the basis size:
below 1, the basis, not the stepper, bounds that output.

--diff compares two such output directories file by file.  It prints
``identical`` for a byte-identical file, ``header`` and the header keys
that differ for a CSV whose data rows are byte-identical, and otherwise
each column's largest absolute change.  It exits 1 if a file is missing
on either side or a column is missing or changes length.
"""

import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbounce.cli import main, parse_config_text, read_scan_csv  # noqa: E402
from qbounce.quantum import DEFAULT_STEPS_PER_SIGMA  # noqa: E402

QUANTUM = ("fig2", "fig5", "fig4", "fig6")

# variant -> config keys it replaces, from the preset's resolved config
STEPS = DEFAULT_STEPS_PER_SIGMA
VARIANTS = {
    "half_steps": lambda cfg: {"steps_per_sigma": STEPS // 2},
    "double_steps": lambda cfg: {"steps_per_sigma": 2 * STEPS},
    "double_basis": lambda cfg: {"basis_size": 2 * cfg["basis_size"]},
}


def pipelines(out):
    """(preset, argument lists) of each preset's pipeline, writing to
    ``out``/<preset>."""
    yield "fig1", [["classical-echo", "--preset", "fig1",
                    "--snapshot", "55,60,65,120"]]
    for preset in ("fig2", "fig5"):
        yield preset, [["quantum-echo", "--preset", preset]]
    for preset in ("fig4", "fig6"):
        scan = os.path.join(out, preset, "scan.csv")
        yield preset, [["scan", "--preset", preset],
                       ["spectrum", "--in", scan],
                       ["retrieve", "--in", scan]]


def _from_config(argv, where, keys):
    """``argv`` with its ``--preset`` replaced by a config file in ``where``:
    the preset's resolved config with the entries ``keys(cfg)`` replaced."""
    if "--preset" not in argv:
        return argv
    k = argv.index("--preset")
    ref = resources.files("qbounce.presets") / f"{argv[k + 1]}.cfg"
    cfg = parse_config_text(ref.read_text(), argv[0])
    cfg |= keys(cfg)
    path = os.path.join(where, "run.cfg")
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in cfg.items())
    return argv[:k] + ["--config", path] + argv[k + 2:]


def run(out, presets=None, keys=None):
    """Run the pipelines of ``presets`` (all by default) into ``out``, each
    preset's config changed by ``keys`` if given."""
    for preset, commands in pipelines(out):
        if presets is not None and preset not in presets:
            continue
        where = os.path.join(out, preset)
        os.makedirs(where, exist_ok=True)
        for argv in commands:
            if keys is not None:
                argv = _from_config(argv, where, keys)
            code = main(argv + ["--out-dir", where])
            if code:
                print(f"{preset}: {' '.join(argv)} exited {code}",
                      file=sys.stderr)
                return code
    return 0


def _columns(path):
    """{column: values} of one output file: a CSV's columns, or the numeric
    fields of a JSON list of records (the amplitudes' ``states``) and of
    the JSON object around it."""
    if path.suffix == ".csv":
        _, names, data = read_scan_csv(path)
        return dict(zip(names, data.T))
    doc = json.loads(path.read_text())
    rows = doc if isinstance(doc, list) else doc["states"]
    cols = {k: np.array([r[k] for r in rows], dtype=float)
            for k in (rows[0] if rows else {})}
    if isinstance(doc, dict):
        cols |= {k: np.array([v]) for k, v in doc.items()
                 if isinstance(v, float)}
    return cols


def changes(old, new):
    """{(preset, file, column): largest |new - old|} over the files of the
    output directory ``old``; nan where the two columns differ in length."""
    out = {}
    for path in sorted(Path(old).glob("*/*")):
        other = Path(new) / path.parent.name / path.name
        a, b = _columns(path), _columns(other) if other.exists() else {}
        for col in a:
            key = (path.parent.name, path.name, col)
            out[key] = (float(np.max(np.abs(b[col] - a[col]), initial=0.0))
                        if col in b and len(b[col]) == len(a[col]) else np.nan)
    return out


def _header(text):
    """{key: [values]} of a file's '# key = value' lines, and its other
    lines."""
    keys, rest = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            keys.setdefault(k.strip(), []).append(v.strip())
        else:
            rest.append(line)
    return keys, rest


def diff(old, new):
    """Print how each output file moved from ``old`` to ``new``; 1 if a
    file or column is missing on one side or a column changes length."""
    old, new = Path(old), Path(new)
    names = sorted({p.relative_to(d).as_posix()
                    for d in (old, new) for p in d.glob("*/*")})
    moved, code = changes(old, new), 0
    for name in names:
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            print(f"{name}: missing in {new if a.exists() else old}")
            code = 1
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            continue
        (ka, ra), (kb, rb) = _header(a.read_text()), _header(b.read_text())
        if ra == rb:
            keys = sorted(k for k in ka.keys() | kb.keys()
                          if ka.get(k) != kb.get(k))
            print(f"{name}: header " + " ".join(keys))
            continue
        cols = {key[2]: x for key, x in moved.items()
                if f"{key[0]}/{key[1]}" == name}
        code |= any(np.isnan(x) for x in cols.values())
        print(f"{name}: " + ", ".join(f"{c} {x:.2g}" for c, x in cols.items()))
    return int(code)


def budget(out):
    base = os.path.join(out, "default")
    code = run(base, QUANTUM)
    for variant, keys in VARIANTS.items():
        code = code or run(os.path.join(out, variant), QUANTUM, keys)
    if code:
        return code
    moved = {v: changes(base, os.path.join(out, v)) for v in VARIANTS}
    print(f"default steps_per_sigma = {STEPS}; largest "
          "|change| from the default run")
    print(f"{'preset':6} {'file':12} {'column':18} {'half_steps':>14} "
          f"{'double_steps':>14} {'double_basis':>14} {'steps/basis':>14}")
    for key in moved["half_steps"]:
        half, double, basis = (moved[v][key] for v in VARIANTS)
        ratio = double / basis if basis else np.nan
        print(f"{key[0]:6} {key[1]:12} {key[2]:18} "
              + " ".join(f"{x:14.2g}" for x in (half, double, basis, ratio)))
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--budget"] and len(args) == 2:
        sys.exit(budget(args[1]))
    if args[:1] == ["--diff"] and len(args) == 3:
        sys.exit(diff(args[1], args[2]))
    if len(args) != 1 or args[0].startswith("--"):
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(run(args[0]))
