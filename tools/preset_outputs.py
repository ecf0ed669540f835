"""Write every preset pipeline's outputs into one directory.

Usage: python tools/preset_outputs.py OUTDIR

Runs the fig1 classical echo (with phase-space snapshots at t = 55, 60,
65 and 120), the fig2 and fig5 quantum echoes, and the fig4 and fig6
delay scans with their spectrum, peak list and retrieved amplitudes,
through `qbounce.cli.main` from this checkout's `src/`.  Each preset
writes into OUTDIR/<preset>/, twelve files in all, so the outputs of two
checkouts compare with `diff -r`.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbounce.cli import main  # noqa: E402


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


def run(out):
    for preset, commands in pipelines(out):
        where = os.path.join(out, preset)
        os.makedirs(where, exist_ok=True)
        for argv in commands:
            code = main(argv + ["--out-dir", where])
            if code:
                print(f"{preset}: {' '.join(argv)} exited {code}",
                      file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(run(sys.argv[1]))
