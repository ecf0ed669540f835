"""qbounce benchmark: CLI pipelines on seeded configs, checked by physics gates.

Usage, from the repository root:

    python3 bench/run.py --workload spectroscopy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run drives `qbounce.cli.main` in this process, op after op, on configs
drawn from the seed, for about ``--seconds`` seconds (at least three ops),
and checks every op against its gates.  A traced run traces every second op,
starting with the second, so the cold first op is always an untraced one.
The last line of standard output is one JSON object: `correct`, `attempted`,
`failed`, and the end-to-end metrics (``--trace 0``) or the per-layer
metrics of the traced ops (``--trace 1``).  ``--workload all`` runs each
workload in its own process and prints every metric by workload, name and
unit.  Results, the machine stamp and, when tracing, the spans are written to
`.bench_out/`.
"""

import os
import sys
import time

# pin BLAS/OpenMP threads before anything imports numpy; the CLI's
# --threads flag sets them too late to take effect
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 11    # fresh interpreters per run; the median is reported
MIN_OPS = 3          # per run, however long an op takes


def _import_package():
    """Import qbounce.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import qbounce.cli
    if not os.path.abspath(qbounce.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qbounce imported from {qbounce.cli.__file__}")
    return qbounce.cli


def setup_probe(workload, seed, workdir):
    """Child process of `measure_setup`: import and write the first configs."""
    _import_package()
    import random
    import workloads
    workloads.WORKLOADS[workload](random.Random(seed), workdir).write_configs()
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(workload, seed, workdir):
    """Median time from a fresh interpreter until the first op is ready.

    Returns the medians over the interpreters at reference speed and in wall
    time.
    """
    import statistics
    import subprocess
    import speed
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", workdir,
           "--workload", workload, "--seed", str(seed)]
    refs, walls = [], []
    for k in range(SETUP_PROBES + 1):  # the first fills the bytecode cache
        before = speed.kernel()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
        # sample again only after the child has exited: it slows the kernel
        after = speed.kernel()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
        if k:
            walls.append(wall)
            refs.append(speed.at_reference(wall, [before, after]))
    return statistics.median(refs), statistics.median(walls)


def machine_stamp(args):
    import platform
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_op(cli, op, meter):
    """Run the op's CLI commands inside ``meter``; gate values or an error."""
    try:
        with meter:
            for argv in op.argvs:
                rc = cli.main(argv)  # looked up per call, so tracing can wrap it
                if rc != 0:
                    raise RuntimeError(f"{argv[0]} exited {rc}")
        return op.check()
    except (Exception, SystemExit) as exc:
        return f"{type(exc).__name__}: {exc}"


def run_workload(args):
    import json
    import random
    import resource
    import shutil
    import statistics

    cli = _import_package()
    import speed
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        stamp = machine_stamp(args)
        print("machine:", json.dumps(stamp))
        setup_s, setup_wall_s = measure_setup(args.workload, args.seed, work)

        make_op = workloads.WORKLOADS[args.workload]
        rng = random.Random(args.seed)
        tracer = tracing.Tracer() if args.trace else None
        ops = []
        start = time.perf_counter()
        while True:
            k = len(ops)
            wd = os.path.join(work, f"op{k}")
            os.makedirs(wd)
            op = make_op(rng, wd)
            op.write_configs()
            traced = tracer is not None and k % 2 == 1
            meter = speed.Meter()
            if traced:
                # spans read the meter's clock, which leaves out sampling
                tracer.start_op(k, meter.clock)
                tracer.install()
            op_start = time.perf_counter()
            try:
                result = run_op(cli, op, meter)
            finally:
                if traced:
                    tracer.uninstall()
            shutil.rmtree(wd)
            ok = isinstance(result, dict)
            ops.append({"op": k, "traced": traced, "wall_s": meter.wall_s,
                        "ref_s": meter.ref_s,
                        "elapsed_s": time.perf_counter() - op_start, "ok": ok,
                        "gates" if ok else "error": result})
            print(f"op {k}{' traced' if traced else ''}: {meter.wall_s:.3f} s "
                  f"wall, {meter.ref_s:.3f} s at reference speed, "
                  f"{'ok' if ok else 'FAILED'} {result}")
            typical = statistics.median(o["elapsed_s"] for o in ops)
            if (len(ops) >= MIN_OPS and
                    time.perf_counter() - start + typical > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops)

    def median(key, traced):
        return statistics.median(o[key] for o in ops if o["traced"] == traced)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "pipeline_s": median("ref_s", False),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        # span times at reference speed, like the ops': scaled by the
        # op's reference-to-wall factor
        per_op = [tracer.metrics(o["op"], o["ref_s"] / o["wall_s"])
                  for o in ops if o["traced"]]
        values = {name: statistics.median(m[name] for m in per_op)
                  for name in per_op[0]}
        # op 0 runs cold, so it is compared with no traced op
        warm = [o["ref_s"] for o in ops if not o["traced"] and o["op"] > 0]
        values["trace.overhead_s"] = (median("ref_s", True) -
                                      statistics.median(warm))
        units = tracing.UNITS
        tracer.write(os.path.join(OUT, f"{tag}-spans.jsonl"))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:15s} {'failed_ops':32s} {failed}/{len(ops)}")
    print(f"{args.workload:15s} {'setup_wall_s':32s} {setup_wall_s:.6g} s")
    print(f"{args.workload:15s} {'pipeline_wall_s':32s} "
          f"{median('wall_s', False):.6g} s")
    if tracer is not None and tracer.missing:
        print("not wrapped (absent from the package):",
              ", ".join(tracer.missing))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"machine": stamp, "ops": ops, **result,
                   "setup_wall_s": setup_wall_s,
                   "not_wrapped": tracer.missing if tracer else []},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; print every metric by name."""
    import json
    import subprocess
    import workloads
    results, rc = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:15s} {metric:32s} {m['value']:.6g} {m['unit']}")
        print(f"{name:15s} {'failed_ops':32s} {res['failed']}/{res['attempted']}")
        rc |= not res["correct"]
    print(json.dumps(results))
    return rc


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qbounce", "cli.py")):
        print(f"bench: no qbounce package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
