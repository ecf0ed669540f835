"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload spectroscopy --seeds 1-10

Runs `bench/run.py --trace 0` once per seed, one run at a time, for the
`run_seconds` of `BENCHMARK.json`, and prints for every end-to-end metric the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread:
the distance between the quartiles as a share of the median.
With ``--json PATH`` it also writes every run's result and the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")
SPEC = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    with open(SPEC) as fh:
        seconds = str(json.load(fh)["run_seconds"])
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={m['value']:.4f}"
                       for k, m in result["metrics"].items()), flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{args.workload:15s} {name:14s} median {s['median']:.4f} "
              f"{s['unit']}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
              f"spread {s['spread']:.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
