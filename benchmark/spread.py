#!/usr/bin/env python3
"""Run the benchmark as the driver does and hold it against its own bounds.

    python3 benchmark/spread.py collect OUT.json [--runs 10] [--first-seed 1]
            [--workload NAME ...] [--trace 0|1]
    python3 benchmark/spread.py compare A.json B.json

`collect` reads BENCHMARK.json, runs its command once per seed on every
workload, and writes every value to OUT.json. For each end-to-end metric it
prints the median and the spread the driver computes: the distance between the
first and third quartile of the runs (statistics.quantiles, n=4) as a share of
their median, next to the metric's bound.

`compare` takes two such files, A the baseline and B the candidate. Per
workload and end-to-end metric it prints both medians, how much worse B is as
a share of A, the bound, and a verdict: `ok`, `worse` (B's median is worse by
more than the bound) or `unresolved` (either side's spread is wider than the
bound, so the medians cannot tell). It exits 1 unless every verdict is `ok`.

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(contract, workload, seed, trace):
    command = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                 f"failed, correct={result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """Interquartile distance as a share of the median, as the driver takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(args):
    contract = load_contract()
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    out = {}
    for workload in workloads:
        runs = [run_once(contract, workload, args.first_seed + i, args.trace)
                for i in range(args.runs)]
        out[workload] = {name: [r[name] for r in runs] for name in runs[0]}
        print(f"{workload}", flush=True)
        if args.trace:
            for name, values in out[workload].items():
                print(f"  {name:<44} median {statistics.median(values):>16.6g}")
            continue
        for metric in contract["end_to_end"]:
            values = out[workload][metric["name"]]
            s = spread(values)
            flag = ""
            if len(set(values)) == 1:
                flag = "  CONSTANT"
            elif metric["name"] != "setup_s" and s > metric["bound"]:
                flag = "  WIDER THAN THE BOUND"
            elif metric["name"] != "setup_s" and s > metric["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {metric['name']:<22} median {statistics.median(values):>16.6g} "
                  f"{metric['unit']:<6} spread {s:8.4%}  bound {metric['bound']:.2%}{flag}",
                  flush=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)


def compare(args):
    contract = load_contract()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    bad = 0
    for workload in a:
        print(workload)
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a[workload][name], b[workload][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            if name != "setup_s" and max(spread(va), spread(vb)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"  {name:<22} {ma:>16.6g} {mb:>16.6g} {metric['unit']:<6} "
                  f"worse by {worse:+8.4%}  bound {bound:.2%}  {verdict}")
    sys.exit(1 if bad else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workload", action="append")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.set_defaults(go=collect)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(go=compare)
    args = parser.parse_args()
    args.go(args)


if __name__ == "__main__":
    main()
