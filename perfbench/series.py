#!/usr/bin/env python3
"""Sets of benchmark runs: collect them, check their spread, compare two, write the baseline.

    python3 perfbench/series.py collect --out A.jsonl [--workloads build,serve] \
        [--seeds 1-10] [--trace 0] [--seconds S] [--verbose]
    python3 perfbench/series.py spread A.jsonl
    python3 perfbench/series.py compare A.jsonl B.jsonl
    python3 perfbench/series.py baseline A.jsonl [TRACED.jsonl] --out perfbench/baseline.json

`collect` runs perfbench/run.py once per workload and seed, in turn, and
appends one JSON line per run: {"workload", "seed", "trace", "result"}.
`spread` prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles(n=4)) and their distance as a share of the
median, against the metric's bound in BENCHMARK.json (steady: under a third
of the bound). `compare` prints both sets' medians and quartiles, the change
of the median, and the share of pairs (runs of the two sets with the same
seed) that the second set wins, ties counting for neither; it exits 1
when a median moved against the metric by more than its bound. `baseline`
summarises a set (and optionally a traced set) into a JSON document.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def schema():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def paired(a_runs, b_runs, metric):
    """(A, B) value pairs of runs with the same seed, or in run order when no seed is shared."""
    a = {r["seed"]: r["result"]["metrics"][metric]["value"] for r in a_runs}
    b = {r["seed"]: r["result"]["metrics"][metric]["value"] for r in b_runs}
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    return list(zip(values(a_runs, metric), values(b_runs, metric)))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def collect(args):
    bench = schema()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for w in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                ok = proc.returncode == 0 and result is not None and result["correct"]
                print(f"== {w} seed {seed}: exit {proc.returncode}"
                      + ("" if ok else "  <-- FAILED"))
                if args.verbose:
                    for line in lines[:-1]:
                        print("   " + line)
                    for name, m in (result or {}).get("metrics", {}).items():
                        print(f"   {name} = {m['value']:.6g} {m['unit']}")
                sys.stdout.flush()
                if result is not None:
                    out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                          "result": result}) + "\n")
                    out.flush()


def spread(args):
    bench = schema()
    runs = by_workload(load(args.runs))
    worst = 0.0
    print(f"{'workload':8} {'metric':14} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6}  verdict")
    for w, rs in runs.items():
        for m in bench["end_to_end"]:
            xs = values(rs, m["name"])
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            share = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if share < m["bound"] / 3 else
                       "within bound" if share <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"{w:8} {m['name']:14} {len(xs):3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{share:8.4f} {m['bound']:6.2f}  {verdict}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")


def compare(args):
    bench = schema()
    a_runs, b_runs = by_workload(load(args.a)), by_workload(load(args.b))
    regressions = 0
    print(f"{'workload':8} {'metric':14} {'A median':>12} {'A q1..q3':>25} {'B median':>12} "
          f"{'B q1..q3':>25} {'change':>8} {'B wins':>7}  verdict")
    for w in a_runs:
        if w not in b_runs:
            continue
        for m in bench["end_to_end"]:
            xa, xb = values(a_runs[w], m["name"]), values(b_runs[w], m["name"])
            if not xa or not xb:
                continue
            qa, qb = quartiles(xa), quartiles(xb)
            change = (qb[1] - qa[1]) / qa[1]
            sign = 1.0 if m["better"] == "higher" else -1.0
            pairs = paired(a_runs[w], b_runs[w], m["name"])
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            worse = -sign * change
            verdict = "agree" if worse <= m["bound"] else "WORSE"
            regressions += verdict != "agree"
            print(f"{w:8} {m['name']:14} {qa[1]:12.6g} {qa[0]:12.6g}..{qa[2]:<12.6g}"
                  f"{qb[1]:12.6g} {qb[0]:12.6g}..{qb[2]:<12.6g}{change:+8.2%} "
                  f"{wins / len(pairs):7.0%}  {verdict} (bound {m['bound']:.2f})")
    sys.exit(1 if regressions else 0)


def baseline(args):
    bench = schema()

    def summarise(runs, metrics):
        out = {}
        for w, rs in by_workload(runs).items():
            rows = {}
            for m in metrics:
                xs = values(rs, m["name"])
                if not xs:
                    continue
                q1, med, q3 = quartiles(xs)
                rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                   "runs": len(xs)}
            out[w] = {"seeds": sorted(r["seed"] for r in rs), "metrics": rows}
        return out

    doc = {
        "note": "Generated by perfbench/series.py baseline from repeated runs of "
                "perfbench/run.py, one per seed; medians and quartiles per workload.",
        "machine": {"cpus": os.cpu_count(), "system": platform.system(),
                    "machine": platform.machine(), "python": platform.python_version()},
        "run_seconds": bench["run_seconds"],
        "end_to_end": summarise(load(args.runs), bench["end_to_end"]),
    }
    if args.traced:
        doc["per_layer"] = summarise(load(args.traced), bench["per_layer"])
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--verbose", action="store_true",
                   help="echo each run's report lines and metrics")
    s = sub.add_parser("spread")
    s.add_argument("runs")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    b = sub.add_parser("baseline")
    b.add_argument("runs")
    b.add_argument("traced", nargs="?")
    b.add_argument("--out", required=True)
    args = ap.parse_args()
    {"collect": collect, "spread": spread, "compare": compare, "baseline": baseline}[args.cmd](args)


if __name__ == "__main__":
    main()
