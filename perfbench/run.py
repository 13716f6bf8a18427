#!/usr/bin/env python3
"""Repository benchmark: build the benchmark binary from source, run one workload, print the result.

    python3 perfbench/run.py --workload {build|serve|route|churn} --seed N \
        --seconds S --trace {0|1} [--small]

The binary (perfbench/src) is compiled against the sens sources of the
checkout this file sits in, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Its human-readable lines are echoed; the last line
printed is one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer metrics (a layer the workload does not call reads 0) and
writes a Chrome trace to .bench_out/. The exit code is 0 only when every
output check passed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build", "serve", "route", "churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build_binary():
    """Configure (once) and build the binary; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "sens"))):
        fail(f"no sens sources next to perfbench/ in {ROOT}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("building the binary failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def load_schema():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_binary(binary, args):
    """Runs the binary, echoing its report lines; returns (exit code, tagged JSON payloads)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the binary ran longer than {RUN_TIMEOUT_S} s", 1)
    tagged = {}
    for line in proc.stdout.splitlines():
        if line.startswith("@"):
            tag, _, payload = line.partition(" ")
            tagged[tag[1:]] = json.loads(payload)
        else:
            print(line)
    return proc.returncode, tagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="self-test sizes and a fixed amount of work (not for measurement)")
    args = ap.parse_args()

    schema = load_schema()
    binary = build_binary()
    code, tagged = run_binary(binary, args)
    if "result" not in tagged:
        fail(f"the binary exited with {code} and printed no result", 1)
    result = tagged["result"]
    measured = result["metrics"]

    wanted = schema["per_layer" if args.trace else "end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None and args.trace:
            got = {"value": 0.0, "unit": unit}  # the workload does not call this layer
        if got is None or got["value"] is None:
            problems.append(f"metric {name} was not measured")
            continue
        if got["unit"] != unit:
            problems.append(f"metric {name} has unit {got['unit']}, expected {unit}")
            continue
        metrics[name] = {"value": got["value"], "unit": unit}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"]) + len(problems)
    correct = code == 0 and failed == 0
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
