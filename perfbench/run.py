#!/usr/bin/env python3
"""Builds and runs the FarGo end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

The first form builds the fargo library and the benchmark driver from
source (Release, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs one workload and passes the driver's output
through; its last line is the JSON result. Traced runs also write Chrome
traces under the build directory's traces/.

--smoke runs every workload of BENCHMARK.json at a tiny size and checks
that each run passes its output checks, emits exactly the metrics
BENCHMARK.json names with their units, and reproduces its deterministic
metrics when run twice with the same seed, traced and untraced.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(SRC):
        sys.exit("perfbench: fargo sources not found (expected %s); run from "
                 "the root of a full checkout" % os.path.normpath(SRC))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run(binary, args):
    """Runs the driver; returns (exit code, stdout lines)."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    proc = subprocess.run([binary] + args + ["--out-dir", traces],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def report_of(lines):
    for line in lines:
        if line.startswith("report "):
            return json.loads(line[len("report "):])
    return {}


def smoke(binary):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        exact = {0: [], 1: []}
        for trace in (0, 0, 1, 1):
            code, lines = run(binary, ["--workload", w, "--seed", "7",
                                       "--seconds", "1", "--trace",
                                       str(trace), "--smoke"])
            where = "%s --trace %d" % (w, trace)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                problems.append("%s: failed (exit %d)\n  %s" %
                                (where, code, "\n  ".join(lines[-8:])))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, units %s" % (
                                    where, sorted(set(want[trace]) - set(got)),
                                    sorted(set(got) - set(want[trace])),
                                    sorted(k for k in got.keys() & want[trace].keys()
                                           if got[k] != want[trace][k])))
            exact[trace].append({k: v["value"]
                                 for k, v in report_of(lines).items()
                                 if v["exact"]})
        for trace, runs in exact.items():
            if len(runs) == 2 and runs[0] != runs[1]:
                diff = sorted(k for k in runs[0] if runs[0][k] != runs[1].get(k))
                problems.append("%s --trace %d: deterministic metrics differ "
                                "between two runs of one seed: %s" %
                                (w, trace, diff))
        print("smoke %s: checked" % w, flush=True)
    for p in problems:
        print("SMOKE FAILED " + p)
    print("smoke: " + ("OK" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    binary = build()
    if a.smoke:
        return smoke(binary)
    if not a.workload:
        p.error("--workload is required")
    code, lines = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                               "--seconds", str(a.seconds),
                               "--trace", str(a.trace)])
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
