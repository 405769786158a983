#!/usr/bin/env python3
"""Repo benchmark: host cost of a monitored simulated run.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator and the benchmark binary from source into
.bench_build/ (CMake, Release), clears every MPIM_* environment override,
runs one workload and prints its report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones. Exits non-zero without a result when the build or the run fails.

Extra modes:
    --workload all          run the three workloads one after another and
                            print each one's report and JSON line
    --inject-slowdown       add a host spin worth ~20% of a control run to
                            the benchmark's own rank function (self-check)
    --make-reference SEEDS  regenerate perfbench/reference.txt for seeds
                            "a-b" (values equal for every seed are stored
                            once, under "*")
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("halo_bare", "cg_fullstack", "sampler_threads")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("MPIM_")}


def build():
    """Configures (once) and builds the benchmark binary.

    Returns (binary path, build root), or None when the build fails.
    """
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    env = clean_env()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench"), build_root


def expected_metrics(trace):
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, env=clean_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        log(out)
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def make_reference(binary, seeds):
    lo, _, hi = seeds.partition("-")
    seed_list = range(int(lo), int(hi or lo) + 1)
    lines = ["# Reference values of the deterministic phases, checked by "
             "every run.",
             "# Regenerate: python3 perfbench/run.py --make-reference 0-63",
             "# <workload> <key> <seed|*> <value>"]
    for w in WORKLOADS:
        per_seed = {}
        for s in seed_list:
            code, out = run_binary(binary, ["--workload", w, "--seed", str(s),
                                            "--seconds", "1",
                                            "--emit-reference"])
            if code != 0:
                log("perfbench: reference run %s seed %d failed" % (w, s))
                return 1
            for line in out:
                if line.startswith("ref "):
                    _, key, value = line.split()
                    per_seed.setdefault(key, {})[s] = value
            log("reference %s seed %d done" % (w, s))
        for key, values in sorted(per_seed.items()):
            if len(set(values.values())) == 1:
                lines.append("%s %s * %s" % (w, key, next(iter(values.values()))))
            else:
                lines.extend("%s %s %d %s" % (w, key, s, v)
                             for s, v in sorted(values.items()))
    with open(os.path.join(HERE, "reference.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def run_workload(binary, workload, args, trace_dir):
    cmd = ["--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.txt"),
           "--trace-dir", trace_dir]
    if args.inject_slowdown:
        cmd.append("--inject-slowdown")
    code, out = run_binary(binary, cmd)
    if code != 0 or not out:
        log("\n".join(out))
        log("perfbench: benchmark binary exited with code %d" % code)
        return 1
    try:
        result = json.loads(out[-1])
    except ValueError:
        log("\n".join(out))
        log("perfbench: benchmark binary printed no result line")
        return 1
    want = expected_metrics(args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        log("\n".join(out))
        log("perfbench: metrics %s do not match BENCHMARK.json %s"
            % (sorted(result["metrics"]), sorted(want)))
        return 1
    print("\n".join(out), flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-slowdown", action="store_true")
    ap.add_argument("--make-reference", metavar="SEEDS")
    args = ap.parse_args()
    if not args.make_reference and not args.workload:
        ap.error("--workload is required")

    built = build()
    if built is None:
        log("perfbench: build failed")
        return 1
    binary, build_root = built
    if args.make_reference:
        return make_reference(binary, args.make_reference)

    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = run_workload(binary, workload, args, trace_dir)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
