#!/usr/bin/env python3
"""Build and run the envnws deployment benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload deploy-star1k --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and passes the benchmark's output through: a readable report,
then one JSON line {"correct", "attempted", "failed", "metrics"}.
Traced runs (--trace 1) also write their spans to
<build dir>/traces/<workload>-seed<n>.tsv.

Other modes:
    --self-test            build and run the benchmark's own unit tests
    --record-references    regenerate perfbench/references.tsv for every
                           seed variant of --workload, or of every
                           workload when none is given (takes minutes)
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.tsv")
WORKLOADS = ["deploy-star1k", "deploy-dumbbell", "monitor-star64"]
VARIANTS = 16  # must match kVariants in src/workload.hpp
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 4))
    for command in (configure, ["cmake", "--build", out, "-j", jobs, "--target"] + targets):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))
    return out


def run_binary(command):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out after %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def record_references(binary, workloads):
    """Re-record `workloads`, keeping the other workloads' lines."""
    lines = []
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as f:
            lines = [line.rstrip("\n") for line in f
                     if line.strip() and line.split("\t", 1)[0] not in workloads]
    for workload in workloads:
        for variant in range(VARIANTS):
            code, out = run_binary([binary, "--record", "--workload", workload,
                                    "--seed", str(variant), "--seconds", "0.1"])
            if code != 0:
                sys.stdout.write(out)
                sys.exit("perfbench: recording %s variant %d failed" % (workload, variant))
            lines += [line.split("\t", 1)[1] for line in out.splitlines()
                      if line.startswith("REF\t")]
    with open(REFERENCES, "w") as f:
        f.write("".join(line + "\n" for line in lines))
    print("wrote %d reference lines to %s" % (len(lines), REFERENCES))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)
    out = build(["perfbench"])
    binary = os.path.join(out, "perfbench")
    if args.record_references:
        record_references(binary, [args.workload] if args.workload else WORKLOADS)
        return
    if args.workload is None:
        parser.error("--workload is required")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--references", REFERENCES]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    code, stdout = run_binary(command)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
