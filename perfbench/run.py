#!/usr/bin/env python3
"""End-to-end benchmark of the abenc encoding stack.

Builds the benchmark program and the shipped abenc_serve binary from the
sources in this checkout (CMake, Release), then runs one workload:

    python3 perfbench/run.py --workload offline-paper --seed 1 \
        --seconds 10 --trace 0

Workloads: offline-paper, wire-bulk, wire-interactive (see
perfbench/README.md). --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ledger. The last line of stdout is the JSON result; the
exit status is nonzero when any job failed its oracle or nothing could be
built. `--self-test` builds and runs the benchmark's own tests instead.

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/, relative
to the current directory.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(out: Path, targets) -> bool:
    """Configures and builds `targets`; output goes to stderr.

    CMake is configured on every call: a current cache makes that cheap,
    a cache left in another build type is switched back to Release, and
    CMake refuses a build directory configured from another checkout's
    sources, so one build directory never measures the wrong tree.
    """
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", "4", "--target", *targets]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def run_benchmark(args) -> int:
    out = build_dir()
    if not build(out, ["abenc_perfbench", "abenc_serve"]):
        return 2
    command = [str(out / "abenc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve", str(out / "abenc" / "net" / "abenc_serve"),
               "--work-dir", str(out / "work")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return result.returncode


def self_test() -> int:
    out = build_dir()
    if not build(out, ["abenc_perfbench", "abenc_serve", "perfbench_test"]):
        return 2
    failures = 0
    if subprocess.run([str(out / "perfbench_test"), str(out)]).returncode:
        failures += 1
    # BENCHMARK.json's per-layer rows are the ledger's rows, in order.
    listed = json.loads(subprocess.run(
        [str(out / "abenc_perfbench"), "--list-metrics"],
        capture_output=True, text=True, check=True).stdout)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = [{k: m[k] for k in ("name", "unit", "better")} for m in listed]
    if spec["per_layer"] != want:
        print("FAIL BENCHMARK.json per_layer differs from the ledger rows",
              file=sys.stderr)
        failures += 1
    else:
        print("PASS BENCHMARK.json per_layer matches the ledger rows")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["offline-paper", "wire-bulk",
                                 "wire-interactive"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
