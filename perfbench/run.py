#!/usr/bin/env python3
"""cmdsmc benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/ (the cmdsmc
library from src/ plus the C++ benchmark program) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs that
program on the workload, prints
every metric by name with its unit, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).
--workload all runs every workload in turn and prefixes each metric with
its workload's name.  Exits 0 when every attempted run passed its checks,
non-zero otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("wedge-paper-1t", "wedge-paper-4t", "axi-io-4t")
# The benchmark program must finish well inside the 180 s a run may take.
PROGRAM_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (root / "src" / "core" / "simulation.h").is_file():
        fail(f"no cmdsmc sources under {root / 'src'}; run from a checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--parallel", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed", 2)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        fail("--seed must be in [0, 2^64)", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / target / "perfbench").resolve()
    program = build(root, build_dir)

    work = build_dir.parent / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(program, work, name, args) for name in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m
                        for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps({key: summary[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if summary["correct"] else 1)


def cpu_times():
    """The system-wide cpu line of /proc/stat (None where unreadable)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def run_workload(program, work, workload, args):
    """Runs the benchmark program on one workload and prints its metrics;
    returns the result, or a failed one when the program crashed or timed
    out."""
    result_path = work / f"{workload}.result.json"
    result_path.unlink(missing_ok=True)
    log_path = work / f"{workload}.log"
    command = [str(program), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--workdir", str(work / workload),
               "--records", str(work / "counters"),
               "--result", str(result_path)]
    before = cpu_times()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=PROGRAM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None

    after = cpu_times()
    print(f"perfbench {workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if before and after and len(before) > 7 and sum(after) > sum(before):
        # Field 8 is steal: time the hypervisor ran something else while a
        # vCPU had work.  It slows the 4-lane workloads far more than its
        # share (README.md, "Reading the numbers").
        steal = (after[7] - before[7]) / (sum(after) - sum(before))
        print(f"  host steal during the run: {100 * steal:.1f}% of vCPU time")
    if code != 0 or not result_path.is_file():
        why = "timed out" if code is None else f"exited with {code}"
        print(f"  benchmark program {why}; last lines of {log_path}:")
        with open(log_path, errors="replace") as log:
            for line in log.readlines()[-10:]:
                print("    " + line.rstrip())
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    result = json.loads(result_path.read_text())
    for note in result["notes"]:
        print(f"  {note}")
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    return result


if __name__ == "__main__":
    main()
