#!/usr/bin/env python3
"""End-to-end InterWeave benchmark: builds the harness and runs a workload.

Builds the harness (perfbench/CMakeLists.txt, which compiles the runtime
from ../src) into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload commit_rf1 --seed 7 --seconds 10 --trace 0

Prints the harness's full report line (host metadata, every metric with its
sample count, the problems the checks found) and, as the last line, the
summary object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.

    --workload all      runs every workload in turn
    --selftest          builds and runs the harness's own tests instead

Everything it writes stays under the checkout: .bench_build/ for the build
and .bench_run/ for journals, removed after each run. Exits non-zero, with
no summary line, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_run"
WORKLOADS = ["commit_rf1", "read_hetero", "read_turns", "small_sharded"]
# Beyond --seconds, a run sets up, checks and recovers; this is its allowance.
RUN_MARGIN_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, target, extra_cmake=()):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "build.ninja").exists() and not (build_dir / "Makefile").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), *gen,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *extra_cmake]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(build_dir), "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        base = ROOT / top
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_one(workload, seed, seconds, trace):
    """Runs the harness once; returns (exit code, stdout lines)."""
    work = RUNS / f"{workload}-{os.getpid()}"
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    timeout = seconds + RUN_MARGIN_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: timed out after {timeout:g}s")
        return 1, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    return proc.returncode, out.splitlines()


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    d = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in d["per_layer" if trace else "end_to_end"]]


def summary_line(line, trace):
    """The harness summary narrowed to the declared metrics; None when it is
    malformed or lacks one of them."""
    try:
        summary = json.loads(line)
    except ValueError:
        return None
    if (not isinstance(summary, dict)
            or set(summary) != {"correct", "attempted", "failed", "metrics"}
            or summary["attempted"] < 1):
        return None
    names = declared_metrics(trace)
    missing = [n for n in names if n not in summary["metrics"]]
    if missing:
        log(f"missing metrics: {', '.join(missing)}")
        return None
    summary["metrics"] = {n: summary["metrics"][n] for n in names}
    return json.dumps(summary)


def selftest():
    test_build = ROOT / ".bench_build" / "perfbench-tests"
    if not build(test_build, "perfbench_test", ["-DPERFBENCH_TESTS=ON"]):
        return 1
    unit = subprocess.run([str(test_build / "perfbench_test")])
    short = subprocess.run([sys.executable, str(HERE / "tests" / "test_short_run.py")])
    return 0 if unit.returncode == 0 and short.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if not build(BUILD, "perfbench"):
        log("build failed")
        return 1
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code, lines = run_one(workload, args.seed, args.seconds, args.trace)
        summary = summary_line(lines[-1], args.trace) if code == 0 and lines else None
        if summary is None:
            log(f"{workload}: run failed (exit {code})")
            return 1
        lines[-1] = summary
        print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
