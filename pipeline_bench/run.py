#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark (csb_pipeline_bench).

One run, as BENCHMARK.json's command is invoked:

    python3 pipeline_bench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

builds the benchmark from the checkout's sources (CMake, into .bench_build
or $CARGO_TARGET_DIR), runs one workload and passes the output of
csb_pipeline_bench through; its last stdout line is the JSON result. Build
output goes to stderr. Other options (--scale, --work-dir, --corrupt-rep)
pass through to csb_pipeline_bench. --seconds defaults to BENCHMARK.json's
run_seconds.

Every workload, plain and traced, with one summary:

    python3 pipeline_bench/run.py --all [--seed N] [--seconds S]

prints the seven end-to-end metrics with units, the per-layer table from
the traced run, the tracing overhead and unattributed_s, and the failed
reps. It exits non-zero when any rep failed.

Run from the root of a source checkout; outside one (no src/ next to
pipeline_bench/) it exits with an error before printing any result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "csb_pipeline_bench"
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no csb sources under {ROOT}/src; run from a "
                 "source checkout")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", BINARY, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, BINARY)


def provenance_env():
    """The code identity every result carries: the git sha when the
    checkout is a git repository, else a hash of the benchmarked sources."""
    env = dict(os.environ)
    try:
        top, sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.split()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            raise subprocess.SubprocessError("checkout is not a repository")
    except (OSError, ValueError, subprocess.SubprocessError):
        digest = hashlib.sha256()
        for top in ("src", "pipeline_bench"):
            tree = os.path.join(ROOT, top)
            for dirpath, dirnames, filenames in os.walk(tree):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__")
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
        sha = "tree-" + digest.hexdigest()[:16]
    env["CSB_GIT_SHA"] = sha
    return env


def run_once(binary, args, env):
    """Runs csb_pipeline_bench once from the checkout root; returns
    (stdout, exit code)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.stdout, proc.returncode


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(binary, spec, seed, seconds, env):
    results = {}
    failed = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            stdout, rc = run_once(binary, [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)], env)
            print(f"===== {name} --trace {trace} (exit {rc})")
            print(stdout, end="")
            result = result_of(stdout) if rc == 0 else None
            if result is None or not result["correct"]:
                failed += 1 if result is None else max(1, result["failed"])
            results[(name, trace)] = result

    names = [w["name"] for w in spec["workloads"]]

    def table(title, metrics, trace):
        print(f"\n{title}")
        print(f"  {'metric':32s}{'unit':>9s}" +
              "".join(f"{n:>20s}" for n in names))
        for metric in metrics:
            row = f"  {metric['name']:32s}{metric['unit']:>9s}"
            for n in names:
                r = results.get((n, trace))
                m = r["metrics"].get(metric["name"]) if r else None
                row += f"{m['value']:>20.6g}" if m else f"{'-':>20s}"
            print(row)

    table("End-to-end metrics (plain run; medians over reps)",
          spec["end_to_end"], 0)
    table("Per-layer metrics (traced run; medians over traced reps; "
          "includes trace_overhead_s and unattributed_s)",
          spec["per_layer"], 1)
    reps = sum(r["attempted"] for r in results.values() if r)
    bad = sum(r["failed"] for r in results.values() if r)
    print(f"\nreps attempted {reps}, failed {bad}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--all", action="store_true",
                        help="run every workload, plain and traced")
    args, extra = parser.parse_known_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")
    binary = build()
    env = provenance_env()
    spec = load_spec()
    seconds = args.seconds or str(spec["run_seconds"])
    if args.all:
        return run_all(binary, spec, args.seed, seconds, env)
    stdout, rc = run_once(binary, [
        "--workload", args.workload, "--seed", args.seed,
        "--seconds", seconds, "--trace", args.trace] + extra, env)
    sys.stdout.write(stdout)
    return rc


if __name__ == "__main__":
    sys.exit(main())
