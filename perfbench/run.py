#!/usr/bin/env python3
"""Builds and runs the repo benchmark (README.md in this directory).

  python3 perfbench/run.py --workload <artifacts|cluster_des|serve_mix>
                           --seed <n> --seconds <s> --trace <0|1>
                           [--expected <digest file>]

Run from the repository root.  The first run configures and builds the
driver and the pvcbench_serve daemon in Release under $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild incrementally.  A build that
is not optimized is refused by scripts/check_bench_build.py.  The last
line of stdout is the driver's result object; with --trace 1 every
per-layer metric of BENCHMARK.json is present, and a layer the workload
does not exercise reads 0.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir: str) -> None:
    """Configure once, then build the driver and the daemon (logs to stderr)."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def commit() -> str:
    """The git commit, or a digest of the sources when there is no .git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--expected", help="artifact digests to check against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2

    bdir = build_dir()
    build(bdir)
    driver = os.path.join(bdir, "perfbench_driver")
    identity = os.path.join(bdir, "identity.json")
    subprocess.run([driver, "--identity", identity], check=True)
    guard = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "check_bench_build.py"),
         identity], stdout=sys.stderr)
    if guard.returncode != 0:
        return 1

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.expected:
        cmd += ["--expected", os.path.abspath(args.expected)]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    # Its own session, so anything the driver leaves behind (the daemon,
    # should the driver die) is killed with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: driver exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    section = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    extra = set(result["metrics"]) - set(declared)
    missing = set(declared) - set(result["metrics"])
    if extra or (missing and args.trace == "0"):
        print(f"run.py: metrics not in BENCHMARK.json {section}: "
              f"{sorted(extra)}; missing: {sorted(missing)}", file=sys.stderr)
        return 1
    for name in missing:
        result["metrics"][name] = {"value": 0, "unit": declared[name]}
    result["metrics"] = dict(sorted(result["metrics"].items()))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
