#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate (README.md here).

  python3 perfbench/selftest.py

Copies the recorded artifact digests, flips one byte of one of them,
runs the artifacts workload against the copy and requires the run to
report the mismatch: correct=false, and exactly the flipped file failing
once per pass.  Exits 0 when the gate caught it, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(HERE, "expected_artifacts.txt")) as f:
        lines = f.read().splitlines()
    # Flip one hex digit of one digest: 0 <-> 1, anything else -> 0.
    name, hexdigest = lines[0].split()
    flipped = ("1" if hexdigest[-1] == "0" else "0")
    lines[0] = f"{name} {hexdigest[:-1]}{flipped}"
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".txt", dir=scratch,
                                     delete=False) as f:
        f.write("\n".join(lines) + "\n")
        path = f.name
    try:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "artifacts", "--seed", "1", "--seconds", "1", "--trace", "0",
             "--expected", path],
            cwd=ROOT, capture_output=True, text=True)
    finally:
        os.remove(path)
    if out.returncode != 0:
        print(f"selftest: run.py exited {out.returncode}\n{out.stderr}")
        return 1
    result = json.loads(out.stdout.strip().splitlines()[-1])
    failures = [l for l in out.stderr.splitlines() if "FAILED" in l]
    caught = (not result["correct"] and result["failed"] >= 1 and
              all(name in l for l in failures) and
              len(failures) == result["failed"])
    print(f"selftest: flipped {name}: correct={result['correct']} "
          f"failed={result['failed']} of {result['attempted']} -> "
          f"{'caught' if caught else 'NOT caught'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
