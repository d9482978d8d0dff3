#!/usr/bin/env python3
"""Self-tests of the benchmark harness itself. Run from the repository root:

    python3 perfbench/selftest.py

1. cold start: a repetition timed in a process that already ran a workload
   is refused (run.py exits 2 and prints no result);
2. correctness gate: with one expected digest corrupted, run.py exits
   non-zero and reports failed_ops_frac = 1 (failed == attempted);
3. bare directory: with only BENCHMARK.json and perfbench/ present,
   run.py exits non-zero without printing a result.

Each uses check-ring, the quickest workload. Exits 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys

OUT = os.path.join("perfbench", "out", "selftest")
RUN = [sys.executable, os.path.join("perfbench", "run.py"),
       "--workload", "check-ring", "--seed", "1", "--seconds", "1", "--trace", "0"]


def run(cmd, cwd=None):
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result, p.stderr


def cold_start():
    code, result, err = run(RUN + ["--worker-reps", "2"])
    assert code == 2 and result is None, (code, result)
    assert "process that already ran" in err, err
    code, result, _ = run(RUN)
    assert code == 0 and result and result["correct"], (code, result)


def corrupted_digest():
    with open(os.path.join("perfbench", "expected.json")) as f:
        expected = json.load(f)
    expected["check-ring"] = ["0" * 64]
    path = os.path.join(OUT, "expected-corrupt.json")
    with open(path, "w") as f:
        json.dump(expected, f)
    code, result, _ = run(RUN + ["--expected", path])
    assert code != 0 and result is not None, (code, result)
    assert not result["correct"] and result["failed"] == result["attempted"] > 0, result


def bare_directory():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    code, result, _ = run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", "check-ring", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and result is None, (code, result)


def main():
    os.makedirs(OUT, exist_ok=True)
    failures = 0
    for test in (cold_start, corrupted_digest, bare_directory):
        try:
            test()
            print(f"ok   {test.__name__}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {test.__name__}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
