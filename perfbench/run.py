#!/usr/bin/env python3
"""The repository benchmark: load-contended, chaos-faults and check-ring.

Run from the repository root:

    python3 perfbench/run.py --workload load-contended --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload chaos-faults --seed 1 --seconds 30 --trace 1

It builds perfbench/worker with dune, then starts one fresh worker process
per timed repetition, so every repetition pays the keygen and memo-table
warm-up a CLI invocation pays. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones (and writes a span file under
perfbench/out/). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Exit codes: 0 correct, 1 a
correctness check failed (the JSON line says which operations), 2 the
benchmark could not run (no result printed). See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER_TARGET = "./perfbench/worker/worker.exe"
WORKER = os.path.join("_build", "default", "perfbench", "worker", "worker.exe")
OUT_DIR = os.path.join("perfbench", "out")
DEFAULT_SEED = 1
SETUP_ONLY_SPAWNS = 4
WORKER_TIMEOUT_S = 170

# rep_s: nominal seconds per repetition, which sets how many repetitions
# fill --seconds; op: the workload's own name and unit for ops_per_s.
# The work in one repetition is fixed in the worker. Repetition k of a
# run times input k of the seed, each in a fresh process.
WORKLOADS = {
    "load-contended": {"rep_s": 5.5, "op": ("swaps_per_s", "swaps/s")},
    "chaos-faults": {"rep_s": 6.0, "op": ("runs_per_s", "plans/s")},
    "check-ring": {"rep_s": 3.0, "op": ("states_per_s", "states/s")},
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec():
    path = "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "worker", "dune")):
        if not os.path.exists(needed):
            raise BenchError(f"not a source checkout: {needed} is missing")
    cmd = ["dune", "build", "--root", ".", WORKER_TARGET]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0 or not os.path.exists(WORKER):
        raise BenchError(f"build failed:\n{p.stdout}{p.stderr}")


def spawn(workload, seed, block, mode, extra=()):
    """Run the worker in a fresh process; returns its records, each with
    setup_s measured from the moment this process started the worker."""
    cmd = [WORKER, workload, "--seed", str(seed), "--block", str(block), "--mode", mode, *extra]
    started = time.time()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        raise BenchError(f"worker exited {p.returncode}: {' '.join(cmd)}\n{p.stderr}")
    records = [json.loads(line) for line in p.stdout.splitlines() if line.startswith("{")]
    if not records:
        raise BenchError(f"worker printed no record: {' '.join(cmd)}")
    for r in records:
        r["setup_s"] = r["t_first_call"] - started
        if r.get("warm_before", 0) != 0:
            raise BenchError(
                f"repetition timed in a process that already ran {r['warm_before']} workload(s); "
                "every timed repetition must start cold")
    return records


def judge(workload, seed, records, expected_path):
    """Correctness over a run's records: each worker's own checks, the
    same digest and verdicts wherever one input ran twice, and, at the
    default seed, the expected digest of each input. Returns (attempted,
    failed, problems)."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [e for r in records for e in r["errors"]]
    by_input = {}
    for r in records:
        by_input.setdefault(r["block"], []).append(r)
    with open(expected_path) as f:
        expected = json.load(f)[workload]
    for block, rs in sorted(by_input.items()):
        digests = {r["digest"] for r in rs if r["digest"]}
        if len(digests) > 1 or len({tuple(r["verdicts"]) for r in rs}) > 1:
            problems.append(f"two runs of input {block} disagree")
            failed = attempted
        want = expected[block] if block < len(expected) else None
        if seed == DEFAULT_SEED and digests and want and digests != {want}:
            problems.append(f"input {block}: digest {min(digests)[:16]} is not the expected {want[:16]}")
            failed = attempted
    return attempted, failed, problems


def host_line(record):
    h = record["host"]
    domains = "two domains" if h["jobs"] >= 2 else "one domain: par unmeasured"
    return (f"host: domains_available={h['domains_available']} sha_extensions={h['sha_extensions']} "
            f"ocaml={h['ocaml']} jobs={h['jobs']} ({domains})")


def run_plain(args, spec, expected_path):
    w = WORKLOADS[args.workload]
    reps = max(1, round(args.seconds / w["rep_s"]))
    extra = ("--reps", str(args.worker_reps)) if args.worker_reps > 1 else ()
    records = []
    for block in range(reps):
        records += spawn(args.workload, args.seed, block, "plain", extra)
    setups = [r["setup_s"] for r in records]
    for _ in range(SETUP_ONLY_SPAWNS):
        setups += [r["setup_s"] for r in spawn(args.workload, args.seed, 0, "setup")]
    attempted, failed, problems = judge(args.workload, args.seed, records, expected_path)
    rates = [r["ops"] / r["wall_s"] for r in records]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    op_name, op_unit = w["op"]
    print(host_line(records[0]))
    print(f"workload={args.workload} seed={args.seed} size={records[0]['size']} repetitions={len(records)} "
          f"setups={len(setups)}")
    print(f"  {op_name} = {values['ops_per_s']:.6g} {op_unit} "
          f"(median of {len(rates)}; min {min(rates):.6g}, max {max(rates):.6g})")
    return values, attempted, failed, problems, spec["end_to_end"]


def run_traced(args, spec, expected_path):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    plain = spawn(args.workload, args.seed, 0, "plain")[0]
    traced = spawn(args.workload, args.seed, 0, "traced", ("--spans", spans))[0]
    attempted, failed, problems = judge(args.workload, args.seed, [plain, traced], expected_path)
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = (traced["wall_s"] / plain["wall_s"] - 1.0) * 100.0
    # Keygen's estimated share of the untraced run's busy time (one
    # domain); check-ring creates its identities during set-up.
    busy_s = plain["wall_s"] + (plain["setup_s"] if args.workload == "check-ring" else 0.0)
    layers["crypto.keygen_share"] = \
        layers["crypto.keygen_ms"] * layers["crypto.identities"] / (busy_s * 1e3)
    values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
    print(host_line(plain))
    print(f"workload={args.workload} seed={args.seed} size={traced['size']} traced; spans in {spans}")
    return values, attempted, failed, problems, spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=os.path.join(BENCH_DIR, "expected.json"),
                    help="expected digests at the default seed (self-tests swap it)")
    ap.add_argument("--worker-reps", type=int, default=1,
                    help="repetitions per worker process; above 1 only for the cold-start self-test")
    args = ap.parse_args()
    try:
        spec = load_spec()
        build()
        run = run_traced if args.trace else run_plain
        values, attempted, failed, problems, metrics = run(args, spec, args.expected)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    failed_frac = failed / attempted if attempted else 1.0
    for m in metrics:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"  failed_ops_frac = {failed_frac:.6g} fraction ({failed} of {attempted} operations)")
    for p in problems:
        print(f"  FAILED: {p}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
