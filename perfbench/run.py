#!/usr/bin/env python3
"""Builds and runs the clogic end-to-end benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        Builds perfbench/ (release), runs one workload once, and prints the
        benchmark's result as the last line of stdout.

    python3 perfbench/run.py --repeat <n> [--workload <name>] [--seed <first>]
                             [--seconds <s>] [--trace <0|1>]
        Runs every workload (or only the one named) n times with seeds
        first..first+n-1 and prints, per metric, the median, the quartiles
        and the relative spread (interquartile distance over the median).

    python3 perfbench/run.py --selfcheck [--seed <n>]
        Determinism self-check: the same seed must give byte-identical op
        sequences and expected-answer digests, and the next seed must change
        both.

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the working
directory). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["wire_lookup", "goal_query", "durable_update"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        fail("run from the root of a clogic checkout (Cargo.toml and crates/ not found)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"]
    # Cargo's progress goes to stderr, keeping stdout for the result line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the parsed result line, or exits on failure."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload} seed {seed} failed with exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} seed {seed} printed no result")
    if echo:
        print("\n".join(lines))
    return json.loads(lines[-1])


def repeat(binary, args):
    workloads = [args.workload] if args.workload else WORKLOADS
    for w in workloads:
        values = {}
        units = {}
        for i in range(args.repeat):
            seed = args.seed + i
            result = run_once(binary, w, seed, args.seconds, args.trace, echo=False)
            if not result["correct"]:
                fail(f"{w} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        print(f"\n{w}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<42} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%}  {units[name]}")


def plan_digest(binary, workload, seed):
    done = subprocess.run([binary, "plan", "--workload", workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"plan for {workload} seed {seed} failed")
    return done.stdout.strip()


def selfcheck(binary, seed):
    ok = True
    for w in WORKLOADS:
        a = plan_digest(binary, w, seed)
        b = plan_digest(binary, w, seed)
        c = plan_digest(binary, w, seed + 1)
        same = a == b
        fields_a = dict(f.split("=") for f in a.split()[2:])
        fields_c = dict(f.split("=") for f in c.split()[2:])
        differs = all(fields_a[k] != fields_c[k] for k in ("ops", "answers"))
        print(f"{w}: same seed identical: {same}; next seed changes ops and answers: {differs}")
        print(f"  {a}\n  {c}")
        ok = ok and same and differs
    if not ok:
        fail("determinism self-check failed")
    print("determinism self-check passed")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if args.workload is None and args.repeat is None and not args.selfcheck:
        p.error("one of --workload, --repeat or --selfcheck is required")
    binary = build()
    if args.selfcheck:
        selfcheck(binary, args.seed)
    elif args.repeat is not None:
        repeat(binary, args)
    else:
        run_once(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
