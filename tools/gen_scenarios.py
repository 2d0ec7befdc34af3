#!/usr/bin/env python3
"""Seeded adversarial scenario sweep — CI wrapper around bench/scenario_fuzz.

Usage:
    tools/gen_scenarios.py --binary build/bench/scenario_fuzz --seeds 50
    tools/gen_scenarios.py --binary build/bench/scenario_fuzz --seed 1337

The fuzz driver's own --seeds mode runs every seed in one process, which is
fine for the plain build but wrong for the CI oracle configuration: there a
violation is an AuditOrDie abort or a sanitizer report that kills the whole
process, taking the rest of the sweep with it. This wrapper runs one process
per seed, so a crash stops exactly one run; it then reruns the failing seed
with --print (the full event script lands in the log) and with --shrink (the
shrinker probes with the abort-on-violation auditor disabled, so a minimal
script is produced even when the first failure was an abort).

Exit status: 0 when every seed is clean, 1 when any seed failed. The failing
seed number, its event script, and the shrunk script are all in stdout — CI
logs alone are enough to reproduce with `scenario_fuzz --seed N`.
"""
import argparse
import subprocess
import sys


def run_seed(binary, seed, extra=()):
    """Runs one seed in its own process; returns (ok, combined output)."""
    cmd = [binary, "--seed", str(seed)] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return proc.returncode == 0, proc.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", default="build/bench/scenario_fuzz",
                    help="path to the scenario_fuzz driver")
    ap.add_argument("--seeds", type=int, default=0, metavar="N",
                    help="sweep seeds 1..N (one process per seed)")
    ap.add_argument("--seed", type=int, default=None,
                    help="run a single seed instead of a sweep")
    args = ap.parse_args()

    seeds = [args.seed] if args.seed is not None else list(range(1, args.seeds + 1))
    if not seeds:
        ap.error("pass --seeds N or --seed N")

    failed = []
    for seed in seeds:
        ok, out = run_seed(args.binary, seed)
        if ok:
            # One status line per clean seed keeps a 50-seed sweep readable.
            sys.stdout.write(out.splitlines()[-1] + "\n" if out else "")
            continue
        failed.append(seed)
        print(f"--- seed {seed} FAILED ---")
        sys.stdout.write(out)
        # Full event script for the log, then a minimal reproduction. Both
        # reruns are fresh processes: the script print works even when the
        # failure above was a process abort.
        _, script = run_seed(args.binary, seed, ["--print"])
        print("event script:")
        sys.stdout.write(script)
        print("shrinking...")
        _, shrunk = run_seed(args.binary, seed, ["--shrink"])
        sys.stdout.write(shrunk)
        print(f"--- end seed {seed} ---")
    sys.stdout.flush()

    if failed:
        print(f"scenario sweep: {len(failed)} of {len(seeds)} seeds failed: "
              f"{failed}")
        return 1
    print(f"scenario sweep: all {len(seeds)} seeds clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
