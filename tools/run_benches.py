#!/usr/bin/env python3
"""Run the wall-clock perf harness and distill it into BENCH_core.json.

Usage:
    tools/run_benches.py [--build build-release] [--out BENCH_core.json]

The script owns its build tree: it configures and builds a Release tree at
--build (default build-release) before running anything, and it refuses to
publish numbers from a Debug tree — wall-clock results from an unoptimized
build are noise, not data. The recorded "host" block is taken from the
actual CMakeCache build type and os.cpu_count(), not from whatever the
benchmark library happens to claim.

Two layers of results go into the JSON:

  * "core": ns/op and items/s for every bench_core microbenchmark (plus
    ns_per_resume for BM_SimWakeChain, the cost of one same-time task
    wakeup, and ns_per_hop for BM_SimInlineChildChain, the cost of one
    child entry or exit hop), and two speedups: held vs queued task wakeups
    and in-place vs queued child hops (RunLoop vs StepLoop of each), two
    modes of the live simulator in the same binary. Benchmarks never run a retired implementation; the
    last published speedups over the retired TLB and event-loop baselines
    are recorded in DESIGN.md.
  * "simulated": the Figure 7/8/9 shape checks (progress ratios and
    PASS/FAIL), which must not move at all — wall-clock optimizations are
    only valid if the simulated-time results stay put.
  * "obs": bench_obs_overhead's enabled-vs-disabled wall-clock delta and the
    span-completeness percentage, bench_obs_conformance's per-period verdict
    counts (met/degraded/violated plus the revocation-storm attribution
    check), and "qos_reports": per-figure QoS-crosstalk reports from
    NEMESIS_OBS=1 reruns (tools/report_qos.py).

Publication gate: the obs-disabled fig7 wall-clock must stay within 2% of the
previously published number when the host block matches (--no-obs-gate
overrides; a host change skips the comparison).

A bench whose own gate fails (non-zero exit) does not stop the harness: its
exit code goes into its JSON entry as "exit_code", the other benches still
run, and the script exits non-zero after writing the JSON.

Wall-clock numbers vary by machine; the committed BENCH_core.json records the
numbers from the machine that produced it (see "host" in the file).
"""
import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

# Every binary the harness runs; built explicitly so a fresh Release tree
# doesn't have to compile the whole test suite.
BENCH_TARGETS = [
    "bench_core",
    "bench_fig7_paging_in",
    "bench_fig8_paging_out",
    "bench_fig9_fs_isolation",
    "bench_obs_overhead",
    "bench_obs_conformance",
    "bench_ablation_batching",
    "bench_ablation_streampaging",
    "bench_ablation_pipeline",
    "bench_ablation_revocation",
    "bench_ablation_tenants",
]

# NEMESIS_OBS=1 reruns that publish the per-domain QoS-crosstalk reports:
# (bench binary, span-trace CSV it writes, metrics JSON, report file,
#  extra report_qos.py flags). The revocation ablation exists to produce a
# populated aggressor table, so its report run also gates on attribution and
# on every non-met conformance period naming its aggressor; fig7 gates on
# conformance too (uncontended, so every period must close met).
QOS_RUNS = [
    ("bench_fig7_paging_in", "fig7_usd_trace.csv",
     "fig7_usd_trace_metrics.json", "fig7_qos_report.txt",
     ["--require-conformance"]),
    ("bench_fig8_paging_out", "fig8_usd_trace.csv",
     "fig8_usd_trace_metrics.json", "fig8_qos_report.txt", []),
    ("bench_fig9_fs_isolation", "fig9_trace.csv",
     "fig9_metrics.json", "fig9_qos_report.txt", []),
    ("bench_ablation_revocation", "revocation_trace.csv",
     "revocation_metrics.json", "revocation_qos_report.txt",
     ["--require-attribution", "--require-conformance"]),
]

# Golden byte-compare (--capture-golden / --check-golden): the figure
# benches' stdout and side-channel trace CSVs, the scenario fuzzer's verdicts,
# the 100- and 1000-tenant storms' fault/revocation/kill counts and the pager
# ablations (read-ahead, writeback batching, stream paging, CLOCK/RANDOM
# replacement — the pager's opt-in paths the figures never take) must be
# byte-identical run to run — host-side changes (the static-analysis layer,
# the NEM_* annotations, hot-path optimizations) must never perturb simulated
# output.
# fig9 only writes its span trace under NEMESIS_OBS=1, so it runs a second
# time with the env var set just to produce the CSV; the stdout compare
# always uses the plain run (the observed run appends "written to ..." lines).
# (binary, args, stdout golden, side-channel CSVs, needs an NEMESIS_OBS rerun)
GOLDEN_RUNS = [
    ("bench_fig7_paging_in", [], "fig7.stdout", ["fig7_usd_trace.csv"], False),
    ("bench_fig8_paging_out", [], "fig8.stdout", ["fig8_usd_trace.csv"], False),
    ("bench_fig9_fs_isolation", [], "fig9.stdout", ["fig9_trace.csv"], True),
    ("scenario_fuzz", ["--seeds", "20"], "fuzz_seeds20.stdout", [], False),
    ("scenario_fuzz", ["--tenants", "100", "--seed", "3"],
     "storm_tenants100_seed3.stdout", [], False),
    ("scenario_fuzz", ["--tenants", "1000", "--seed", "1"],
     "storm_tenants1000_seed1.stdout", [], False),
    ("bench_ablation_pipeline", [], "ablation_pipeline.stdout", [], False),
    ("bench_ablation_streampaging", [], "ablation_streampaging.stdout", [], False),
    ("bench_ablation_replacement", [], "ablation_replacement.stdout", [], False),
]
GOLDEN_TARGETS = ["scenario_fuzz", "bench_ablation_pipeline", "bench_ablation_streampaging",
                  "bench_ablation_replacement"]

# (benchmark prefix, baseline template arg, optimized template arg)
SPEEDUP_PAIRS = [
    # Same-time task wakeups: every resume queued (Step-driven) vs. run from
    # the simulator's handoff register (Run-driven).
    ("BM_SimWakeChain", "StepLoop", "RunLoop"),
    # Child entry and exit hops: every hop queued (Step-driven) vs. run in
    # place (Run-driven).
    ("BM_SimInlineChildChain", "StepLoop", "RunLoop"),
]


def read_build_type(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
    return m.group(1).strip() if m else None


def ensure_release_build(source_dir, build_dir, targets):
    """Configures (if needed) and builds `targets` in Release mode."""
    if read_build_type(build_dir) != "Release":
        subprocess.run(
            ["cmake", "-B", str(build_dir), "-S", str(source_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
         "--target"] + targets,
        check=True)


def run_bench_core(build_dir, min_time):
    binary = build_dir / "bench" / "bench_core"
    if not binary.exists():
        sys.exit(f"error: {binary} not found; build the repo first")
    # NOTE: this google-benchmark vintage wants a plain double for
    # --benchmark_min_time ("0.2", not "0.2s").
    out = subprocess.run(
        [str(binary), "--benchmark_format=json",
         f"--benchmark_min_time={min_time}"],
        check=True, capture_output=True, text=True)
    report = json.loads(out.stdout)
    results = {}
    for b in report["benchmarks"]:
        results[b["name"]] = {
            "ns_per_op": b["real_time"],
            "items_per_second": b.get("items_per_second"),
        }
        for counter in ("ns_per_resume", "ns_per_hop"):
            if counter in b:
                # BM_SimWakeChain's and BM_SimInlineChildChain's layer
                # numbers: inverted rates, which the JSON reporter gives in
                # seconds per resume or hop.
                results[b["name"]][counter] = round(b[counter] * 1e9, 2)
    return report.get("context", {}), results


def compute_speedups(results):
    speedups = {}
    for prefix, base, opt in SPEEDUP_PAIRS:
        base_name = f"{prefix}<{base}>"
        opt_name = f"{prefix}<{opt}>"
        if base_name in results and opt_name in results:
            speedups[prefix] = round(
                results[base_name]["ns_per_op"] /
                results[opt_name]["ns_per_op"], 2)
    return speedups


def run_gated_bench(binary, args, build_dir):
    """Runs a bench binary whose own gates set its exit code.

    A failed gate must not abort the harness: the caller records the exit
    code in the bench's JSON entry and main() exits non-zero at the end.
    """
    proc = subprocess.run([str(binary)] + args, capture_output=True,
                          text=True, cwd=build_dir)
    if proc.returncode != 0:
        print(f"  FAILED {binary.name} (exit {proc.returncode})")
        sys.stdout.write(proc.stdout)
        sys.stdout.write(proc.stderr)
    return proc.stdout, proc.returncode


def run_figure(build_dir, name):
    """Runs a simulated-time figure bench and extracts its shape checks."""
    binary = (build_dir / "bench" / name).resolve()
    if not binary.exists():
        return {"error": "binary not found"}
    # cwd=build_dir keeps the *_usd_trace.csv side outputs out of the repo root.
    start = time.monotonic()
    out, exit_code = run_gated_bench(binary, [], build_dir)
    wall_seconds = time.monotonic() - start
    fig = {
        "exit_code": exit_code,
        # Observability is compiled in but disabled here; the obs gate diffs
        # this wall-clock against the previously published one.
        "wall_seconds": round(wall_seconds, 3),
        "averages": [[float(x) for x in re.findall(r"[\d.]+", line)]
                     for line in out.splitlines()
                     if line.strip().startswith("average")],
        "ratios": re.findall(r"= ?([\d.]+) \(paper", out) or
                  re.findall(r"ratios: ([\d.]+) .*?, ([\d.]+)", out),
        "shape_checks": re.findall(r"shape check: (\w+)", out),
    }
    m = re.search(r"speedup: ([\d.]+)x", out)
    if m:
        fig["speedup"] = float(m.group(1))
    return fig


def run_obs_overhead(build_dir):
    """Runs bench_obs_overhead and parses its enabled/disabled delta."""
    binary = (build_dir / "bench" / "bench_obs_overhead").resolve()
    if not binary.exists():
        return {"error": "binary not found"}
    out, exit_code = run_gated_bench(binary, [], build_dir)
    obs = {"exit_code": exit_code}
    for key in ("obs_disabled_ms", "obs_enabled_ms", "obs_overhead_pct"):
        m = re.search(rf"{key} ([\d.-]+)", out)
        if m:
            obs[key] = float(m.group(1))
    m = re.search(r"span completeness: (\d+)/(\d+) faults complete \(([\d.]+)%\)", out)
    if m:
        obs["span_completeness_pct"] = float(m.group(3))
    return obs


def run_conformance(build_dir):
    """Runs bench_obs_conformance and parses its verdict/overhead summary."""
    binary = (build_dir / "bench" / "bench_obs_conformance").resolve()
    if not binary.exists():
        return {"error": "binary not found"}
    out, exit_code = run_gated_bench(binary, ["--smoke"], build_dir)
    conf = {"exit_code": exit_code}
    for key in ("conformance_met", "conformance_degraded",
                "conformance_violated", "conformance_storm_attributed"):
        m = re.search(rf"{key} (\d+)", out)
        if m:
            conf[key.removeprefix("conformance_")] = int(m.group(1))
    for key in ("obs_disabled_ms", "obs_enabled_ms", "obs_overhead_pct"):
        m = re.search(rf"{key} ([\d.-]+)", out)
        if m:
            conf[key] = float(m.group(1))
    m = re.search(r"shape check: (\w+)", out)
    if m:
        conf["shape_check"] = m.group(1)
    return conf


def run_qos_reports(build_dir, source_dir):
    """NEMESIS_OBS=1 figure reruns, distilled by tools/report_qos.py."""
    report_tool = (source_dir / "tools" / "report_qos.py").resolve()
    env = dict(os.environ, NEMESIS_OBS="1")
    reports = {}
    for bench, trace_csv, metrics_json, report_txt, extra_flags in QOS_RUNS:
        binary = (build_dir / "bench" / bench).resolve()
        if not binary.exists():
            reports[bench] = {"error": "binary not found"}
            continue
        subprocess.run([str(binary)], check=True, capture_output=True,
                       text=True, cwd=build_dir, env=env)
        out = subprocess.run(
            [sys.executable, str(report_tool), trace_csv,
             "--metrics", metrics_json, "--out", report_txt,
             "--require-complete", "99"] + extra_flags,
            check=True, capture_output=True, text=True, cwd=build_dir)
        report_path = build_dir / report_txt
        m = re.search(r"complete spans: \d+ \(([\d.]+)%\)",
                      report_path.read_text())
        reports[bench] = {
            "report": str(report_path),
            "complete_span_pct": float(m.group(1)) if m else None,
        }
        print(f"  qos report: {report_path}")
    return reports


def run_golden(build_dir, golden_dir, capture):
    """Byte-compares (or captures) the GOLDEN_RUNS' deterministic output.

    Returns the number of mismatches; capture mode always returns 0.
    """
    golden_dir.mkdir(parents=True, exist_ok=True)
    mismatches = 0

    def compare(name, data):
        nonlocal mismatches
        path = golden_dir / name
        if capture:
            path.write_bytes(data)
            print(f"  captured {path}")
            return
        if not path.exists():
            print(f"  MISSING golden {path}")
            mismatches += 1
        elif path.read_bytes() != data:
            print(f"  DIFF {name}: output is not byte-identical to {path}")
            mismatches += 1
        else:
            print(f"  match {name}")

    for bench, bench_args, stdout_name, csvs, needs_obs in GOLDEN_RUNS:
        binary = (build_dir / "bench" / bench).resolve()
        if not binary.exists():
            sys.exit(f"error: {binary} not found; build the bench targets first")
        out = subprocess.run([str(binary)] + bench_args, check=True,
                             capture_output=True, cwd=build_dir)
        compare(stdout_name, out.stdout)
        if needs_obs:
            subprocess.run([str(binary)] + bench_args, check=True,
                           capture_output=True, cwd=build_dir,
                           env=dict(os.environ, NEMESIS_OBS="1"))
        for csv in csvs:
            side = build_dir / csv
            if not side.exists():
                sys.exit(f"error: {bench} did not write {side}")
            compare(csv, side.read_bytes())
    return mismatches


def failed_benches(doc):
    """Names of the benches whose run exited non-zero."""
    entries = dict(doc.get("simulated", {}))
    if "obs" in doc:
        entries["obs_overhead"] = doc["obs"]
        entries["obs_conformance"] = doc["obs"].get("conformance", {})
    return sorted(name for name, entry in entries.items()
                  if entry.get("exit_code", 0) != 0)


def check_obs_gate(doc, prior, out_path):
    """Publication gate: the obs-disabled fig7 wall-clock must not regress
    more than 2% against the previously published number on the same host."""
    new = doc.get("simulated", {}).get("fig7_paging_in", {}).get("wall_seconds")
    old = (prior or {}).get("simulated", {}).get("fig7_paging_in", {}).get("wall_seconds")
    if new is None or old is None or old == 0:
        return  # nothing to compare against (first run, or figures skipped)
    if (prior or {}).get("host") != doc.get("host"):
        print("obs gate: host changed since the published numbers; skipping")
        return
    regression_pct = (new - old) / old * 100.0
    print(f"obs gate: fig7 wall {old:.3f}s -> {new:.3f}s ({regression_pct:+.1f}%)")
    if regression_pct > 2.0:
        sys.exit(f"error: obs-disabled fig7 wall-clock regressed "
                 f"{regression_pct:.1f}% (> 2%) vs published {out_path}; "
                 "rerun on a quiet machine or pass --no-obs-gate to override")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build-release", type=Path)
    ap.add_argument("--source", default=".", type=Path)
    ap.add_argument("--out", default="BENCH_core.json", type=Path)
    ap.add_argument("--min-time", default="0.2")
    ap.add_argument("--skip-build", action="store_true",
                    help="trust the existing tree at --build (still refuses Debug)")
    ap.add_argument("--skip-figures", action="store_true",
                    help="only run bench_core (figures take ~a minute)")
    ap.add_argument("--skip-qos", action="store_true",
                    help="skip the NEMESIS_OBS=1 reruns and QoS reports")
    ap.add_argument("--no-obs-gate", action="store_true",
                    help="publish even if the obs-disabled fig7 wall-clock "
                         "regressed > 2%% vs the existing --out file")
    ap.add_argument("--capture-golden", type=Path, metavar="DIR",
                    help="record fig7/8/9 stdout and trace CSVs plus the "
                         "scenario_fuzz, storm and pager-ablation stdout into "
                         "DIR, then exit (no JSON published)")
    ap.add_argument("--check-golden", type=Path, metavar="DIR",
                    help="rerun the --capture-golden set and fail unless "
                         "every output is byte-identical to DIR, then exit")
    args = ap.parse_args()

    golden = args.capture_golden or args.check_golden
    if not args.skip_build:
        ensure_release_build(args.source, args.build,
                             BENCH_TARGETS + (GOLDEN_TARGETS if golden else []))

    if golden:
        capture = args.capture_golden is not None
        golden_dir = args.capture_golden if capture else args.check_golden
        bad = run_golden(args.build, golden_dir, capture)
        if bad:
            sys.exit(f"error: {bad} golden mismatch(es) — simulated output "
                     "moved; host-side changes must leave it untouched")
        print(f"golden {'capture' if capture else 'check'}: ok ({golden_dir})")
        return
    build_type = read_build_type(args.build)
    if build_type is None:
        sys.exit(f"error: {args.build}/CMakeCache.txt not found; "
                 "configure the tree or drop --skip-build")
    if build_type in ("", "Debug"):
        sys.exit(f"error: refusing to publish numbers from a "
                 f"{build_type or 'typeless'} build at {args.build}; "
                 "wall-clock results need an optimized tree")

    context, results = run_bench_core(args.build, args.min_time)
    speedups = compute_speedups(results)

    doc = {
        "host": {
            "machine": platform.machine(),
            "num_cpus": os.cpu_count(),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "build_type": build_type,
        },
        "core": results,
        "speedups_vs_baseline": speedups,
    }
    if not args.skip_figures:
        doc["simulated"] = {
            "fig7_paging_in": run_figure(args.build, "bench_fig7_paging_in"),
            "fig8_paging_out": run_figure(args.build, "bench_fig8_paging_out"),
            "fig9_fs_isolation": run_figure(args.build, "bench_fig9_fs_isolation"),
            "ablation_batching": run_figure(args.build, "bench_ablation_batching"),
            "ablation_streampaging": run_figure(args.build, "bench_ablation_streampaging"),
            "ablation_pipeline": run_figure(args.build, "bench_ablation_pipeline"),
            "ablation_revocation": run_figure(args.build, "bench_ablation_revocation"),
            "ablation_tenants": run_figure(args.build, "bench_ablation_tenants"),
        }
        doc["obs"] = run_obs_overhead(args.build)
        doc["obs"]["conformance"] = run_conformance(args.build)
        if not args.skip_qos:
            doc["qos_reports"] = run_qos_reports(args.build, args.source)

    prior = None
    if args.out.exists():
        try:
            prior = json.loads(args.out.read_text())
        except (json.JSONDecodeError, OSError):
            prior = None
    if not args.no_obs_gate:
        check_obs_gate(doc, prior, args.out)

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    for name, s in speedups.items():
        print(f"  {name}: {s}x")
    for fig, data in doc.get("simulated", {}).items():
        print(f"  {fig}: shape checks {data.get('shape_checks')}")
    if doc.get("obs"):
        print(f"  obs: {doc['obs'].get('obs_overhead_pct')}% enabled-vs-disabled, "
              f"{doc['obs'].get('span_completeness_pct')}% spans complete")
        conf = doc["obs"].get("conformance", {})
        if "met" in conf:
            print(f"  conformance: {conf.get('met')} met / "
                  f"{conf.get('degraded')} degraded / "
                  f"{conf.get('violated')} violated, "
                  f"{conf.get('storm_attributed')} storm periods attributed "
                  f"({conf.get('shape_check')})")
    failed = failed_benches(doc)
    if failed:
        sys.exit(f"error: {len(failed)} bench(es) failed their own gates: "
                 f"{', '.join(failed)} (exit codes recorded in {args.out})")


if __name__ == "__main__":
    main()
