#!/usr/bin/env python3
"""Per-domain QoS-crosstalk report from a fault-span trace.

Usage:
    tools/report_qos.py TRACE_CSV [--metrics METRICS_JSON] [--out REPORT_TXT]

TRACE_CSV is a TraceRecorder dump (e.g. fig7_usd_trace.csv from a
NEMESIS_OBS=1 run) whose category-"span" rows carry fault lifecycle stages:
value_b is the fault trace id (domain in the high 32 bits), value_a the
stage's duration in milliseconds, and `time` the stage's start. METRICS_JSON
is the matching MetricsRegistry snapshot; it supplies the domain-id-to-name
mapping (gauges named "domain.<name>.id") and is otherwise optional.

The report answers four questions per domain:
  * What fault latency did the domain actually see (p50/p90/p99/max of the
    end-to-end stall, from the "resume" spans)?
  * Where did the time go (time-in-stage breakdown: dispatch, MMEntry queue
    wait, driver resolve, USD wait, raw disk time — split demand vs
    speculative using the category-"bg" pipeline rows)?
  * How much of the domain's stall overlapped another domain's intrusive
    revocation, attributed to the aggressor that forced it (crosstalk)?
  * Did every contract accounting period deliver its guarantee (the
    category-"verdict" conformance rows: met / degraded / violated per
    (domain, resource, period), non-met periods attributed to the aggressor
    whose revocation explains them)?
"""
import argparse
import collections
import csv
import json
import sys

# Stages whose durations are summed into the time-in-stage table. "resume" is
# the whole stall; "usd-read"/"usd-write" sit inside "resolve"; "disk" sits
# inside the USD wait. They are reported side by side, not summed.
STAGES = ["dispatch", "queue-wait", "resolve", "usd-read", "usd-write", "disk"]
REVOKE_EVENTS = {"revoke-start", "revoke-end", "revoke-transparent", "revoke-kill"}


def percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    k = (len(sorted_vals) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def load_spans(path):
    """Returns (span rows, revocation windows, revocation event counts,
    conformance verdicts, background-pipeline rows)."""
    spans = []
    revocations = []  # (victim, aggressor, start_ms, end_ms)
    revoke_counts = collections.Counter()  # (victim, aggressor, event) -> n
    verdicts = []  # (domain, resource, verdict, start_ms, delivered, aggressor)
    bg = []        # (domain, event, dur_ms)
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            category = row["category"]
            if category == "verdict":
                # event is "<res>-<verdict>" (e.g. "disk-met"); value_a is
                # delivered ms (disk) or min frames held (mem); value_b
                # the attributed aggressor domain (0 = none).
                res, _, verdict = row["event"].partition("-")
                verdicts.append((int(row["client"]), res, verdict,
                                 float(row["time_ms"]), float(row["value_a"]),
                                 int(float(row["value_b"]))))
                continue
            if category == "bg":
                bg.append((int(row["client"]), row["event"], float(row["value_a"])))
                continue
            if category != "span":
                continue
            event = row["event"]
            time_ms = float(row["time_ms"])
            client = int(row["client"])
            dur_ms = float(row["value_a"])
            ref = int(float(row["value_b"]))
            if event in REVOKE_EVENTS:
                # Victim is the client column; value_b carries the aggressor.
                revoke_counts[(client, ref, event)] += 1
                if event == "revoke-end":
                    revocations.append((client, ref, time_ms, time_ms + dur_ms))
                continue
            spans.append((ref, event, time_ms, dur_ms, client))
    return spans, revocations, revoke_counts, verdicts, bg


def load_domain_names(metrics_path):
    names = {}
    metrics = {}
    if metrics_path:
        try:
            metrics = json.load(open(metrics_path))
        except OSError as e:
            print(f"warning: cannot read {metrics_path}: {e}", file=sys.stderr)
            return names, metrics
        for key, value in metrics.get("gauges", {}).items():
            if key.startswith("domain.") and key.endswith(".id"):
                names[int(value)] = key[len("domain."):-len(".id")]
    return names, metrics


PIPELINE_GAUGES = ["prefetch_issued", "prefetch_hits", "prefetch_wasted",
                   "writeback_batched", "cleaned_evictions", "staging_highwater"]


def build_report(spans, revocations, revoke_counts, names, metrics=None,
                 verdicts=(), bg=()):
    # Group stage durations by fault id, keyed to the owning domain.
    faults = collections.defaultdict(dict)  # fid -> {event: (start, dur)}
    for fid, event, start, dur, _client in spans:
        # Coalesced faults repeat stages (e.g. several dispatches); keep the
        # sum so the stage total reflects all work done under this id.
        prev = faults[fid].get(event)
        if prev is None:
            faults[fid][event] = (start, dur)
        else:
            faults[fid][event] = (min(prev[0], start), prev[1] + dur)

    domains = collections.defaultdict(lambda: {
        "raised": 0, "complete": 0, "stalls": [],
        "stage_ms": collections.Counter(), "windows": [],
    })
    for fid, stages in faults.items():
        domain = fid >> 32
        d = domains[domain]
        d["raised"] += 1
        if "resume" not in stages:
            continue  # still in flight when the trace was cut
        d["complete"] += 1
        start, stall = stages["resume"]
        d["stalls"].append(stall)
        d["windows"].append((start, start + stall))
        for stage in STAGES:
            if stage in stages:
                d["stage_ms"][stage] += stages[stage][1]

    lines = []
    out = lines.append
    out("QoS-crosstalk report")
    out("====================")
    total_faults = sum(d["raised"] for d in domains.values())
    complete = sum(d["complete"] for d in domains.values())
    pct = 100.0 * complete / total_faults if total_faults else 0.0
    out(f"faults traced: {total_faults}  complete spans: {complete} ({pct:.2f}%)")
    # Flight-recorder honesty: a capped TraceRecorder silently overwrites its
    # oldest rows; surface the drop count so "complete" is never read as
    # "complete except for whatever fell out of the ring".
    drops = int((metrics or {}).get("gauges", {}).get("trace.dropped", 0))
    out(f"trace drops: {drops}" +
        ("  (ring overflowed: the window is NOT fully covered)" if drops else ""))
    out("")

    def name_of(domain):
        return names.get(domain, f"domain-{domain}")

    out("Per-domain fault latency (ms):")
    out(f"  {'domain':<16} {'faults':>7} {'p50':>9} {'p90':>9} {'p99':>9} {'max':>9}")
    for domain in sorted(domains):
        d = domains[domain]
        stalls = sorted(d["stalls"])
        out(f"  {name_of(domain):<16} {d['complete']:>7}"
            f" {percentile(stalls, 0.50):>9.3f} {percentile(stalls, 0.90):>9.3f}"
            f" {percentile(stalls, 0.99):>9.3f} {stalls[-1] if stalls else 0.0:>9.3f}")
    out("")

    out("Time in stage (ms total; usd-* within resolve, disk within usd-*):")
    out(f"  {'domain':<16} {'stall':>11} " +
        " ".join(f"{s:>11}" for s in STAGES))
    for domain in sorted(domains):
        d = domains[domain]
        total_stall = sum(d["stalls"])
        out(f"  {name_of(domain):<16} {total_stall:>11.1f} " +
            " ".join(f"{d['stage_ms'][s]:>11.1f}" for s in STAGES))
    out("")

    # Demand vs speculative disk time: demand faults' USD service lands under
    # category "span" (event "disk"); the pager pipeline's read-ahead and
    # writeback I/O carries its own bg trace-id space and lands under
    # category "bg" with the issuing domain in the client column.
    demand_disk = collections.Counter()
    spec_disk = collections.Counter()
    bg_stage = collections.defaultdict(collections.Counter)
    for _fid, event, _start, dur, client in spans:
        if event == "disk":
            demand_disk[client] += dur
    for domain, event, dur in bg:
        if event == "disk":
            spec_disk[domain] += dur
        else:
            bg_stage[domain][event] += dur
    if spec_disk or bg_stage:
        out("Disk time, demand vs speculative (ms; bg-read/bg-write are the")
        out("pipeline's round-trip waits, spec-disk the raw device time):")
        out(f"  {'domain':<16} {'demand-disk':>12} {'spec-disk':>12}"
            f" {'bg-read':>12} {'bg-write':>12} {'spec%':>7}")
        for domain in sorted(set(demand_disk) | set(spec_disk) | set(bg_stage)):
            demand = demand_disk[domain]
            spec = spec_disk[domain]
            total = demand + spec
            out(f"  {name_of(domain):<16} {demand:>12.1f} {spec:>12.1f}"
                f" {bg_stage[domain]['bg-read']:>12.1f}"
                f" {bg_stage[domain]['bg-write']:>12.1f}"
                f" {100.0 * spec / total if total else 0.0:>6.1f}%")
        out("")

    out("Revocation crosstalk (victim stall overlapping an intrusive revocation,")
    out("attributed to the aggressor that forced it):")
    any_revocation = False
    # Overlap each victim's fault windows with the revocation windows.
    attributed = collections.Counter()  # (victim, aggressor) -> ms
    for victim, aggressor, rv_start, rv_end in revocations:
        for f_start, f_end in domains.get(victim, {"windows": []})["windows"]:
            overlap = min(f_end, rv_end) - max(f_start, rv_start)
            if overlap > 0:
                attributed[(victim, aggressor)] += overlap
    pair_events = collections.Counter()
    for (victim, aggressor, event), n in revoke_counts.items():
        if event in ("revoke-end", "revoke-transparent", "revoke-kill"):
            pair_events[(victim, aggressor)] += n
    for (victim, aggressor) in sorted(set(attributed) | set(pair_events)):
        any_revocation = True
        out(f"  {name_of(victim):<16} <- {name_of(aggressor):<16}"
            f" revocations: {pair_events[(victim, aggressor)]:>5}"
            f"  stall overlap: {attributed[(victim, aggressor)]:>9.1f} ms")
    if not any_revocation:
        out("  (none: no revocations in this run)")
    attributed_ms = sum(attributed.values())

    # Contract conformance: one verdict per (domain, resource, accounting
    # period), emitted by the ConformanceMonitor. A non-met period should name
    # the aggressor whose revocation explains it; one that doesn't is an
    # unexplained QoS failure (and what --require-conformance trips on).
    conf = {"total": 0, "met": 0, "degraded": 0, "violated": 0,
            "unattributed_non_met": 0}
    if verdicts:
        out("")
        out("Contract conformance (per-domain accounting periods):")
        out(f"  {'domain':<16} {'res':<5} {'periods':>8} {'met':>6} {'degr':>6}"
            f" {'viol':>6} {'met%':>7}  worst period")
        by_contract = collections.defaultdict(list)
        conf_attrib = collections.Counter()  # (domain, aggressor) -> periods
        for domain, res, verdict, start, value, aggressor in verdicts:
            by_contract[(domain, res)].append((verdict, start, value, aggressor))
            conf["total"] += 1
            conf[verdict] = conf.get(verdict, 0) + 1
            if verdict != "met":
                if aggressor:
                    conf_attrib[(domain, aggressor)] += 1
                else:
                    conf["unattributed_non_met"] += 1
        for (domain, res) in sorted(by_contract):
            rows = by_contract[(domain, res)]
            counts = collections.Counter(v for v, _, _, _ in rows)
            # Worst period: the most severe verdict, lowest delivery first.
            severity = {"violated": 2, "degraded": 1, "met": 0}
            worst = max(rows, key=lambda r: (severity.get(r[0], 0), -r[2]))
            if worst[0] == "met":
                worst_txt = "-"
            else:
                worst_txt = (f"{worst[0]} @{worst[1]:.0f}ms"
                             f" delivered={worst[2]:g}"
                             + (f" <- {name_of(worst[3])}" if worst[3] else ""))
            met_pct = 100.0 * counts["met"] / len(rows)
            out(f"  {name_of(domain):<16} {res:<5} {len(rows):>8}"
                f" {counts['met']:>6} {counts['degraded']:>6}"
                f" {counts['violated']:>6} {met_pct:>6.1f}%  {worst_txt}")
        if conf_attrib:
            out("  Non-met periods attributed to aggressor revocations:")
            for (domain, aggressor), n in sorted(conf_attrib.items()):
                out(f"    {name_of(domain):<16} <- {name_of(aggressor):<16}"
                    f" {n:>5} periods")
        if conf["unattributed_non_met"]:
            out(f"  WARNING: {conf['unattributed_non_met']} non-met period(s)"
                " carry no attribution")

    # Pager-pipeline counters (per-app gauges from the metrics snapshot).
    # Every paged app registers them; a pipeline left off reads as zeros.
    gauges = (metrics or {}).get("gauges", {})
    pipeline_rows = []
    for name in sorted({n for n in names.values()}):
        row = {g: gauges.get(f"app.{name}.{g}") for g in PIPELINE_GAUGES}
        if any(v is not None for v in row.values()):
            pipeline_rows.append((name, row))
    if pipeline_rows:
        out("")
        out("Pager pipeline (per-domain counters; zeros = plain demand pager):")
        out(f"  {'domain':<16} " + " ".join(f"{g:>18}" for g in PIPELINE_GAUGES))
        for name, row in pipeline_rows:
            out(f"  {name:<16} " + " ".join(
                f"{int(row[g]) if row[g] is not None else '-':>18}"
                for g in PIPELINE_GAUGES))
    return "\n".join(lines) + "\n", pct, attributed_ms, drops, conf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace_csv")
    ap.add_argument("--metrics", default=None,
                    help="MetricsRegistry JSON snapshot (domain names)")
    ap.add_argument("--out", default=None, help="write the report here (default stdout)")
    ap.add_argument("--require-complete", type=float, default=None, metavar="PCT",
                    help="exit 1 if complete-span percentage is below PCT")
    ap.add_argument("--require-attribution", action="store_true",
                    help="exit 1 unless at least one intrusive revocation "
                         "happened AND some victim stall was attributed to an "
                         "aggressor (guards benches whose whole point is a "
                         "populated crosstalk table)")
    ap.add_argument("--require-conformance", action="store_true",
                    help="exit 1 unless the trace carries conformance verdict "
                         "rows and every non-met (degraded/violated) period "
                         "names the aggressor revocation that explains it — "
                         "an unattributed shortfall is an unexplained QoS "
                         "failure")
    args = ap.parse_args()

    spans, revocations, revoke_counts, verdicts, bg = load_spans(args.trace_csv)
    if not spans:
        sys.exit(f"error: no span records in {args.trace_csv} "
                 "(was the bench run with NEMESIS_OBS=1?)")
    names, metrics = load_domain_names(args.metrics)
    report, complete_pct, attributed_ms, drops, conf = build_report(
        spans, revocations, revoke_counts, names, metrics, verdicts, bg)

    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(report)
    if args.require_complete is not None:
        if drops > 0:
            sys.exit(f"error: the trace ring dropped {drops} record(s) inside "
                     "the window; completeness cannot be certified")
        if complete_pct < args.require_complete:
            sys.exit(f"error: only {complete_pct:.2f}% of spans complete "
                     f"(required {args.require_complete}%)")
    if args.require_attribution:
        if not revocations:
            sys.exit("error: --require-attribution but the trace has no "
                     "completed intrusive revocations (no revoke-end spans)")
        if attributed_ms <= 0:
            sys.exit("error: --require-attribution but no victim stall "
                     "overlapped a revocation window (empty aggressor table)")
    if args.require_conformance:
        if conf["total"] == 0:
            sys.exit("error: --require-conformance but the trace has no "
                     "verdict rows (was the bench run with NEMESIS_OBS=1 on a "
                     "build with the conformance monitor?)")
        if conf["unattributed_non_met"] > 0:
            sys.exit(f"error: --require-conformance but "
                     f"{conf['unattributed_non_met']} non-met period(s) carry "
                     "no aggressor attribution")


if __name__ == "__main__":
    main()
