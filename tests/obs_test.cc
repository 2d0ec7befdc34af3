// Observability layer tests (DESIGN.md "Observability"): the StatCounter /
// LatencyHistogram / MetricsRegistry primitives, the trace recorder's
// flight-recorder ring and RFC 4180 CSV escaping, and the end-to-end fault
// lifecycle spans on a miniature paging system — including the contract that
// enabling observation changes nothing else.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/obs/conformance.h"
#include "src/obs/counter.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace_export.h"
#include "src/sim/trace.h"

namespace nemesis {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(StatCounter, IncAddValueReset) {
  StatCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(LatencyHistogram, CountSumMaxAndPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileNs(0.5), 0.0);
  for (int i = 0; i < 100; ++i) {
    h.Record(1000);
  }
  h.Record(1000000);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.sum_ns(), 100u * 1000u + 1000000u);
  EXPECT_EQ(h.max_ns(), 1000000u);
  // p50 falls in the bucket holding the 1000 ns samples; p100-ish is capped
  // at the recorded maximum.
  EXPECT_GT(h.PercentileNs(0.5), 0.0);
  EXPECT_LE(h.PercentileNs(0.5), 2048.0);
  EXPECT_LE(h.PercentileNs(0.999), 1000000.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
}

TEST(LatencyHistogram, NegativeDurationsClampToZeroBucket) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum_ns(), 0u);
}

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  StatCounter* a = reg.NewCounter("x");
  StatCounter* b = reg.NewCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.counter_count(), 1u);
  LatencyHistogram* h1 = reg.NewHistogram("lat");
  LatencyHistogram* h2 = reg.NewHistogram("lat");
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(reg.histogram_count(), 1u);
}

TEST(MetricsRegistry, SnapshotJsonIsSortedAndRegistrationOrderIndependent) {
  MetricsRegistry forward;
  forward.NewCounter("alpha")->Add(1);
  forward.NewCounter("beta")->Add(2);
  forward.RegisterGauge("gamma", [] { return uint64_t{3}; });
  MetricsRegistry backward;
  backward.RegisterGauge("gamma", [] { return uint64_t{3}; });
  backward.NewCounter("beta")->Add(2);
  backward.NewCounter("alpha")->Add(1);
  EXPECT_EQ(forward.SnapshotJson(), backward.SnapshotJson());
  const std::string json = forward.SnapshotJson();
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos) << json;
  EXPECT_LT(json.find("\"alpha\""), json.find("\"beta\"")) << json;
}

// ---------------------------------------------------------------------------
// Flight-recorder ring.
// ---------------------------------------------------------------------------

std::vector<double> Values(const TraceRecorder& tr) {
  std::vector<double> out;
  tr.ForEach([&](const TraceRecord& r) { out.push_back(r.value_a); });
  return out;
}

TEST(TraceRing, UnlimitedByDefault) {
  TraceRecorder tr;
  EXPECT_EQ(tr.capacity(), 0u);
  for (int i = 0; i < 100; ++i) {
    tr.Record(Microseconds(i), "t", 0, "e", i);
  }
  EXPECT_EQ(tr.size(), 100u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(TraceRing, OverwritesOldestAndCountsDrops) {
  TraceRecorder tr;
  tr.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    tr.Record(Microseconds(i), "t", 0, "e", i);
  }
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.dropped(), 2u);
  EXPECT_EQ(Values(tr), (std::vector<double>{2, 3, 4}));
}

TEST(TraceRing, ShrinkAfterWrapKeepsNewest) {
  TraceRecorder tr;
  tr.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    tr.Record(Microseconds(i), "t", 0, "e", i);
  }
  tr.set_capacity(2);  // head was mid-ring: must linearize, then trim oldest
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.dropped(), 3u);
  EXPECT_EQ(Values(tr), (std::vector<double>{3, 4}));
  // Growing the cap again admits new records without losing the survivors.
  tr.set_capacity(4);
  tr.Record(Microseconds(9), "t", 0, "e", 9);
  EXPECT_EQ(Values(tr), (std::vector<double>{3, 4, 9}));
}

TEST(TraceRing, FilterAndCsvSeeChronologicalOrderAfterWrap) {
  TraceRecorder tr;
  tr.set_capacity(2);
  for (int i = 0; i < 3; ++i) {
    tr.Record(Microseconds(i), "t", 0, "e", i);
  }
  const auto filtered = tr.Filter("t");
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].value_a, 1);
  EXPECT_EQ(filtered[1].value_a, 2);
  const std::string path = ::testing::TempDir() + "ring_wrap.csv";
  ASSERT_TRUE(tr.WriteCsv(path));
  const std::string csv = ReadFile(path);
  EXPECT_LT(csv.find("0.001000"), csv.find("0.002000")) << csv;
}

TEST(TraceRing, ClearResetsRingState) {
  TraceRecorder tr;
  tr.set_capacity(2);
  for (int i = 0; i < 4; ++i) {
    tr.Record(Microseconds(i), "t", 0, "e", i);
  }
  tr.Clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
  tr.Record(Microseconds(7), "t", 0, "e", 7);
  EXPECT_EQ(Values(tr), (std::vector<double>{7}));
}

// ---------------------------------------------------------------------------
// CSV escaping (RFC 4180).
// ---------------------------------------------------------------------------

TEST(TraceCsv, EscapesCommasQuotesAndNewlines) {
  TraceRecorder tr;
  tr.Record(Milliseconds(1), "plain", 7, "ev", 1.5, 2.5);
  tr.Record(Milliseconds(2), "a,b", 8, "say \"hi\"", 0.0, 0.0);
  tr.Record(Milliseconds(3), "line\nbreak", 9, "cr\rfield", 0.0, 0.0);
  const std::string path = ::testing::TempDir() + "escape.csv";
  ASSERT_TRUE(tr.WriteCsv(path));
  const std::string csv = ReadFile(path);
  EXPECT_NE(csv.find("1.000000,plain,7,ev,1.500000,2.500000\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("2.000000,\"a,b\",8,\"say \"\"hi\"\"\",0.000000,0.000000\n"),
            std::string::npos)
      << csv;
  EXPECT_NE(csv.find("3.000000,\"line\nbreak\",9,\"cr\rfield\",0.000000,0.000000\n"),
            std::string::npos)
      << csv;
}

// ---------------------------------------------------------------------------
// The Obs hub.
// ---------------------------------------------------------------------------

TEST(Obs, SpanIsDroppedWhenDisabled) {
  TraceRecorder tr;
  Obs obs(&tr);
  obs.Span(Microseconds(1), 1, "raise", 0.0, 42);
  EXPECT_EQ(tr.size(), 0u);
  obs.set_enabled(true);
  obs.Span(Microseconds(1), 1, "raise", 0.0, 42);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr.records()[0].category, "span");
  EXPECT_EQ(tr.records()[0].event, "raise");
  EXPECT_EQ(static_cast<uint64_t>(tr.records()[0].value_b), 42u);
}

TEST(Obs, RegisterDomainCreatesProbeAndGauge) {
  TraceRecorder tr;
  Obs obs(&tr);
  EXPECT_EQ(obs.probe(5), nullptr);
  Obs::DomainProbe* probe = obs.RegisterDomain(5, "video");
  ASSERT_NE(probe, nullptr);
  ASSERT_NE(probe->fault_total, nullptr);
  EXPECT_EQ(obs.probe(5), probe);
  const std::string json = obs.registry().SnapshotJson();
  EXPECT_NE(json.find("\"domain.video.id\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("domain.video.fault_total_ns"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Background trace-id space and span routing.
// ---------------------------------------------------------------------------

TEST(ObsBgIds, RoundTripAndCategoryRouting) {
  const uint64_t bg = MakeBgTraceId(7, 42);
  EXPECT_TRUE(IsBgTraceId(bg));
  EXPECT_EQ(TraceDomainOf(bg), 7u);
  const uint64_t demand = (uint64_t{7} << 32) | 42;
  EXPECT_FALSE(IsBgTraceId(demand));
  EXPECT_EQ(TraceDomainOf(demand), 7u);
  // Ids must stay exact through the trace's double payload fields.
  EXPECT_EQ(static_cast<uint64_t>(static_cast<double>(bg)), bg);

  TraceRecorder tr;
  Obs obs(&tr);
  obs.set_enabled(true);
  obs.DiskSpan(Milliseconds(1), demand, 2.5);
  obs.DiskSpan(Milliseconds(2), bg, 1.5);
  obs.BgSpan(Milliseconds(3), 7, "bg-read", 0.5, bg);
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.records()[0].category, "span");
  EXPECT_EQ(tr.records()[0].event, "disk");
  EXPECT_EQ(tr.records()[1].category, "bg");
  EXPECT_EQ(tr.records()[1].client, 7);
  EXPECT_EQ(tr.records()[2].category, "bg");
  EXPECT_EQ(tr.records()[2].event, "bg-read");
}

// ---------------------------------------------------------------------------
// Contract-conformance monitor.
// ---------------------------------------------------------------------------

using Res = ConformanceMonitor::Resource;
using Ver = ConformanceMonitor::Verdict;

TEST(Conformance, FullDeliveryIsMet) {
  TraceRecorder tr;
  MetricsRegistry reg;
  ConformanceMonitor mon;
  mon.set_enabled(true);
  mon.set_sinks(&tr, &reg);
  mon.RegisterContract(1, Res::kDisk, "app", 0, Milliseconds(100), Milliseconds(30));
  mon.OnSlice(1, Res::kDisk, Milliseconds(40), Milliseconds(30), /*lax=*/false);
  mon.OnPeriod(1, Res::kDisk, Milliseconds(100), Milliseconds(30), /*queued=*/false);
  const auto s = mon.SummaryOf(1, Res::kDisk);
  EXPECT_EQ(s.met, 1u);
  EXPECT_EQ(s.periods(), 1u);
  // Verdict lands in the trace and the registry.
  const auto verdicts = tr.Filter("verdict");
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].event, "disk-met");
  EXPECT_EQ(verdicts[0].client, 1);
  EXPECT_EQ(verdicts[0].value_a, 30.0);  // delivered ms
  EXPECT_EQ(reg.NewCounter("conformance.app.disk.met")->value(), 1u);
}

TEST(Conformance, UnusedGuaranteeIsMet) {
  ConformanceMonitor mon;
  mon.set_enabled(true);
  // Idle the whole period: no backlog, nothing delivered — the guarantee went
  // unused, which is not a violation.
  mon.RegisterContract(1, Res::kDisk, "idle", 0, Milliseconds(100), Milliseconds(30));
  mon.OnPeriod(1, Res::kDisk, Milliseconds(100), Milliseconds(30), false);
  EXPECT_EQ(mon.SummaryOf(1, Res::kDisk).met, 1u);
}

TEST(Conformance, StarvedBacklogIsViolated) {
  ConformanceMonitor mon;
  mon.set_enabled(true);
  mon.RegisterContract(1, Res::kDisk, "starved", 0, Milliseconds(100), Milliseconds(30));
  mon.OnBacklog(1, Res::kDisk, 0, /*queued=*/true);  // runnable all period
  mon.OnPeriod(1, Res::kDisk, Milliseconds(100), Milliseconds(30), true);
  const auto s = mon.SummaryOf(1, Res::kDisk);
  EXPECT_EQ(s.violated, 1u);
  EXPECT_EQ(s.met, 0u);
  const auto recent = mon.recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].verdict, Ver::kViolated);
  EXPECT_EQ(recent[0].other, 0u);
}

TEST(Conformance, RevocationShortfallIsDegradedWithAttribution) {
  ConformanceMonitor mon;
  mon.set_enabled(true);
  mon.RegisterContract(1, Res::kDisk, "victim", 0, Milliseconds(100), Milliseconds(30));
  mon.OnBacklog(1, Res::kDisk, 0, true);
  mon.OnRevocationStart(1, Milliseconds(10), /*aggressor=*/7);
  mon.OnPeriod(1, Res::kDisk, Milliseconds(100), Milliseconds(30), true);
  const auto recent = mon.recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].verdict, Ver::kDegraded);
  EXPECT_EQ(recent[0].other, 7u);
  // The window outlives two more period opens, so [100,200) and [200,300)
  // stay degraded; the first period with no overlap reverts to a plain
  // violation.
  mon.OnPeriod(1, Res::kDisk, Milliseconds(200), Milliseconds(30), true);
  mon.OnRevocationEnd(1, Milliseconds(210));
  mon.OnPeriod(1, Res::kDisk, Milliseconds(300), Milliseconds(30), true);
  mon.OnPeriod(1, Res::kDisk, Milliseconds(400), Milliseconds(30), true);
  const auto s = mon.SummaryOf(1, Res::kDisk);
  EXPECT_EQ(s.degraded, 3u);
  EXPECT_EQ(s.violated, 1u);
}

TEST(Conformance, LaxTimeCountsAsDeliveredNotService) {
  ConformanceMonitor mon;
  mon.set_enabled(true);
  mon.RegisterContract(1, Res::kDisk, "lax", 0, Milliseconds(100), Milliseconds(30));
  // The whole allocation arrives on borrowed laxity: still delivered => met.
  mon.OnBacklog(1, Res::kDisk, 0, true);
  mon.OnSlice(1, Res::kDisk, Milliseconds(50), Milliseconds(30), /*lax=*/true);
  mon.OnPeriod(1, Res::kDisk, Milliseconds(100), Milliseconds(30), true);
  EXPECT_EQ(mon.SummaryOf(1, Res::kDisk).met, 1u);
}

TEST(Conformance, MemoryWaitVerdictsDependOnWaitSpan) {
  ConformanceMonitor mon;
  mon.set_enabled(true);
  mon.RegisterContract(2, Res::kMemory, "mem", 0, Milliseconds(100), 4);
  mon.OnFramesHeld(2, Milliseconds(10), 4);
  // Wait starts mid-second-period: [0,100) met, [100,200) degraded (partial
  // wait), [200,300) violated (blocked on the guarantee the whole period).
  mon.OnGuaranteeWaitStart(2, Milliseconds(150), /*other=*/7);
  mon.Flush(Milliseconds(300));
  const auto recent = mon.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].verdict, Ver::kMet);
  EXPECT_EQ(recent[1].verdict, Ver::kDegraded);
  EXPECT_EQ(recent[1].other, 7u);
  EXPECT_EQ(recent[2].verdict, Ver::kViolated);
  EXPECT_EQ(recent[2].other, 7u);
  // The wait resolving returns the stream to met.
  mon.OnGuaranteeWaitEnd(2, Milliseconds(310));
  mon.Flush(Milliseconds(400));
  EXPECT_EQ(mon.SummaryOf(2, Res::kMemory).met, 2u);
}

TEST(Conformance, KillVerdictSurvivesDeactivation) {
  TraceRecorder tr;
  ConformanceMonitor mon;
  mon.set_enabled(true);
  mon.set_sinks(&tr, nullptr);
  mon.RegisterContract(3, Res::kMemory, "killed", 0, Milliseconds(100), 4);
  mon.OnKill(3, Milliseconds(50), /*aggressor=*/9);
  mon.DeactivateContract(3, Res::kMemory, Milliseconds(50));
  const auto s = mon.SummaryOf(3, Res::kMemory);
  EXPECT_EQ(s.violated, 1u);
  const auto verdicts = tr.Filter("verdict");
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].event, "mem-violated");
  EXPECT_EQ(static_cast<uint32_t>(verdicts[0].value_b), 9u);
  // Deactivated contracts drop further feed silently.
  mon.OnFramesHeld(3, Milliseconds(60), 1);
  mon.Flush(Milliseconds(500));
  EXPECT_EQ(mon.SummaryOf(3, Res::kMemory).periods(), 1u);
}

TEST(Conformance, DisabledMonitorIgnoresEverything) {
  ConformanceMonitor mon;
  mon.RegisterContract(1, Res::kDisk, "off", 0, Milliseconds(100), Milliseconds(30));
  mon.OnBacklog(1, Res::kDisk, 0, true);
  mon.OnPeriod(1, Res::kDisk, Milliseconds(100), Milliseconds(30), true);
  EXPECT_EQ(mon.SummaryOf(1, Res::kDisk).periods(), 0u);
  EXPECT_TRUE(mon.recent().empty());
}

// The System feeds the monitor from the USD's Atropos hooks for every paged
// domain: a real paging run on Figure 7's disk contract yields disk verdicts
// (none violated: a lone client is never starved) and memory verdicts.
TEST(Conformance, DiskVerdictsFlowThroughSystemUsdHooks) {
  SystemConfig cfg;
  cfg.observe = true;
  System system(cfg);
  AppConfig app;
  app.name = "pager";
  app.contract = {2, 0};
  app.driver_max_frames = 2;
  app.stretch_bytes = 32 * kDefaultPageSize;
  app.swap_bytes = 1 * kMiB;
  app.disk_qos = QosSpec{Milliseconds(250), Milliseconds(100), false, Milliseconds(10)};
  AppDomain* pager = system.CreateApp(app);
  uint64_t bytes = 0;
  bool done = false;
  const SimTime until = Seconds(1);
  pager->SpawnWorkload(SequentialAccessLoop(*pager, AccessType::kWrite, until, &bytes, &done),
                       "loop");
  system.sim().RunUntil(until);
  ConformanceMonitor& mon = system.obs().conformance();
  mon.Flush(system.sim().Now());
  EXPECT_GT(pager->vmem().faults_taken(), 0u);
  const auto disk = mon.SummaryOf(pager->id(), Res::kDisk);
  EXPECT_GE(disk.periods(), 3u);
  EXPECT_EQ(disk.violated, 0u);
  EXPECT_GE(mon.SummaryOf(pager->id(), Res::kMemory).periods(), 1u);
}

// ---------------------------------------------------------------------------
// Perfetto (catapult JSON) trace export.
// ---------------------------------------------------------------------------

TEST(TraceExport, PerfettoJsonCarriesSlicesInstantsAndMetadata) {
  TraceRecorder tr;
  tr.Record(Milliseconds(1), "span", 4, "raise", 0.0, 42.0);
  tr.Record(Milliseconds(1), "span", 4, "disk", 2.5, 42.0);     // duration
  tr.Record(Milliseconds(2), "bg", 4, "bg-read", 1.0, 9.0);     // duration
  tr.Record(Milliseconds(3), "verdict", 4, "disk-met", 30.0, 0.0);
  const std::string json = PerfettoJson(tr);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos) << json;
  // Duration events become ph:"X" with microsecond ts/dur; lifecycle stages
  // and verdicts become instants.
  EXPECT_NE(json.find("\"name\":\"disk\",\"cat\":\"span\",\"ph\":\"X\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dur\":2500.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"raise\",\"cat\":\"span\",\"ph\":\"i\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"disk-met\""), std::string::npos) << json;
  EXPECT_NE(json.find("process_name"), std::string::npos) << json;
  EXPECT_NE(json.find("domain 4"), std::string::npos) << json;
  // Every event carries the required catapult fields.
  EXPECT_NE(json.find("\"pid\":4"), std::string::npos) << json;
  const std::string path = ::testing::TempDir() + "perfetto.json";
  ASSERT_TRUE(WritePerfettoJson(tr, path));
  EXPECT_EQ(ReadFile(path), json);
}

TEST(TraceExport, EmptyTraceStillValidJson) {
  TraceRecorder tr;
  const std::string json = PerfettoJson(tr);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// End-to-end: fault lifecycle spans on a miniature paging system.
// ---------------------------------------------------------------------------

struct MiniRun {
  std::vector<TraceRecord> spans;
  std::string metrics_json;
  uint64_t faults_taken = 0;
  size_t trace_records = 0;
  size_t obs_records = 0;  // records in observe-only categories (span/bg/verdict)
};

MiniRun RunMiniPaging(bool observe) {
  SystemConfig cfg;
  cfg.observe = observe;
  System system(cfg);
  constexpr int kApps = 2;
  AppDomain* apps[kApps];
  const int64_t slices[kApps] = {25, 50};
  for (int i = 0; i < kApps; ++i) {
    AppConfig app;
    app.name = "mini" + std::to_string(i);
    app.contract = {2, 0};
    app.driver_max_frames = 2;
    app.stretch_bytes = 32 * kDefaultPageSize;
    app.swap_bytes = 1 * kMiB;
    app.disk_qos =
        QosSpec{Milliseconds(250), Milliseconds(slices[i]), false, Milliseconds(10)};
    apps[i] = system.CreateApp(app);
  }
  bool primed[kApps] = {};
  for (int i = 0; i < kApps; ++i) {
    apps[i]->SpawnWorkload(SequentialPass(*apps[i], AccessType::kWrite, &primed[i]), "prime");
  }
  system.sim().RunUntil(Seconds(30));
  MiniRun r;
  for (int i = 0; i < kApps; ++i) {
    EXPECT_TRUE(primed[i]) << "app " << i;
    r.faults_taken += apps[i]->vmem().faults_taken();
  }
  if (observe) {
    system.obs().conformance().Flush(system.sim().Now());
  }
  r.spans = system.trace().Filter("span");
  r.metrics_json = system.obs().registry().SnapshotJson();
  r.trace_records = system.trace().size();
  system.trace().ForEach([&](const TraceRecord& rec) {
    if (rec.category == "span" || rec.category == "bg" || rec.category == "verdict") {
      ++r.obs_records;
    }
  });
  return r;
}

TEST(ObsEndToEnd, DisabledByDefaultAndLeavesTraceUntouched) {
  SystemConfig cfg;
  EXPECT_FALSE(cfg.observe);
  const MiniRun off = RunMiniPaging(false);
  EXPECT_GT(off.faults_taken, 0u);
  EXPECT_TRUE(off.spans.empty());
  // The metrics registry still carries gauges (registration is unconditional),
  // but no histogram samples were recorded.
  EXPECT_NE(off.metrics_json.find("domain.mini0.id"), std::string::npos);
  EXPECT_NE(off.metrics_json.find("\"count\": 0"), std::string::npos);
}

TEST(ObsEndToEnd, EverySteadyStateFaultBecomesACompleteSpan) {
  const MiniRun on = RunMiniPaging(true);
  ASSERT_FALSE(on.spans.empty());
  // Reconstruct spans by fault id.
  std::map<uint64_t, std::set<std::string>> stages;
  std::map<uint64_t, double> stall_ms;
  for (const TraceRecord& rec : on.spans) {
    const uint64_t fid = static_cast<uint64_t>(rec.value_b);
    stages[fid].insert(std::string(rec.event.str()));
    if (rec.event == "resume") {
      stall_ms[fid] = rec.value_a;
    }
  }
  size_t complete = 0;
  for (const auto& [fid, have] : stages) {
    EXPECT_NE(fid, 0u);
    if (have.count("raise") && have.count("dispatch") && have.count("resume")) {
      ++complete;
    }
  }
  // >= 99% of faults reconstruct fully (only faults in flight at the end of
  // the run may be partial).
  EXPECT_GE(static_cast<double>(complete), 0.99 * static_cast<double>(stages.size()));
  // The domain id is recoverable from the span id's high bits, and paged
  // faults carry positive stall times.
  bool positive_stall = false;
  for (const auto& [fid, ms] : stall_ms) {
    const uint32_t domain = static_cast<uint32_t>(fid >> 32);
    EXPECT_GE(domain, 1u);
    if (ms > 0.0) {
      positive_stall = true;
    }
  }
  EXPECT_TRUE(positive_stall);
  // Histograms saw the same faults.
  EXPECT_NE(on.metrics_json.find("domain.mini0.fault_total_ns"), std::string::npos);
  EXPECT_EQ(on.metrics_json.find("\"count\": 0,"), std::string::npos) << on.metrics_json;
}

TEST(ObsEndToEnd, ObservationDoesNotPerturbTheSimulation) {
  const MiniRun off = RunMiniPaging(false);
  const MiniRun on = RunMiniPaging(true);
  EXPECT_EQ(off.faults_taken, on.faults_taken);
  // Same non-observability trace volume: observation adds span / bg /
  // conformance-verdict records, removes nothing.
  EXPECT_EQ(on.trace_records - on.obs_records, off.trace_records);
}

}  // namespace
}  // namespace nemesis
