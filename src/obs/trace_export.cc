#include "src/obs/trace_export.h"

#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "src/sim/time.h"

namespace nemesis {
namespace {

// Lane (tid) assignment: one thread row per record family inside each
// domain's process group, so the UI stacks faults, disk, bg I/O, scheduler
// state, memory events, and verdicts as parallel tracks.
struct Lane {
  int tid;
  const char* name;
};

Lane LaneFor(const TraceRecord& r) {
  if (r.category == "span") {
    if (r.event == "disk" || r.event == "usd-read" || r.event == "usd-write") {
      return {2, "disk"};
    }
    if (r.event.str().starts_with("revoke")) {
      return {5, "memory"};
    }
    return {1, "faults"};
  }
  if (r.category == "bg") {
    return {3, "bg-io"};
  }
  if (r.category == "usd") {
    return {4, "sched"};
  }
  if (r.category == "frames") {
    return {5, "memory"};
  }
  if (r.category == "verdict") {
    return {6, "verdicts"};
  }
  return {7, "misc"};
}

bool IsDurationRecord(const TraceRecord& r) {
  if (r.category == "span" || r.category == "bg") {
    // Zero-length stage marks (raise, dispatch, ...) render as instants; a
    // zero-width slice would be invisible on the timeline.
    return r.value_a > 0.0;
  }
  if (r.category == "usd") {
    return r.event == "txn" || r.event == "slack-txn" || r.event == "batch";
  }
  return r.event == "lax";
}

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

void AppendF64(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

}  // namespace

std::string PerfettoJson(const TraceRecorder& trace) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::set<int> pids;
  std::set<std::pair<int, int>> lanes;
  std::map<std::pair<int, int>, const char*> lane_names;
  trace.ForEach([&](const TraceRecord& r) {
    const Lane lane = LaneFor(r);
    pids.insert(r.client);
    if (lanes.insert({r.client, lane.tid}).second) {
      lane_names[{r.client, lane.tid}] = lane.name;
    }
    const double ts_us = ToMicroseconds(r.time);
    out.append(first ? "\n" : ",\n");
    first = false;
    out.append("{\"name\":\"");
    AppendEscaped(&out, r.event.str());
    out.append("\",\"cat\":\"");
    AppendEscaped(&out, r.category.str());
    out.append("\",\"ph\":\"");
    out.append(IsDurationRecord(r) ? "X" : "i");
    out.append("\",\"ts\":");
    AppendF64(&out, ts_us);
    if (IsDurationRecord(r)) {
      out.append(",\"dur\":");
      AppendF64(&out, r.value_a * 1000.0);  // value_a is ms; dur is us
    } else {
      out.append(",\"s\":\"p\"");
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%d", r.client, lane.tid);
    out.append(buf);
    out.append(",\"args\":{\"value_a\":");
    AppendF64(&out, r.value_a);
    out.append(",\"value_b\":");
    AppendF64(&out, r.value_b);
    out.append("}}");
  });
  for (int pid : pids) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                  "\"args\":{\"name\":\"domain %d\"}}",
                  first ? "\n" : ",\n", pid, pid);
    first = false;
    out.append(buf);
  }
  for (const auto& [key, name] : lane_names) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"name\":\"%s\"}}",
                  key.first, key.second, name);
    out.append(buf);
  }
  out.append("\n]}\n");
  return out;
}

bool WritePerfettoJson(const TraceRecorder& trace, const std::string& path) {
  const std::string json = PerfettoJson(trace);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace nemesis
