#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace nemesis {
namespace {

void AppendKey(std::string* out, const std::string& name) {
  out->push_back('"');
  // Metric names are plain identifiers (letters, digits, '.', '-', '%');
  // escape the two JSON-significant characters anyway so no caller can
  // produce an invalid document.
  for (char c : name) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
  out->append("\": ");
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendF64(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

}  // namespace

StatCounter* MetricsRegistry::NewCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<StatCounter>();
  }
  return slot.get();
}

LatencyHistogram* MetricsRegistry::NewHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return slot.get();
}

void MetricsRegistry::RegisterGauge(const std::string& name, std::function<uint64_t()> fn) {
  gauges_[name] = std::move(fn);
}

std::string MetricsRegistry::SnapshotJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendKey(&out, name);
    AppendU64(&out, counter->value());
  }
  out.append(first ? "},\n" : "\n  },\n");

  out.append("  \"gauges\": {");
  first = true;
  for (const auto& [name, fn] : gauges_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendKey(&out, name);
    AppendU64(&out, fn());
  }
  out.append(first ? "},\n" : "\n  },\n");

  out.append("  \"histograms\": {");
  first = true;
  for (const auto& [name, h] : histograms_) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendKey(&out, name);
    out.append("{\"count\": ");
    AppendU64(&out, h->count());
    out.append(", \"mean_ns\": ");
    AppendF64(&out, h->mean_ns());
    out.append(", \"p50_ns\": ");
    AppendF64(&out, h->PercentileNs(0.50));
    out.append(", \"p90_ns\": ");
    AppendF64(&out, h->PercentileNs(0.90));
    out.append(", \"p99_ns\": ");
    AppendF64(&out, h->PercentileNs(0.99));
    out.append(", \"max_ns\": ");
    AppendU64(&out, h->max_ns());
    out.append("}");
  }
  out.append(first ? "}\n" : "\n  }\n");
  out.append("}\n");
  return out;
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = SnapshotJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace nemesis
