#include "src/sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace nemesis {

void TraceRecorder::set_capacity(size_t n) {
  // Linearize first so index 0 is the oldest record; ring arithmetic then
  // stays valid for whichever capacity takes effect next.
  if (head_ != 0) {
    std::rotate(records_.begin(), records_.begin() + static_cast<ptrdiff_t>(head_),
                records_.end());
    head_ = 0;
  }
  if (n != 0 && records_.size() > n) {
    const size_t overflow = records_.size() - n;
    records_.erase(records_.begin(), records_.begin() + static_cast<ptrdiff_t>(overflow));
    dropped_ += overflow;
  }
  capacity_ = n;
}

void TraceRecorder::Record(SimTime time, std::string category, int client, std::string event,
                           double a, double b) {
  if (!enabled_) {
    return;
  }
  if (capacity_ != 0 && records_.size() >= capacity_) {
    // Flight-recorder mode: overwrite the oldest record in place.
    records_[head_] = TraceRecord{time, std::move(category), client, std::move(event), a, b};
    head_ = (head_ + 1) % records_.size();
    ++dropped_;
    return;
  }
  records_.push_back(TraceRecord{time, std::move(category), client, std::move(event), a, b});
}

std::vector<TraceRecord> TraceRecorder::Filter(const std::string& category,
                                               const std::string& event, int client) const {
  std::vector<TraceRecord> out;
  ForEach([&](const TraceRecord& r) {
    if (!category.empty() && r.category != category) {
      return;
    }
    if (!event.empty() && r.event != event) {
      return;
    }
    if (client >= 0 && r.client != client) {
      return;
    }
    out.push_back(r);
  });
  return out;
}

namespace {

// RFC 4180: quote a field containing the delimiter, a quote, or a line break;
// double any embedded quotes.
void WriteCsvField(std::FILE* f, const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    std::fwrite(field.data(), 1, field.size(), f);
    return;
  }
  std::fputc('"', f);
  for (char c : field) {
    if (c == '"') {
      std::fputc('"', f);
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool TraceRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "time_ms,category,client,event,value_a,value_b\n");
  ForEach([&](const TraceRecord& r) {
    std::fprintf(f, "%.6f,", ToMilliseconds(r.time));
    WriteCsvField(f, r.category);
    std::fprintf(f, ",%d,", r.client);
    WriteCsvField(f, r.event);
    std::fprintf(f, ",%.6f,%.6f\n", r.value_a, r.value_b);
  });
  std::fclose(f);
  return true;
}

}  // namespace nemesis
