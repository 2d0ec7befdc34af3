#include "src/sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <ostream>
#include <unordered_map>

#include "src/base/assert.h"

namespace nemesis {

namespace {

// The process-wide name table. Names live in a deque so the views handed out
// by TraceName::str() (and the index keys) never move; id 0 is "".
struct NameTable {
  std::deque<std::string> names{std::string()};
  std::unordered_map<std::string_view, uint16_t> index{{std::string_view(), 0}};
};

NameTable& Names() {
  static NameTable table;
  return table;
}

}  // namespace

TraceName::TraceName(std::string_view name) {
  NameTable& t = Names();
  if (auto it = t.index.find(name); it != t.index.end()) {
    id_ = it->second;
    return;
  }
  NEM_ASSERT_MSG(t.names.size() <= UINT16_MAX, "trace name table full");
  id_ = static_cast<uint16_t>(t.names.size());
  t.names.emplace_back(name);
  t.index.emplace(t.names.back(), id_);
}

TraceName TraceName::Find(std::string_view name) {
  NameTable& t = Names();
  TraceName found;
  if (auto it = t.index.find(name); it != t.index.end()) {
    found.id_ = it->second;
  }
  return found;
}

std::string_view TraceName::str() const { return Names().names[id_]; }

std::ostream& operator<<(std::ostream& os, TraceName name) { return os << name.str(); }

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

std::vector<TraceRecord> TraceRecorder::Filter(std::string_view category,
                                               std::string_view event, int client) const {
  std::vector<TraceRecord> out;
  // Resolve the filter's names once; a name never interned matches nothing.
  const TraceName cat = TraceName::Find(category);
  const TraceName ev = TraceName::Find(event);
  if ((!category.empty() && cat.empty()) || (!event.empty() && ev.empty())) {
    return out;
  }
  ForEach([&](const TraceRecord& r) {
    if (!category.empty() && r.category != cat) {
      return;
    }
    if (!event.empty() && r.event != ev) {
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
void WriteCsvField(std::FILE* f, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
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
    WriteCsvField(f, r.category.str());
    std::fprintf(f, ",%d,", r.client);
    WriteCsvField(f, r.event.str());
    std::fprintf(f, ",%.6f,%.6f\n", r.value_a, r.value_b);
  });
  std::fclose(f);
  return true;
}

}  // namespace nemesis
