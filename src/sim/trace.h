// Trace recorder. The paper's Figures 7 and 8 include USD scheduler traces
// (per-client transactions, laxity charges, allocation boundaries); the USD
// emits structured records here and the benches dump them as CSV so the plots
// can be regenerated. The observability layer (src/obs) threads fault
// lifecycle spans through the same recorder under category "span".
//
// A record is a trivially copyable 32-byte struct. Its category and event
// names are interned: a TraceName is a 16-bit index into one process-wide,
// append-only name table, and only CSV/JSON export and filtering turn it
// back into text. Hot call sites hold TraceName constants built once, so
// appending a record does no hashing and no string construction.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/sim/time.h"

namespace nemesis {

// An interned category or event name. Converting from text interns it (a
// hash lookup, and an insert the first time a name is seen); comparison and
// copying are integer operations. The default value is the empty name. The
// table is not synchronised: the simulator and its tools are single-threaded.
class TraceName {
 public:
  constexpr TraceName() = default;
  TraceName(std::string_view name);  // NOLINT(google-explicit-constructor)
  TraceName(const char* name) : TraceName(std::string_view(name)) {}  // NOLINT
  TraceName(const std::string& name) : TraceName(std::string_view(name)) {}  // NOLINT

  // The interned name for `name` if it has ever been interned; the empty name
  // otherwise (no record can carry a name that was never interned).
  static TraceName Find(std::string_view name);

  uint16_t id() const { return id_; }
  bool empty() const { return id_ == 0; }
  // The text; the view stays valid for the life of the process.
  std::string_view str() const;

  friend bool operator==(TraceName a, TraceName b) { return a.id_ == b.id_; }
  // Compares the text, so testing against a literal interns nothing.
  friend bool operator==(TraceName a, const char* b) { return a.str() == b; }

 private:
  uint16_t id_ = 0;
};

std::ostream& operator<<(std::ostream& os, TraceName name);

struct TraceRecord {
  SimTime time;        // record timestamp (start of the interval, if any)
  int32_t client;      // client / domain id, -1 if not applicable
  TraceName category;  // subsystem, e.g. "usd"
  TraceName event;     // e.g. "txn", "lax", "alloc", "progress"
  double value_a;      // event-specific (e.g. duration in ms, bytes)
  double value_b;      // event-specific (e.g. remaining time)
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) <= 32);

class TraceRecorder {
 public:
  TraceRecorder() = default;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Flight-recorder mode: cap the buffer at `n` records; once full, each new
  // record overwrites the oldest and bumps dropped(). 0 (the default) means
  // unlimited, so existing benches keep every record bit-for-bit. Shrinking
  // below the current size discards the oldest overflow into dropped().
  void set_capacity(size_t n);
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }

  size_t size() const { return records_.size(); }

  void Record(SimTime time, TraceName category, int client, TraceName event, double a = 0.0,
              double b = 0.0) {
    if (!enabled_) {
      return;
    }
    const TraceRecord r{time, client, category, event, a, b};
    if (capacity_ != 0 && records_.size() >= capacity_) {
      // Flight-recorder mode: overwrite the oldest record in place.
      records_[head_] = r;
      head_ = (head_ + 1) % records_.size();
      ++dropped_;
      return;
    }
    records_.push_back(r);
  }

  // Oldest-to-newest view valid in both unlimited and ring mode. The
  // records() accessor stays for unlimited-mode callers (the ring rotates the
  // backing vector, so index order there is only chronological when head_==0).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t n = records_.size();
    for (size_t i = 0; i < n; ++i) {
      fn(records_[(head_ + i) % n]);
    }
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  void Clear() {
    records_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  // Records matching a category/event filter (empty string matches all).
  std::vector<TraceRecord> Filter(std::string_view category, std::string_view event = {},
                                  int client = -1) const;

  // Writes "time_ms,category,client,event,value_a,value_b" rows. Fields
  // containing commas, quotes, or newlines are quoted per RFC 4180.
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_ = true;
  size_t capacity_ = 0;  // 0 = unlimited
  size_t head_ = 0;      // oldest record when the ring has wrapped
  uint64_t dropped_ = 0;
  std::vector<TraceRecord> records_;
};

}  // namespace nemesis

#endif  // SRC_SIM_TRACE_H_
