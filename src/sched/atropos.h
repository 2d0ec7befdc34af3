// The Atropos scheduling algorithm (Roscoe, 1995), as used by the paper's
// User-Safe Disk. (Nemesis schedules the CPU with the same algorithm; this
// model schedules only the disk, so the USD is the one executor and every
// trace record is filed under category "usd".)
//
// Earliest-deadline-first with implicit deadlines: each client with QoS
// (p, s, x, l) is periodically granted s of resource time and a deadline one
// period away. The executor (e.g. the USD service loop) repeatedly asks
// PickNext() for the EDF-eligible client, performs one unit of work (one disk
// transaction), and charges the actual elapsed time via Charge(). Clients
// whose remaining time is exhausted wait for their next periodic allocation;
// accounting rolls over (a final overrunning transaction leaves a deficit
// that counts against the next allocation), which is how the paper prevents a
// client from deterministically exceeding its guarantee.
//
// Laxity (the paper's fix for the "short-block" problem): a runnable client
// with no queued work remains eligible for up to l, and the time the executor
// idles on its behalf is charged exactly as if it were transaction time.
// Once its laxity is used up the client is marked idle and — as in the paper
// — ignored until its next periodic allocation.
//
// Picks read the top of incrementally-maintained heaps instead of scanning
// every client. The EDF index holds the runnable clients with time
// remaining, keyed (deadline, id); the extra-time index holds the
// slack-eligible clients (x=true with queued work), same key; both are
// updated on the events that change a key — Admit/Remove, Charge, periodic
// refresh, work arrival — so a pick is O(1) and an update O(log n). The
// exhausted/idle transitions are tracked event-driven in two pending sets and
// drained at PickNext entry in client-id order, so "idle" trace records land
// in id order at the pick's simulated time.
//
// Tie-break rule: earliest deadline wins; equal deadlines go to the smaller
// client id, which is the earlier-admitted client since ids are handed out in
// admission order. tests/equivalence_test.cc checks every pick against a
// brute-force scan over the public accessors.
#ifndef SRC_SCHED_ATROPOS_H_
#define SRC_SCHED_ATROPOS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/expected.h"
#include "src/base/indexed_heap.h"
#include "src/sched/qos.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace nemesis {

using SchedClientId = uint32_t;

enum class AdmitError {
  kOverCommitted,  // sum of s/p would exceed 1
  kInvalidSpec,
};

enum class SchedClientState : uint8_t {
  kRunnable,  // positive remaining time, eligible for EDF pick
  kWaiting,   // remaining time exhausted; waiting for the next allocation
  kIdle,      // no work and laxity exhausted; ignored until next allocation
};

class AtroposScheduler {
 public:
  // `wakeup` is invoked whenever the eligible set may have become non-empty
  // (work arrival or a periodic reallocation); the executor uses it to
  // re-evaluate PickNext(). `trace` may be null.
  explicit AtroposScheduler(Simulator& sim, TraceRecorder* trace = nullptr);
  ~AtroposScheduler();
  AtroposScheduler(const AtroposScheduler&) = delete;
  AtroposScheduler& operator=(const AtroposScheduler&) = delete;

  void set_wakeup(std::function<void()> wakeup) { wakeup_ = std::move(wakeup); }

  // Observer hooks for the conformance monitor (src/obs/conformance.h). Unset
  // hooks cost one branch each.
  //   charge hook:  (id, end = Now, used, was_lax)       — every Charge
  //   refresh hook: (id, boundary = Now, allocation, queued) — every period
  //                 refresh, after the refill (allocation = the new remain)
  //   queue hook:   (id, now, queued != 0)               — every SetQueued
  void set_charge_hook(std::function<void(SchedClientId, SimTime, SimDuration, bool)> hook) {
    charge_hook_ = std::move(hook);
  }
  void set_refresh_hook(std::function<void(SchedClientId, SimTime, SimDuration, bool)> hook) {
    refresh_hook_ = std::move(hook);
  }
  void set_queue_hook(std::function<void(SchedClientId, SimTime, bool)> hook) {
    queue_hook_ = std::move(hook);
  }

  // Enables/disables roll-over accounting (Ablation D). Default on, as in the
  // paper.
  void set_rollover(bool enabled) { rollover_ = enabled; }

  // Admission control: rejects the client if the sum of reserved fractions
  // would exceed 1. The first allocation is granted immediately.
  Expected<SchedClientId, AdmitError> Admit(std::string name, QosSpec spec);

  void Remove(SchedClientId id);

  // Work-arrival notification. `queued` is the number of work items the
  // client currently has pending.
  void SetQueued(SchedClientId id, uint32_t queued);

  struct Pick {
    SchedClientId client;
    bool lax;              // true: idle on the client's behalf, charging it
    SimDuration budget;    // maximum time the executor should spend
    // The client's remaining slice at pick time (== budget for a work pick;
    // for a lax pick, budget is additionally bounded by the laxity left).
    // A batching executor must keep every transaction after the first inside
    // this budget: only the first may overrun, which is exactly the existing
    // roll-over rule for single transactions.
    SimDuration slice_remaining;
    SimTime deadline;      // the client's current deadline (for tracing)
  };

  // Returns the EDF choice among eligible clients, or nullopt when the
  // executor should sleep. Clients encountered with no work and no laxity
  // budget are transitioned to idle (and skipped), as in the paper.
  std::optional<Pick> PickNext();

  // Returns the slack-time choice: a client with x=true and queued work, used
  // only when PickNext() returns nullopt. Slack time is not charged against
  // the guarantee.
  std::optional<SchedClientId> PickSlack() const;

  // Charges `used` of resource time to the client. `was_lax` marks lax time.
  void Charge(SchedClientId id, SimDuration used, bool was_lax);

  // Accessors (primarily for tests and traces).
  SimDuration remaining(SchedClientId id) const;
  SimTime deadline(SchedClientId id) const;
  SchedClientState state(SchedClientId id) const;
  const QosSpec& spec(SchedClientId id) const;
  const std::string& name(SchedClientId id) const;
  SimDuration total_charged(SchedClientId id) const;
  SimDuration total_lax(SchedClientId id) const;
  double ReservedFraction() const;
  size_t client_count() const;

  // Audit cross-check (the invariant auditor's indexed-structures rule):
  // every index must agree with a ground-truth recomputation from client
  // state. Returns "" when clean, else a description of the first mismatch.
  std::string AuditIndexes() const;

  // Corrupts the EDF index key of an arbitrary member. Index corruption is
  // unreachable through the public API, so the auditor rule's unit test
  // needs this back door. No-op with an empty index.
  void TestOnlyCorruptEdfKey();

 private:
  struct Client {
    SchedClientId id;
    std::string name;
    QosSpec spec;
    SchedClientState state = SchedClientState::kRunnable;
    SimDuration remain = 0;
    SimTime deadline = 0;
    uint32_t queued = 0;
    SimDuration lax_used = 0;     // lax time consumed since the last transaction
    SimDuration charged = 0;      // lifetime charged (incl. lax)
    SimDuration lax_charged = 0;  // lifetime lax time
    uint64_t refresh_timer = 0;
    bool alive = true;
  };

  // Heap key realising the documented tie-break: (deadline, client id).
  using EdfKey = std::pair<SimTime, SchedClientId>;

  Client* Find(SchedClientId id);
  const Client* Find(SchedClientId id) const;
  void ScheduleRefresh(Client& c);
  void Refresh(SchedClientId id);
  void Wakeup();
  // Re-evaluates every index membership/key for clients_[i] from its state.
  // The single maintenance point: every mutation path ends with a Reindex.
  void Reindex(uint32_t i);
  // Applies the lazy exhausted/idle transitions at PickNext entry: pending
  // sets are drained in client-index order == id order.
  void DrainPendingTransitions();

  Simulator& sim_;
  TraceRecorder* trace_;
  std::function<void()> wakeup_;
  std::function<void(SchedClientId, SimTime, SimDuration, bool)> charge_hook_;
  std::function<void(SchedClientId, SimTime, SimDuration, bool)> refresh_hook_;
  std::function<void(SchedClientId, SimTime, bool)> queue_hook_;
  bool rollover_ = true;
  double reserved_fraction_ = 0.0;
  SchedClientId next_id_ = 1;
  std::vector<Client> clients_;
  // id -> index into clients_ (kNoHeapHandle when dead/unknown): O(1) Find.
  std::vector<uint32_t> id_to_index_;

  // Pick indexes; handles are clients_ indexes.
  IndexedHeap<EdfKey> edf_;           // alive, runnable, remain > 0
  IndexedHeap<EdfKey> extra_;         // alive, x=true, queued > 0
  std::set<uint32_t> idle_pending_;   // EDF members due the idle transition
  std::set<uint32_t> deficit_pending_;  // runnable with remain <= 0 (refresh deficit)
};

}  // namespace nemesis

#endif  // SRC_SCHED_ATROPOS_H_
