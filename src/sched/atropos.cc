#include "src/sched/atropos.h"

#include <algorithm>
#include <string>

#include "src/base/assert.h"
#include "src/base/log.h"

namespace nemesis {

namespace {

const TraceName kUsd("usd");
const TraceName kAdmit("admit");
const TraceName kAlloc("alloc");
const TraceName kIdle("idle");
const TraceName kLax("lax");
const TraceName kExhaust("exhaust");

}  // namespace

AtroposScheduler::AtroposScheduler(Simulator& sim, TraceRecorder* trace)
    : sim_(sim), trace_(trace) {}

AtroposScheduler::~AtroposScheduler() {
  for (auto& c : clients_) {
    if (c.alive) {
      sim_.Cancel(c.refresh_timer);
    }
  }
}

AtroposScheduler::Client* AtroposScheduler::Find(SchedClientId id) {
  if (id >= id_to_index_.size() || id_to_index_[id] == kNoHeapHandle) {
    return nullptr;
  }
  Client& c = clients_[id_to_index_[id]];
  return c.alive ? &c : nullptr;
}

const AtroposScheduler::Client* AtroposScheduler::Find(SchedClientId id) const {
  return const_cast<AtroposScheduler*>(this)->Find(id);
}

void AtroposScheduler::Reindex(uint32_t i) {
  const Client& c = clients_[i];
  const bool runnable = c.alive && c.state == SchedClientState::kRunnable;
  const bool active = runnable && c.remain > 0;
  if (active) {
    edf_.InsertOrUpdate(i, EdfKey{c.deadline, c.id});
  } else {
    edf_.Erase(i);
  }
  if (runnable && c.remain <= 0) {
    deficit_pending_.insert(i);
  } else {
    deficit_pending_.erase(i);
  }
  if (active && c.queued == 0 && c.spec.laxity - c.lax_used <= 0) {
    idle_pending_.insert(i);
  } else {
    idle_pending_.erase(i);
  }
  if (c.alive && c.spec.extra && c.queued > 0) {
    extra_.InsertOrUpdate(i, EdfKey{c.deadline, c.id});
  } else {
    extra_.Erase(i);
  }
}

Expected<SchedClientId, AdmitError> AtroposScheduler::Admit(std::string name, QosSpec spec) {
  if (spec.period <= 0 || spec.slice <= 0 || spec.slice > spec.period || spec.laxity < 0) {
    return MakeUnexpected(AdmitError::kInvalidSpec);
  }
  const double fraction = spec.Fraction();
  if (reserved_fraction_ + fraction > 1.0 + 1e-9) {
    return MakeUnexpected(AdmitError::kOverCommitted);
  }
  reserved_fraction_ += fraction;

  Client c;
  c.id = next_id_++;
  c.name = std::move(name);
  c.spec = spec;
  c.state = SchedClientState::kRunnable;
  c.remain = spec.slice;
  c.deadline = sim_.Now() + spec.period;
  clients_.push_back(std::move(c));
  id_to_index_.resize(next_id_, kNoHeapHandle);
  id_to_index_[clients_.back().id] = static_cast<uint32_t>(clients_.size() - 1);
  Reindex(static_cast<uint32_t>(clients_.size() - 1));
  ScheduleRefresh(clients_.back());
  if (trace_ != nullptr) {
    trace_->Record(sim_.Now(), kUsd, static_cast<int>(clients_.back().id), kAdmit,
                   ToMilliseconds(spec.slice), ToMilliseconds(spec.period));
  }
  return clients_.back().id;
}

void AtroposScheduler::Remove(SchedClientId id) {
  Client* c = Find(id);
  if (c == nullptr) {
    return;
  }
  sim_.Cancel(c->refresh_timer);
  reserved_fraction_ -= c->spec.Fraction();
  c->alive = false;
  Reindex(id_to_index_[id]);
  id_to_index_[id] = kNoHeapHandle;
}

void AtroposScheduler::ScheduleRefresh(Client& c) {
  const SchedClientId id = c.id;
  c.refresh_timer = sim_.CallAt(c.deadline, [this, id] { Refresh(id); });
}

void AtroposScheduler::Refresh(SchedClientId id) {
  Client* c = Find(id);
  if (c == nullptr) {
    return;
  }
  // New allocation. With roll-over accounting a deficit from an overrunning
  // final transaction is deducted; a surplus is forfeited.
  const SimDuration carry = rollover_ ? std::min<SimDuration>(c->remain, 0) : 0;
  c->remain = c->spec.slice + carry;
  c->deadline += c->spec.period;
  c->lax_used = 0;
  // Returning from wait/idle: the new allocation makes the client runnable.
  c->state = SchedClientState::kRunnable;
  Reindex(id_to_index_[id]);
  ScheduleRefresh(*c);
  if (trace_ != nullptr) {
    trace_->Record(sim_.Now(), kUsd, static_cast<int>(id), kAlloc,
                   ToMilliseconds(c->remain), ToMilliseconds(c->deadline));
  }
  if (refresh_hook_) {
    refresh_hook_(id, sim_.Now(), c->remain, c->queued > 0);
  }
  Wakeup();
}

void AtroposScheduler::SetQueued(SchedClientId id, uint32_t queued) {
  Client* c = Find(id);
  if (c == nullptr) {
    return;
  }
  const bool had_work = c->queued > 0;
  c->queued = queued;
  Reindex(id_to_index_[id]);
  if (queue_hook_) {
    queue_hook_(id, sim_.Now(), queued > 0);
  }
  if (!had_work && queued > 0 && c->state == SchedClientState::kRunnable) {
    Wakeup();
  }
  // Work arriving for an idle client does NOT make it runnable: the paper's
  // semantics leave an idled client ignored until its next allocation (the
  // laxity parameter exists precisely to widen the window before idling).
}

void AtroposScheduler::DrainPendingTransitions() {
  // Exhausted but not yet moved (a refresh landed with a carried deficit):
  // treat as waiting until the refresh timer fires. Silent: no trace record.
  for (const uint32_t i : deficit_pending_) {
    clients_[i].state = SchedClientState::kWaiting;
  }
  deficit_pending_.clear();
  // The paper's idle transition: no pending transactions and no laxity
  // budget left — ignored until the next periodic allocation. Drained in
  // client-index order == id order, so the "idle" trace records land in id
  // order.
  for (const uint32_t i : idle_pending_) {
    Client& c = clients_[i];
    c.state = SchedClientState::kIdle;
    edf_.Erase(i);
    if (trace_ != nullptr) {
      trace_->Record(sim_.Now(), kUsd, static_cast<int>(c.id), kIdle,
                     ToMilliseconds(c.remain), 0.0);
    }
  }
  idle_pending_.clear();
}

std::optional<AtroposScheduler::Pick> AtroposScheduler::PickNext() {
  DrainPendingTransitions();
  if (edf_.empty()) {
    return std::nullopt;
  }
  const Client& best = clients_[edf_.TopHandle()];
  const bool has_work = best.queued > 0;
  SimDuration budget = best.remain;
  if (!has_work) {
    budget = std::min(budget, best.spec.laxity - best.lax_used);
  }
  return Pick{best.id, !has_work, budget, best.remain, best.deadline};
}

std::optional<SchedClientId> AtroposScheduler::PickSlack() const {
  if (extra_.empty()) {
    return std::nullopt;
  }
  return clients_[extra_.TopHandle()].id;
}

void AtroposScheduler::Charge(SchedClientId id, SimDuration used, bool was_lax) {
  Client* c = Find(id);
  if (c == nullptr) {
    return;
  }
  NEM_ASSERT(used >= 0);
  c->remain -= used;
  c->charged += used;
  if (was_lax) {
    c->lax_used += used;
    c->lax_charged += used;
    if (trace_ != nullptr && used > 0) {
      trace_->Record(sim_.Now() - used, kUsd, static_cast<int>(id), kLax,
                     ToMilliseconds(used), ToMilliseconds(c->remain));
    }
  } else {
    // A completed transaction restarts the idle clock.
    c->lax_used = 0;
  }
  if (c->remain <= 0 && c->state == SchedClientState::kRunnable) {
    c->state = SchedClientState::kWaiting;
    if (trace_ != nullptr) {
      trace_->Record(sim_.Now(), kUsd, static_cast<int>(id), kExhaust,
                     ToMilliseconds(c->remain), 0.0);
    }
  }
  Reindex(id_to_index_[id]);
  if (charge_hook_) {
    charge_hook_(id, sim_.Now(), used, was_lax);
  }
}

void AtroposScheduler::Wakeup() {
  if (wakeup_) {
    wakeup_();
  }
}

SimDuration AtroposScheduler::remaining(SchedClientId id) const {
  const Client* c = Find(id);
  NEM_ASSERT(c != nullptr);
  return c->remain;
}

SimTime AtroposScheduler::deadline(SchedClientId id) const {
  const Client* c = Find(id);
  NEM_ASSERT(c != nullptr);
  return c->deadline;
}

SchedClientState AtroposScheduler::state(SchedClientId id) const {
  const Client* c = Find(id);
  NEM_ASSERT(c != nullptr);
  return c->state;
}

const QosSpec& AtroposScheduler::spec(SchedClientId id) const {
  const Client* c = Find(id);
  NEM_ASSERT(c != nullptr);
  return c->spec;
}

const std::string& AtroposScheduler::name(SchedClientId id) const {
  const Client* c = Find(id);
  NEM_ASSERT(c != nullptr);
  return c->name;
}

SimDuration AtroposScheduler::total_charged(SchedClientId id) const {
  const Client* c = Find(id);
  NEM_ASSERT(c != nullptr);
  return c->charged;
}

SimDuration AtroposScheduler::total_lax(SchedClientId id) const {
  const Client* c = Find(id);
  NEM_ASSERT(c != nullptr);
  return c->lax_charged;
}

double AtroposScheduler::ReservedFraction() const { return reserved_fraction_; }

size_t AtroposScheduler::client_count() const {
  size_t n = 0;
  for (const auto& c : clients_) {
    if (c.alive) {
      ++n;
    }
  }
  return n;
}

std::string AtroposScheduler::AuditIndexes() const {
  const std::string self = "atropos(usd)";
  if (!edf_.SelfCheck() || !extra_.SelfCheck()) {
    return self + ": heap structure corrupt";
  }
  size_t edf_expected = 0;
  size_t extra_expected = 0;
  size_t idle_expected = 0;
  size_t deficit_expected = 0;
  for (uint32_t i = 0; i < clients_.size(); ++i) {
    const Client& c = clients_[i];
    const std::string who = self + " client " + std::to_string(c.id) + ": ";
    if (c.alive &&
        (c.id >= id_to_index_.size() || id_to_index_[c.id] != i)) {
      return who + "id->index map does not point at the live client";
    }
    const bool runnable = c.alive && c.state == SchedClientState::kRunnable;
    const bool active = runnable && c.remain > 0;
    if (active != edf_.Contains(i)) {
      return who + (active ? "missing from the EDF index" : "stale in the EDF index");
    }
    if (active) {
      ++edf_expected;
      if (edf_.KeyOf(i) != EdfKey{c.deadline, c.id}) {
        return who + "EDF key disagrees with (deadline, id)";
      }
    }
    const bool deficit = runnable && c.remain <= 0;
    if (deficit != (deficit_pending_.count(i) != 0)) {
      return who + (deficit ? "missing from" : "stale in") +
             std::string(" the deficit-pending set");
    }
    deficit_expected += deficit ? 1 : 0;
    const bool idle_due = active && c.queued == 0 && c.spec.laxity - c.lax_used <= 0;
    if (idle_due != (idle_pending_.count(i) != 0)) {
      return who + (idle_due ? "missing from" : "stale in") +
             std::string(" the idle-pending set");
    }
    idle_expected += idle_due ? 1 : 0;
    const bool slack = c.alive && c.spec.extra && c.queued > 0;
    if (slack != extra_.Contains(i)) {
      return who + (slack ? "missing from the extra-time index" : "stale in the extra-time index");
    }
    if (slack) {
      ++extra_expected;
      if (extra_.KeyOf(i) != EdfKey{c.deadline, c.id}) {
        return who + "extra-time key disagrees with (deadline, id)";
      }
    }
  }
  if (edf_.size() != edf_expected || extra_.size() != extra_expected ||
      idle_pending_.size() != idle_expected || deficit_pending_.size() != deficit_expected) {
    return self + ": an index holds entries for unknown clients";
  }
  return "";
}

void AtroposScheduler::TestOnlyCorruptEdfKey() {
  if (edf_.empty()) {
    return;
  }
  const uint32_t top = edf_.TopHandle();
  edf_.InsertOrUpdate(top, EdfKey{clients_[top].deadline + 1, clients_[top].id});
}

}  // namespace nemesis
