#include "src/obs/conformance.h"

#include <algorithm>
#include <array>
#include <string>

#include "src/obs/metrics.h"

namespace nemesis {

const char* ConformanceMonitor::ResourceName(Resource res) {
  switch (res) {
    case Resource::kDisk:
      return "disk";
    case Resource::kMemory:
      return "mem";
  }
  return "?";
}

const char* ConformanceMonitor::VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kMet:
      return "met";
    case Verdict::kDegraded:
      return "degraded";
    case Verdict::kViolated:
      return "violated";
  }
  return "?";
}

namespace {

const TraceName kVerdictCategory("verdict");

// The "<resource>-<verdict>" event name of a verdict record, interned once.
TraceName VerdictEvent(ConformanceMonitor::Resource res, ConformanceMonitor::Verdict v) {
  using Monitor = ConformanceMonitor;
  static const auto table = [] {
    std::array<std::array<TraceName, 3>, 2> t;
    for (uint8_t r = 0; r < 2; ++r) {
      for (uint8_t k = 0; k < 3; ++k) {
        t[r][k] = std::string(Monitor::ResourceName(static_cast<Monitor::Resource>(r))) + "-" +
                  Monitor::VerdictName(static_cast<Monitor::Verdict>(k));
      }
    }
    return t;
  }();
  return table[static_cast<uint8_t>(res)][static_cast<uint8_t>(v)];
}

}  // namespace

ConformanceMonitor::Contract* ConformanceMonitor::Find(uint32_t domain, Resource res) {
  auto it = contracts_.find(Key{domain, static_cast<uint8_t>(res)});
  return it != contracts_.end() && it->second.active ? &it->second : nullptr;
}

const ConformanceMonitor::Contract* ConformanceMonitor::Find(uint32_t domain,
                                                             Resource res) const {
  auto it = contracts_.find(Key{domain, static_cast<uint8_t>(res)});
  return it != contracts_.end() ? &it->second : nullptr;
}

void ConformanceMonitor::RegisterContract(uint32_t domain, Resource res, const std::string& name,
                                          SimTime now, SimDuration period, uint64_t guarantee) {
  if (!enabled_ || period <= 0) {
    return;
  }
  Contract& c = contracts_[Key{domain, static_cast<uint8_t>(res)}];
  c = Contract{};
  c.name = name;
  c.period = period;
  c.guarantee = guarantee;
  c.active = true;
  c.period_start = now;
  c.allocation = static_cast<SimDuration>(guarantee);
  c.held = 0;
  c.min_held = 0;
  auto rev = open_revocations_.find(domain);
  if (rev != open_revocations_.end()) {
    c.revoked_this_period = true;
    c.revoked_by = rev->second;
  }
  if (registry_ != nullptr) {
    const std::string prefix = "conformance." + name + "." + ResourceName(res) + ".";
    c.met_counter = registry_->NewCounter(prefix + "met");
    c.degraded_counter = registry_->NewCounter(prefix + "degraded");
    c.violated_counter = registry_->NewCounter(prefix + "violated");
  }
}

void ConformanceMonitor::DeactivateContract(uint32_t domain, Resource res, SimTime now) {
  Contract* c = Find(domain, res);
  if (c == nullptr) {
    return;
  }
  if (res == Resource::kMemory) {
    CloseMemoryUpTo(domain, c, now);
    // Judge the partial period only when the domain was killed mid-period:
    // the kill verdict must not vanish just because the period never closed.
    if (c->active && c->killed && now > c->period_start) {
      CloseMemoryPeriod(domain, c, now);
    }
  }
  c->active = false;
}

void ConformanceMonitor::OnSlice(uint32_t domain, Resource res, SimTime end, SimDuration used,
                                 bool lax) {
  if (!enabled_) {
    return;
  }
  Contract* c = Find(domain, res);
  if (c == nullptr) {
    return;
  }
  (void)end;
  c->delivered += used;
  if (!lax) {
    c->service += used;
  }
}

void ConformanceMonitor::OnBacklog(uint32_t domain, Resource res, SimTime now, bool queued) {
  if (!enabled_) {
    return;
  }
  Contract* c = Find(domain, res);
  if (c == nullptr || c->queued == queued) {
    return;
  }
  if (c->queued) {
    c->waiting += std::max<SimDuration>(0, now - c->queued_since);
  } else {
    c->queued_since = now;
  }
  c->queued = queued;
}

void ConformanceMonitor::OnPeriod(uint32_t domain, Resource res, SimTime boundary,
                                  SimDuration allocation, bool queued) {
  if (!enabled_) {
    return;
  }
  OnBacklog(domain, res, boundary, queued);
  Contract* c = Find(domain, res);
  if (c != nullptr) {
    CloseSlicePeriod(domain, res, c, boundary, allocation);
  }
  // The disk refresh stream is this domain's steady heartbeat; piggyback the
  // lazy memory-period close on it so memory verdicts flow without waiting
  // for the next allocator event.
  Contract* mem = Find(domain, Resource::kMemory);
  if (mem != nullptr) {
    CloseMemoryUpTo(domain, mem, boundary);
  }
}

void ConformanceMonitor::CloseSlicePeriod(uint32_t domain, Resource res, Contract* c,
                                          SimTime boundary, SimDuration next_allocation) {
  // Fold any open backlog stretch into this period's waiting integral.
  if (c->queued) {
    c->waiting += std::max<SimDuration>(0, boundary - c->queued_since);
    c->queued_since = boundary;
  }
  const SimDuration leftover = c->allocation - c->delivered;
  Verdict v = Verdict::kMet;
  uint32_t other = 0;
  if (leftover <= 0) {
    // Full allocation delivered; a revocation overlap still marks the period
    // degraded — the guarantee arrived, but behind someone else's reclaim.
    if (c->revoked_this_period) {
      v = Verdict::kDegraded;
      other = c->revoked_by;
    }
  } else {
    // Short of the guarantee. Starvation only counts when backlog outlasted
    // the service actually rendered; otherwise the guarantee went unused.
    const SimDuration denied = std::max<SimDuration>(0, c->waiting - c->service);
    if (denied >= leftover) {
      if (c->revoked_this_period) {
        v = Verdict::kDegraded;
        other = c->revoked_by;
      } else {
        v = Verdict::kViolated;
      }
    }
  }
  Emit(domain, res, c, c->period_start, boundary, v, ToMilliseconds(c->delivered), other);
  c->period_start = boundary;
  c->allocation = next_allocation;
  c->delivered = 0;
  c->service = 0;
  c->waiting = 0;
  auto rev = open_revocations_.find(domain);
  c->revoked_this_period = rev != open_revocations_.end();
  c->revoked_by = c->revoked_this_period ? rev->second : 0;
}

void ConformanceMonitor::CloseMemoryUpTo(uint32_t domain, Contract* c, SimTime now) {
  while (c->active && now >= c->period_start + c->period) {
    CloseMemoryPeriod(domain, c, c->period_start + c->period);
  }
}

void ConformanceMonitor::CloseMemoryPeriod(uint32_t domain, Contract* c, SimTime period_end) {
  Verdict v = Verdict::kMet;
  uint32_t other = 0;
  if (c->killed) {
    v = Verdict::kViolated;
    other = c->killed_by;
  } else if (c->wait_outstanding) {
    // Still blocked on the guarantee at period end: starved for the whole
    // period if the wait predates it, otherwise degraded for part of it.
    v = c->wait_start <= c->period_start ? Verdict::kViolated : Verdict::kDegraded;
    other = c->wait_other;
  } else if (c->revoked_this_period) {
    v = Verdict::kDegraded;
    other = c->revoked_by;
  }
  Emit(domain, Resource::kMemory, c, c->period_start, period_end, v,
       static_cast<double>(c->min_held), other);
  c->period_start = period_end;
  c->min_held = c->held;
  auto rev = open_revocations_.find(domain);
  c->revoked_this_period = rev != open_revocations_.end();
  c->revoked_by = c->revoked_this_period ? rev->second : 0;
  if (c->killed) {
    c->active = false;
  }
}

void ConformanceMonitor::OnFramesHeld(uint32_t domain, SimTime now, uint64_t held) {
  if (!enabled_) {
    return;
  }
  Contract* c = Find(domain, Resource::kMemory);
  if (c == nullptr) {
    return;
  }
  CloseMemoryUpTo(domain, c, now);
  if (!c->active) {
    return;
  }
  c->held = held;
  c->min_held = std::min(c->min_held, held);
}

void ConformanceMonitor::OnGuaranteeWaitStart(uint32_t domain, SimTime now, uint32_t other) {
  if (!enabled_) {
    return;
  }
  Contract* c = Find(domain, Resource::kMemory);
  if (c == nullptr) {
    return;
  }
  CloseMemoryUpTo(domain, c, now);
  if (!c->active || c->wait_outstanding) {
    return;
  }
  c->wait_outstanding = true;
  c->wait_start = now;
  c->wait_other = other;
}

void ConformanceMonitor::OnGuaranteeWaitEnd(uint32_t domain, SimTime now) {
  if (!enabled_) {
    return;
  }
  Contract* c = Find(domain, Resource::kMemory);
  if (c == nullptr) {
    return;
  }
  CloseMemoryUpTo(domain, c, now);
  c->wait_outstanding = false;
  c->wait_other = 0;
}

void ConformanceMonitor::OnRevocationStart(uint32_t victim, SimTime now, uint32_t aggressor) {
  if (!enabled_) {
    return;
  }
  open_revocations_[victim] = aggressor;
  for (auto& [key, c] : contracts_) {
    if (key.domain != victim || !c.active) {
      continue;
    }
    if (key.res == static_cast<uint8_t>(Resource::kMemory)) {
      CloseMemoryUpTo(victim, &c, now);
      if (!c.active) {
        continue;
      }
    }
    c.revoked_this_period = true;
    c.revoked_by = aggressor;
  }
}

void ConformanceMonitor::OnRevocationEnd(uint32_t victim, SimTime now) {
  if (!enabled_) {
    return;
  }
  open_revocations_.erase(victim);
  Contract* c = Find(victim, Resource::kMemory);
  if (c != nullptr) {
    CloseMemoryUpTo(victim, c, now);
  }
}

void ConformanceMonitor::OnKill(uint32_t victim, SimTime now, uint32_t aggressor) {
  if (!enabled_) {
    return;
  }
  Contract* c = Find(victim, Resource::kMemory);
  if (c == nullptr) {
    return;
  }
  CloseMemoryUpTo(victim, c, now);
  if (!c->active) {
    return;
  }
  c->killed = true;
  c->killed_by = aggressor;
}

void ConformanceMonitor::Flush(SimTime now) {
  if (!enabled_) {
    return;
  }
  for (auto& [key, c] : contracts_) {
    if (c.active && key.res == static_cast<uint8_t>(Resource::kMemory)) {
      CloseMemoryUpTo(key.domain, &c, now);
    }
  }
}

void ConformanceMonitor::Emit(uint32_t domain, Resource res, Contract* c, SimTime period_start,
                              SimTime period_end, Verdict v, double value, uint32_t other) {
  switch (v) {
    case Verdict::kMet:
      ++c->summary.met;
      if (c->met_counter != nullptr) {
        c->met_counter->Inc();
      }
      break;
    case Verdict::kDegraded:
      ++c->summary.degraded;
      if (c->degraded_counter != nullptr) {
        c->degraded_counter->Inc();
      }
      break;
    case Verdict::kViolated:
      ++c->summary.violated;
      if (c->violated_counter != nullptr) {
        c->violated_counter->Inc();
      }
      break;
  }
  VerdictRecord rec;
  rec.domain = domain;
  rec.resource = res;
  rec.verdict = v;
  rec.period_start = period_start;
  rec.period_end = period_end;
  rec.value = value;
  rec.other = other;
  if (recent_.size() < kRecentCap) {
    recent_.push_back(rec);
  } else {
    recent_[recent_head_] = rec;
    recent_head_ = (recent_head_ + 1) % kRecentCap;
  }
  if (trace_ != nullptr) {
    trace_->Record(period_start, kVerdictCategory, static_cast<int>(domain), VerdictEvent(res, v),
                   value, static_cast<double>(other));
  }
}

ConformanceMonitor::Summary ConformanceMonitor::SummaryOf(uint32_t domain, Resource res) const {
  const Contract* c = Find(domain, res);
  return c != nullptr ? c->summary : Summary{};
}

std::vector<ConformanceMonitor::VerdictRecord> ConformanceMonitor::recent() const {
  std::vector<VerdictRecord> out;
  out.reserve(recent_.size());
  for (size_t i = 0; i < recent_.size(); ++i) {
    out.push_back(recent_[(recent_head_ + i) % recent_.size()]);
  }
  return out;
}

}  // namespace nemesis
