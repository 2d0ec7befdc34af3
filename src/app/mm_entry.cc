#include "src/app/mm_entry.h"

#include <cstddef>
#include <utility>

#include "src/base/assert.h"
#include "src/base/log.h"

namespace nemesis {

MmEntry::MmEntry(DriverEnv env, Domain& domain, size_t num_workers)
    : env_(env), domain_(domain), num_workers_(num_workers), resolved_cv_(*env.sim),
      work_cv_(*env.sim) {
  NEM_ASSERT(num_workers >= 1);
}

MmEntry::~MmEntry() {
  // ~AppDomain destroys the drivers before this runs, and each driver's own
  // destructor already quiesced its IO tasks; drop the dangling pointers so
  // Stop() does not call into freed objects. No simulator step can interleave
  // between those destructors and this one, so no orphan can complete here.
  bindings_.clear();
  Stop();
}

void MmEntry::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  revoke_endpoint_ = domain_.AllocEndpoint();
  domain_.SetNotificationHandler(domain_.fault_endpoint(),
                                 [this](EndpointId, uint64_t) { OnFaultEvent(); });
  domain_.SetNotificationHandler(revoke_endpoint_,
                                 [this](EndpointId, uint64_t) { OnRevokeEvent(); });
  tasks_.push_back(env_.sim->Spawn(ActivationLoop(), domain_.name() + "/activations"));
  for (size_t i = 0; i < num_workers_; ++i) {
    tasks_.push_back(env_.sim->Spawn(Worker(), domain_.name() + "/mm-worker"));
  }
}

void MmEntry::Stop() {
  // Killing a worker destroys its frame and, with it, any driver slow path
  // (ResolveFault / RelinquishFrames) it is awaiting.
  for (auto& t : tasks_) {
    t.Kill();
  }
  tasks_.clear();
  // Quiesce every bound driver: its detached pipeline tasks (read-ahead,
  // writeback) would otherwise keep issuing IO for a domain that has stopped.
  // Outside full teardown (a hung domain) nothing else would stop them.
  for (const Binding& b : bindings_) {
    if (b.driver != nullptr) {
      b.driver->Quiesce();
    }
  }
  started_ = false;
}

void MmEntry::BindDriver(Stretch* stretch, StretchDriver* driver) {
  NEM_ASSERT(stretch != nullptr);
  if (Binding* b = FindBinding(stretch->sid())) {
    *b = Binding{stretch, driver};
  } else {
    bindings_.push_back(Binding{stretch, driver});
  }
  if (driver != nullptr) {
    NEM_ASSERT_MSG(driver->Bind(stretch).ok(), "stretch driver bind failed");
  }
}

bool MmEntry::ConsumeFailure(Vpn vpn) {
  auto it = failed_.find(vpn);
  if (it == failed_.end()) {
    return false;
  }
  failed_.erase(it);
  return true;
}

void MmEntry::NotifyRevocation(uint64_t k, SimTime /*deadline*/) {
  pending_revoke_k_ += k;
  env_.kernel->SendEvent(domain_.id(), revoke_endpoint_);
}

void MmEntry::CompleteFault(Vpn vpn, FaultResult result) {
  if (auto it = std::find(pending_.begin(), pending_.end(), vpn); it != pending_.end()) {
    *it = pending_.back();
    pending_.pop_back();
  }
  if (result == FaultResult::kFailure) {
    failed_.insert(vpn);
    faults_failed_.Inc();
  }
  resolved_cv_.NotifyAll();
}

void MmEntry::OnFaultEvent() {
  // Runs inside the activation handler: activations are off and no IDC may be
  // performed — only the fast-path driver attempt.
  Obs* obs = env_.obs;
  const bool observing = obs != nullptr && obs->enabled();
  while (!domain_.fault_queue().empty()) {
    const FaultRecord fault = domain_.fault_queue().front();
    domain_.fault_queue().pop_front();
    const Vpn vpn = fault.va / env_.page_size();
    const SimTime now = env_.sim->Now();

    if (observing) {
      // Dispatch latency: kernel raise -> this handler running. fault.time is
      // the raise timestamp stamped by Kernel::RaiseFault.
      const SimDuration d = now - fault.time;
      obs->Span(fault.time, domain_.id(), stage::kDispatch, ToMilliseconds(d), fault.id);
      if (Obs::DomainProbe* p = obs->probe(domain_.id())) {
        p->dispatch->Record(d);
      }
    }

    const Binding* binding = FindBinding(fault.sid);
    if (binding == nullptr || binding->driver == nullptr) {
      // Outside any stretch, in a stretch this domain never bound (another
      // domain's), or in one bound to no driver: unresolvable.
      failed_.insert(vpn);
      faults_failed_.Inc();
      if (observing) {
        obs->Span(now, domain_.id(), stage::kFailed, 0.0, fault.id);
      }
      resolved_cv_.NotifyAll();
      continue;
    }
    if (IsPending(vpn)) {
      // Another thread already faulted here; it is being handled.
      if (observing) {
        obs->Span(now, domain_.id(), stage::kCoalesced, 0.0, fault.id);
      }
      continue;
    }

    Stretch* stretch = binding->stretch;
    StretchDriver* driver = binding->driver;
    pending_.push_back(vpn);
    // "the memory fault notification handler demultiplexes the stretch to the
    // stretch driver, and invokes this in an initial attempt to satisfy the
    // fault" — the fast path.
    const FaultResult r = driver->HandleFault(fault, *stretch);
    if (r == FaultResult::kRetry) {
      // "the handler blocks the faulting thread, unblocks a worker thread,
      // and returns."
      if (observing) {
        obs->Span(now, domain_.id(), stage::kEnqueue, 0.0, fault.id);
      }
      jobs_.push_back(Job{Job::Kind::kFault, fault, stretch, driver, 0, now});
      work_cv_.NotifyAll();
    } else {
      faults_fast_path_.Inc();
      if (observing) {
        obs->Span(now, domain_.id(),
                  r == FaultResult::kFailure ? stage::kFailed : stage::kFastResolve, 0.0, fault.id);
      }
      CompleteFault(vpn, r);
    }
  }
}

void MmEntry::OnRevokeEvent() {
  if (pending_revoke_k_ == 0) {
    return;
  }
  jobs_.push_back(Job{Job::Kind::kRevoke, FaultRecord{}, nullptr, nullptr, pending_revoke_k_});
  pending_revoke_k_ = 0;
  work_cv_.NotifyAll();
}

Task MmEntry::ActivationLoop() {
  for (;;) {
    if (!domain_.alive()) {
      co_return;
    }
    if (!domain_.HasPendingEvents()) {
      co_await domain_.activation_condition().Wait();
      continue;
    }
    // The domain has been activated: run notification handlers with
    // activations off, then "enter the ULTS" (worker/faulting coroutines are
    // resumed through their conditions).
    domain_.DispatchPendingEvents();
  }
}

Task MmEntry::Worker() {
  for (;;) {
    while (jobs_.empty()) {
      co_await work_cv_.Wait();
    }
    Job job = std::move(jobs_.front());
    jobs_.pop_front();

    if (job.kind == Job::Kind::kFault) {
      const Vpn vpn = job.fault.va / env_.page_size();
      FaultResult result = FaultResult::kFailure;
      Obs* obs = env_.obs;
      const bool observing = obs != nullptr && obs->enabled();
      const SimTime start = env_.sim->Now();
      if (observing) {
        const SimDuration wait = start - job.enqueued_at;
        obs->Span(job.enqueued_at, domain_.id(), stage::kQueueWait, ToMilliseconds(wait),
                  job.fault.id);
        if (Obs::DomainProbe* p = obs->probe(domain_.id())) {
          p->queue_wait->Record(wait);
        }
      }
      // The driver's slow path runs on this worker, where it may perform IDC
      // (frames negotiation, USD transactions).
      co_await job.driver->ResolveFault(job.fault, job.stretch, &result);
      faults_worker_.Inc();
      if (observing) {
        const SimDuration took = env_.sim->Now() - start;
        obs->Span(start, domain_.id(), stage::kResolve, ToMilliseconds(took), job.fault.id);
        if (Obs::DomainProbe* p = obs->probe(domain_.id())) {
          p->resolve->Record(took);
        }
      }
      CompleteFault(vpn, result);
    } else {
      // "If handling a revocation notification, it cycles through each
      // stretch driver requesting that it relinquish frames until enough have
      // been freed."
      uint64_t freed = 0;
      for (size_t i = 0; i < bindings_.size() && freed < job.revoke_k; ++i) {
        StretchDriver* driver = bindings_[i].driver;
        const auto earlier = bindings_.begin() + static_cast<std::ptrdiff_t>(i);
        const bool asked = std::any_of(bindings_.begin(), earlier,
                                       [driver](const Binding& b) { return b.driver == driver; });
        if (driver != nullptr && !asked) {
          co_await driver->RelinquishFrames(job.revoke_k - freed, &freed);
        }
      }
      revocations_handled_.Inc();
      env_.frames->RevocationComplete(domain_.id());
    }
  }
}

}  // namespace nemesis
