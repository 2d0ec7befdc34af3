#include "src/usd/usd.h"

#include <utility>

#include "src/base/assert.h"
#include "src/base/log.h"
#include "src/obs/obs.h"

namespace nemesis {

namespace {

const TraceName kUsd("usd");
const TraceName kTxn("txn");
const TraceName kSlackTxn("slack-txn");
const TraceName kBatch("batch");

}  // namespace

Usd::Usd(Simulator& sim, Disk& disk, TraceRecorder* trace)
    : sim_(sim), disk_(disk), trace_(trace), sched_(sim, trace), work_cv_(sim) {
  sched_.set_wakeup([this] { work_cv_.NotifyAll(); });
}

Usd::~Usd() {
  if (service_task_.valid()) {
    service_task_.Kill();
  }
}

Expected<UsdClient*, UsdError> Usd::OpenClient(std::string name, QosSpec spec, size_t depth) {
  NEM_ASSERT(depth >= 1);
  auto admitted = sched_.Admit(name, spec);
  if (!admitted.has_value()) {
    return MakeUnexpected(admitted.error() == AdmitError::kOverCommitted
                              ? UsdError::kOverCommitted
                              : UsdError::kInvalidSpec);
  }
  clients_.push_back(std::unique_ptr<UsdClient>(
      new UsdClient(*this, std::move(name), *admitted, depth, sim_)));
  return clients_.back().get();
}

void Usd::CloseClient(UsdClient* client) {
  sched_.Remove(client->sched_id());
  for (auto it = clients_.begin(); it != clients_.end(); ++it) {
    if (it->get() != client) {
      continue;
    }
    if (client == in_service_) {
      // The service loop holds this pointer across a co_await on the
      // in-flight transaction; destroying the client now would leave the
      // loop writing freed memory when it resumes. Keep the object alive
      // until the transaction completes; the loop reaps it.
      client->defunct_ = true;
      defunct_.push_back(std::move(*it));
    }
    clients_.erase(it);
    return;
  }
}

void Usd::ReapDefunct() {
  defunct_.clear();
}

void Usd::Start() {
  if (!started_) {
    started_ = true;
    service_task_ = sim_.Spawn(ServiceLoop(), "usd-service");
  }
}

UsdClient* Usd::FindBySchedId(SchedClientId id) {
  for (auto& c : clients_) {
    if (c->sched_id_ == id) {
      return c.get();
    }
  }
  return nullptr;
}

uint32_t UsdClient::block_size() const { return usd_.disk_.geometry().block_size; }

void UsdClient::Push(const UsdRequest& request) {
  NEM_ASSERT_MSG(request.buffer.empty() ||
                     request.buffer.size() == static_cast<size_t>(request.nblocks) * block_size(),
                 "USD buffer must cover exactly the request's blocks");
  // User-safety: validate the transaction against the granted extents before
  // it ever reaches the disk.
  bool allowed = false;
  for (const auto& e : extents_) {
    if (e.Covers(request.lba, request.nblocks)) {
      allowed = true;
      break;
    }
  }
  if (!allowed) {
    rejected_.Inc();
    UsdReply reply;
    reply.id = request.id;
    reply.ok = false;
    const bool sent = replies_.TrySend(reply);
    NEM_ASSERT(sent);
    return;
  }
  queue_.push_back(request);
  usd_.OnRequestArrival(*this);
}

void Usd::OnRequestArrival(UsdClient& client) {
  sched_.SetQueued(client.sched_id_, static_cast<uint32_t>(client.queue_.size()));
  // Only the owning client's condition is signalled: a laxity idle reserved
  // for the picked client must not be cut short (and mis-charged) by some
  // other client's arrival.
  client.arrival_cv_.NotifyAll();
  work_cv_.NotifyAll();
}

const Extent* UsdClient::CoveringExtent(uint64_t lba, uint32_t nblocks) const {
  for (const auto& e : extents_) {
    if (e.Covers(lba, nblocks)) {
      return &e;
    }
  }
  return nullptr;
}

void Usd::AssembleBatch(UsdClient& client, SimDuration slice_budget) {
  batch_.clear();
  batch_reqs_.clear();
  batch_.push_back(std::move(client.queue_.front()));
  client.queue_.pop_front();

  const UsdBatchPolicy& policy = client.batch_policy_;
  if (policy.enabled) {
    // A batch never spans extents: every member must fit the extent covering
    // the head request. (Push already validated each request individually.)
    const Extent* extent = client.CoveringExtent(batch_[0].lba, batch_[0].nblocks);
    uint64_t chain_end = batch_[0].lba + batch_[0].nblocks;
    uint64_t blocks = batch_[0].nblocks;
    while (extent != nullptr && batch_.size() < policy.max_requests &&
           !client.queue_.empty()) {
      const UsdRequest& next = client.queue_.front();
      if (next.is_write != batch_[0].is_write || next.lba != chain_end ||
          blocks + next.nblocks > policy.max_batch_blocks ||
          !extent->Covers(next.lba, next.nblocks)) {
        break;
      }
      blocks += next.nblocks;
      chain_end = next.lba + next.nblocks;
      batch_.push_back(std::move(client.queue_.front()));
      client.queue_.pop_front();
    }
  }

  for (const UsdRequest& r : batch_) {
    batch_reqs_.push_back(DiskRequest{r.lba, r.nblocks, r.is_write});
  }

  if (batch_.size() > 1) {
    // Budget cutoff (the roll-over rule extended to chains): keep the longest
    // prefix whose cumulative cost fits the remaining slice; the head request
    // alone may overrun, exactly as a single transaction may. Per-request
    // chain costs depend only on earlier segments, so a prefix's sum is the
    // true cost of the truncated chain.
    disk_.CostChain(batch_reqs_, sim_.Now(), chain_eval_);
    size_t keep = 1;
    SimDuration cumulative = chain_eval_.per_request[0];
    for (size_t i = 1; i < batch_.size(); ++i) {
      cumulative += chain_eval_.per_request[i];
      if (cumulative > slice_budget) {
        break;
      }
      keep = i + 1;
    }
    for (size_t i = batch_.size(); i > keep; --i) {
      client.queue_.push_front(std::move(batch_[i - 1]));
    }
    batch_.resize(keep);
    batch_reqs_.resize(keep);
  }
}

void Usd::Complete(UsdClient& client, const UsdRequest& request, SimTime start, SimDuration t,
                   TraceName event, double value_b) {
  // The transfer happens now, at completion: the platter must not show bytes
  // that have not arrived, nor a read return bytes written after it ended.
  if (!request.buffer.empty() && !client.detached_ && !client.defunct_) {
    if (request.is_write) {
      disk_.WriteData(request.lba, request.buffer);
    } else {
      disk_.ReadInto(request.lba, request.buffer);
    }
  }
  transactions_.Inc();
  client.transactions_.Inc();
  client.bytes_transferred_.Add(static_cast<uint64_t>(request.nblocks) *
                                disk_.geometry().block_size);
  if (trace_ != nullptr && !client.defunct_) {
    trace_->Record(start, kUsd, static_cast<int>(client.sched_id_), event, ToMilliseconds(t),
                   value_b);
  }
  if (obs_ != nullptr && request.trace_id != 0) {
    // The request's disk stage; DiskSpan routes demand fault ids to category
    // "span" and background pipeline ids to "bg".
    obs_->DiskSpan(start, request.trace_id, ToMilliseconds(t));
  }
  const bool sent = client.replies_.TrySend(UsdReply{request.id, true, t});
  NEM_ASSERT(sent);
}

Task Usd::ServiceLoop() {
  for (;;) {
    auto pick = sched_.PickNext();
    if (!pick.has_value()) {
      // No guaranteed work: hand slack time to an x-flagged client, if any.
      auto slack = sched_.PickSlack();
      if (slack.has_value()) {
        UsdClient* client = FindBySchedId(*slack);
        if (client != nullptr && !client->queue_.empty()) {
          UsdRequest request = std::move(client->queue_.front());
          client->queue_.pop_front();
          sched_.SetQueued(client->sched_id_, static_cast<uint32_t>(client->queue_.size()));
          const SimTime start = sim_.Now();
          const SimDuration t = disk_.Access(
              DiskRequest{request.lba, request.nblocks, request.is_write}, start);
          in_service_ = client;
          co_await SleepFor(sim_, t);
          in_service_ = nullptr;
          // Slack time is free: no charge against the guarantee.
          Complete(*client, request, start, t, kSlackTxn, 0.0);
          ReapDefunct();
          continue;
        }
      }
      co_await work_cv_.Wait();
      continue;
    }

    UsdClient* client = FindBySchedId(pick->client);
    if (client == nullptr) {
      continue;
    }

    if (pick->lax) {
      // Idle on the client's behalf: the head stays reserved for it so that
      // the single-transaction-outstanding pager can issue its next request
      // back-to-back. The idle time is charged exactly like disk time.
      const SimTime start = sim_.Now();
      in_service_ = client;
      (void)co_await client->arrival_cv_.WaitFor(pick->budget);
      in_service_ = nullptr;
      const SimDuration spent = sim_.Now() - start;
      sched_.Charge(pick->client, spent, /*was_lax=*/true);
      ReapDefunct();
      continue;
    }

    NEM_ASSERT(!client->queue_.empty());
    AssembleBatch(*client, pick->slice_remaining);
    sched_.SetQueued(client->sched_id_, static_cast<uint32_t>(client->queue_.size()));

    const SimTime start = sim_.Now();
    const SimDuration busy_before = disk_.stats().busy_time;
    const SimDuration t = disk_.AccessChain(batch_reqs_, start, chain_eval_);
    const SimDuration busy_delta = disk_.stats().busy_time - busy_before;
    in_service_ = client;
    co_await SleepFor(sim_, t);
    in_service_ = nullptr;
    // One Charge for the whole chain: the combined service time. (For a
    // removed-mid-flight client the sched entry is gone and Charge is a
    // no-op.)
    sched_.Charge(pick->client, t, /*was_lax=*/false);
    if (batch_.size() > 1) {
      batches_.Inc();
      client->batches_.Inc();
      client->batched_requests_.Add(batch_.size());
      batch_charged_ += t;
      batch_busy_ += busy_delta;
      if (trace_ != nullptr) {
        trace_->Record(start, kUsd, static_cast<int>(client->sched_id_), kBatch,
                       ToMilliseconds(t), static_cast<double>(batch_.size()));
      }
    }
    // Completion-time data transfer and per-request reply fan-out, in FIFO
    // order; each reply releases one pipeline slot when received.
    // (A defunct client has left the scheduler and records no txn.)
    const double remaining_ms =
        client->defunct_ ? 0.0 : ToMilliseconds(sched_.remaining(pick->client));
    SimTime req_start = start;
    for (size_t i = 0; i < batch_.size(); ++i) {
      const SimDuration rt = chain_eval_.per_request[i];
      Complete(*client, batch_[i], req_start, rt, kTxn, remaining_ms);
      req_start += rt;
    }
    batch_.clear();
    batch_reqs_.clear();
    ReapDefunct();
  }
}

}  // namespace nemesis
