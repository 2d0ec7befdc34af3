// The User-Safe Disk (paper §6.7): schedules raw disk transactions between
// clients according to QoS tuples (p, s, x, l) using the Atropos algorithm.
//
// A single service task wakes whenever there are pending requests, asks the
// Atropos core for the EDF-eligible client, and performs ONE transaction; the
// measured service time is charged against the client's slice. When the
// chosen client has no queued transaction but laxity remaining, the service
// task idles on the client's behalf and charges the idle time to it — the
// paper's fix for the short-block problem exhibited by pagers that cannot
// pipeline. Roll-over accounting lets a final transaction overrun the slice
// and deducts the deficit from the next allocation.
//
// Batching (per-client opt-in, see UsdBatchPolicy): when the Atropos pick
// grants a client the head, the service loop drains its queue for
// LBA-contiguous same-direction requests — up to the policy caps and the
// pick's slice budget — and issues them as one
// chained disk transaction. The combined service time is charged once; each
// request still gets its own reply (FIFO, one pipeline slot released each).
// A batch never spans extents and only its first transaction may overrun the
// slice (the roll-over rule). The default policy is OFF, which leaves every
// client on the exact one-transaction-per-pick path.
//
// Data moves at completion time, straight between the disk's store and the
// buffer the request names (see io_channel.h). A client whose owner is dying
// is detached first (UsdClient::Detach): its requests are still served and
// charged, so simulated time is unchanged, but they move no bytes, so a
// reclaimed frame handed to another domain is never written or read on the
// dead client's behalf. A client closed mid-transaction (defunct) is treated
// the same way.
//
// Trace records emitted (category "usd"): "txn" (start time, value_a =
// duration ms, value_b = client remaining ms), "batch" (chain start time,
// value_a = combined duration ms, value_b = requests in the chain; followed
// by per-request "txn" records), "slack-txn" (a transaction served in slack
// time, value_b = 0), "lax" (from the Atropos core), "alloc" (new periodic
// allocation). A defunct client's transactions record no txn/slack-txn.
#ifndef SRC_USD_USD_H_
#define SRC_USD_USD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/base/expected.h"
#include "src/hw/disk.h"
#include "src/obs/counter.h"
#include "src/sched/atropos.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"
#include "src/usd/io_channel.h"

namespace nemesis {

class Obs;

enum class UsdError {
  kOverCommitted,
  kInvalidSpec,
  kUnknownClient,
};

class Usd;

// Client handle: the application-side end of an IO channel plus the QoS
// registration. Obtain via Usd::OpenClient.
class UsdClient {
 public:
  // Waits for a free pipeline slot (rbuf). Must complete before Push.
  Semaphore::AcquireAwaiter AcquireSlot() { return slots_.Acquire(); }

  // Submits a transaction (requires a previously acquired slot). Extent
  // violations produce an ok=false reply without touching the disk.
  void Push(const UsdRequest& request);

  // Stops all data movement for this client's requests, queued and in
  // service, from now on: they are still served, charged and replied to,
  // but no bytes reach or leave their buffers. The owner calls this before
  // it releases any buffer an in-flight request names (a killed domain,
  // before its frames are reclaimed). Permanent.
  void Detach() { detached_ = true; }
  bool detached() const { return detached_; }

  // Receives the next completion (FIFO per client) and releases its pipeline
  // slot, rbufs-style: a client has at most `depth` transactions anywhere in
  // the system (queued, in service, or completed-but-unread).
  struct ReplyAwaiter {
    UsdClient* client;
    Mailbox<UsdReply>::RecvAwaiter inner;

    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) { inner.await_suspend(h); }
    UsdReply await_resume() {
      UsdReply reply = inner.await_resume();
      client->slots_.Release();
      return reply;
    }
  };

  ReplyAwaiter ReceiveReply() { return ReplyAwaiter{this, replies_.Recv()}; }

  // Grants access to a block range. Called by the SFS / system, not by the
  // application itself.
  void AddExtent(Extent extent) { extents_.push_back(extent); }

  // Opts this client in to (or out of) request coalescing. Takes effect from
  // the next Atropos pick; safe to call at any time.
  void set_batch_policy(UsdBatchPolicy policy) { batch_policy_ = policy; }
  const UsdBatchPolicy& batch_policy() const { return batch_policy_; }

  const std::string& name() const { return name_; }
  SchedClientId sched_id() const { return sched_id_; }
  size_t depth() const { return depth_; }
  uint32_t block_size() const;
  // Pipeline slots not currently in flight. Lets a pipelined issuer (the
  // async pager) bound a speculative burst without suspending on AcquireSlot.
  size_t free_slots() const { return slots_.count() > 0 ? static_cast<size_t>(slots_.count()) : 0; }
  size_t queued() const { return queue_.size(); }
  uint64_t transactions() const { return transactions_.value(); }
  uint64_t bytes_transferred() const { return bytes_transferred_.value(); }
  uint64_t rejected() const { return rejected_.value(); }
  uint64_t batches() const { return batches_.value(); }
  uint64_t batched_requests() const { return batched_requests_.value(); }

 private:
  friend class Usd;

  UsdClient(Usd& usd, std::string name, SchedClientId sched_id, size_t depth, Simulator& sim)
      : usd_(usd), name_(std::move(name)), sched_id_(sched_id), depth_(depth),
        slots_(sim, static_cast<int64_t>(depth)), replies_(sim, depth), arrival_cv_(sim) {}

  // First granted extent covering the request, or nullptr.
  const Extent* CoveringExtent(uint64_t lba, uint32_t nblocks) const;

  Usd& usd_;
  std::string name_;
  SchedClientId sched_id_;
  size_t depth_;
  Semaphore slots_;
  Mailbox<UsdReply> replies_;
  std::deque<UsdRequest> queue_;
  std::vector<Extent> extents_;
  UsdBatchPolicy batch_policy_;
  // Signalled when one of THIS client's requests lands in the queue. The
  // laxity idle the service loop performs on a picked client's behalf waits
  // here, so unrelated clients' arrivals cannot cut the reserved window
  // short (they used to, via a shared arrival condition — under-charging the
  // picked client and handing its reserved head time to the newcomer).
  Condition arrival_cv_;
  // Set when CloseClient ran while the service loop held this client across
  // an in-flight transaction; the loop reaps the deferred object afterwards.
  bool defunct_ = false;
  bool detached_ = false;
  StatCounter transactions_;
  StatCounter bytes_transferred_;
  StatCounter rejected_;
  StatCounter batches_;           // multi-request chains issued
  StatCounter batched_requests_;  // requests carried by those chains
};

class Usd {
 public:
  Usd(Simulator& sim, Disk& disk, TraceRecorder* trace = nullptr);
  ~Usd();

  // Registers a client with QoS spec (p, s, x, l) and `depth` pipeline slots.
  // Admission control rejects specs whose slices over-commit the disk.
  Expected<UsdClient*, UsdError> OpenClient(std::string name, QosSpec spec, size_t depth = 1);

  // Removes the client's QoS reservation immediately. If the service loop is
  // mid-transaction (or mid-laxity-idle) on this client, destruction is
  // deferred until that transaction completes — the loop still holds the
  // pointer across its co_await — and performed by the loop itself.
  void CloseClient(UsdClient* client);

  // Spawns the service task; idempotent.
  void Start();

  AtroposScheduler& scheduler() { return sched_; }
  Disk& disk() { return disk_; }
  uint64_t transactions() const { return transactions_.value(); }

  // Observability hook; disk-stage spans are emitted only for requests whose
  // trace_id is set and only while obs->enabled().
  void set_obs(Obs* obs) { obs_ = obs; }

  // Batch accounting, audited by the invariant checker: the time charged to
  // clients for chained transactions must equal the disk busy time those
  // chains produced, exactly (both are integer nanoseconds).
  uint64_t batches() const { return batches_.value(); }
  SimDuration batch_charged() const { return batch_charged_; }
  SimDuration batch_busy() const { return batch_busy_; }

 private:
  friend class UsdClient;

  Task ServiceLoop();
  UsdClient* FindBySchedId(SchedClientId id);
  void OnRequestArrival(UsdClient& client);
  // Pops the head of `client`'s queue into batch_/batch_reqs_, then — when
  // the client's policy allows — keeps draining coalescable requests, bounded
  // by the policy caps, the covering extent, and `slice_budget` (cumulative
  // chain cost; the first request alone may exceed it, the roll-over rule).
  void AssembleBatch(UsdClient& client, SimDuration slice_budget);
  // Finishes one served request at its completion time: moves its bytes
  // (unless the client is detached or defunct), counts it, records `event`
  // (value_b = `value_b`) unless the client is defunct, closes the disk span
  // and posts the reply. `start`/`t` are the request's own service interval.
  void Complete(UsdClient& client, const UsdRequest& request, SimTime start, SimDuration t,
                TraceName event, double value_b);
  // Destroys clients whose CloseClient arrived while the loop was holding
  // them across an in-flight transaction. Must only run at loop points where
  // no UsdClient pointer is live.
  void ReapDefunct();

  Simulator& sim_;
  Disk& disk_;
  TraceRecorder* trace_;
  Obs* obs_ = nullptr;
  AtroposScheduler sched_;
  Condition work_cv_;
  std::vector<std::unique_ptr<UsdClient>> clients_;
  // Clients closed while in service: kept alive until the loop's in-flight
  // transaction completes, then reaped (the use-after-free fix).
  std::vector<std::unique_ptr<UsdClient>> defunct_;
  UsdClient* in_service_ = nullptr;
  TaskHandle service_task_;
  bool started_ = false;
  StatCounter transactions_;
  StatCounter batches_;
  SimDuration batch_charged_ = 0;
  SimDuration batch_busy_ = 0;
  // Scratch for batch assembly (capacity reused across picks).
  std::vector<UsdRequest> batch_;
  std::vector<DiskRequest> batch_reqs_;
  DiskChainEval chain_eval_;
};

}  // namespace nemesis

#endif  // SRC_USD_USD_H_
