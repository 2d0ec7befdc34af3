// Kernel-level domain state: event endpoints with 64-bit counters, the saved
// fault records, and the activation condition the application-level
// activation loop blocks on.
//
// Events are the paper's "extremely lightweight primitive ... an event
// transmission involves a few sanity checks followed by the increment of a
// 64-bit value". Notification handlers are registered per endpoint and run by
// the application's activation loop while activations are off.
#ifndef SRC_KERNEL_DOMAIN_H_
#define SRC_KERNEL_DOMAIN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/kernel/types.h"
#include "src/sim/sync.h"

namespace nemesis {

class Kernel;

class Domain {
 public:
  // Handler invoked with (endpoint, new counter value) during event dispatch.
  using NotificationHandler = std::function<void(EndpointId, uint64_t)>;

  Domain(Kernel& kernel, DomainId id, std::string name, Simulator& sim);
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  DomainId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool alive() const { return alive_; }

  // --- Event endpoints -----------------------------------------------------

  EndpointId AllocEndpoint();
  size_t endpoint_count() const { return endpoints_.size(); }

  // The dedicated endpoint the kernel sends memory-fault events to.
  EndpointId fault_endpoint() const { return fault_endpoint_; }

  uint64_t EventValue(EndpointId ep) const;
  uint64_t EventAcked(EndpointId ep) const;

  void SetNotificationHandler(EndpointId ep, NotificationHandler handler);

  // True when some endpoint has unacknowledged events.
  bool HasPendingEvents() const;

  // Runs the notification handler (if any) for every endpoint whose counter
  // advanced, acknowledging the events. Called by the activation loop with
  // activations off.
  void DispatchPendingEvents();

  // Signalled by the kernel whenever an event arrives; the application's
  // activation loop waits on it.
  Condition& activation_condition() { return activation_condition_; }

  // --- Fault records -------------------------------------------------------

  // The kernel saves fault context here before sending the fault event.
  std::deque<FaultRecord>& fault_queue() { return fault_queue_; }

  // Next fault trace id. Domain-scoped (high 32 bits carry the domain id, low
  // 32 the per-domain sequence): each domain numbers its own faults in
  // program order.
  uint64_t NextFaultId() { return (static_cast<uint64_t>(id_) << 32) | ++next_fault_seq_; }

  // --- Lifecycle -------------------------------------------------------------

  // Marks the domain dead (used by the frames allocator when an intrusive
  // revocation deadline is missed). The owner of application tasks is
  // responsible for killing them; this flips the kernel-visible state.
  void MarkDead() { alive_ = false; }

 private:
  friend class Kernel;

  struct Endpoint {
    uint64_t value = 0;
    uint64_t acked = 0;
    NotificationHandler handler;
  };

  Kernel& kernel_;
  DomainId id_;
  std::string name_;
  bool alive_ = true;
  std::vector<Endpoint> endpoints_;
  EndpointId fault_endpoint_ = 0;
  std::deque<FaultRecord> fault_queue_;
  uint64_t next_fault_seq_ = 0;
  Condition activation_condition_;
};

}  // namespace nemesis

#endif  // SRC_KERNEL_DOMAIN_H_
