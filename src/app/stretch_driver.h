// The stretch-driver interface (paper §6.6): "a stretch driver is something
// which provides physical resources to back the virtual addresses of the
// stretches it is responsible for. Stretch drivers acquire and manage their
// own physical frames, and are responsible for setting up virtual to physical
// mappings by invoking the translation system."
//
// Two invocation contexts, as in the paper:
//   * HandleFault: the fast path, called from inside the notification handler
//     (activations off — no inter-domain communication allowed). Returns
//     kSuccess when the fault was satisfied immediately, kRetry when a worker
//     thread must take over, kFailure when the fault is unresolvable.
//   * ResolveFault: the slow path, a worker-thread coroutine where IDC (e.g.
//     frames-allocator negotiation and USD transactions) is permitted.
#ifndef SRC_APP_STRETCH_DRIVER_H_
#define SRC_APP_STRETCH_DRIVER_H_

#include <cstdint>

#include "src/kernel/types.h"
#include "src/mm/stretch.h"
#include "src/sim/task.h"

namespace nemesis {

enum class FaultResult : uint8_t {
  kSuccess,  // fault satisfied; the faulting thread may continue
  kRetry,    // cannot proceed in this context; retry from a worker thread
  kFailure,  // unresolvable (e.g. out of quota and out of swap)
};

class StretchDriver {
 public:
  virtual ~StretchDriver() = default;

  // Associates the driver with a stretch. A stretch must be bound before its
  // virtual addresses are referenced.
  virtual Status<VmError> Bind(Stretch* stretch) = 0;

  // Fast path (notification-handler context; no IDC).
  virtual FaultResult HandleFault(const FaultRecord& fault, Stretch& stretch) = 0;

  // Slow path (worker-thread context; IDC allowed). Writes the outcome to
  // *result before completing.
  virtual Task ResolveFault(FaultRecord fault, Stretch* stretch, FaultResult* result) = 0;

  // Revocation support: release up to `target` frames (unmapping pages and
  // cleaning them to the backing store as necessary), leaving them unused and
  // at the top of the frame stack. Adds the number actually freed to *freed.
  virtual Task RelinquishFrames(uint64_t target, uint64_t* freed) = 0;

  // Stops any detached asynchronous driver work (read-ahead, writeback).
  // MmEntry::Stop() calls this when it kills its worker tasks outside a full
  // driver teardown — e.g. a domain whose activation loop dies while faults
  // are mid-eviction. IO awaited inline by a slow path (evict/swap) already
  // died with it. Must be safe to call repeatedly.
  virtual void Quiesce() {}

  // Human-readable driver kind ("nailed", "physical", "paged").
  virtual const char* kind() const = 0;
};

}  // namespace nemesis

#endif  // SRC_APP_STRETCH_DRIVER_H_
