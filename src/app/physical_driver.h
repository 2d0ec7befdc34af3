// Physical stretch driver (paper §6.6): "provides no backing frames for any
// virtual addresses within a stretch initially. The first authorised attempt
// to access any virtual address within a stretch will cause a page fault."
//
// Fast path (notification handler): look for an unused frame among the frames
// the domain already owns; if found, map it and return Success, otherwise
// return Retry. Worker path: negotiate additional frames with the frames
// allocator (IDC), waiting out revocations when necessary.
#ifndef SRC_APP_PHYSICAL_DRIVER_H_
#define SRC_APP_PHYSICAL_DRIVER_H_

#include <optional>

#include "src/app/driver_env.h"
#include "src/app/stretch_driver.h"

namespace nemesis {

class PhysicalStretchDriver : public StretchDriver {
 public:
  explicit PhysicalStretchDriver(DriverEnv env) : env_(env) {}

  Status<VmError> Bind(Stretch* stretch) override;
  FaultResult HandleFault(const FaultRecord& fault, Stretch& stretch) override;
  Task ResolveFault(FaultRecord fault, Stretch* stretch, FaultResult* result) override;
  Task RelinquishFrames(uint64_t target, uint64_t* freed) override;

  const char* kind() const override { return "physical"; }

  uint64_t fast_maps() const { return fast_maps_.value(); }
  uint64_t slow_maps() const { return slow_maps_.value(); }

 protected:
  // Finds an unused frame on the domain's frame stack, if any.
  std::optional<Pfn> FindUnusedOwnedFrame() const;

  // Zeroes `pfn` and maps it at `va` (demand-zero semantics).
  Status<VmError> MapZeroedFrame(VirtAddr va, Pfn pfn);

  DriverEnv env_;
  StatCounter fast_maps_;
  StatCounter slow_maps_;
};

}  // namespace nemesis

#endif  // SRC_APP_PHYSICAL_DRIVER_H_
