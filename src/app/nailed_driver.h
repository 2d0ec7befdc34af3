// Nailed stretch driver (paper §6.6): "provides physical frames to back a
// stretch at bind time, and hence never deals with page faults." Frames are
// marked nailed in the RamTab, so neither the application nor revocation can
// take them away without unbinding.
#ifndef SRC_APP_NAILED_DRIVER_H_
#define SRC_APP_NAILED_DRIVER_H_

#include <vector>

#include "src/app/driver_env.h"
#include "src/app/stretch_driver.h"

namespace nemesis {

class NailedStretchDriver : public StretchDriver {
 public:
  explicit NailedStretchDriver(DriverEnv env) : env_(env) {}

  // Allocates and maps (then nails) a frame for every page of the stretch.
  // Fails if the domain's frame contract cannot cover the stretch right now.
  Status<VmError> Bind(Stretch* stretch) override;

  FaultResult HandleFault(const FaultRecord& fault, Stretch& stretch) override;
  Task ResolveFault(FaultRecord fault, Stretch* stretch, FaultResult* result) override;
  // Nailed frames are immune to revocation: relinquishes nothing.
  Task RelinquishFrames(uint64_t target, uint64_t* freed) override;

  const char* kind() const override { return "nailed"; }

  size_t frames_held() const { return frames_.size(); }

 private:
  DriverEnv env_;
  std::vector<Pfn> frames_;
};

}  // namespace nemesis

#endif  // SRC_APP_NAILED_DRIVER_H_
