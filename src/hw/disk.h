// Disk mechanism model with real (sparse) block contents.
//
// Contents live in one ZeroedArray covering the whole disk, so the host backs
// only the blocks that have been written and a block never written reads as
// zeros. A transfer is one memcpy.
//
// Timing follows the paper's testbed: a 5400 rpm Quantum VP3221 (2.1 GB,
// 4,304,536 × 512-byte blocks) behind an NCR53c810 Fast SCSI-2 controller,
// read caching enabled and write caching disabled. The model captures the
// three regimes the evaluation depends on:
//   * scattered transactions pay seek + rotation + transfer (≈ 10 ms),
//   * sequential reads hit the drive's read-ahead cache (≈ 1–2 ms),
//   * writes always take the mechanical path (write cache off).
#ifndef SRC_HW_DISK_H_
#define SRC_HW_DISK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/base/assert.h"
#include "src/base/zeroed_array.h"
#include "src/sim/time.h"

namespace nemesis {

struct DiskGeometry {
  uint64_t total_blocks = 4304536;  // Quantum VP3221
  uint32_t block_size = 512;
  uint32_t rpm = 5400;
  uint32_t sectors_per_track = 120;
  uint32_t heads = 6;

  // Seek curve: seek(d) = min + (max - min) * sqrt(d / cylinders).
  double seek_min_ms = 1.5;
  double seek_max_ms = 16.0;
  double head_switch_ms = 1.0;

  // SCSI command / controller overhead applied to every transaction.
  double command_overhead_ms = 0.3;
  // Host transfer rate for cache hits (Fast SCSI-2 ≈ 10 MB/s).
  double bus_rate_mb_s = 10.0;

  bool read_cache_enabled = true;
  uint32_t cache_segments = 8;
  uint32_t readahead_blocks = 256;  // 128 KiB read-ahead per segment

  uint32_t blocks_per_cylinder() const { return sectors_per_track * heads; }
  uint64_t cylinders() const { return (total_blocks + blocks_per_cylinder() - 1) / blocks_per_cylinder(); }
  SimDuration revolution_time() const { return Seconds(60) / rpm; }
  // Media transfer time for one block (one sector passes under the head).
  SimDuration block_transfer_time() const { return revolution_time() / sectors_per_track; }
};

struct DiskRequest {
  uint64_t lba = 0;
  uint32_t nblocks = 0;
  bool is_write = false;
};

// Evaluation of a chained transaction (see Disk::CostChain). `per_request[i]`
// is the incremental service time of segment i; a segment's cost depends only
// on the segments before it, so the prefix sum through i is exactly the cost
// of the chain truncated after segment i — callers use this to cut a batch at
// a time budget without re-costing. The vector keeps its capacity across
// reuse, so a recycled DiskChainEval allocates nothing in the steady state.
struct DiskChainEval {
  SimDuration total = 0;
  std::vector<SimDuration> per_request;
  std::vector<uint8_t> segment_cache_hit;  // per segment: served from the read cache
  uint32_t seeks = 0;
  uint32_t cache_hits = 0;
};

struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cache_hits = 0;
  uint64_t seeks = 0;
  uint64_t blocks_transferred = 0;
  SimDuration busy_time = 0;
};

class Disk {
 public:
  explicit Disk(DiskGeometry geometry = DiskGeometry{});

  const DiskGeometry& geometry() const { return geometry_; }
  const DiskStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DiskStats{}; }

  // Computes the service time for the transaction starting at simulated time
  // `now`, updates head/cache state, and returns the duration: a one-segment
  // AccessChain. Data transfer is performed separately with ReadData/WriteData.
  SimDuration Access(const DiskRequest& request, SimTime now);

  // Costs `requests` issued as ONE chained transaction starting at `now`,
  // without mutating any drive state. The first segment pays the full
  // single-transaction cost (cache hit or mechanical). Every later segment is
  // command-chained, so the per-transaction SCSI command overhead is
  // suppressed: an LBA-contiguous same-direction segment streams at media
  // rate (transfer + head switches, no seek and no rotational wait — the head
  // is already positioned), while a non-contiguous segment still pays seek
  // and rotational delay. This is the batching win: an unbatched sequential
  // write stream misses a revolution per transaction (command overhead lets
  // the target sector slip past the head), a chained one does not.
  void CostChain(std::span<const DiskRequest> requests, SimTime now, DiskChainEval& eval) const;

  // Commits a chain evaluated at `now`: one busy interval covering all
  // segments, with head position, cache fills/invalidations and stats updated
  // in segment order. Returns the total service time.
  SimDuration AccessChain(std::span<const DiskRequest> requests, SimTime now,
                          DiskChainEval& eval);

  // Block content access (sparse backing store). `data`/`out` cover whole
  // blocks from `lba` and lie inside the disk (asserted). ReadInto copies
  // straight out of the store into `out`; blocks never written read as zeros.
  // ReadData is the allocating form.
  void WriteData(uint64_t lba, std::span<const uint8_t> data);
  void ReadInto(uint64_t lba, std::span<uint8_t> out) const;
  std::vector<uint8_t> ReadData(uint64_t lba, uint32_t nblocks) const;

  // True when the request would be served entirely from the read cache.
  bool WouldHitCache(const DiskRequest& request) const;

 private:
  struct CacheSegment {
    bool valid = false;
    uint64_t start = 0;  // first cached block
    uint64_t end = 0;    // one past last cached block
    uint64_t last_used = 0;
  };

  SimDuration SeekTime(uint64_t from_cylinder, uint64_t target_cylinder) const;
  // Pure mechanical costing from an arbitrary head position. `chained`
  // suppresses the per-transaction command overhead (the segment rides an
  // already-issued command chain). `seeked` reports whether a seek occurred.
  SimDuration MechanicalCost(const DiskRequest& request, SimTime now, uint64_t from_cylinder,
                             bool chained, bool* seeked) const;
  // Media-rate continuation cost for an LBA-contiguous chained segment.
  SimDuration StreamingCost(const DiskRequest& request, uint64_t prev_last_block) const;
  // Cache-hit costing (controller overhead + host transfer).
  SimDuration CacheHitCost(const DiskRequest& request) const;
  void FillCache(uint64_t lba, uint32_t nblocks);
  void InvalidateCacheRange(uint64_t lba, uint32_t nblocks);
  // Byte offset of a transfer of `bytes` starting at `lba`; asserts that it
  // covers whole blocks inside the disk.
  size_t StoreOffset(uint64_t lba, size_t bytes) const;

  DiskGeometry geometry_;
  DiskStats stats_;
  uint64_t current_cylinder_ = 0;
  uint64_t cache_clock_ = 0;
  std::vector<CacheSegment> cache_;
  DiskChainEval scratch_;  // Access's one-segment chain
  ZeroedArray<uint8_t> store_;  // block b at bytes [b * block_size, (b + 1) * block_size)
};

}  // namespace nemesis

#endif  // SRC_HW_DISK_H_
