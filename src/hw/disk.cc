#include "src/hw/disk.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace nemesis {

Disk::Disk(DiskGeometry geometry)
    : geometry_(geometry), cache_(geometry.cache_segments),
      store_(geometry.total_blocks * geometry.block_size) {}

SimDuration Disk::SeekTime(uint64_t from_cylinder, uint64_t target_cylinder) const {
  if (target_cylinder == from_cylinder) {
    return 0;
  }
  const uint64_t distance = target_cylinder > from_cylinder
                                ? target_cylinder - from_cylinder
                                : from_cylinder - target_cylinder;
  const double frac = static_cast<double>(distance) / static_cast<double>(geometry_.cylinders());
  const double ms = geometry_.seek_min_ms + (geometry_.seek_max_ms - geometry_.seek_min_ms) * std::sqrt(frac);
  return FromMilliseconds(ms);
}

bool Disk::WouldHitCache(const DiskRequest& request) const {
  if (request.is_write || !geometry_.read_cache_enabled) {
    return false;
  }
  const uint64_t end = request.lba + request.nblocks;
  for (const auto& seg : cache_) {
    if (seg.valid && request.lba >= seg.start && end <= seg.end) {
      return true;
    }
  }
  return false;
}

SimDuration Disk::MechanicalCost(const DiskRequest& request, SimTime now, uint64_t from_cylinder,
                                 bool chained, bool* seeked) const {
  SimDuration t = chained ? 0 : FromMilliseconds(geometry_.command_overhead_ms);
  const uint64_t target_cylinder = request.lba / geometry_.blocks_per_cylinder();
  const SimDuration seek = SeekTime(from_cylinder, target_cylinder);
  if (seeked != nullptr) {
    *seeked = seek > 0;
  }
  t += seek;

  // Rotational latency: the platter position is a pure function of absolute
  // time; wait for the target sector to pass under the head.
  const SimDuration rev = geometry_.revolution_time();
  const SimTime arrival = now + t;
  const uint64_t sector_in_track = request.lba % geometry_.sectors_per_track;
  const SimDuration target_angle = static_cast<SimDuration>(
      sector_in_track * (rev / geometry_.sectors_per_track));
  const SimDuration head_angle = arrival % rev;
  SimDuration rot_wait = target_angle - head_angle;
  if (rot_wait < 0) {
    rot_wait += rev;
  }
  t += rot_wait;

  // Media transfer, plus head switches when the request crosses tracks.
  t += static_cast<SimDuration>(request.nblocks) * geometry_.block_transfer_time();
  const uint64_t first_track = request.lba / geometry_.sectors_per_track;
  const uint64_t last_track = (request.lba + request.nblocks - 1) / geometry_.sectors_per_track;
  t += static_cast<SimDuration>(last_track - first_track) *
       FromMilliseconds(geometry_.head_switch_ms);
  return t;
}

SimDuration Disk::StreamingCost(const DiskRequest& request, uint64_t prev_last_block) const {
  // The head sits just past `prev_last_block` and the target sector is the
  // next one under it: no seek, no rotational wait, pure media streaming.
  SimDuration t = static_cast<SimDuration>(request.nblocks) * geometry_.block_transfer_time();
  const uint64_t first_track = request.lba / geometry_.sectors_per_track;
  const uint64_t last_track = (request.lba + request.nblocks - 1) / geometry_.sectors_per_track;
  uint64_t switches = last_track - first_track;
  if (prev_last_block / geometry_.sectors_per_track != first_track) {
    ++switches;  // the chain boundary itself crosses a track
  }
  t += static_cast<SimDuration>(switches) * FromMilliseconds(geometry_.head_switch_ms);
  return t;
}

SimDuration Disk::CacheHitCost(const DiskRequest& request) const {
  // Controller overhead + host (bus) transfer only.
  const double bytes = static_cast<double>(request.nblocks) * geometry_.block_size;
  return FromMilliseconds(geometry_.command_overhead_ms) +
         FromSeconds(bytes / (geometry_.bus_rate_mb_s * 1e6));
}

void Disk::FillCache(uint64_t lba, uint32_t nblocks) {
  // Read-ahead: the segment covers the request plus readahead_blocks.
  const uint64_t start = lba;
  const uint64_t end = std::min<uint64_t>(lba + nblocks + geometry_.readahead_blocks,
                                          geometry_.total_blocks);
  // Extend an adjacent/overlapping segment if one exists.
  for (auto& seg : cache_) {
    if (seg.valid && start >= seg.start && start <= seg.end) {
      seg.end = std::max(seg.end, end);
      seg.last_used = ++cache_clock_;
      return;
    }
  }
  // Otherwise evict the least recently used segment.
  CacheSegment* victim = &cache_[0];
  for (auto& seg : cache_) {
    if (!seg.valid) {
      victim = &seg;
      break;
    }
    if (seg.last_used < victim->last_used) {
      victim = &seg;
    }
  }
  *victim = CacheSegment{true, start, end, ++cache_clock_};
}

void Disk::InvalidateCacheRange(uint64_t lba, uint32_t nblocks) {
  const uint64_t end = lba + nblocks;
  for (auto& seg : cache_) {
    if (seg.valid && lba < seg.end && end > seg.start) {
      seg.valid = false;
    }
  }
}

SimDuration Disk::Access(const DiskRequest& request, SimTime now) {
  return AccessChain(std::span<const DiskRequest>(&request, 1), now, scratch_);
}

void Disk::CostChain(std::span<const DiskRequest> requests, SimTime now,
                     DiskChainEval& eval) const {
  NEM_ASSERT(!requests.empty());
  eval.total = 0;
  eval.per_request.clear();
  eval.segment_cache_hit.clear();
  eval.seeks = 0;
  eval.cache_hits = 0;
  uint64_t head_cylinder = current_cylinder_;
  uint64_t prev_end = 0;
  bool prev_is_write = false;
  bool first = true;
  for (const DiskRequest& request : requests) {
    NEM_ASSERT_MSG(request.lba + request.nblocks <= geometry_.total_blocks,
                   "disk access out of range");
    NEM_ASSERT(request.nblocks > 0);
    SimDuration t;
    bool hit = false;
    if (!request.is_write && WouldHitCache(request)) {
      // Cache hits (evaluated against the pre-chain cache state) never move
      // the head; a chained hit additionally skips the command overhead.
      hit = true;
      ++eval.cache_hits;
      t = CacheHitCost(request);
      if (!first) {
        t -= FromMilliseconds(geometry_.command_overhead_ms);
      }
    } else if (!first && request.lba == prev_end && request.is_write == prev_is_write) {
      t = StreamingCost(request, prev_end - 1);
      head_cylinder = request.lba / geometry_.blocks_per_cylinder();
    } else {
      bool seeked = false;
      t = MechanicalCost(request, now + eval.total, head_cylinder, /*chained=*/!first, &seeked);
      if (seeked) {
        ++eval.seeks;
      }
      head_cylinder = request.lba / geometry_.blocks_per_cylinder();
    }
    eval.total += t;
    eval.per_request.push_back(t);
    eval.segment_cache_hit.push_back(hit ? 1 : 0);
    prev_end = request.lba + request.nblocks;
    prev_is_write = request.is_write;
    first = false;
  }
}

SimDuration Disk::AccessChain(std::span<const DiskRequest> requests, SimTime now,
                              DiskChainEval& eval) {
  CostChain(requests, now, eval);
  stats_.seeks += eval.seeks;
  stats_.cache_hits += eval.cache_hits;
  bool moved_head = false;
  uint64_t final_cylinder = current_cylinder_;
  for (size_t i = 0; i < requests.size(); ++i) {
    const DiskRequest& request = requests[i];
    stats_.blocks_transferred += request.nblocks;
    if (request.is_write) {
      ++stats_.writes;
      InvalidateCacheRange(request.lba, request.nblocks);
      moved_head = true;
      final_cylinder = request.lba / geometry_.blocks_per_cylinder();
    } else {
      ++stats_.reads;
      // A cache hit keeps the head put; any other read is a media access.
      if (eval.segment_cache_hit[i] == 0) {
        moved_head = true;
        final_cylinder = request.lba / geometry_.blocks_per_cylinder();
      }
      if (geometry_.read_cache_enabled) {
        FillCache(request.lba, request.nblocks);
      }
    }
  }
  if (moved_head) {
    current_cylinder_ = final_cylinder;
  }
  stats_.busy_time += eval.total;
  return eval.total;
}

size_t Disk::StoreOffset(uint64_t lba, size_t bytes) const {
  NEM_ASSERT_MSG(bytes % geometry_.block_size == 0, "disk transfer is not whole blocks");
  NEM_ASSERT_MSG(lba <= geometry_.total_blocks &&
                     bytes / geometry_.block_size <= geometry_.total_blocks - lba,
                 "disk transfer out of range");
  return lba * geometry_.block_size;
}

void Disk::WriteData(uint64_t lba, std::span<const uint8_t> data) {
  std::memcpy(store_.data() + StoreOffset(lba, data.size()), data.data(), data.size());
}

void Disk::ReadInto(uint64_t lba, std::span<uint8_t> out) const {
  std::memcpy(out.data(), store_.data() + StoreOffset(lba, out.size()), out.size());
}

std::vector<uint8_t> Disk::ReadData(uint64_t lba, uint32_t nblocks) const {
  std::vector<uint8_t> out(static_cast<size_t>(nblocks) * geometry_.block_size);
  ReadInto(lba, out);
  return out;
}

}  // namespace nemesis
