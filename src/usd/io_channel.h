// USD transaction types and the client-side IO channel.
//
// Clients communicate with the USD through FIFO buffered channels (the
// paper's IO channels, "similar in operation to the rbufs scheme"): a client
// owns a fixed number of slots; submitting a transaction consumes a slot and
// completion releases it, so a client can pipeline up to `depth` transactions
// (Figure 9's file-system client trades buffer space for latency this way).
//
// The buffers are the client's (DESIGN.md "IO-channel buffers"): a request
// names a span of client memory, and when the transaction completes the USD
// moves the bytes straight between the disk and that span, as a DMA engine
// would. No payload travels with the request or the reply.
#ifndef SRC_USD_IO_CHANNEL_H_
#define SRC_USD_IO_CHANNEL_H_

#include <cstdint>
#include <span>

#include "src/sim/time.h"

namespace nemesis {

struct UsdRequest {
  uint64_t id = 0;         // client-chosen tag, echoed in the reply
  uint64_t lba = 0;        // absolute disk block address
  uint32_t nblocks = 0;
  bool is_write = false;
  // Fault trace id threading the observability span through the disk stage
  // (0 = not part of a traced fault). The high 32 bits carry the domain id.
  uint64_t trace_id = 0;
  // The client-owned transfer buffer: the destination of a read, the source
  // of a write, exactly nblocks * block_size bytes. The bytes move at
  // completion time, so the buffer must stay valid and untouched until the
  // reply is received (the pager names a nailed frame). Empty = a
  // timing-only transaction that moves no bytes.
  std::span<uint8_t> buffer;
};

struct UsdReply {
  uint64_t id = 0;
  bool ok = false;
  SimDuration service_time = 0;  // time the transaction occupied the disk
};

// Per-client batching policy. When enabled, the USD service loop — once the
// Atropos pick has granted this client the head — drains the client's queue
// for coalescable requests and issues them as ONE chained disk transaction,
// charging the combined service time in a single Charge and fanning the
// completions back out per request on the reply channel. Default OFF: a
// client that does not opt in is served one transaction per pick, exactly as
// before.
struct UsdBatchPolicy {
  bool enabled = false;
  // Cap on the number of requests coalesced into one chain.
  uint32_t max_requests = 32;
  // Cap on the total blocks moved by one chain.
  uint32_t max_batch_blocks = 2048;  // 1 MiB at 512-byte blocks
};

// A contiguous range of disk blocks a client is entitled to access. The USD
// validates every transaction against its client's extents — this is what
// makes the disk "user-safe".
struct Extent {
  uint64_t start = 0;
  uint64_t length = 0;

  bool Covers(uint64_t lba, uint32_t nblocks) const {
    return lba >= start && lba + nblocks <= start + length;
  }
};

}  // namespace nemesis

#endif  // SRC_USD_IO_CHANNEL_H_
