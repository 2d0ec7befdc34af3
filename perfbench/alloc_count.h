// Heap-allocation counter for the benchmark binary.
//
// alloc_count.cc replaces the global operator new for the whole process, so
// every allocation the simulator makes (coroutine frames, task states,
// std::function boxes, container growth) is seen without touching src/.
// Counting is switched on only around the measured phase of a traced
// repetition; while it is off, operator new costs one extra predictable
// branch.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace nemesis::perfbench {

void SetAllocCounting(bool on);
uint64_t AllocCount();

}  // namespace nemesis::perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
