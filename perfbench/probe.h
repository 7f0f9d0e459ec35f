// Probes the benchmark attaches from outside the library: per-thread event
// counters, a counting operator new, and a "sim" transport decorator. An
// untraced run uses none of them: allocation counting is off until
// SetTracing(true), and only a traced run's spec names the decorator.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>

namespace perfbench {

enum Counter {
  kAllocBytes,
  kAllocCalls,
  kSendCalls,     // Send + SendBatch + accepted MeterSelfDelivered calls
  kRecvCalls,     // Recv + RecvBatch calls
  kMessages,      // messages those send calls carried
  kRecvWaitNs,    // time inside Recv/RecvBatch, summed over threads
  kOnlineBytes,   // payload bytes sent outside the offline namespace
  kOfflineBytes,  // payload bytes sent on offline (triple factory) sessions
  kNumCounters,
};

// Turns allocation counting on or off process-wide. Counters are read only
// while the engine is quiescent (between calls into it).
void SetTracing(bool on);

// Adds to the calling thread's own counter slot (ADDB2-style: one
// cache-line slot per thread, written by that thread only, summed on read),
// so counting never serializes the threads it observes.
void Add(Counter counter, uint64_t n);
uint64_t Total(Counter counter);

// Name under which RegisterTracedTransport installs the decorator; a
// RunSpec selects it with spec.transport.backend.
inline constexpr const char* kTracedTransport = "perfbench-traced-sim";

// Registers the decorator, which wraps the built-in "sim" backend and
// counts every call crossing it (net::RegisterTransport).
void RegisterTracedTransport();

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
