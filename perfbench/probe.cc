#include "perfbench/probe.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/mpc/triple_factory.h"
#include "src/net/transport.h"
#include "src/net/transport_spec.h"

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};

// One cache line of counters per thread. Slots are claimed once per thread
// and never reused, so a thread's counts outlive it; threads past
// kMaxSlots share the last slot through atomic adds.
struct alignas(64) Slot {
  std::atomic<uint64_t> value[kNumCounters];
};
constexpr int kMaxSlots = 4096;
Slot g_slots[kMaxSlots];
std::atomic<int> g_slots_used{0};
// Plain int so operator new can reach it at any point of a thread's life.
thread_local int t_slot = -1;

int ClaimSlot() {
  int slot = g_slots_used.fetch_add(1, std::memory_order_relaxed);
  return slot < kMaxSlots - 1 ? slot : kMaxSlots - 1;
}

void* CountedMalloc(std::size_t size) noexcept {
  if (g_tracing.load(std::memory_order_relaxed)) {
    Add(kAllocBytes, size);
    Add(kAllocCalls, 1);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlloc(std::size_t size) {
  if (void* p = CountedMalloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AddSentBytes(dstress::net::SessionId session, uint64_t bytes) {
  const bool offline = (session >> 60) == (dstress::mpc::kOfflineSessionNamespace >> 60);
  Add(offline ? kOfflineBytes : kOnlineBytes, bytes);
}

using dstress::Bytes;
using dstress::net::NodeId;
using dstress::net::SessionId;

// Forwards every call to the wrapped transport — the observer hook, bulk
// self-delivery metering and the HA accessors included, so the program
// takes the same paths it takes over bare "sim" — and counts what crosses.
class TracedTransport final : public dstress::net::Transport {
 public:
  explicit TracedTransport(std::unique_ptr<dstress::net::Transport> inner)
      : inner_(std::move(inner)) {}

  int num_nodes() const override { return inner_->num_nodes(); }
  void SetObserver(dstress::net::NetworkObserver* observer) override {
    inner_->SetObserver(observer);
  }

  void Send(NodeId from, NodeId to, Bytes message, SessionId session) override {
    Add(kSendCalls, 1);
    Add(kMessages, 1);
    AddSentBytes(session, message.size());
    inner_->Send(from, to, std::move(message), session);
  }

  void SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                 SessionId session) override {
    uint64_t bytes = 0;
    for (const Bytes& m : messages) {
      bytes += m.size();
    }
    Add(kSendCalls, 1);
    Add(kMessages, messages.size());
    AddSentBytes(session, bytes);
    inner_->SendBatch(from, to, std::move(messages), session);
  }

  Bytes Recv(NodeId to, NodeId from, SessionId session) override {
    const uint64_t start = NowNs();
    Bytes message = inner_->Recv(to, from, session);
    Add(kRecvCalls, 1);
    Add(kRecvWaitNs, NowNs() - start);
    return message;
  }

  std::vector<Bytes> RecvBatch(NodeId to, NodeId from, size_t count,
                               SessionId session) override {
    const uint64_t start = NowNs();
    std::vector<Bytes> messages = inner_->RecvBatch(to, from, count, session);
    Add(kRecvCalls, 1);
    Add(kRecvWaitNs, NowNs() - start);
    return messages;
  }

  dstress::net::TrafficStats NodeStats(NodeId node) const override {
    return inner_->NodeStats(node);
  }
  uint64_t TotalBytes() const override { return inner_->TotalBytes(); }
  uint64_t MaxBytesPerNode() const override { return inner_->MaxBytesPerNode(); }
  void ResetStats() override { inner_->ResetStats(); }

  bool MeterSelfDelivered(
      const std::vector<dstress::net::TrafficStats>& per_node_delta) override {
    if (!inner_->MeterSelfDelivered(per_node_delta)) {
      return false;
    }
    uint64_t bytes = 0;
    uint64_t messages = 0;
    for (const auto& delta : per_node_delta) {
      bytes += delta.bytes_sent;
      messages += delta.messages_sent;
    }
    Add(kSendCalls, 1);
    Add(kMessages, messages);
    Add(kOnlineBytes, bytes);
    return true;
  }

  uint64_t HaControlBytes() const override { return inner_->HaControlBytes(); }
  int HaResumeCount() const override { return inner_->HaResumeCount(); }

 private:
  std::unique_ptr<dstress::net::Transport> inner_;
};

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

void Add(Counter counter, uint64_t n) {
  if (t_slot < 0) {
    t_slot = ClaimSlot();
  }
  std::atomic<uint64_t>& value = g_slots[t_slot].value[counter];
  if (t_slot == kMaxSlots - 1) {
    value.fetch_add(n, std::memory_order_relaxed);
  } else {
    value.store(value.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
}

uint64_t Total(Counter counter) {
  const int used = std::min(g_slots_used.load(std::memory_order_relaxed), kMaxSlots);
  uint64_t total = 0;
  for (int i = 0; i < used; i++) {
    total += g_slots[i].value[counter].load(std::memory_order_relaxed);
  }
  return total;
}

void RegisterTracedTransport() {
  dstress::net::RegisterTransport(
      kTracedTransport, [](int num_nodes, const dstress::net::TransportSpec& spec) {
        dstress::net::TransportSpec inner = spec;
        inner.backend = "sim";
        return std::make_unique<TracedTransport>(dstress::net::MakeTransport(inner, num_nodes));
      });
}

}  // namespace perfbench

// The whole unaligned family is replaced, so every block these deletes free
// came from malloc (the nothrow forms included, which the standard library
// uses for temporary buffers).
void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
