// Shared helpers for the benchmark harness.
//
// Scale note: every bench prints the paper-parameter rows when the
// environment variable DSTRESS_FULL=1 is set; by default the expensive
// end-to-end sweeps run a reduced configuration that finishes in minutes
// while preserving the paper's scaling shape (linear in block size for
// per-node MPC cost, ~quadratic end-to-end, O(N^3) for the naive baseline).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <thread>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/mpc/gmw.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport_spec.h"
#include "src/transfer/batch_engine.h"
#include "src/transfer/transfer.h"

namespace dstress::bench {

inline bool FullScale() {
  const char* v = std::getenv("DSTRESS_FULL");
  return v != nullptr && v[0] == '1';
}

struct BlockMpcResult {
  double seconds = 0;
  double bytes_per_node = 0;
};

// Evaluates `circuit` once in GMW within a single block of `block_size`
// parties (dealer triples unless use_ot), mirroring the paper's Figure 3/4
// microbenchmarks that run each MPC in isolation.
inline BlockMpcResult RunBlockMpc(const circuit::Circuit& circuit, int block_size,
                                  bool use_ot = false, uint64_t seed = 1) {
  std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(block_size);
  net::Transport& net = *net_owner;
  auto prg = crypto::ChaCha20Prg::FromSeed(seed);
  mpc::BitVector inputs(circuit.num_inputs());
  for (auto& bit : inputs) {
    bit = prg.NextBit() ? 1 : 0;
  }
  auto shares = mpc::ShareBits(inputs, block_size, prg);

  std::vector<net::NodeId> ids(block_size);
  for (int i = 0; i < block_size; i++) {
    ids[i] = i;
  }
  // OT setup excluded from timing (offline phase), as in the prototype.
  std::vector<std::unique_ptr<mpc::TripleSource>> sources(block_size);
  for (int p = 0; p < block_size; p++) {
    if (use_ot) {
      sources[p] = std::make_unique<mpc::OtTripleSource>(
          &net, ids, p, crypto::ChaCha20Prg::FromSeed(seed + 1000 + p));
    } else {
      sources[p] = std::make_unique<mpc::DealerTripleSource>(p, block_size, seed);
    }
  }

  Stopwatch timer;
  std::vector<std::thread> threads;
  for (int p = 0; p < block_size; p++) {
    threads.emplace_back(
        [&, p] { mpc::GmwParty(&net, ids, p, sources[p].get()).Eval(circuit, shares[p]); });
  }
  for (auto& t : threads) {
    t.join();
  }
  BlockMpcResult result;
  result.seconds = timer.ElapsedSeconds();
  result.bytes_per_node = net.AverageBytesPerNode();
  return result;
}

// The figure benches' fixed-point format (the prototype's 12-bit shares).
// One §3.5 message transfer over `net`: node 0 is the source endpoint i,
// node 1 the destination endpoint j, `members_i` / `members_j` the two
// blocks, shares[x] member x's share of the message. One thread per
// protocol role, each running its step of the wire engine
// (transfer/batch_engine.h) on the runtime's sub-sessions. Returns the
// receivers' new shares.
inline std::vector<mpc::BitVector> RunOneTransfer(
    net::Transport& net, const transfer::TransferParams& params,
    const transfer::BlockCertificate& cert, const transfer::BlockKeys& dest_keys,
    const crypto::U256& neighbor_key, const crypto::DlogTable& table,
    const transfer::EvenNoiseCache& noise, const std::vector<mpc::BitVector>& shares,
    const std::vector<net::NodeId>& members_i, const std::vector<net::NodeId>& members_j) {
  const int block_size = params.block_size;
  auto sub = [](int step) { return transfer::TransferSubSession(1, step); };
  std::vector<std::thread> threads;
  for (int x = 0; x < block_size; x++) {
    threads.emplace_back([&, x] {
      std::vector<crypto::ChaCha20Prg> role_prg = {crypto::ChaCha20Prg::FromSeed(100 + x)};
      std::vector<Bytes> bundle = transfer::EncryptSubsharesWire({shares[x]}, cert, role_prg);
      net.Send(members_i[x], 0, std::move(bundle[0]), sub(0));
    });
  }
  threads.emplace_back([&] {
    std::vector<Bytes> bundles;
    for (net::NodeId member : members_i) {
      bundles.push_back(net.Recv(0, member, sub(0)));
    }
    auto role_prg = crypto::ChaCha20Prg::FromSeed(200);
    net.Send(0, 1, transfer::AggregateSubsharesWire(bundles, params, role_prg, noise), sub(1));
  });
  threads.emplace_back([&] {
    std::vector<Bytes> columns =
        transfer::AdjustAndSplitWire(net.Recv(1, 0, sub(1)), neighbor_key, params);
    for (int y = 0; y < block_size; y++) {
      net.Send(1, members_j[y], std::move(columns[y]), sub(2));
    }
  });
  std::vector<mpc::BitVector> received(block_size);
  for (int y = 0; y < block_size; y++) {
    threads.emplace_back([&, y] {
      std::vector<mpc::BitVector> share;
      DSTRESS_CHECK(transfer::RecoverSharesWire({net.Recv(members_j[y], 1, sub(2))},
                                                {&dest_keys.members[y]}, table, params,
                                                &share));
      received[y] = share[0];
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  return received;
}

inline finance::FixedPointFormat BenchFormat() {
  finance::FixedPointFormat format;
  format.value_bits = 12;
  format.frac_bits = 8;
  return format;
}

// Standard program parameters used across the figure benches.
inline finance::EnProgramParams EnParams(int degree_bound, int iterations = 7) {
  finance::EnProgramParams params;
  params.format = BenchFormat();
  params.degree_bound = degree_bound;
  params.iterations = iterations;
  params.noise_alpha = 0.5;
  params.aggregate_bits = 24;
  return params;
}

inline finance::EgjProgramParams EgjParams(int degree_bound, int iterations = 7) {
  finance::EgjProgramParams params;
  params.format = BenchFormat();
  params.degree_bound = degree_bound;
  params.iterations = iterations;
  params.noise_alpha = 0.5;
  params.aggregate_bits = 24;
  return params;
}

}  // namespace dstress::bench

#endif  // BENCH_BENCH_UTIL_H_
