// §5.2 "Message transfers" microbenchmarks, extended for the batched
// transfer crypto engine (docs/transfer-crypto.md).
//
// Three sections:
//  1. EC primitives (per-operation µs): variable-base EcPoint::Mul,
//     fixed-base table-backed FixedBaseTable::Mul, the generator comb
//     MulBase, and batch compression/decompression — the operations whose
//     ratio explains every role-level speedup below.
//  2. Per-transfer role walls with same-run baselines: each of the four
//     transfer roles (bundle encryption, source aggregation, destination
//     adjustment, column recovery) timed through the seed pure-scheme
//     functions AND the batched wire-level engine, on identical inputs.
//     The wire bytes are bit-identical (transfer_test pins this); only the
//     CPU time differs, so the speedup column is apples-to-apples.
//  3. The paper's §5.2 curve: end-to-end time to transfer a single 12-bit
//     message between two blocks as a function of block size (285 ms at
//     block 8 to 610 ms at block 20 in the paper; linear in k with a
//     milder quadratic component at the source endpoint).
//
// Everything is written to BENCH_transfer.json in the working directory
// (CI runs from the repo root and uploads it next to BENCH_fig6.json).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/crypto/fixed_base.h"
#include "src/transfer/batch_engine.h"
#include "src/transfer/transfer.h"

namespace dstress::bench {
namespace {

struct RoleRow {
  std::string role;
  double us = 0;           // batched engine, per transfer
  double baseline_us = 0;  // seed scheme functions, per transfer
};

struct PrimitiveRow {
  std::string name;
  double us = 0;
};

void WriteJson(int block_size, const std::vector<PrimitiveRow>& primitives,
               const std::vector<RoleRow>& roles) {
  std::FILE* f = std::fopen("BENCH_transfer.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_transfer.json: cannot open for writing, skipping\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"transfer\",\n");
  std::fprintf(f, "  \"block_size\": %d,\n", block_size);
  std::fprintf(f, "  \"primitives_us\": {\n");
  for (size_t i = 0; i < primitives.size(); i++) {
    std::fprintf(f, "    \"%s\": %.3f%s\n", primitives[i].name.c_str(), primitives[i].us,
                 i + 1 < primitives.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"roles\": [\n");
  for (size_t i = 0; i < roles.size(); i++) {
    const RoleRow& r = roles[i];
    std::fprintf(f,
                 "    {\"role\": \"%s\", \"us\": %.1f, \"baseline_us\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 r.role.c_str(), r.us, r.baseline_us, r.baseline_us / r.us,
                 i + 1 < roles.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote BENCH_transfer.json (%zu primitives, %zu roles)\n", primitives.size(),
              roles.size());
}

std::vector<PrimitiveRow> BenchPrimitives() {
  std::vector<PrimitiveRow> rows;
  auto prg = crypto::ChaCha20Prg::FromSeed(7);
  const crypto::U256 order = crypto::CurveOrder();
  crypto::EcPoint base = crypto::MulBase(prg.NextScalar(order));

  constexpr int kOps = 256;
  std::vector<crypto::U256> scalars;
  for (int i = 0; i < kOps; i++) {
    scalars.push_back(prg.NextScalar(order));
  }

  std::vector<crypto::EcPoint> points;
  {
    Stopwatch timer;
    for (const auto& s : scalars) {
      points.push_back(base.Mul(s));
    }
    rows.push_back({"mul_variable_base", timer.ElapsedSeconds() * 1e6 / kOps});
  }
  {
    Stopwatch timer;
    crypto::FixedBaseTable table(base);
    rows.push_back({"fixed_base_table_build", timer.ElapsedSeconds() * 1e6});
    timer.Reset();
    for (const auto& s : scalars) {
      crypto::EcPoint p = table.Mul(s);
      DSTRESS_CHECK(!p.IsInfinity());
    }
    rows.push_back({"mul_fixed_base_table", timer.ElapsedSeconds() * 1e6 / kOps});
  }
  {
    Stopwatch timer;
    for (const auto& s : scalars) {
      crypto::EcPoint p = crypto::MulBase(s);
      DSTRESS_CHECK(!p.IsInfinity());
    }
    rows.push_back({"mul_base_comb", timer.ElapsedSeconds() * 1e6 / kOps});
  }
  {
    std::vector<uint8_t> wire(kOps * crypto::EcPoint::kCompressedSize);
    Stopwatch timer;
    crypto::EcPoint::CompressBatch(points.data(), kOps, wire.data());
    rows.push_back({"compress_batch", timer.ElapsedSeconds() * 1e6 / kOps});
    std::vector<crypto::EcPoint> back(kOps);
    timer.Reset();
    DSTRESS_CHECK(crypto::EcPoint::DecompressBatch(wire.data(), kOps, back.data()));
    rows.push_back({"decompress_batch", timer.ElapsedSeconds() * 1e6 / kOps});
  }
  return rows;
}

// The four transfer roles on identical inputs, seed scheme functions vs the
// batched wire engine. Per-transfer wall: encrypt and recover are per
// member-bundle/member-column (the per-edge cost a node pays as a block
// member), aggregate and adjust are per edge.
std::vector<RoleRow> BenchRoles(int block_size) {
  constexpr int kBits = 12;
  auto prg = crypto::ChaCha20Prg::FromSeed(77);
  transfer::TransferParams params;
  params.block_size = block_size;
  params.message_bits = kBits;
  params.budget_alpha = 0.9;
  params.dlog_range = params.RecommendedDlogRange(1e-9);

  transfer::BlockKeys dest_keys = transfer::TransferSetup(block_size, kBits, prg);
  crypto::U256 neighbor_key = prg.NextScalar(crypto::CurveOrder());
  transfer::BlockCertificate cert =
      transfer::MakeBlockCertificate(transfer::PublicKeysOf(dest_keys), neighbor_key);
  crypto::DlogTable table(params.dlog_range);
  transfer::EvenNoiseCache noise(table.range());
  {
    // Steady state below: tables built once per run, reused per edge. Time
    // the amortized BuildMany path here (one cert = (k+1)*L keys).
    Stopwatch timer;
    size_t keys = cert.Tables()->set.num_keys();
    double us = timer.ElapsedSeconds() * 1e6;
    std::printf("# cert table build: %.1f us (%zu keys, %.1f us/key)\n", us, keys, us / keys);
  }

  mpc::BitVector share(kBits, 0);
  for (auto& bit : share) {
    bit = prg.NextBit() ? 1 : 0;
  }
  std::vector<mpc::BitVector> member_shares(block_size, share);

  std::vector<RoleRow> rows;

  // Every seed baseline below is wire-to-wire, mirroring the Run*-task
  // bodies: deserialize incoming bytes, run the scheme function, serialize
  // outgoing bytes. The codec (an inversion per point written, a sqrt per
  // point read) is real per-role CPU on both paths.

  // --- Encrypt.
  std::vector<Bytes> seed_bundle_wires;
  double seed_encrypt_us;
  {
    std::vector<crypto::ChaCha20Prg> prgs;
    for (int x = 0; x < block_size; x++) {
      prgs.push_back(crypto::ChaCha20Prg::FromSeed(100 + x));
    }
    Stopwatch timer;
    for (int x = 0; x < block_size; x++) {
      seed_bundle_wires.push_back(transfer::EncryptSubshares(share, cert, prgs[x]).Serialize());
    }
    seed_encrypt_us = timer.ElapsedSeconds() * 1e6 / block_size;
  }
  std::vector<Bytes> bundles;
  {
    std::vector<crypto::ChaCha20Prg> prgs;
    for (int x = 0; x < block_size; x++) {
      prgs.push_back(crypto::ChaCha20Prg::FromSeed(100 + x));
    }
    Stopwatch timer;
    bundles = transfer::EncryptSubsharesWire(member_shares, cert, prgs);
    rows.push_back({"encrypt", timer.ElapsedSeconds() * 1e6 / block_size, seed_encrypt_us});
  }

  // --- Aggregate.
  Bytes seed_agg_wire;
  double seed_aggregate_us;
  {
    auto mask_prg = crypto::ChaCha20Prg::FromSeed(200);
    Stopwatch timer;
    std::vector<transfer::SubshareBundle> seed_bundles;
    for (const Bytes& raw : seed_bundle_wires) {
      seed_bundles.push_back(transfer::SubshareBundle::Deserialize(raw, block_size, kBits));
    }
    seed_agg_wire = transfer::AggregateSubshares(seed_bundles, params, mask_prg).Serialize();
    seed_aggregate_us = timer.ElapsedSeconds() * 1e6;
  }
  Bytes agg;
  {
    auto mask_prg = crypto::ChaCha20Prg::FromSeed(200);
    Stopwatch timer;
    agg = transfer::AggregateSubsharesWire(bundles, params, mask_prg, noise);
    rows.push_back({"aggregate", timer.ElapsedSeconds() * 1e6, seed_aggregate_us});
  }

  // --- Adjust (+ the fan-out split both role bodies perform).
  std::vector<Bytes> seed_column_wires;
  double seed_adjust_us;
  {
    Stopwatch timer;
    transfer::AggregatedColumns agg_cols =
        transfer::AggregatedColumns::Deserialize(seed_agg_wire, block_size, kBits);
    transfer::AggregatedColumns adjusted = transfer::AdjustAggregated(agg_cols, neighbor_key);
    for (int y = 0; y < block_size; y++) {
      transfer::MemberColumn column{adjusted.c1, adjusted.c2[y]};
      seed_column_wires.push_back(column.Serialize());
    }
    seed_adjust_us = timer.ElapsedSeconds() * 1e6;
  }
  std::vector<Bytes> columns;
  {
    Stopwatch timer;
    columns = transfer::AdjustAndSplitWire(agg, neighbor_key, params);
    rows.push_back({"adjust", timer.ElapsedSeconds() * 1e6, seed_adjust_us});
  }

  // --- Recover.
  double seed_recover_us;
  {
    Stopwatch timer;
    for (int y = 0; y < block_size; y++) {
      transfer::MemberColumn column =
          transfer::MemberColumn::Deserialize(seed_column_wires[y], kBits);
      mpc::BitVector recovered;
      DSTRESS_CHECK(transfer::RecoverShare(column, dest_keys.members[y], table, &recovered));
    }
    seed_recover_us = timer.ElapsedSeconds() * 1e6 / block_size;
  }
  {
    std::vector<const transfer::MemberKeys*> member_keys;
    for (int y = 0; y < block_size; y++) {
      member_keys.push_back(&dest_keys.members[y]);
    }
    std::vector<mpc::BitVector> recovered;
    Stopwatch timer;
    DSTRESS_CHECK(transfer::RecoverSharesWire(columns, member_keys, table, params, &recovered));
    rows.push_back({"recover", timer.ElapsedSeconds() * 1e6 / block_size, seed_recover_us});
  }
  return rows;
}

// §5.2 end-to-end single-message transfer over a sim transport, one thread
// per protocol role, each running its step of the wire engine, per block
// size (the paper's 285 ms .. 610 ms curve).
double SingleTransferMs(int block_size) {
  constexpr int kBits = 12;
  auto prg = crypto::ChaCha20Prg::FromSeed(77);
  transfer::TransferParams params;
  params.block_size = block_size;
  params.message_bits = kBits;
  params.budget_alpha = 0.99;
  params.dlog_range = params.RecommendedDlogRange(1e-12);

  transfer::BlockKeys dest_keys = transfer::TransferSetup(block_size, kBits, prg);
  crypto::U256 neighbor_key = prg.NextScalar(crypto::CurveOrder());
  transfer::BlockCertificate cert =
      transfer::MakeBlockCertificate(transfer::PublicKeysOf(dest_keys), neighbor_key);
  crypto::DlogTable table(params.dlog_range);

  mpc::BitVector message(kBits, 1);
  auto shares = mpc::ShareBits(message, block_size, prg);

  // Nodes: 0 = i, 1 = j, 2.. = block members (distinct for clean per-role
  // accounting).
  std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(2 + 2 * block_size);
  net::Transport& net = *net_owner;
  std::vector<net::NodeId> members_i, members_j;
  for (int m = 0; m < block_size; m++) {
    members_i.push_back(2 + m);
    members_j.push_back(2 + block_size + m);
  }
  transfer::EvenNoiseCache noise(table.range());
  Stopwatch timer;
  std::vector<mpc::BitVector> received = RunOneTransfer(
      net, params, cert, dest_keys, neighbor_key, table, noise, shares, members_i, members_j);
  double ms = timer.ElapsedSeconds() * 1e3;
  DSTRESS_CHECK(mpc::ReconstructBits(received) == message);
  return ms;
}

void Run() {
  std::printf("# transfer-phase crypto microbenchmarks (docs/transfer-crypto.md)\n");

  std::printf("\n# EC primitives\n%28s %12s\n", "op", "us");
  std::vector<PrimitiveRow> primitives = BenchPrimitives();
  for (const PrimitiveRow& p : primitives) {
    std::printf("%28s %12.3f\n", p.name.c_str(), p.us);
  }

  int block_size = FullScale() ? 20 : 8;
  std::printf("\n# transfer roles, block size %d: batched wire engine vs seed scheme\n",
              block_size);
  std::printf("%12s %12s %14s %10s\n", "role", "us", "baseline-us", "speedup");
  std::vector<RoleRow> roles = BenchRoles(block_size);
  for (const RoleRow& r : roles) {
    std::printf("%12s %12.1f %14.1f %9.1fx\n", r.role.c_str(), r.us, r.baseline_us,
                r.baseline_us / r.us);
  }

  std::printf("\n# §5.2 single 12-bit message transfer, one role per thread over sim transport\n");
  std::printf("# (paper: 285 ms at block 8 .. 610 ms at block 20)\n");
  std::printf("%12s %12s\n", "block", "ms");
  std::vector<int> block_sizes =
      FullScale() ? std::vector<int>{8, 12, 16, 20} : std::vector<int>{8, 12};
  for (int b : block_sizes) {
    std::printf("%12d %12.1f\n", b, SingleTransferMs(b));
  }

  WriteJson(block_size, primitives, roles);
}

}  // namespace
}  // namespace dstress::bench

int main() {
  dstress::bench::Run();
  return 0;
}
