// §5.3 "Message transfers" traffic: bytes handled per role during one
// message transfer, as a function of block size.
//
// Paper numbers (secp384r1 points): node i receives the (k+1)^2 encrypted
// subshares — 97 kB (8-node blocks) to 595 kB (20-node blocks); members of
// B_i and node j send k+1 encrypted columns each (linear in k, <= 29 kB);
// members of B_j receive one constant-size column (~1.4 kB). With our
// 33-byte compressed secp256k1 points the absolute numbers are ~40%
// smaller; the quadratic/linear/constant split per role is identical.
//
// This is a plain table harness (no timing): it prints one row per block
// size with measured per-role byte counts.

#include <cstdio>

#include "bench/bench_util.h"

namespace dstress::bench {
namespace {

void Run() {
  constexpr int kBits = 12;
  std::printf("# Message-transfer traffic per role, L = %d-bit messages, 33-byte points\n",
              kBits);
  std::printf("%-10s %16s %16s %14s %16s\n", "block", "i_recv_bytes", "member_Bi_sent",
              "j_sent_bytes", "member_Bj_recv");
  for (int block_size : {8, 12, 16, 20}) {
    auto prg = crypto::ChaCha20Prg::FromSeed(5);
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

    std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(2 + 2 * block_size);
    net::Transport& net = *net_owner;
    std::vector<net::NodeId> members_i, members_j;
    for (int m = 0; m < block_size; m++) {
      members_i.push_back(2 + m);
      members_j.push_back(2 + block_size + m);
    }
    transfer::EvenNoiseCache noise(table.range());
    RunOneTransfer(net, params, cert, dest_keys, neighbor_key, table, noise, shares, members_i,
                   members_j);

    std::printf("%-10d %13.1f kB %13.1f kB %11.1f kB %13.2f kB\n", block_size,
                net.NodeStats(0).bytes_received / 1e3,
                net.NodeStats(members_i[0]).bytes_sent / 1e3, net.NodeStats(1).bytes_sent / 1e3,
                net.NodeStats(members_j[0]).bytes_received / 1e3);
  }
  std::printf("# shape check: i_recv quadratic in k, member/j linear, Bj-member constant\n");
}

}  // namespace
}  // namespace dstress::bench

int main() {
  dstress::bench::Run();
  return 0;
}
