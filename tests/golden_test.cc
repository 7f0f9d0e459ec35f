// Recorded-output ("golden") tests: the bit-identity contract of every data
// plane, pinned to files under tests/golden/ instead of to a second
// implementation run side by side.
//
// Each case runs one engine::RunSpec and renders everything observable
// about the run as text: the released figure(s), the cleartext reference,
// the iteration count, total bytes and triples, the base-OT execution
// count, the final per-vertex states (cleartext mode), and per-node
// TrafficStats split into online and offline (session namespace
// mpc::kOfflineSessionNamespace) bytes and messages. The rendering must
// match tests/golden/<case>.txt line for line.
//
// The corpus covers EN, EGJ, private-sum and reachability programs;
// cleartext N in {1, 7, 64, 1000}; aggregation fanout in {0, 2, 4} (plus
// 3 and 8 in cleartext); ensemble widths W in {1, 3, 64}; dealer and OT
// triples; secure N <= 12 with block size <= 4. Secure dealer cases are
// also asserted at max_parallel_tasks in {1, 2, 4}, and one case over the
// tcp transport, against the same files: figures and traffic must not
// depend on thread count or wire.
//
// `golden_test --regen` rewrites every file from the current build. Only
// regenerate when a change is meant to alter released figures or traffic,
// and state why in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/graph/generators.h"
#include "src/mpc/triple_factory.h"
#include "src/net/transport_spec.h"
#include "src/programs/private_sum.h"
#include "src/programs/reachability.h"

namespace dstress {
namespace {

using engine::ContagionModel;
using engine::Engine;
using engine::ExecutionMode;
using engine::RunSpec;

bool g_regen = false;

// --- rendering --------------------------------------------------------------

// Counts offline-phase traffic (OT triple generation) per node; online
// traffic is the transport's TrafficStats minus this.
class OfflineMeter : public net::NetworkObserver {
 public:
  struct Counts {
    uint64_t bytes_sent = 0, bytes_received = 0, msgs_sent = 0, msgs_received = 0;
  };

  void OnSend(net::NodeId from, net::NodeId, net::SessionId session,
              const Bytes& payload) override {
    if (!IsOffline(session)) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[from].bytes_sent += payload.size();
    nodes_[from].msgs_sent += 1;
  }
  void OnRecv(net::NodeId to, net::NodeId, net::SessionId session,
              const Bytes& payload) override {
    if (!IsOffline(session)) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[to].bytes_received += payload.size();
    nodes_[to].msgs_received += 1;
  }

  Counts For(net::NodeId node) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = nodes_.find(node);
    return it == nodes_.end() ? Counts{} : it->second;
  }

 private:
  static bool IsOffline(net::SessionId session) {
    return (session >> 60) == (mpc::kOfflineSessionNamespace >> 60);
  }

  mutable std::mutex mu_;
  std::map<net::NodeId, Counts> nodes_;
};

// Only OT runs have offline traffic. Other runs stay unobserved: an
// attached observer makes the cleartext plane fall back from bulk metering
// to literal sends, and the goldens must pin the default path.
void AttachOfflineMeter(const RunSpec& spec, Engine* engine, OfflineMeter* meter) {
  if (spec.use_ot_triples) {
    engine->AttachObserver(meter);
  }
}

std::string HexBits(const mpc::BitVector& bits) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bits.size(); i += 4) {
    int nibble = 0;
    for (size_t b = 0; b < 4 && i + b < bits.size(); b++) {
      nibble |= (bits[i + b] & 1) << b;
    }
    out.push_back(kHex[nibble]);
  }
  return out;
}

void RenderMetrics(const core::RunMetrics& m, std::vector<std::string>* lines) {
  lines->push_back("total_bytes " + std::to_string(m.total_bytes));
  lines->push_back("triples " + std::to_string(m.triples_consumed));
  lines->push_back("base_ots " + std::to_string(m.base_ot_executions));
}

void RenderTraffic(const Engine& engine, const OfflineMeter& meter,
                   std::vector<std::string>* lines) {
  const net::Transport& net = engine.transport();
  for (int v = 0; v < net.num_nodes(); v++) {
    net::TrafficStats total = net.NodeStats(v);
    OfflineMeter::Counts off = meter.For(v);
    lines->push_back("online " + std::to_string(v) + " " +
                     std::to_string(total.bytes_sent - off.bytes_sent) + " " +
                     std::to_string(total.bytes_received - off.bytes_received) + " " +
                     std::to_string(total.messages_sent - off.msgs_sent) + " " +
                     std::to_string(total.messages_received - off.msgs_received));
    lines->push_back("offline " + std::to_string(v) + " " + std::to_string(off.bytes_sent) +
                     " " + std::to_string(off.bytes_received) + " " +
                     std::to_string(off.msgs_sent) + " " + std::to_string(off.msgs_received));
  }
}

std::vector<std::string> ObserveRun(const RunSpec& spec) {
  Engine engine(spec);
  OfflineMeter meter;
  AttachOfflineMeter(spec, &engine, &meter);
  engine::RunReport report = engine.Run();
  std::vector<std::string> lines;
  lines.push_back("released " + std::to_string(report.released));
  lines.push_back("reference " +
                  (report.has_reference ? std::to_string(report.reference) : "none"));
  lines.push_back("iterations " + std::to_string(report.iterations));
  RenderMetrics(report.metrics, &lines);
  std::vector<mpc::BitVector> states = engine.FinalStates();
  for (size_t v = 0; v < states.size(); v++) {
    lines.push_back("state " + std::to_string(v) + " " + HexBits(states[v]));
  }
  RenderTraffic(engine, meter, &lines);
  return lines;
}

std::vector<std::string> ObserveEnsemble(const RunSpec& spec) {
  Engine engine(spec);
  OfflineMeter meter;
  AttachOfflineMeter(spec, &engine, &meter);
  ensemble::EnsembleReport report = engine.RunEnsemble();
  std::vector<std::string> lines;
  for (size_t s = 0; s < report.scenarios.size(); s++) {
    const auto& sc = report.scenarios[s];
    lines.push_back("scenario " + std::to_string(s) + " released " +
                    std::to_string(sc.released) + " reference " +
                    (sc.has_reference ? std::to_string(sc.reference) : "none"));
  }
  RenderMetrics(report.metrics, &lines);
  RenderTraffic(engine, meter, &lines);
  return lines;
}

// --- golden files -----------------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(DSTRESS_GOLDEN_DIR) + "/" + name + ".txt";
}

void CheckGolden(const std::string& name, const std::vector<std::string>& observed,
                 const std::string& variant) {
  const std::string path = GoldenPath(name);
  if (g_regen) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : observed) {
      out << line << "\n";
    }
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path << " (run golden_test --regen)";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    expected.push_back(line);
  }
  int mismatches = 0;
  for (size_t i = 0; i < std::max(expected.size(), observed.size()) && mismatches < 5; i++) {
    const std::string e = i < expected.size() ? expected[i] : "<end>";
    const std::string a = i < observed.size() ? observed[i] : "<end>";
    if (e != a) {
      ADD_FAILURE() << name << " [" << variant << "] line " << i + 1 << ": expected '" << e
                    << "', got '" << a << "'";
      mismatches++;
    }
  }
}

// --- the corpus -------------------------------------------------------------

RunSpec CleartextFinance(ContagionModel model, int n, uint64_t seed) {
  RunSpec spec;
  spec.mode = ExecutionMode::kCleartextFast;
  spec.model = model;
  if (n == 1) {
    spec.topology = engine::ExplicitTopology(1, {});
    spec.degree_bound = 1;
  } else {
    spec.topology = engine::ScaleFreeTopology(n, 2);
    spec.topology.degree_cap = 4;
  }
  spec.shock.shocked_banks = {0};
  spec.seed = seed;
  return spec;
}

std::string ModelTag(ContagionModel model) {
  return model == ContagionModel::kEisenbergNoe ? "en" : "egj";
}

RunSpec PrivateSumSpec(const graph::Graph& g, uint64_t seed) {
  programs::PrivateSumParams params;
  params.degree_bound = std::max(1, g.MaxDegree());
  params.noise.alpha = 1e-12;
  params.noise.magnitude_bits = 8;
  params.noise.threshold_bits = 10;
  std::vector<uint32_t> values;
  for (int v = 0; v < g.num_vertices(); v++) {
    values.push_back(static_cast<uint32_t>(100 + 7 * v));
  }
  RunSpec spec;
  spec.graph = g;
  spec.model = ContagionModel::kCustom;
  spec.custom_program = programs::BuildPrivateSumProgram(params);
  spec.custom_states = programs::MakePrivateSumStates(values, params.value_bits);
  spec.seed = seed;
  return spec;
}

RunSpec ReachabilitySpec(const graph::Graph& g, uint64_t seed) {
  programs::ReachabilityParams params;
  params.degree_bound = std::max(1, g.MaxDegree());
  params.hops = 3;
  params.noise.alpha = 1e-12;
  params.noise.magnitude_bits = 8;
  params.noise.threshold_bits = 10;
  RunSpec spec;
  spec.graph = g;
  spec.model = ContagionModel::kCustom;
  spec.custom_program = programs::BuildReachabilityProgram(params);
  spec.custom_states = programs::MakeReachabilityStates(g.num_vertices(), {0});
  spec.seed = seed;
  return spec;
}

graph::Graph ScaleFreeGraph(int n) {
  Rng rng(static_cast<uint64_t>(n) * 31);
  return graph::GenerateScaleFree(n, 2, rng);
}

struct Case {
  std::string name;
  RunSpec spec;
};

std::vector<Case> CleartextCases() {
  std::vector<Case> cases;
  for (ContagionModel model :
       {ContagionModel::kEisenbergNoe, ContagionModel::kElliottGolubJackson}) {
    for (int n : {1, 7, 64}) {
      for (uint64_t seed : {1u, 23u, 777u}) {
        cases.push_back({"cleartext_" + ModelTag(model) + "_n" + std::to_string(n) + "_s" +
                             std::to_string(seed),
                         CleartextFinance(model, n, seed)});
      }
    }
    cases.push_back({"cleartext_" + ModelTag(model) + "_n1000_s4",
                     CleartextFinance(model, 1000, 4)});
  }
  for (int fanout : {2, 4, 8}) {
    RunSpec spec = CleartextFinance(ContagionModel::kEisenbergNoe, 64, 9);
    spec.aggregation_fanout = fanout;
    cases.push_back({"cleartext_en_n64_fanout" + std::to_string(fanout), spec});
  }
  RunSpec odd = CleartextFinance(ContagionModel::kElliottGolubJackson, 7, 5);
  odd.aggregation_fanout = 3;
  cases.push_back({"cleartext_egj_n7_fanout3", odd});
  for (int n : {7, 64}) {
    graph::Graph g = ScaleFreeGraph(n);
    RunSpec sum = PrivateSumSpec(g, static_cast<uint64_t>(n));
    sum.mode = ExecutionMode::kCleartextFast;
    cases.push_back({"cleartext_private_sum_n" + std::to_string(n), sum});
    RunSpec reach = ReachabilitySpec(g, static_cast<uint64_t>(n) + 1);
    reach.mode = ExecutionMode::kCleartextFast;
    cases.push_back({"cleartext_reachability_n" + std::to_string(n), reach});
  }
  return cases;
}

std::vector<Case> CleartextEnsembleCases() {
  std::vector<Case> cases;
  for (int width : {1, 3}) {
    RunSpec spec = CleartextFinance(ContagionModel::kEisenbergNoe, 40, 11);
    spec.ensemble.emplace();
    for (int s = 0; s < width; s++) {
      ensemble::Scenario sc;
      sc.shock.shocked_banks = {s};
      spec.ensemble->scenarios.push_back(sc);
    }
    cases.push_back({"cleartext_ensemble_w" + std::to_string(width), spec});
  }
  RunSpec spec = CleartextFinance(ContagionModel::kEisenbergNoe, 40, 11);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 64;
  spec.ensemble->draw_seed = 9;
  spec.ensemble->banks_per_draw = 2;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.6;
  cases.push_back({"cleartext_ensemble_w64", spec});
  return cases;
}

RunSpec SecureEn(int n, int core, int block_size, int fanout) {
  RunSpec spec;
  spec.topology = engine::CorePeripheryTopology(n, core);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0};
  spec.noise_alpha = 0.5;
  spec.iterations = 2;
  spec.block_size = block_size;
  spec.aggregation_fanout = fanout;
  spec.seed = 5;
  return spec;
}

// Secure runs with dealer triples (the default offline phase).
std::vector<Case> SecureDealerCases() {
  std::vector<Case> cases;
  for (int fanout : {0, 2, 4}) {
    cases.push_back(
        {"secure_en_n12_b4_fanout" + std::to_string(fanout), SecureEn(12, 3, 4, fanout)});
  }
  cases.push_back({"secure_en_n10_b3", SecureEn(10, 3, 3, 0)});
  RunSpec egj = SecureEn(10, 3, 3, 2);
  egj.model = ContagionModel::kElliottGolubJackson;
  egj.seed = 7;
  cases.push_back({"secure_egj_n10_b3_fanout2", egj});
  graph::Graph g = ScaleFreeGraph(7);
  RunSpec sum = PrivateSumSpec(g, 4);
  sum.block_size = 3;
  cases.push_back({"secure_private_sum_n7_b3", sum});
  RunSpec reach = ReachabilitySpec(g, 8);
  reach.block_size = 3;
  cases.push_back({"secure_reachability_n7_b3", reach});
  return cases;
}

// Secure runs with IKNP OT-extension triples: lean 8-bit EN keeps the
// offline phase small enough for a unit test.
std::vector<Case> SecureOtCases() {
  std::vector<Case> cases;
  for (int fanout : {0, 2}) {
    RunSpec spec = SecureEn(6, 2, 3, fanout);
    spec.topology.degree_cap = 2;
    spec.format.value_bits = 8;
    spec.format.frac_bits = 4;
    spec.aggregate_bits = 24;
    spec.iterations = 1;
    spec.use_ot_triples = true;
    spec.seed = 11;
    cases.push_back({"secure_ot_en_n6_b3_fanout" + std::to_string(fanout), spec});
  }
  return cases;
}

RunSpec SecureEnsembleBase(int num_banks, int iterations) {
  RunSpec spec;
  spec.topology = engine::ScaleFreeTopology(num_banks, 2);
  spec.topology.degree_cap = 3;
  spec.model = ContagionModel::kEisenbergNoe;
  spec.block_size = 2;
  spec.iterations = iterations;
  spec.shock.shocked_banks = {0};
  spec.seed = 11;
  return spec;
}

std::vector<Case> SecureEnsembleCases() {
  std::vector<Case> cases;
  for (int width : {1, 3}) {
    RunSpec spec = SecureEnsembleBase(8, 2);
    spec.ensemble.emplace();
    for (int s = 0; s < width; s++) {
      ensemble::Scenario sc;
      sc.shock.shocked_banks = {s};
      spec.ensemble->scenarios.push_back(sc);
    }
    cases.push_back({"secure_ensemble_w" + std::to_string(width), spec});
  }
  RunSpec spec = SecureEnsembleBase(6, 1);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 64;
  spec.ensemble->draw_seed = 13;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.8;
  cases.push_back({"secure_ensemble_w64", spec});
  return cases;
}

// --- tests ------------------------------------------------------------------

TEST(GoldenTest, CleartextRuns) {
  for (const Case& c : CleartextCases()) {
    CheckGolden(c.name, ObserveRun(c.spec), "default");
  }
}

TEST(GoldenTest, CleartextEnsembles) {
  for (const Case& c : CleartextEnsembleCases()) {
    CheckGolden(c.name, ObserveEnsemble(c.spec), "default");
  }
}

TEST(GoldenTest, SecureDealerRuns) {
  for (const Case& c : SecureDealerCases()) {
    CheckGolden(c.name, ObserveRun(c.spec), "default");
  }
}

// Released figures and per-node traffic are independent of how many role
// threads the worker pool runs.
TEST(GoldenTest, SecureDealerRunsAcrossThreadCounts) {
  if (g_regen) {
    GTEST_SKIP() << "variants are checked, not recorded";
  }
  for (int threads : {1, 2, 4}) {
    for (const Case& c : SecureDealerCases()) {
      RunSpec spec = c.spec;
      spec.max_parallel_tasks = threads;
      CheckGolden(c.name, ObserveRun(spec), "threads=" + std::to_string(threads));
    }
  }
}

// ... and of the wire: one process per bank over real sockets.
TEST(GoldenTest, SecureDealerRunOverTcp) {
  if (g_regen) {
    GTEST_SKIP() << "variants are checked, not recorded";
  }
  RunSpec spec = SecureEn(10, 3, 3, 0);
  spec.transport = net::TcpTransportSpec();
  CheckGolden("secure_en_n10_b3", ObserveRun(spec), "tcp");
}

TEST(GoldenTest, SecureOtRuns) {
  for (const Case& c : SecureOtCases()) {
    CheckGolden(c.name, ObserveRun(c.spec), "default");
  }
}

TEST(GoldenTest, SecureEnsembles) {
  for (const Case& c : SecureEnsembleCases()) {
    CheckGolden(c.name, ObserveEnsemble(c.spec), "default");
  }
}

}  // namespace
}  // namespace dstress

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--regen") == 0) {
      dstress::g_regen = true;
    }
  }
  return RUN_ALL_TESTS();
}
