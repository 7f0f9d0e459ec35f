// dstress_perfbench: one sample of one benchmark workload per process.
//
//   dstress_perfbench --workload <name> --seed <n> [--tiny] [--trace]
//
// Builds the workload's engine::RunSpec from the seed, constructs a fresh
// engine::Engine (timed as setup), runs it once (Run, or RunEnsemble for an
// ensemble workload), times the workload's further setups on engines that are
// not run, and prints one JSON line with the run time, the median setup time,
// the peak resident memory of this process up to the end of the run, the
// released figures with their references, and — with --trace — the per-layer
// metrics named in BENCHMARK.json. run.py drives many such processes and
// checks their output.
//
// Every sample is a fresh process on a fresh engine, because that is what a
// real dstress_run pays: the first Run builds the transfer key tables and
// runs the base OTs lazily, and a second Run on the same engine reuses IKNP
// sessions, which is a different program.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/probe.h"
#include "src/engine/engine.h"
#include "src/ensemble/ensemble.h"

namespace {

using dstress::engine::RunSpec;

RunSpec BaseSpec(uint64_t seed) {
  RunSpec spec;
  spec.model = dstress::engine::ContagionModel::kEisenbergNoe;
  spec.format.value_bits = 12;
  spec.format.frac_bits = 8;
  spec.aggregate_bits = 24;
  spec.noise_alpha = 0.5;
  spec.seed = seed;
  return spec;
}

RunSpec Secure(uint64_t seed, int n, int degree, int block_size, int iterations) {
  RunSpec spec = BaseSpec(seed);
  spec.topology = dstress::engine::CorePeripheryTopology(n, std::max(2, n / 10));
  spec.topology.degree_cap = degree;
  spec.degree_bound = degree;
  spec.block_size = block_size;
  spec.iterations = iterations;
  spec.shock.shocked_banks = {0};
  return spec;
}

RunSpec Cleartext(uint64_t seed, int n, int iterations) {
  RunSpec spec = BaseSpec(seed);
  spec.mode = dstress::engine::ExecutionMode::kCleartextFast;
  spec.topology = dstress::engine::ScaleFreeTopology(n, 2);
  spec.topology.degree_cap = 8;
  spec.degree_bound = 8;
  spec.iterations = iterations;
  spec.shock.shocked_banks = {0, 1, 2};
  return spec;
}

void AddEnsemble(RunSpec* spec, int draws) {
  spec->ensemble.emplace();
  spec->ensemble->shock_draws = draws;
  spec->ensemble->draw_seed = 9;
  spec->ensemble->has_magnitude_range = true;
  spec->ensemble->magnitude_lo = 0.0;
  spec->ensemble->magnitude_hi = 0.5;
}

// The workloads of BENCHMARK.json (their reasons are recorded there), each
// with a tiny variant for the self-test. Returns false for an unknown name.
// *setups is how many times a sample constructs the engine to time setup:
// the secure setups are short next to their runs, so one sample times several.
bool MakeWorkload(const std::string& name, bool tiny, uint64_t seed, RunSpec* spec,
                  int* setups) {
  *setups = 1;
  if (name == "secure-dealer") {
    *spec = tiny ? Secure(seed, 10, 3, 4, 3) : Secure(seed, 50, 6, 8, 6);
    *setups = 3;
  } else if (name == "secure-ot") {
    *spec = tiny ? Secure(seed, 6, 2, 3, 2) : Secure(seed, 20, 3, 4, 5);
    spec->use_ot_triples = true;
    *setups = 9;
  } else if (name == "cleartext-250k") {
    *spec = tiny ? Cleartext(seed, 1000, 10) : Cleartext(seed, 250000, 18);
  } else if (name == "ensemble-k64") {
    *spec = tiny ? Cleartext(seed, 500, 9) : Cleartext(seed, 10000, 14);
    AddEnsemble(spec, tiny ? 8 : 64);
  } else {
    return false;
  }
  return true;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string IntList(const std::vector<long long>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); i++) {
    out += (i ? "," : "") + std::to_string(values[i]);
  }
  return out + "]";
}

int Usage() {
  std::fprintf(stderr,
               "usage: dstress_perfbench --workload <name> --seed <n> [--tiny] [--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 4;
  bool tiny = false;
  bool traced = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      traced = true;
    } else {
      return Usage();
    }
  }
  RunSpec spec;
  int setups = 1;
  if (!MakeWorkload(name, tiny, seed, &spec, &setups)) {
    std::fprintf(stderr, "dstress_perfbench: unknown workload '%s'\n", name.c_str());
    return Usage();
  }
  const bool secure = spec.mode == dstress::engine::ExecutionMode::kSecure;
  const int lanes = spec.ensemble ? spec.ensemble->Width() : 1;

  // Traced: the graph is built outside the constructor so src/graph and the
  // engine compile are timed apart. A prebuilt graph is the same graph, but
  // the engine only derives the core-periphery balance sheets from a
  // topology spec, so the derived workload is pinned first.
  double graph_build_s = 0;
  if (traced) {
    perfbench::RegisterTracedTransport();
    spec.transport.backend = perfbench::kTracedTransport;
    spec.workload = dstress::engine::DeriveWorkloadParams(spec);
    auto start = std::chrono::steady_clock::now();
    spec.graph = dstress::engine::BuildTopologyGraph(spec.topology, spec.seed);
    graph_build_s = Seconds(start);
  }
  const int n = spec.topology.num_vertices;
  const int degree_bound = spec.degree_bound;
  const double alpha = spec.noise_alpha;
  const RunSpec spare = setups > 1 ? spec : RunSpec();

  auto start = std::chrono::steady_clock::now();
  std::optional<dstress::engine::Engine> engine(std::in_place, std::move(spec));
  std::vector<double> setup_times = {Seconds(start)};
  const int iterations = engine->iterations();

  std::vector<long long> released;
  std::vector<long long> reference;
  dstress::core::RunMetrics m;
  perfbench::SetTracing(traced);
  const double cpu_start = CpuSeconds();
  start = std::chrono::steady_clock::now();
  if (lanes > 1) {
    dstress::ensemble::EnsembleReport report = engine->RunEnsemble();
    for (const auto& lane : report.scenarios) {
      released.push_back(lane.released);
      reference.push_back(static_cast<long long>(lane.reference));
    }
    m = report.metrics;
  } else {
    dstress::engine::RunReport report = engine->Run();
    released.push_back(report.released);
    reference.push_back(static_cast<long long>(report.reference));
    m = report.metrics;
  }
  const double run_s = Seconds(start);
  const double cpu_s = CpuSeconds() - cpu_start;
  perfbench::SetTracing(false);
  const double peak_rss_mb = PeakRssMb();

  // The remaining setups come after the run, on engines that are never run,
  // so they cannot warm the run or raise its peak memory.
  engine.reset();
  for (int i = 1; i < setups; i++) {
    RunSpec again = spare;
    start = std::chrono::steady_clock::now();
    dstress::engine::Engine timed(std::move(again));
    setup_times.push_back(Seconds(start));
  }
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"tiny\": %s, \"traced\": %s, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"n\": %d, \"lanes\": %d, \"iterations\": %d, \"secure\": %s, \"alpha\": %.17g, "
      "\"setup_s\": %.9f, \"run_s\": %.9f, \"peak_rss_mb\": %.6f, "
      "\"bytes_per_node\": %.6f, \"and_depth\": %zu, \"rounds\": %zu, "
      "\"released\": %s, \"reference\": %s",
      name.c_str(), static_cast<unsigned long long>(seed), tiny ? "true" : "false",
      traced ? "true" : "false", nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, n, lanes,
      iterations, secure ? "true" : "false", alpha, setup_s, run_s, peak_rss_mb,
      m.avg_bytes_per_node, m.update_and_depth, m.update_rounds,
      IntList(released).c_str(), IntList(reference).c_str());

  if (traced) {
    using perfbench::Total;
    const double phases =
        m.init.seconds + m.compute.seconds + m.communicate.seconds + m.aggregate.seconds;
    const double edge_steps = static_cast<double>(n) * degree_bound * iterations;
    const double send_calls = static_cast<double>(Total(perfbench::kSendCalls));
    const std::pair<const char*, double> layers[] = {
        {"graph.build_s", graph_build_s},
        {"engine.compile_s", setup_s},
        {"core.init_s", m.init.seconds},
        {"core.compute_s", m.compute.seconds},
        {"core.communicate_s", m.communicate.seconds},
        {"core.aggregate_s", m.aggregate.seconds},
        {"core.unattributed_s", run_s - phases},
        {"trace.run_s", run_s},
        {"mpc.and_gates", static_cast<double>(m.update_and_gates + m.aggregate_and_gates)},
        {"mpc.rounds", static_cast<double>(m.update_rounds)},
        {"mpc.triples", static_cast<double>(m.triples_consumed)},
        {"mpc.ns_per_triple",
         m.triples_consumed > 0 ? m.compute.seconds * 1e9 / m.triples_consumed : 0.0},
        {"transfer.us_per_edge", secure ? m.communicate.seconds * 1e6 / edge_steps : 0.0},
        {"offline.gen_s", m.offline_seconds},
        {"offline.wait_s", m.offline_wait_seconds},
        {"offline.overlap_frac",
         m.offline_seconds > 0 ? 1.0 - m.offline_wait_seconds / m.offline_seconds : 0.0},
        {"ot.base_ots", static_cast<double>(m.base_ot_executions)},
        {"net.send_calls", send_calls},
        {"net.recv_calls", static_cast<double>(Total(perfbench::kRecvCalls))},
        {"net.messages", static_cast<double>(Total(perfbench::kMessages))},
        {"net.msgs_per_batch",
         send_calls > 0 ? Total(perfbench::kMessages) / send_calls : 0.0},
        {"net.recv_wait_s", Total(perfbench::kRecvWaitNs) * 1e-9},
        {"net.online_bytes_per_node", static_cast<double>(Total(perfbench::kOnlineBytes)) / n},
        {"net.offline_bytes_per_node", static_cast<double>(Total(perfbench::kOfflineBytes)) / n},
        {"graphplane.lane_iters_per_s",
         secure ? 0.0
                : static_cast<double>(n) * lanes * iterations /
                        (m.compute.seconds + m.communicate.seconds)},
        {"proc.cpu_s", cpu_s},
        {"proc.cpu_util", cpu_s / (run_s * nproc)},
        {"alloc.bytes", static_cast<double>(Total(perfbench::kAllocBytes))},
        {"alloc.calls", static_cast<double>(Total(perfbench::kAllocCalls))},
    };
    const char* separator = "";
    std::printf(", \"layers\": {");
    for (const auto& [metric, value] : layers) {
      std::printf("%s\"%s\": %.17g", separator, metric, value);
      separator = ", ";
    }
    std::printf("}");
  }
  std::printf("}\n");
  return 0;
}
