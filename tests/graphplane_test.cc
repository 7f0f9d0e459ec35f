// Flat-arena cleartext graph plane tests (src/graphplane).
//
// Frontier unit tests driving graphplane::GraphPlane directly: words
// deactivate when their inputs stop changing, reactivate when a changed
// message is delivered, every edge is still metered every iteration, and
// W > 1 scenario lanes converge independently without cross-lane
// contamination. Plus the engine-level early-exit A/B: stopping at
// AllConverged releases the same figure as running all I iterations.
// Released figures, final states and traffic of the cleartext plane are
// pinned by tests/golden_test.cc.

#include "src/graphplane/plane.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/eval_plan.h"
#include "src/core/vertex_program.h"
#include "src/core/worker_pool.h"
#include "src/engine/engine.h"
#include "src/graph/graph.h"
#include "src/net/sim_network.h"

namespace dstress {
namespace {

using engine::ContagionModel;
using engine::Engine;
using engine::ExecutionMode;
using engine::RunReport;
using engine::RunSpec;

RunSpec FinanceSpec(ContagionModel model, int n, uint64_t seed) {
  RunSpec spec;
  spec.mode = ExecutionMode::kCleartextFast;
  spec.model = model;
  spec.topology = engine::ScaleFreeTopology(n, 2);
  spec.topology.degree_cap = 4;
  spec.shock.shocked_banks = {0};
  spec.seed = seed;
  return spec;
}

// --- frontier semantics -----------------------------------------------------

// OR-propagation: new_state = state | (OR of in-messages), out-message =
// the *pre-update* state. Monotone, so convergence is observable, and the
// one-iteration emission lag makes activation timing easy to pin down.
core::VertexProgram PropagateProgram(int bits, int degree_bound) {
  core::VertexProgram program;
  program.state_bits = bits;
  program.message_bits = bits;
  program.degree_bound = degree_bound;
  program.iterations = 8;
  program.aggregate_bits = 16;
  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                            std::vector<circuit::Word>* out_msgs) {
    circuit::Word acc = state;
    for (const circuit::Word& m : in_msgs) {
      for (size_t i = 0; i < acc.size(); i++) {
        acc[i] = b.Or(acc[i], m[i]);
      }
    }
    *new_state = acc;
    out_msgs->assign(in_msgs.size(), state);
  };
  program.build_contribution = [](circuit::Builder& b,
                                  const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(state, 16);
  };
  return program;
}

TEST(GraphPlaneFrontierTest, WordsDeactivateAndReactivateOnDelivery) {
  // 130 vertices = 3 lane words; one edge crossing from word 0 to word 1.
  const int n = 130;
  graph::Graph g(n);
  g.AddEdge(0, 100);
  core::VertexProgram program = PropagateProgram(4, 1);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  circuit::EvalPlan plan(update);
  core::WorkerPool pool(2);
  net::SimNetwork net(n);
  graphplane::GraphPlane plane(g, program, plan, &pool, &net, {});

  plane.Reset();
  std::vector<mpc::BitVector> states(n, mpc::BitVector(4, 0));
  states[0] = {1, 0, 1, 0};  // 5
  graphplane::PackSoloStates(states, &plane.input_matrix());

  // After Reset everything is active.
  EXPECT_EQ(plane.ActiveWords(), 3u);

  // Iteration 1: all 3 words evaluate; only vertex 0's out-message changes
  // (⊥ -> 5), so only the word holding vertex 100 stays active.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.ActiveWords(), 1u);
  EXPECT_FALSE(plane.AllConverged());
  EXPECT_EQ(plane.stats().words_evaluated, 3u);
  EXPECT_EQ(plane.stats().words_skipped, 0u);
  // Delivered but not yet evaluated: vertex 100 still holds its old state.
  EXPECT_EQ(plane.VertexState(100, 0), mpc::BitVector(4, 0));

  // Iteration 2: only word 1 evaluates (the other two are skipped); vertex
  // 100 absorbs the message, so its word stays active for one more check.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 4u);
  EXPECT_EQ(plane.stats().words_skipped, 2u);
  EXPECT_EQ(plane.VertexState(100, 0), states[0]);
  EXPECT_EQ(plane.ActiveWords(), 1u);

  // Iteration 3: vertex 100 re-evaluates to a fixed point; frontier drains.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 5u);
  EXPECT_EQ(plane.stats().words_skipped, 4u);
  EXPECT_EQ(plane.ActiveWords(), 0u);
  EXPECT_TRUE(plane.AllConverged());

  // A converged iteration evaluates nothing — but still meters every edge:
  // traffic is per-iteration regardless of the frontier.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 5u);
  EXPECT_EQ(plane.stats().words_skipped, 7u);
  EXPECT_EQ(plane.stats().iterations, 4u);
  EXPECT_TRUE(plane.stats().bulk_metered);
  net::TrafficStats sender = net.NodeStats(0);
  net::TrafficStats receiver = net.NodeStats(100);
  EXPECT_EQ(sender.messages_sent, 4u);  // one per iteration, frontier or not
  EXPECT_EQ(receiver.messages_received, 4u);
  EXPECT_EQ(sender.bytes_sent, 4u);  // 4-bit payload -> 1 byte per message

  // States are untouched by the converged rounds.
  EXPECT_EQ(plane.VertexState(0, 0), states[0]);
  EXPECT_EQ(plane.VertexState(100, 0), states[0]);
  EXPECT_EQ(plane.VertexState(64, 0), mpc::BitVector(4, 0));
}

TEST(GraphPlaneFrontierTest, EnsembleLanesConvergeIndependently) {
  // Chain 0 -> 1 -> 2 with three scenario lanes: lane s seeds vertex s with
  // 7. Lane 0 needs the full two-hop propagation, lane 2 is converged from
  // the start — the shared frontier must keep iterating for the slowest
  // lane without disturbing the finished ones.
  const int n = 3;
  const int kScenarios = 3;
  const int kStride = 4;
  graph::Graph g(n);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  core::VertexProgram program = PropagateProgram(4, 1);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  circuit::EvalPlan plan(update);
  core::WorkerPool pool(2);
  net::SimNetwork net(n);
  graphplane::GraphPlane::Options options;
  options.num_scenarios = kScenarios;
  options.stride = kStride;
  graphplane::GraphPlane plane(g, program, plan, &pool, &net, options);

  plane.Reset();
  for (int v = 0; v < n; v++) {
    for (int s = 0; s < kScenarios; s++) {
      if (v == s) {
        // State 7 = bits 0..2 set.
        for (int r = 0; r < 3; r++) {
          plane.input_matrix().Set(static_cast<size_t>(r),
                                   static_cast<size_t>(v * kStride + s), true);
        }
      }
    }
  }

  int rounds = 0;
  while (!plane.AllConverged() && rounds < 8) {
    plane.ComputeStep();
    plane.CommunicateStep();
    rounds++;
  }
  EXPECT_TRUE(plane.AllConverged());
  // Lane 0's value crosses two edges with the one-iteration emission lag;
  // the word must have stayed active well past lane 2's instant convergence.
  EXPECT_GE(rounds, 4);

  mpc::BitVector seven = {1, 1, 1, 0};
  mpc::BitVector zero(4, 0);
  // Lane 0: seeded at vertex 0, reaches everyone downstream.
  EXPECT_EQ(plane.VertexState(0, 0), seven);
  EXPECT_EQ(plane.VertexState(1, 0), seven);
  EXPECT_EQ(plane.VertexState(2, 0), seven);
  // Lane 1: seeded at vertex 1 — vertex 0 must stay clean (no upstream or
  // cross-lane leakage).
  EXPECT_EQ(plane.VertexState(0, 1), zero);
  EXPECT_EQ(plane.VertexState(1, 1), seven);
  EXPECT_EQ(plane.VertexState(2, 1), seven);
  // Lane 2: seeded at the sink, nothing propagates.
  EXPECT_EQ(plane.VertexState(0, 2), zero);
  EXPECT_EQ(plane.VertexState(1, 2), zero);
  EXPECT_EQ(plane.VertexState(2, 2), seven);

  // Per-lane contribution sums over the final states: 3 lanes, vertex-major
  // reduction, garbage lanes (s = 3) excluded by the valid mask.
  circuit::Circuit contribution = core::BuildAggregateCircuit(program, 1, /*with_noise=*/false);
  circuit::EvalPlan contribution_plan(contribution);
  std::vector<uint64_t> sums =
      plane.ScenarioSums(plane.EvalOverStates(contribution_plan), program.aggregate_bits);
  ASSERT_EQ(sums.size(), static_cast<size_t>(kScenarios));
  EXPECT_EQ(sums[0], 21u);  // 7 + 7 + 7
  EXPECT_EQ(sums[1], 14u);  // 0 + 7 + 7
  EXPECT_EQ(sums[2], 7u);   // 0 + 0 + 7
}

// Engine-level early-exit A/B: breaking out of the iteration loop once the
// frontier drains must release the same figure and final states as running
// every scheduled iteration (the skipped rounds are figure-identical
// no-ops) — only the traffic shrinks.
TEST(GraphPlaneFrontierTest, EarlyExitReleasesSameFigureAsFullRun) {
  RunSpec full = FinanceSpec(ContagionModel::kEisenbergNoe, 200, 17);
  full.cleartext_early_exit = false;
  RunSpec early = full;
  early.cleartext_early_exit = true;

  Engine full_engine(full);
  RunReport f = full_engine.Run();
  Engine early_engine(early);
  RunReport e = early_engine.Run();

  EXPECT_EQ(e.released, f.released);
  ASSERT_TRUE(e.has_reference);
  EXPECT_EQ(e.reference, f.reference);
  std::vector<mpc::BitVector> sf = full_engine.FinalStates();
  std::vector<mpc::BitVector> se = early_engine.FinalStates();
  ASSERT_EQ(se.size(), sf.size());
  for (size_t v = 0; v < se.size(); v++) {
    EXPECT_EQ(se[v], sf[v]) << "vertex " << v;
  }
  // EN on a 200-vertex scale-free network converges long before
  // ceil(log2 200) = 8 iterations, so the early run must be cheaper.
  EXPECT_LE(e.iterations, f.iterations);
  EXPECT_LT(e.metrics.total_bytes, f.metrics.total_bytes);
}

}  // namespace
}  // namespace dstress
