// RepairAssign: orphans of failed servers are re-homed onto survivors,
// capacity stays feasible, budget 0 never moves an unaffected client, and
// the result is never worse than the nearest-survivor patch.
#include "core/repair.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/solver_registry.h"
#include "../testutil.h"
#include "evaluator_testutil.h"

namespace diaca::core {
namespace {

// The naive failover baseline: every orphan jumps to its nearest
// surviving server, nobody else moves.
Assignment NearestSurvivorPatch(const Problem& p, const Assignment& current,
                                const std::vector<ServerIndex>& failed) {
  std::vector<char> down(static_cast<std::size_t>(p.num_servers()), 0);
  for (const ServerIndex s : failed) down[static_cast<std::size_t>(s)] = 1;
  Assignment out = current;
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (down[static_cast<std::size_t>(current[c])] == 0) continue;
    ServerIndex best = kUnassigned;
    double best_d = std::numeric_limits<double>::infinity();
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      if (down[static_cast<std::size_t>(s)] != 0) continue;
      if (p.client_block().cs(c, s) < best_d) {
        best_d = p.client_block().cs(c, s);
        best = s;
      }
    }
    out[c] = best;
  }
  return out;
}

TEST(RepairTest, ReassignsEveryOrphanOntoSurvivors) {
  Rng rng(31);
  const Problem p = test::RandomProblem(30, 5, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions options;
  options.failed = {1, 3};
  const RepairResult result = RepairAssign(p, before, options);
  ASSERT_TRUE(result.assignment.IsComplete());
  std::int32_t expected_orphans = 0;
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    EXPECT_NE(result.assignment[c], 1);
    EXPECT_NE(result.assignment[c], 3);
    if (before[c] == 1 || before[c] == 3) ++expected_orphans;
  }
  EXPECT_EQ(result.repair.orphans, expected_orphans);
  EXPECT_GT(expected_orphans, 0);
  EXPECT_DOUBLE_EQ(result.stats.max_len,
                   MaxInteractionPathLength(p, result.assignment));
}

TEST(RepairTest, BudgetZeroOnlyMovesOrphans) {
  Rng rng(37);
  const Problem p = test::RandomProblem(40, 6, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions options;
  options.failed = {2};
  const RepairResult result = RepairAssign(p, before, options);
  EXPECT_EQ(result.repair.migrations, 0);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (before[c] != 2) {
      EXPECT_EQ(result.assignment[c], before[c]) << "client " << c;
    }
  }
}

TEST(RepairTest, NeverWorseThanNearestSurvivorPatch) {
  for (std::uint64_t seed : {41u, 43u, 47u, 53u}) {
    Rng rng(seed);
    const Problem p = test::RandomProblem(35, 5, rng);
    const Assignment before = GreedyAssign(p);
    RepairOptions options;
    options.failed = {0};
    const RepairResult repaired = RepairAssign(p, before, options);
    const Assignment naive = NearestSurvivorPatch(p, before, options.failed);
    EXPECT_LE(repaired.stats.max_len,
              MaxInteractionPathLength(p, naive) + 1e-9)
        << "seed " << seed;
  }
}

TEST(RepairTest, MigrationBudgetNeverHurts) {
  Rng rng(59);
  const Problem p = test::RandomProblem(40, 6, rng);
  const Assignment before = GreedyAssign(p);
  double previous = std::numeric_limits<double>::infinity();
  for (std::int32_t budget : {0, 2, 8}) {
    RepairOptions options;
    options.failed = {1};
    options.migration_budget = budget;
    const RepairResult result = RepairAssign(p, before, options);
    EXPECT_LE(result.stats.max_len, previous + 1e-9) << "budget " << budget;
    EXPECT_LE(result.repair.migrations, budget);
    previous = result.stats.max_len;
  }
}

TEST(RepairTest, RespectsCapacities) {
  Rng rng(61);
  const Problem p = test::RandomProblem(24, 4, rng);  // 24 clients
  RepairOptions assign_caps;
  assign_caps.assign.capacity = 8;
  const Assignment before = GreedyAssign(p, assign_caps.assign);
  RepairOptions options;
  options.assign.capacity = 8;  // 3 survivors x 8 = 24: exactly tight
  options.failed = {3};
  options.migration_budget = 4;
  const RepairResult result = RepairAssign(p, before, options);
  EXPECT_LE(MaxServerLoad(p, result.assignment), 8);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    EXPECT_NE(result.assignment[c], 3);
  }
}

TEST(RepairTest, ThrowsWhenSurvivorsCannotHoldEveryone) {
  Rng rng(67);
  const Problem p = test::RandomProblem(24, 4, rng);
  RepairOptions caps;
  caps.assign.capacity = 8;
  const Assignment before = GreedyAssign(p, caps.assign);
  RepairOptions options;
  options.assign.capacity = 8;
  options.failed = {2, 3};  // 2 survivors x 8 = 16 < 24 clients
  EXPECT_THROW(RepairAssign(p, before, options), Error);
}

TEST(RepairTest, ValidatesInputs) {
  Rng rng(71);
  const Problem p = test::RandomProblem(12, 3, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions out_of_range;
  out_of_range.failed = {5};
  EXPECT_THROW(RepairAssign(p, before, out_of_range), Error);
  RepairOptions duplicated;
  duplicated.failed = {1, 1};
  EXPECT_THROW(RepairAssign(p, before, duplicated), Error);
  RepairOptions all_down;
  all_down.failed = {0, 1, 2};
  EXPECT_THROW(RepairAssign(p, before, all_down), Error);
  Assignment incomplete(p.num_clients());
  RepairOptions options;
  options.failed = {0};
  EXPECT_THROW(RepairAssign(p, incomplete, options), Error);
}

TEST(RepairTest, NoFailuresIsIdentity) {
  Rng rng(73);
  const Problem p = test::RandomProblem(15, 3, rng);
  const Assignment before = GreedyAssign(p);
  const RepairResult result = RepairAssign(p, before, {});
  EXPECT_EQ(result.assignment, before);
  EXPECT_EQ(result.repair.orphans, 0);
}

TEST(RepairTest, DeterministicAcrossRuns) {
  Rng rng(79);
  const Problem p = test::RandomProblem(50, 7, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions options;
  options.failed = {0, 4};
  options.migration_budget = 3;
  const RepairResult a = RepairAssign(p, before, options);
  const RepairResult b = RepairAssign(p, before, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.repair.evaluations, b.repair.evaluations);
}

TEST(RepairTest, FailedServerWithZeroClientsIsANoOp) {
  // A crash of a server nobody was assigned to must repair to the exact
  // same assignment — zero orphans, zero migrations, no surprises.
  Rng rng(89);
  const Problem p = test::RandomProblem(20, 4, rng);
  Assignment before = GreedyAssign(p);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (before[c] == 3) before[c] = 0;  // empty out server 3
  }
  RepairOptions options;
  options.failed = {3};
  const RepairResult result = RepairAssign(p, before, options);
  EXPECT_EQ(result.assignment, before);
  EXPECT_EQ(result.repair.orphans, 0);
  EXPECT_EQ(result.repair.migrations, 0);
}

TEST(ReoptimizeTest, ProposalsLowerTheObjectiveBySequentialGains) {
  Rng rng(97);
  const Problem p = test::RandomProblem(30, 5, rng);
  const Assignment start = NearestServerAssign(p);
  IncrementalEvaluator eval(p, start);
  ReoptimizeOptions options;
  options.max_moves = 4;
  const ReoptimizeResult result = ProposeReoptimization(p, eval, options);
  ASSERT_GT(result.moves.size(), 0u);  // nearest-server leaves headroom
  // The caller's evaluator is untouched; replaying the move sequence
  // reproduces each sequential gain and the projected objective.
  EXPECT_EQ(eval.assignment(), start);
  IncrementalEvaluator replay = eval;
  for (const MoveProposal& move : result.moves) {
    EXPECT_GE(move.gain, options.min_gain);
    EXPECT_EQ(replay.ServerOf(move.client), move.from);
    const double before = replay.CurrentMax();
    replay.ApplyMove(move.client, move.to);
    EXPECT_NEAR(replay.CurrentMax(), before - move.gain, 1e-9);
  }
  EXPECT_NEAR(replay.CurrentMax(), result.projected_max_len, 1e-9);
  EXPECT_GT(result.evaluations, 0);
}

TEST(ReoptimizeTest, DownServersAreNeverTouched) {
  Rng rng(101);
  const Problem p = test::RandomProblem(30, 5, rng);
  IncrementalEvaluator eval(p, NearestServerAssign(p));
  ReoptimizeOptions options;
  options.max_moves = 8;
  options.down.assign(static_cast<std::size_t>(p.num_servers()), 0);
  options.down[2] = 1;
  const ReoptimizeResult result = ProposeReoptimization(p, eval, options);
  for (const MoveProposal& move : result.moves) {
    EXPECT_NE(move.to, 2);
    EXPECT_NE(move.from, 2);  // re-homing off a dead server is repair's job
  }
}

TEST(ReoptimizeTest, MaxMovesAndMinGainBound) {
  Rng rng(103);
  const Problem p = test::RandomProblem(30, 5, rng);
  IncrementalEvaluator eval(p, NearestServerAssign(p));
  ReoptimizeOptions one;
  one.max_moves = 1;
  EXPECT_LE(ProposeReoptimization(p, eval, one).moves.size(), 1u);
  // An unreachable gain threshold silences every proposal.
  ReoptimizeOptions impossible;
  impossible.max_moves = 8;
  impossible.min_gain = 1e12;
  const ReoptimizeResult none = ProposeReoptimization(p, eval, impossible);
  EXPECT_TRUE(none.moves.empty());
  EXPECT_FALSE(none.budget_exhausted);
  EXPECT_NEAR(none.projected_max_len, eval.CurrentMax(), 1e-12);
}

TEST(ReoptimizeTest, ExhaustedBudgetDiscardsThePartialRound) {
  Rng rng(107);
  const Problem p = test::RandomProblem(30, 5, rng);
  IncrementalEvaluator eval(p, NearestServerAssign(p));
  ReoptimizeOptions starved;
  starved.max_moves = 4;
  starved.eval_budget = 1;  // cannot even finish scoring one client
  const ReoptimizeResult result = ProposeReoptimization(p, eval, starved);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_TRUE(result.moves.empty());
  EXPECT_LE(result.evaluations, p.num_servers());
}

TEST(ReoptimizeTest, DeterministicAcrossThreadsAndSeeds) {
  // The determinism grid: for every seed, every thread count must produce
  // the byte-identical proposal stream, round after round.
  for (std::uint64_t seed : {211u, 223u, 227u}) {
    Rng rng(seed);
    const Problem p = test::RandomProblem(40, 6, rng);
    const Assignment start = NearestServerAssign(p);
    std::vector<std::vector<MoveProposal>> rounds_by_threads;
    std::vector<std::int64_t> evals_by_threads;
    for (int threads : {1, 4}) {
      SetGlobalThreads(threads);
      IncrementalEvaluator eval(p, start);
      std::vector<MoveProposal> all_moves;
      std::int64_t evaluations = 0;
      for (int round = 0; round < 3; ++round) {  // epoch-over-epoch
        ReoptimizeOptions options;
        options.max_moves = 2;
        const ReoptimizeResult result = ProposeReoptimization(p, eval, options);
        evaluations += result.evaluations;
        for (const MoveProposal& move : result.moves) {
          eval.ApplyMove(move.client, move.to);
          all_moves.push_back(move);
        }
      }
      rounds_by_threads.push_back(std::move(all_moves));
      evals_by_threads.push_back(evaluations);
    }
    SetGlobalThreads(0);
    ASSERT_EQ(rounds_by_threads[0].size(), rounds_by_threads[1].size())
        << "seed " << seed;
    for (std::size_t i = 0; i < rounds_by_threads[0].size(); ++i) {
      EXPECT_EQ(rounds_by_threads[0][i].client, rounds_by_threads[1][i].client);
      EXPECT_EQ(rounds_by_threads[0][i].from, rounds_by_threads[1][i].from);
      EXPECT_EQ(rounds_by_threads[0][i].to, rounds_by_threads[1][i].to);
      EXPECT_EQ(rounds_by_threads[0][i].gain, rounds_by_threads[1][i].gain);
    }
    EXPECT_EQ(evals_by_threads[0], evals_by_threads[1]) << "seed " << seed;
  }
}

// --- in-place reoptimization against a copy-based reference --------------

// The bottleneck proposer on a copy of the evaluator, with brute-force
// witness scans and load recounts: the specification the in-place trial
// version must reproduce move for move.
ReoptimizeResult ReferenceReoptimization(const Problem& p,
                                         const IncrementalEvaluator& eval,
                                         const ReoptimizeOptions& options) {
  ReoptimizeResult result;
  result.projected_max_len = eval.CurrentMax();
  if (options.max_moves <= 0) return result;
  IncrementalEvaluator scratch(eval);
  auto has_room = [&](ServerIndex s) {
    if (!options.assign.capacitated()) return true;
    std::int32_t load = 0;
    for (ClientIndex c = 0; c < p.num_clients(); ++c) {
      load += scratch.IsActive(c) && scratch.ServerOf(c) == s ? 1 : 0;
    }
    return load < options.assign.CapacityOf(s);
  };
  auto is_down = [&](ServerIndex s) {
    return !options.down.empty() && options.down[static_cast<std::size_t>(s)];
  };
  while (static_cast<std::int32_t>(result.moves.size()) < options.max_moves) {
    const ServerIndex pair_a = scratch.MaxPairFirst();
    if (pair_a == kUnassigned) break;
    const ServerIndex pair_b = scratch.MaxPairSecond();
    ClientIndex best_client = -1;
    ServerIndex best_target = kUnassigned;
    double best_value = scratch.CurrentMax() - options.min_gain;
    bool out_of_budget = false;
    std::vector<ServerIndex> anchors{pair_a};
    if (pair_b != pair_a) anchors.push_back(pair_b);
    for (const ServerIndex anchor : anchors) {
      const ClientIndex witness =
          test::BruteWitness(p, scratch.assignment(), anchor);
      if (witness < 0) continue;
      for (ServerIndex s = 0; s < p.num_servers(); ++s) {
        if (s == anchor || is_down(s) || !has_room(s)) continue;
        if (options.eval_budget >= 0 &&
            result.evaluations >= options.eval_budget) {
          out_of_budget = true;
          break;
        }
        ++result.evaluations;
        const double value = scratch.EvaluateMove(witness, s);
        if (value < best_value) {
          best_value = value;
          best_client = witness;
          best_target = s;
        }
      }
      if (out_of_budget) break;
    }
    if (out_of_budget) {
      result.budget_exhausted = true;
      break;
    }
    if (best_client < 0) break;
    const ServerIndex from = scratch.ServerOf(best_client);
    const double before = scratch.CurrentMax();
    const double after = scratch.ApplyMove(best_client, best_target);
    result.moves.push_back(
        MoveProposal{best_client, from, best_target, before - after});
  }
  result.projected_max_len = scratch.CurrentMax();
  return result;
}

void ExpectSameProposals(const ReoptimizeResult& want,
                         const ReoptimizeResult& got) {
  ASSERT_EQ(got.moves.size(), want.moves.size());
  for (std::size_t i = 0; i < want.moves.size(); ++i) {
    EXPECT_EQ(got.moves[i].client, want.moves[i].client) << "move " << i;
    EXPECT_EQ(got.moves[i].from, want.moves[i].from) << "move " << i;
    EXPECT_EQ(got.moves[i].to, want.moves[i].to) << "move " << i;
    EXPECT_EQ(got.moves[i].gain, want.moves[i].gain) << "move " << i;
  }
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted);
  EXPECT_EQ(got.projected_max_len, want.projected_max_len);
}

TEST(ReoptimizeTest, InPlaceMatchesCopyBasedReference) {
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(500 + seed);
      const Problem p = test::TiedProblem(36, 6, rng);
      // A partial assignment: every fifth client is inactive, so witnesses
      // must skip clients that left.
      Assignment start = NearestServerAssign(p);
      for (ClientIndex c = 0; c < p.num_clients(); c += 5) start[c] = kUnassigned;
      IncrementalEvaluator eval(p, start, IncrementalEvaluator::AllowPartial{});
      for (int config = 0; config < 4; ++config) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads << " seed "
                                          << seed << " config " << config);
        ReoptimizeOptions options;
        options.max_moves = 6;
        options.min_gain = 0.5;  // integer latencies: gains are whole ms
        if (config == 1) options.assign.capacity = 8;
        if (config == 2) {
          options.down.assign(static_cast<std::size_t>(p.num_servers()), 0);
          options.down[static_cast<std::size_t>(seed % 6)] = 1;
        }
        // Runs out inside the second anchor or a later round.
        if (config == 3) options.eval_budget = p.num_servers() + 2;
        const IncrementalEvaluator before = eval;
        const ReoptimizeResult want = ReferenceReoptimization(p, eval, options);
        const ReoptimizeResult got = ProposeReoptimization(p, eval, options);
        ExpectSameProposals(want, got);
        test::ExpectSameEvaluator(p, before, eval);
        // Epoch over epoch: apply the first proposal for real so the next
        // configuration starts from a state with history.
        if (!got.moves.empty()) {
          eval.ApplyMove(got.moves[0].client, got.moves[0].to);
        }
      }
    }
  }
  SetGlobalThreads(0);
}

TEST(ReoptimizeTest, ExhaustedBudgetRestoresTheEvaluator) {
  Rng rng(601);
  const Problem p = test::TiedProblem(30, 5, rng);
  IncrementalEvaluator eval(p, NearestServerAssign(p));
  for (std::int64_t budget = 0; budget <= 3 * p.num_servers(); ++budget) {
    ReoptimizeOptions options;
    options.max_moves = 4;
    options.min_gain = 0.5;
    options.eval_budget = budget;
    const IncrementalEvaluator before = eval;
    const ReoptimizeResult want = ReferenceReoptimization(p, eval, options);
    const ReoptimizeResult got = ProposeReoptimization(p, eval, options);
    SCOPED_TRACE(::testing::Message() << "budget " << budget);
    ExpectSameProposals(want, got);
    test::ExpectSameEvaluator(p, before, eval);
  }
}

TEST(ReoptimizeTest, RejectsAnOpenTrialAndLeavesItIntact) {
  Rng rng(607);
  const Problem p = test::RandomProblem(20, 4, rng);
  IncrementalEvaluator eval(p, NearestServerAssign(p));
  const IncrementalEvaluator before = eval;
  {
    const IncrementalEvaluator::Trial trial(eval);
    eval.ApplyMove(0, (eval.ServerOf(0) + 1) % p.num_servers());
    ReoptimizeOptions options;
    options.max_moves = 2;
    EXPECT_THROW(ProposeReoptimization(p, eval, options), Error);
  }
  test::ExpectSameEvaluator(p, before, eval);
}

TEST(RepairTest, RegistryRequiresInitialAndFailedSet) {
  Rng rng(83);
  const Problem p = test::RandomProblem(12, 3, rng);
  EXPECT_THROW(Solve("repair", p), Error);  // no initial assignment
  const Assignment before = GreedyAssign(p);
  SolveOptions options;
  options.initial = &before;
  options.failed_servers = {0};
  const SolveResult via_registry = Solve("repair", p, options);
  RepairOptions direct;
  direct.failed = {0};
  EXPECT_EQ(via_registry.assignment, RepairAssign(p, before, direct).assignment);
}

}  // namespace
}  // namespace diaca::core
