#include "core/incremental.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/random_assign.h"
#include "core/repair.h"
#include "../testutil.h"
#include "evaluator_testutil.h"

namespace diaca::core {
namespace {

TEST(IncrementalTest, InitialMaxMatchesReference) {
  Rng rng(1);
  const Problem p = test::RandomProblem(20, 5, rng);
  const Assignment a = NearestServerAssign(p);
  const IncrementalEvaluator evaluator(p, a);
  EXPECT_NEAR(evaluator.CurrentMax(), MaxInteractionPathLength(p, a), 1e-9);
}

TEST(IncrementalTest, EvaluateMoveDoesNotMutate) {
  Rng rng(2);
  const Problem p = test::RandomProblem(15, 4, rng);
  const Assignment a = NearestServerAssign(p);
  IncrementalEvaluator evaluator(p, a);
  const double before = evaluator.CurrentMax();
  (void)evaluator.EvaluateMove(0, (a[0] + 1) % p.num_servers());
  EXPECT_DOUBLE_EQ(evaluator.CurrentMax(), before);
  EXPECT_EQ(evaluator.assignment(), a);
}

TEST(IncrementalTest, NoOpMoveIsIdentity) {
  Rng rng(3);
  const Problem p = test::RandomProblem(10, 3, rng);
  const Assignment a = NearestServerAssign(p);
  IncrementalEvaluator evaluator(p, a);
  EXPECT_DOUBLE_EQ(evaluator.EvaluateMove(0, a[0]), evaluator.CurrentMax());
  EXPECT_DOUBLE_EQ(evaluator.ApplyMove(0, a[0]), evaluator.CurrentMax());
  EXPECT_EQ(evaluator.assignment(), a);
}

class IncrementalPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalPropertyTest, RandomMoveSequenceTracksReference) {
  // Differential test: a long random sequence of evaluate/apply operations
  // must always agree with the from-scratch computation, including through
  // history-carrying states (tied distances, emptied servers).
  Rng rng(GetParam());
  const Problem p = test::RandomProblem(18, 4, rng);
  Rng arng(GetParam() + 50);
  const Assignment start = RandomAssign(p, arng);
  IncrementalEvaluator evaluator(p, start);
  Assignment mirror = start;
  Rng move_rng(GetParam() + 99);
  for (int step = 0; step < 300; ++step) {
    const auto c = static_cast<ClientIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
    const auto s = static_cast<ServerIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    // Preview must equal the reference of the hypothetical assignment.
    Assignment preview = mirror;
    preview[c] = s;
    EXPECT_NEAR(evaluator.EvaluateMove(c, s),
                MaxInteractionPathLength(p, preview), 1e-9)
        << "step " << step;
    if (move_rng.NextBernoulli(0.6)) {
      evaluator.ApplyMove(c, s);
      mirror[c] = s;
      EXPECT_NEAR(evaluator.CurrentMax(),
                  MaxInteractionPathLength(p, mirror), 1e-9)
          << "step " << step;
      EXPECT_EQ(evaluator.assignment(), mirror);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(IncrementalTest, FastPathAvoidsFullRescans) {
  // Moves among servers far from the critical pair should mostly take the
  // O(|S|) path.
  Rng rng(9);
  const Problem p = test::RandomProblem(100, 10, rng);
  IncrementalEvaluator evaluator(p, NearestServerAssign(p));
  Rng move_rng(10);
  constexpr int kMoves = 500;
  for (int i = 0; i < kMoves; ++i) {
    const auto c = static_cast<ClientIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
    const auto s = static_cast<ServerIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    (void)evaluator.EvaluateMove(c, s);
  }
  EXPECT_LT(evaluator.full_rescans(), kMoves / 2);
}

TEST(IncrementalTest, EmptyingAServerHandled) {
  // Two servers, two clients; move both clients to server 1, emptying 0.
  net::LatencyMatrix m(4);
  m.Set(0, 1, 10.0);
  m.Set(0, 2, 1.0);
  m.Set(1, 2, 9.0);
  m.Set(0, 3, 8.0);
  m.Set(1, 3, 2.0);
  m.Set(2, 3, 7.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3});
  Assignment a(2);
  a[0] = 0;
  a[1] = 0;
  IncrementalEvaluator evaluator(p, a);
  evaluator.ApplyMove(0, 1);
  evaluator.ApplyMove(1, 1);
  Assignment expect(2);
  expect[0] = 1;
  expect[1] = 1;
  EXPECT_NEAR(evaluator.CurrentMax(), MaxInteractionPathLength(p, expect),
              1e-9);
  EXPECT_EQ(evaluator.LoadOf(0), 0);
  EXPECT_EQ(evaluator.LoadOf(1), 2);
}

TEST(IncrementalTest, RejectsIncompleteAssignment) {
  Rng rng(11);
  const Problem p = test::RandomProblem(5, 2, rng);
  Assignment partial(static_cast<std::size_t>(p.num_clients()));
  EXPECT_THROW(IncrementalEvaluator(p, partial), Error);
}

// --- partial assignments (the churn control plane's working state) ---------

// Reference objective over just the attached clients.
double PartialMaxPath(const Problem& p, const Assignment& a) {
  double best = 0.0;
  for (ClientIndex i = 0; i < p.num_clients(); ++i) {
    if (a[i] == kUnassigned) continue;
    for (ClientIndex j = i; j < p.num_clients(); ++j) {
      if (a[j] == kUnassigned) continue;
      best = std::max(best, InteractionPathLength(p, a, i, j));
    }
  }
  return best;
}

// Differential test of the membership lifecycle: arrivals, departures,
// and migrations (drawn from `rng`) over a partial assignment always agree
// with the from-scratch member-only objective, and every server's witness
// with the brute-force rule.
void CheckLifecycleAgainstReference(const Problem& p, Rng& rng) {
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  EXPECT_EQ(eval.num_active(), 0);
  EXPECT_DOUBLE_EQ(eval.CurrentMax(), 0.0);
  for (int step = 0; step < 120; ++step) {
    const ClientIndex c =
        static_cast<ClientIndex>(rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
    const ServerIndex s =
        static_cast<ServerIndex>(rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    if (!eval.IsActive(c)) {
      // EvaluateAdd predicts without mutating; AddClient commits.
      const double predicted = eval.EvaluateAdd(c, s);
      EXPECT_EQ(eval.assignment()[c], kUnassigned);
      EXPECT_DOUBLE_EQ(eval.AddClient(c, s), predicted);
      a[c] = s;
    } else if (rng.NextBounded(2) == 0) {
      eval.RemoveClient(c);
      a[c] = kUnassigned;
    } else {
      eval.ApplyMove(c, s);
      a[c] = s;
    }
    EXPECT_NEAR(eval.CurrentMax(), PartialMaxPath(p, a), 1e-9)
        << "step " << step;
    for (ServerIndex t = 0; t < p.num_servers(); ++t) {
      EXPECT_EQ(eval.WitnessOf(t), test::BruteWitness(p, a, t))
          << "step " << step << " server " << t;
    }
    std::int32_t active = 0;
    for (ClientIndex i = 0; i < p.num_clients(); ++i) {
      active += a[i] != kUnassigned ? 1 : 0;
      EXPECT_EQ(eval.IsActive(i), a[i] != kUnassigned);
    }
    EXPECT_EQ(eval.num_active(), active);
  }
}

TEST(IncrementalPartialTest, AddRemoveMoveTracksReference) {
  Rng rng(21);
  CheckLifecycleAgainstReference(test::RandomProblem(18, 4, rng), rng);
  // Integer latencies: tied witnesses at almost every step.
  Rng tied_rng(22);
  CheckLifecycleAgainstReference(test::TiedProblem(18, 4, tied_rng), tied_rng);
}

TEST(IncrementalPartialTest, SelfPairCountsForALoneClient) {
  // With a single attached client the objective is its self-pair path
  // d(c, s) + 0 + d(s, c), never zero.
  Rng rng(23);
  const Problem p = test::RandomProblem(10, 3, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  eval.AddClient(2, 1);
  EXPECT_DOUBLE_EQ(eval.CurrentMax(), 2.0 * p.client_block().cs(2, 1));
  // Removing the last member drains the objective back to zero.
  eval.RemoveClient(2);
  EXPECT_DOUBLE_EQ(eval.CurrentMax(), 0.0);
  EXPECT_EQ(eval.num_active(), 0);
}

TEST(IncrementalPartialTest, LifecycleMisuseThrows) {
  Rng rng(25);
  const Problem p = test::RandomProblem(8, 2, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  a[0] = 0;
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  EXPECT_THROW(eval.AddClient(0, 1), Error);       // already active
  EXPECT_THROW(eval.EvaluateAdd(0, 1), Error);
  EXPECT_THROW(eval.RemoveClient(3), Error);       // never attached
  EXPECT_THROW((void)eval.EvaluateMove(3, 1), Error);
  EXPECT_THROW(eval.ApplyMove(3, 1), Error);
}

// --- trials: in-place moves with exact rollback ------------------------------

TEST(IncrementalTrialTest, RollbackRestoresTheExactState) {
  // Trial moves through tied witnesses, emptied servers and full rescans
  // must leave no trace: the evaluator afterwards is indistinguishable from
  // a copy taken before, and keeps tracking it move for move. With tied
  // objectives the cached argmax pair depends on the move history, so a
  // rollback that rescanned for it instead of restoring it would differ.
  std::int32_t history_dependent_pairs = 0;
  for (std::uint64_t seed = 31; seed <= 38; ++seed) {
    Rng rng(seed);
    const Problem p = test::TiedProblem(24, 5, rng);
    Assignment start = RandomAssign(p, rng);
    start[3] = kUnassigned;  // an inactive client too
    IncrementalEvaluator eval(p, start, IncrementalEvaluator::AllowPartial{});
    // Real moves until the cached pair is one a rescan would not pick.
    for (int step = 0; step < 400; ++step) {
      const auto c = static_cast<ClientIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
      if (!eval.IsActive(c)) continue;
      eval.ApplyMove(c, static_cast<ServerIndex>(rng.NextBounded(
                            static_cast<std::uint64_t>(p.num_servers()))));
      const IncrementalEvaluator rescanned(
          p, eval.assignment(), IncrementalEvaluator::AllowPartial{});
      if (rescanned.MaxPairFirst() != eval.MaxPairFirst() ||
          rescanned.MaxPairSecond() != eval.MaxPairSecond()) {
        ++history_dependent_pairs;
        break;
      }
    }
    const IncrementalEvaluator before = eval;
    const std::int64_t rescans_before = eval.full_rescans();
    {
      const IncrementalEvaluator::Trial trial(eval);
      for (int step = 0; step < 40; ++step) {
        const auto c = static_cast<ClientIndex>(
            rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
        if (!eval.IsActive(c)) continue;
        eval.ApplyMove(c, static_cast<ServerIndex>(rng.NextBounded(
                              static_cast<std::uint64_t>(p.num_servers()))));
      }
    }
    EXPECT_GE(eval.full_rescans(), rescans_before);  // trial work counts
    test::ExpectSameEvaluator(p, before, eval);
    IncrementalEvaluator twin = before;
    for (int step = 0; step < 40; ++step) {
      const auto c = static_cast<ClientIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
      if (!eval.IsActive(c)) continue;
      const auto s = static_cast<ServerIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
      EXPECT_EQ(eval.ApplyMove(c, s), twin.ApplyMove(c, s));
      EXPECT_EQ(eval.MaxPairFirst(), twin.MaxPairFirst());
      EXPECT_EQ(eval.MaxPairSecond(), twin.MaxPairSecond());
    }
  }
  EXPECT_GT(history_dependent_pairs, 0) << "adjust the seeds";
}

TEST(IncrementalTrialTest, RollbackRunsWhenAnErrorEscapes) {
  Rng rng(41);
  const Problem p = test::TiedProblem(16, 4, rng);
  Assignment start = NearestServerAssign(p);
  start[5] = kUnassigned;
  IncrementalEvaluator eval(p, start, IncrementalEvaluator::AllowPartial{});
  const IncrementalEvaluator before = eval;
  try {
    const IncrementalEvaluator::Trial trial(eval);
    eval.ApplyMove(0, (eval.ServerOf(0) + 1) % p.num_servers());
    eval.ApplyMove(1, (eval.ServerOf(1) + 2) % p.num_servers());
    eval.ApplyMove(5, 0);  // inactive: throws with two moves logged
    FAIL() << "moving an inactive client must throw";
  } catch (const Error&) {
  }
  test::ExpectSameEvaluator(p, before, eval);
  // The trial is closed again: membership changes work.
  eval.AddClient(5, 1);
  EXPECT_TRUE(eval.IsActive(5));
}

TEST(IncrementalTrialTest, MembershipChangesAndNestingAreRejected) {
  Rng rng(43);
  const Problem p = test::RandomProblem(12, 3, rng);
  Assignment start = NearestServerAssign(p);
  start[2] = kUnassigned;
  IncrementalEvaluator eval(p, start, IncrementalEvaluator::AllowPartial{});
  const IncrementalEvaluator before = eval;
  {
    const IncrementalEvaluator::Trial trial(eval);
    EXPECT_THROW(eval.AddClient(2, 0), Error);
    EXPECT_THROW(eval.RemoveClient(0), Error);
    EXPECT_THROW(IncrementalEvaluator::Trial{eval}, Error);
    eval.ApplyMove(0, (eval.ServerOf(0) + 1) % p.num_servers());
  }
  test::ExpectSameEvaluator(p, before, eval);
}

// --- witness ties in RepairAssign's bounded-migration phase -----------------

TEST(IncrementalWitnessTest, RepairBoundedMigrationBreaksTiesOnLowestIndex) {
  // The bounded-migration phase moves the argmax endpoints' witnesses.
  // Replay it from the budget-0 repair with the brute-force witness scan
  // (farthest client, lowest index on ties) and require the same result;
  // integer latencies put tied witnesses on the bottleneck servers. (A
  // tied witness cannot lower far(anchor), so no tied round moves anyone;
  // the case pins that the O(1) lookup leaves every round as it was.)
  std::int32_t tied_rounds = 0;
  for (std::uint64_t seed = 51; seed <= 58; ++seed) {
    Rng rng(seed);
    const Problem p = test::TiedProblem(40, 6, rng);
    const Assignment current = NearestServerAssign(p);
    RepairOptions options;
    options.failed = {static_cast<ServerIndex>(seed % 6)};
    const Assignment orphans_only = RepairAssign(p, current, options).assignment;
    options.migration_budget = 4;
    const RepairResult result = RepairAssign(p, current, options);

    IncrementalEvaluator eval(p, orphans_only);
    std::int32_t budget = options.migration_budget;
    while (budget > 0) {
      ClientIndex best_client = -1;
      ServerIndex best_target = kUnassigned;
      double best_value = eval.CurrentMax() - 1e-9;
      std::vector<ServerIndex> anchors{eval.MaxPairFirst()};
      if (eval.MaxPairSecond() != eval.MaxPairFirst()) {
        anchors.push_back(eval.MaxPairSecond());
      }
      for (const ServerIndex anchor : anchors) {
        const ClientIndex witness =
            test::BruteWitness(p, eval.assignment(), anchor);
        const double far = p.client_block().cs(witness, anchor);
        for (ClientIndex c = witness + 1; c < p.num_clients(); ++c) {
          if (eval.ServerOf(c) == anchor && p.client_block().cs(c, anchor) == far) {
            ++tied_rounds;
            break;
          }
        }
        for (ServerIndex s = 0; s < p.num_servers(); ++s) {
          if (s == anchor || s == options.failed[0]) continue;
          const double value = eval.EvaluateMove(witness, s);
          if (value < best_value) {
            best_value = value;
            best_client = witness;
            best_target = s;
          }
        }
      }
      if (best_client < 0) break;
      if (current[best_client] != options.failed[0]) --budget;
      eval.ApplyMove(best_client, best_target);
    }
    EXPECT_EQ(result.assignment, eval.assignment()) << "seed " << seed;
  }
  EXPECT_GT(tied_rounds, 0) << "no witness tie exercised; adjust the seeds";
}

}  // namespace
}  // namespace diaca::core
