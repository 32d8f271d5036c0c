#include "core/lower_bound.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/client_block_view.h"
#include "core/exact.h"
#include "core/metrics.h"
#include "net/distance_oracle.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

double BruteForceLowerBound(const Problem& p) {
  double lb = 0.0;
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    for (ClientIndex c2 = 0; c2 < p.num_clients(); ++c2) {
      double best = std::numeric_limits<double>::infinity();
      for (ServerIndex s = 0; s < p.num_servers(); ++s) {
        for (ServerIndex t = 0; t < p.num_servers(); ++t) {
          best = std::min(best, p.client_block().cs(c, s) + p.ss(s, t) + p.client_block().cs(c2, t));
        }
      }
      lb = std::max(lb, best);
    }
  }
  return lb;
}

TEST(LowerBoundTest, HandComputedTwoServers) {
  // Nodes: 0=s0, 1=s1, 2=c0, 3=c1.
  net::LatencyMatrix m(4);
  m.Set(0, 1, 10.0);
  m.Set(0, 2, 1.0);
  m.Set(0, 3, 8.0);
  m.Set(1, 2, 20.0);
  m.Set(1, 3, 2.0);
  m.Set(2, 3, 25.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3});
  // Pair (c0,c1): min over ingress/egress servers of
  // d(c0,s)+d(s,t)+d(t,c1): {1+0+8, 1+10+2, 20+10+8, 20+0+2} -> 9.
  // Pair (c0,c0): 2*1 = 2; (c1,c1): 2*2 = 4. LB = 9.
  EXPECT_DOUBLE_EQ(InteractivityLowerBound(p), 9.0);
}

TEST(LowerBoundTest, SingleServerIsExact) {
  Rng rng(1);
  const Problem p = test::RandomProblem(10, 1, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  for (ClientIndex c = 0; c < p.num_clients(); ++c) a[c] = 0;
  EXPECT_NEAR(InteractivityLowerBound(p), MaxInteractionPathLength(p, a), 1e-9);
}

class LowerBoundPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerBoundPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const Problem p = test::RandomProblem(14, 4, rng);
  EXPECT_NEAR(InteractivityLowerBound(p), BruteForceLowerBound(p), 1e-9);
}

TEST_P(LowerBoundPropertyTest, NeverExceedsOptimal) {
  Rng rng(GetParam() + 500);
  const Problem p = test::RandomProblem(7, 3, rng);
  const double lb = InteractivityLowerBound(p);
  const double opt = test::BruteForceOptimal(p);
  EXPECT_LE(lb, opt + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(LowerBoundTest, CanBeStrictlyBelowOptimal) {
  // The bound lets a client use different servers per interaction, so it
  // is a super-optimum. Construct a case where that freedom wins:
  // two clients, two servers; each client is close to "its" server but
  // the servers are far apart, while a middle server is moderately far
  // from both.
  net::LatencyMatrix m(5);
  // 0=sA, 1=sB, 2=sM, 3=cA, 4=cB.
  m.Set(0, 1, 100.0);
  m.Set(0, 2, 40.0);
  m.Set(1, 2, 40.0);
  m.Set(0, 3, 1.0);
  m.Set(1, 3, 99.0);
  m.Set(2, 3, 45.0);
  m.Set(0, 4, 99.0);
  m.Set(1, 4, 1.0);
  m.Set(2, 4, 45.0);
  m.Set(3, 4, 120.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1, 2},
                  std::vector<net::NodeIndex>{3, 4});
  const double lb = InteractivityLowerBound(p);
  const double opt = test::BruteForceOptimal(p);
  EXPECT_LT(lb, opt - 1e-9);
}

// The pairwise bound as a plain c-major scan over every pair c <= c2,
// first strict `>` wins: the value and the lexicographically smallest
// pair attaining it. Every term is a min or max of single IEEE additions,
// so the scan order cannot change a bit of the value.
LowerBoundDetail ReferencePairLoop(const Problem& p) {
  const ClientBlockView& view = p.client_block();
  const auto nc = static_cast<std::size_t>(p.num_clients());
  const auto ns = static_cast<std::size_t>(p.num_servers());
  std::vector<double> m(nc * ns, std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t s = 0; s < ns; ++s) {
      const double d = view.cs(static_cast<ClientIndex>(c),
                               static_cast<ServerIndex>(s));
      for (std::size_t t = 0; t < ns; ++t) {
        m[c * ns + t] = std::min(
            m[c * ns + t],
            d + p.ss(static_cast<ServerIndex>(s), static_cast<ServerIndex>(t)));
      }
    }
  }
  LowerBoundDetail detail;
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t c2 = c; c2 < nc; ++c2) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t t = 0; t < ns; ++t) {
        best = std::min(best, m[c * ns + t] +
                                  view.cs(static_cast<ClientIndex>(c2),
                                          static_cast<ServerIndex>(t)));
      }
      if (best > detail.value) {
        detail.value = best;
        detail.first = static_cast<ClientIndex>(c);
        detail.second = static_cast<ClientIndex>(c2);
      }
    }
  }
  return detail;
}

// Symmetric matrix; integer-valued entries in [1, 4] make ties common.
net::LatencyMatrix PairLoopMatrix(std::int32_t n, bool integer_valued,
                                  Rng& rng) {
  if (!integer_valued) return test::RandomMatrix(n, rng);
  net::LatencyMatrix m(n);
  for (net::NodeIndex u = 0; u < n; ++u) {
    for (net::NodeIndex v = u + 1; v < n; ++v) {
      m.Set(u, v, static_cast<double>(1 + rng.NextBounded(4)));
    }
  }
  return m;
}

void ExpectMatchesPairLoop(const Problem& p, const std::string& label) {
  const LowerBoundDetail want = ReferencePairLoop(p);
  for (const std::int32_t threads : {1, 4}) {
    SetGlobalThreads(threads);
    const LowerBoundDetail got = InteractivityLowerBoundDetailed(p);
    EXPECT_EQ(got.value, want.value) << label << " threads=" << threads;
    EXPECT_EQ(got.first, want.first) << label << " threads=" << threads;
    EXPECT_EQ(got.second, want.second) << label << " threads=" << threads;
  }
  SetGlobalThreads(0);
}

// Resident blocks and streamed ones (clients on nodes, and attached
// clients with an access leg) at several tile sizes, on tie-heavy
// integer and continuous random instances.
TEST(LowerBoundTest, DetailedMatchesPairLoopOnEveryView) {
  constexpr std::int32_t kNodes = 37;
  constexpr std::int32_t kServers = 5;
  for (const bool integer_valued : {true, false}) {
    for (const std::uint64_t seed : {3u, 11u, 29u}) {
      Rng rng(seed);
      const net::LatencyMatrix matrix =
          PairLoopMatrix(kNodes, integer_valued, rng);
      std::vector<net::NodeIndex> servers(kServers);
      std::iota(servers.begin(), servers.end(), 0);
      std::vector<net::NodeIndex> clients(kNodes);
      std::iota(clients.begin(), clients.end(), 0);
      const std::string base = std::string(integer_valued ? "int" : "real") +
                               " seed=" + std::to_string(seed);
      ExpectMatchesPairLoop(Problem(matrix, servers, clients),
                            base + " resident");

      const net::DistanceOracle oracle =
          net::DistanceOracle::FromMatrix(matrix);
      // Attached clients: several per node, with integer access delays so
      // access + leg sums tie as well.
      std::vector<net::NodeIndex> attach(3 * kNodes);
      std::vector<double> access(attach.size());
      std::vector<net::NodeIndex> ids(attach.size());
      for (std::size_t c = 0; c < attach.size(); ++c) {
        attach[c] = static_cast<net::NodeIndex>(rng.NextBounded(kNodes));
        access[c] = static_cast<double>(rng.NextBounded(3));
        ids[c] = kNodes + static_cast<net::NodeIndex>(c);
      }
      for (const std::int32_t tile_clients : {1, 7, kNodes, 3 * kNodes}) {
        TileOptions tile;
        tile.tile_clients = tile_clients;
        const std::string label =
            base + " tile=" + std::to_string(tile_clients);
        ExpectMatchesPairLoop(
            Problem::FromOracleTiled(oracle, servers, clients, tile),
            label + " tiled");
        const auto view = ClientBlockView::FromAttachments(
            oracle, servers, attach, access, tile);
        const std::vector<double> d_ss(view->server_block().begin(),
                                       view->server_block().end());
        ExpectMatchesPairLoop(Problem::FromView(view, servers, ids, d_ss),
                              label + " attached");
      }
    }
  }
}

TEST(NormalizedInteractivityTest, Basics) {
  EXPECT_DOUBLE_EQ(NormalizedInteractivity(15.0, 10.0), 1.5);
  EXPECT_DOUBLE_EQ(NormalizedInteractivity(0.0, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(NormalizedInteractivity(5.0, 0.0)));
}

}  // namespace
}  // namespace diaca::core
