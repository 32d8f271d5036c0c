// Differential test of GreedyAssign against an independent, deliberately
// plain reference of Greedy Assignment (§IV-C, Fig. 6): every server's
// clients fully sorted by (distance, client) once, every round a scan of
// every unassigned client of every server with room, the first strict-<
// minimum of Δl/Δn (lowest server on cost ties), and the winning prefix
// truncated under capacity to its farthest `take` members. None of the
// solver's buckets, ladders, memos or cutoffs appear here, so agreement
// across the grid below certifies every one of its pruning shortcuts.
//
// The grid crosses tie-heavy integer-valued and continuous random blocks,
// |C| on both sides of the first bucket-count step (8192 / 8193), |S| in
// {1, 3, 8}, uncapacitated and tight-capacity runs, bound pruning on and
// off, 1 and 4 threads, and materialized and tiled client blocks.
// Assignments must match element-wise and the objective bitwise.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/client_block_view.h"
#include "core/greedy.h"
#include "core/metrics.h"
#include "core/problem.h"
#include "core/solver_registry.h"
#include "net/distance_oracle.h"
#include "net/latency_matrix.h"

namespace diaca::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Assignment ReferenceGreedy(const Problem& p, const AssignOptions& options) {
  const ClientBlockView& view = p.client_block();
  const auto num_clients = static_cast<std::size_t>(p.num_clients());
  const ServerIndex num_servers = p.num_servers();
  std::vector<std::vector<ClientIndex>> sorted(
      static_cast<std::size_t>(num_servers));
  std::vector<double> far(static_cast<std::size_t>(num_servers), -1.0);
  std::vector<std::int32_t> room(static_cast<std::size_t>(num_servers));
  for (ServerIndex s = 0; s < num_servers; ++s) {
    auto& list = sorted[static_cast<std::size_t>(s)];
    list.resize(num_clients);
    std::iota(list.begin(), list.end(), 0);
    std::sort(list.begin(), list.end(), [&](ClientIndex x, ClientIndex y) {
      const double dx = view.cs(x, s);
      const double dy = view.cs(y, s);
      return dx != dy ? dx < dy : x < y;
    });
    room[static_cast<std::size_t>(s)] =
        options.capacitated() ? options.CapacityOf(s)
                              : std::numeric_limits<std::int32_t>::max();
  }

  Assignment a(num_clients);
  double max_len = 0.0;
  std::size_t assigned = 0;
  while (assigned < num_clients) {
    double best_cost = kInf;
    double best_len = 0.0;
    ServerIndex best_server = -1;
    std::size_t best_batch = 0;
    for (ServerIndex s = 0; s < num_servers; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (room[si] <= 0) continue;
      // Farthest reach from s through any used server; -inf before the
      // first assignment drops the term.
      double reach = -kInf;
      for (ServerIndex u = 0; u < num_servers; ++u) {
        const double f = far[static_cast<std::size_t>(u)];
        if (f >= 0.0) reach = std::max(reach, p.ss(u, s) + f);
      }
      std::size_t batch = 0;
      for (const ClientIndex c : sorted[si]) {
        if (a[c] != kUnassigned) continue;
        ++batch;
        const double d = view.cs(c, s);
        const double len = std::max(std::max(2.0 * d, d + reach), max_len);
        const double dn = std::min(static_cast<double>(batch),
                                   static_cast<double>(room[si]));
        const double cost = (len - max_len) / dn;
        if (cost < best_cost) {
          best_cost = cost;
          best_len = len;
          best_server = s;
          best_batch = batch;
        }
      }
    }
    EXPECT_GE(best_server, 0);
    if (best_server < 0) return a;
    const auto bsi = static_cast<std::size_t>(best_server);
    std::vector<ClientIndex> prefix;
    for (const ClientIndex c : sorted[bsi]) {
      if (prefix.size() == best_batch) break;
      if (a[c] == kUnassigned) prefix.push_back(c);
    }
    const std::size_t take =
        std::min(best_batch, static_cast<std::size_t>(room[bsi]));
    for (std::size_t i = best_batch - take; i < best_batch; ++i) {
      a[prefix[i]] = best_server;
      far[bsi] = std::max(far[bsi], view.cs(prefix[i], best_server));
    }
    if (options.capacitated()) room[bsi] -= static_cast<std::int32_t>(take);
    assigned += take;
    max_len = std::max(max_len, best_len);
  }
  return a;
}

// Clients attached to a small substrate through access delays, so |C|
// can reach past 8192 without an |C|-node matrix. Integer-valued legs and
// delays make exact distance ties the common case.
struct Instance {
  std::optional<net::DistanceOracle> oracle;
  std::vector<net::NodeIndex> servers;
  std::vector<net::NodeIndex> attach;
  std::vector<double> access;
};

Instance MakeInstance(bool integer_valued, std::int32_t num_clients,
                      std::int32_t num_servers, std::uint64_t seed) {
  constexpr std::int32_t kNodes = 24;
  Rng rng(seed);
  net::LatencyMatrix m(kNodes);
  for (net::NodeIndex u = 0; u < kNodes; ++u) {
    for (net::NodeIndex v = u + 1; v < kNodes; ++v) {
      m.Set(u, v,
            integer_valued ? static_cast<double>(rng.NextInt(1, 20))
                           : rng.NextUniform(1.0, 250.0));
    }
  }
  Instance in;
  in.oracle.emplace(net::DistanceOracle::FromMatrix(std::move(m)));
  in.servers = rng.SampleWithoutReplacement(kNodes, num_servers);
  for (std::int32_t c = 0; c < num_clients; ++c) {
    in.attach.push_back(static_cast<net::NodeIndex>(rng.NextInt(0, kNodes - 1)));
    in.access.push_back(integer_valued ? static_cast<double>(rng.NextInt(0, 4))
                                       : rng.NextUniform(0.0, 30.0));
  }
  return in;
}

std::vector<net::NodeIndex> ClientIds(std::size_t n) {
  std::vector<net::NodeIndex> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

Problem Tiled(const Instance& in, bool prune) {
  TileOptions tile;
  tile.tile_clients = 97;  // several tiles, not dividing |C|
  tile.bound_pruning = prune;
  const auto view = ClientBlockView::FromAttachments(
      *in.oracle, in.servers, in.attach, in.access, tile);
  const std::vector<double> d_ss(view->server_block().begin(),
                                 view->server_block().end());
  return Problem::FromView(view, in.servers, ClientIds(in.attach.size()),
                           d_ss);
}

// The same block, resident: copied cell by cell from the tiled view.
Problem Materialized(const Problem& tiled) {
  const ClientBlockView& view = tiled.client_block();
  const auto nc = static_cast<std::size_t>(tiled.num_clients());
  const auto ns = static_cast<std::size_t>(tiled.num_servers());
  std::vector<double> d_cs(nc * ns);
  std::vector<double> d_ss(ns * ns);
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t s = 0; s < ns; ++s) {
      d_cs[c * ns + s] = view.cs(static_cast<ClientIndex>(c),
                                 static_cast<ServerIndex>(s));
    }
  }
  for (std::size_t u = 0; u < ns; ++u) {
    for (std::size_t v = 0; v < ns; ++v) {
      d_ss[u * ns + v] =
          tiled.ss(static_cast<ServerIndex>(u), static_cast<ServerIndex>(v));
    }
  }
  return Problem::FromBlocks(
      std::vector<net::NodeIndex>(tiled.server_nodes().begin(),
                                  tiled.server_nodes().end()),
      ClientIds(nc), d_cs, d_ss);
}

void RunGrid(bool integer_valued) {
  for (const std::int32_t num_clients : {1, 2, 63, 500, 8192, 8193}) {
    for (const std::int32_t num_servers : {1, 3, 8}) {
      const Instance in = MakeInstance(
          integer_valued, num_clients, num_servers,
          static_cast<std::uint64_t>(num_clients) * 31 +
              static_cast<std::uint64_t>(num_servers));
      const Problem tiled_pruned = Tiled(in, true);
      const Problem tiled_unpruned = Tiled(in, false);
      const Problem mat = Materialized(tiled_pruned);
      for (const bool capacitated : {false, true}) {
        AssignOptions base;
        if (capacitated) {
          base.capacity = (num_clients + num_servers - 1) / num_servers;
        }
        const Assignment want = ReferenceGreedy(mat, base);
        ASSERT_TRUE(want.IsComplete());
        const double want_len = MaxInteractionPathLength(mat, want);
        for (const bool prune : {true, false}) {
          for (const int threads : {1, 4}) {
            for (const bool tiled : {false, true}) {
              const Problem& p =
                  !tiled ? mat : (prune ? tiled_pruned : tiled_unpruned);
              const std::string where =
                  "C=" + std::to_string(num_clients) +
                  " S=" + std::to_string(num_servers) +
                  " capacitated=" + std::to_string(capacitated) +
                  " prune=" + std::to_string(prune) +
                  " threads=" + std::to_string(threads) +
                  " tiled=" + std::to_string(tiled);
              SetGlobalThreads(threads);
              AssignOptions options = base;
              options.bound_pruning = prune;
              const Assignment got = GreedyAssign(p, options);
              ASSERT_EQ(got.server_of, want.server_of) << where;
              ASSERT_EQ(MaxInteractionPathLength(p, got), want_len) << where;
            }
          }
        }
      }
    }
  }
  SetGlobalThreads(0);
}

TEST(GreedyReferenceTest, MatchesPlainReferenceOnTieHeavyIntegerBlocks) {
  RunGrid(/*integer_valued=*/true);
}

TEST(GreedyReferenceTest, MatchesPlainReferenceOnRandomBlocks) {
  RunGrid(/*integer_valued=*/false);
}

// Skewed instances: 80% of the clients sit on server 0's node behind a
// short access leg, so the first round hands most of |C| to server 0 and
// every other list is first built from the survivors. Hub legs are never
// zero, so round 0 is one big batch rather than zero-cost singletons.
Instance MakeSkewedInstance(bool integer_valued, std::int32_t num_clients,
                            std::int32_t num_servers, std::uint64_t seed) {
  Instance in = MakeInstance(integer_valued, 0, num_servers, seed);
  constexpr std::int32_t kNodes = 24;
  Rng rng(seed ^ 0x5eedULL);
  for (std::int32_t c = 0; c < num_clients; ++c) {
    const bool hub = rng.NextUniform(0.0, 1.0) < 0.8;
    in.attach.push_back(
        hub ? in.servers[0]
            : static_cast<net::NodeIndex>(rng.NextInt(0, kNodes - 1)));
    if (integer_valued) {
      in.access.push_back(hub ? 1.0 : static_cast<double>(rng.NextInt(1, 4)));
    } else {
      in.access.push_back(hub ? rng.NextUniform(1.0, 1.5)
                              : rng.NextUniform(0.5, 30.0));
    }
  }
  return in;
}

TEST(GreedyReferenceTest, MatchesPlainReferenceWhenListsAreBuiltFromSurvivors) {
  for (const bool integer_valued : {true, false}) {
    for (const std::int32_t num_clients : {700, 8193}) {
      for (const std::int32_t num_servers : {3, 8}) {
        const Instance in = MakeSkewedInstance(
            integer_valued, num_clients, num_servers,
            static_cast<std::uint64_t>(num_clients) * 17 +
                static_cast<std::uint64_t>(num_servers));
        const Problem tiled_pruned = Tiled(in, true);
        const Problem tiled_unpruned = Tiled(in, false);
        const Problem mat = Materialized(tiled_pruned);
        for (const bool capacitated : {false, true}) {
          AssignOptions base;
          if (capacitated) {
            base.capacity = (num_clients + num_servers - 1) / num_servers;
          }
          const Assignment want = ReferenceGreedy(mat, base);
          ASSERT_TRUE(want.IsComplete());
          const double want_len = MaxInteractionPathLength(mat, want);
          for (const bool prune : {true, false}) {
            for (const int threads : {1, 4}) {
              for (const bool tiled : {false, true}) {
                const Problem& p =
                    !tiled ? mat : (prune ? tiled_pruned : tiled_unpruned);
                const std::string where =
                    "integer=" + std::to_string(integer_valued) +
                    " C=" + std::to_string(num_clients) +
                    " S=" + std::to_string(num_servers) +
                    " capacitated=" + std::to_string(capacitated) +
                    " prune=" + std::to_string(prune) +
                    " threads=" + std::to_string(threads) +
                    " tiled=" + std::to_string(tiled);
                SetGlobalThreads(threads);
                AssignOptions options = base;
                options.bound_pruning = prune;
                const Assignment got = GreedyAssign(p, options);
                ASSERT_EQ(got.server_of, want.server_of) << where;
                ASSERT_EQ(MaxInteractionPathLength(p, got), want_len) << where;
              }
            }
          }
        }
      }
    }
  }
  SetGlobalThreads(0);
}

// Memory attribution: on the skewed instance the first round assigns
// most clients before any list but the winner's is built, so the live
// lists peak far below the 4 B * |C| * |S| of eagerly built ones.
TEST(GreedyReferenceTest, CandidateListsPeakBelowHalfTheEagerFootprint) {
  constexpr std::int32_t kClients = 8193;
  constexpr std::int32_t kServers = 8;
  const Instance in = MakeSkewedInstance(false, kClients, kServers, 91);
  for (const bool tiled : {false, true}) {
    const Problem tiled_problem = Tiled(in, true);
    const Problem mat = Materialized(tiled_problem);
    const SolveResult r = SolverRegistry::Default().Solve(
        "greedy", tiled ? tiled_problem : mat, SolveOptions{});
    ASSERT_TRUE(r.assignment.IsComplete());
    EXPECT_GT(r.stats.candidate_bytes_peak, 0) << "tiled=" << tiled;
    EXPECT_LT(r.stats.candidate_bytes_peak,
              std::int64_t{2} * kClients * kServers)
        << "tiled=" << tiled;
  }
}

}  // namespace
}  // namespace diaca::core
