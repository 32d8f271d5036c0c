// Helpers for the IncrementalEvaluator and reoptimizer suites: an instance
// family full of distance ties, the brute-force witness rule, and a deep
// state comparison of two evaluators.
#pragma once

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/incremental.h"
#include "core/problem.h"
#include "core/types.h"
#include "net/latency_matrix.h"

namespace diaca::test {

/// Integer latencies in [1, 4]: many clients share a distance to a server,
/// so witness and objective ties are everywhere. The first `num_servers`
/// nodes are servers, every node is a client.
inline core::Problem TiedProblem(std::int32_t num_nodes,
                                 std::int32_t num_servers, Rng& rng) {
  net::LatencyMatrix m(num_nodes);
  for (net::NodeIndex u = 0; u < num_nodes; ++u) {
    for (net::NodeIndex v = u + 1; v < num_nodes; ++v) {
      m.Set(u, v, 1.0 + static_cast<double>(rng.NextBounded(4)));
    }
  }
  std::vector<net::NodeIndex> servers(static_cast<std::size_t>(num_servers));
  for (std::int32_t s = 0; s < num_servers; ++s) {
    servers[static_cast<std::size_t>(s)] = s;
  }
  return core::Problem::WithClientsEverywhere(m, servers);
}

/// The witness rule by brute force: the farthest client of `assignment`
/// on s, lowest index on ties (-1 when s holds none).
inline core::ClientIndex BruteWitness(const core::Problem& p,
                                      const core::Assignment& assignment,
                                      core::ServerIndex s) {
  core::ClientIndex witness = -1;
  double witness_d = -1.0;
  for (core::ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (assignment[c] != s) continue;
    const double d = p.client_block().cs(c, s);
    if (d > witness_d) {
      witness_d = d;
      witness = c;
    }
  }
  return witness;
}

/// `after` is observably the evaluator `before` was copied from: same
/// assignment, objective, argmax pair, loads and witnesses (checked against
/// the brute-force rule too), and the same value for every candidate move.
inline void ExpectSameEvaluator(const core::Problem& p,
                                const core::IncrementalEvaluator& before,
                                const core::IncrementalEvaluator& after) {
  EXPECT_EQ(after.assignment(), before.assignment());
  EXPECT_EQ(after.CurrentMax(), before.CurrentMax());
  EXPECT_EQ(after.MaxPairFirst(), before.MaxPairFirst());
  EXPECT_EQ(after.MaxPairSecond(), before.MaxPairSecond());
  EXPECT_EQ(after.num_active(), before.num_active());
  for (core::ServerIndex s = 0; s < p.num_servers(); ++s) {
    EXPECT_EQ(after.LoadOf(s), before.LoadOf(s)) << "server " << s;
    EXPECT_EQ(after.WitnessOf(s), before.WitnessOf(s)) << "server " << s;
    EXPECT_EQ(after.WitnessOf(s), BruteWitness(p, after.assignment(), s))
        << "server " << s;
  }
  for (core::ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (!after.IsActive(c)) continue;
    for (core::ServerIndex s = 0; s < p.num_servers(); ++s) {
      EXPECT_EQ(after.EvaluateMove(c, s), before.EvaluateMove(c, s))
          << "move " << c << " -> " << s;
    }
  }
}

}  // namespace diaca::test
