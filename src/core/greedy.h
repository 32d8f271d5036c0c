// Greedy Assignment (§IV-C, Fig. 6).
//
// Iteratively considers every (unassigned client c, server s) pair. Taking
// the pair would batch-assign to s all unassigned clients no farther from
// s than c; the pair minimizing the amortized objective increase
// Δl/Δn — Δl the growth of the maximum interaction path length, Δn the
// batch size — wins. Per-server client lists ordered by distance make Δn
// an O(1) prefix count, and the max reach term of Δl is shared across all
// clients of a server, giving O(|S||C|) per iteration as in the paper.
// The lists are bucketed, not sorted, and built lazily: preprocessing
// keeps only each column's distance histogram, and a list is built —
// over the clients still unassigned — only when a scan first needs its
// lanes. A 1M-client solve therefore holds lists over the few survivors
// of its first rounds, not 4 B per client per server, and never builds
// the lists its bounds keep out of every scan (greedy.cc's bucket note
// has the details).
//
// Capacitated variant (§IV-E): saturated servers are skipped and Δn is
// capped by the remaining capacity. With Δn capped, no client past the
// capacity-th is cheaper than the capacity-th, so the winning batch always
// fits its server and is never truncated (DESIGN.md §5).
#pragma once

#include <cstdint>

#include "core/problem.h"
#include "core/solve_stats.h"
#include "core/types.h"

namespace diaca::core {

/// Throws diaca::Error if the capacity makes the instance infeasible.
/// When `stats` is non-null, fills SolveStats::iterations with the number
/// of batch rounds and SolveStats::candidate_bytes_peak. Prefer
/// SolverRegistry::Solve("greedy", ...) — the registry adds
/// tracing/metrics and the canonical max_len.
Assignment GreedyAssign(const Problem& problem,
                        const AssignOptions& options = {},
                        SolveStats* stats = nullptr);

}  // namespace diaca::core
