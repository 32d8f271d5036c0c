#include "core/lower_bound.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd/kernels.h"

namespace diaca::core {

namespace {

LowerBoundDetail ComputePairwise(const Problem& problem) {
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  const auto sc = static_cast<std::size_t>(num_clients);
  const auto ss = static_cast<std::size_t>(num_servers);
  const ClientBlockView& view = problem.client_block();

  // m[c][s'] = min_s d(c,s) + d(s,s'): cheapest way for client c's
  // operation to reach server s' through some ingress server s. Rows use
  // the problem's padded server stride so the min-plus kernels stream
  // aligned spans; the pad lanes keep their +infinity fill (the kernels
  // run over the |S| valid lanes only — a relaxed pad lane would hold
  // stale finite junk and could win the reduce below). The m matrix is
  // the bound's own O(|C| x |S|) state, so the pairwise bound remains a
  // resident-scale computation on every backend.
  // The fill runs through the fused traversal: each tile is relaxed on a
  // pool lane while cache-resident, and every client owns its m row, so
  // the writes are disjoint and the result is schedule-independent.
  const std::size_t stride = problem.server_stride();
  std::vector<double> m(sc * stride, std::numeric_limits<double>::infinity());
  view.ForEachTile([&](const ClientTile& tile, std::size_t) {
    for (ClientIndex c = tile.begin; c < tile.end; ++c) {
      const double* cs_row = tile.row(c);
      double* m_row = m.data() + static_cast<std::size_t>(c) * stride;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        simd::MinPlusAccumulate(m_row, problem.ss_row(s), cs_row[s], ss);
      }
    }
  });

  // LB = max_{c,c'} min_{s'} m[c][s'] + d(s',c'). The pair function is
  // symmetric in (c, c'), so only ordered pairs c <= c' are scanned.
  // Iterate c2 tile-major so each client row is synthesized once, c
  // inner. The explicit lex tie-break below keeps the lexicographically
  // smallest pair attaining the max — the pair a c-major scan with a
  // strict `>` reports — so the witness is independent of the tiling. A
  // resident block is one zero-copy tile.
  //
  // Filter-and-refine over the pair grid. Each m row's minimum lane gives
  // a certified per-pair upper bound with zero slack:
  //   best(c, c2) = min_{s'} fl(m[c][s'] + cs2[s'])
  //               <= fl(m_min[c] + cs2[s_star[c]])   (that very lane)
  // so a pair whose bound loses to the incumbent — or exactly ties it
  // from a lex-greater pair, which the update below would reject anyway —
  // skips the |S|-lane reduce for two loads and an add. Lifting cs2 to
  // the TileBounds sandwich (cs2[s] <= fl(access_max + col_upper[s]))
  // turns the same bound into a whole-tile rejection test evaluated
  // BEFORE the tile is synthesized; tiles are only skipped on a strict
  // loss, so the surviving traversal reports bit-identical value AND
  // witness at any pruning rate.
  std::vector<double> m_min(sc);
  std::vector<ServerIndex> m_star(sc);
  for (std::size_t c = 0; c < sc; ++c) {
    const simd::ArgResult r = simd::ArgMinFirst(m.data() + c * stride, ss);
    m_min[c] = r.value;
    m_star[c] = static_cast<ServerIndex>(r.index);
  }
  LowerBoundDetail detail;
  view.ForEachTileBounded(
      [&](const TileBounds& tb) {
        for (ClientIndex c = 0; c < tb.end; ++c) {
          const double up =
              tb.access_max +
              view.ColumnBounds(m_star[static_cast<std::size_t>(c)]).upper;
          // Strict loss only: a bound-tying pair could still take the
          // witness from a lex-greater incumbent.
          if (m_min[static_cast<std::size_t>(c)] + up >= detail.value) {
            return true;  // some pair in this tile could still win
          }
        }
        return false;
      },
      [&](const ClientTile& tile) {
        for (ClientIndex c2 = tile.begin; c2 < tile.end; ++c2) {
          const double* cs2 = tile.row(c2);
          for (ClientIndex c = 0; c <= c2; ++c) {
            const double ub =
                m_min[static_cast<std::size_t>(c)] +
                cs2[static_cast<std::size_t>(
                    m_star[static_cast<std::size_t>(c)])];
            if (ub < detail.value) continue;
            if (ub == detail.value &&
                !(c < detail.first ||
                  (c == detail.first && c2 < detail.second))) {
              continue;
            }
            const double best = simd::MinPlusReduce(
                m.data() + static_cast<std::size_t>(c) * stride, cs2, ss);
            if (best > detail.value ||
                (best == detail.value &&
                 (c < detail.first ||
                  (c == detail.first && c2 < detail.second)))) {
              detail.value = best;
              detail.first = c;
              detail.second = c2;
            }
          }
        }
      });
  return detail;
}

/// min over (sa,sb,sc) of the worst interaction path within the triple,
/// with `incumbent` for pruning (returns incumbent if no better).
double TripleBound(const Problem& problem, ClientIndex a, ClientIndex b,
                   ClientIndex c, double stop_above) {
  const std::int32_t num_servers = problem.num_servers();
  const ClientBlockView& view = problem.client_block();
  std::vector<double> scratch(3 * view.server_stride());
  const double* da = view.Row(a, scratch.data());
  const double* db = view.Row(b, scratch.data() + view.server_stride());
  const double* dc = view.Row(c, scratch.data() + 2 * view.server_stride());
  double best = std::numeric_limits<double>::infinity();
  for (ServerIndex sa = 0; sa < num_servers; ++sa) {
    if (2.0 * da[sa] >= best) continue;
    const double* row_a = problem.ss_row(sa);
    for (ServerIndex sb = 0; sb < num_servers; ++sb) {
      const double ab = da[sa] + row_a[sb] + db[sb];
      const double partial = std::max({ab, 2.0 * da[sa], 2.0 * db[sb]});
      if (partial >= best) continue;
      const double* row_b = problem.ss_row(sb);
      for (ServerIndex sc = 0; sc < num_servers; ++sc) {
        const double ac = da[sa] + row_a[sc] + dc[sc];
        const double bc = db[sb] + row_b[sc] + dc[sc];
        const double worst = std::max({partial, ac, bc, 2.0 * dc[sc]});
        if (worst < best) {
          best = worst;
          // The bound only needs to beat stop_above; once it cannot,
          // further precision is wasted.
          if (best <= stop_above) return best;
        }
      }
    }
  }
  return best;
}

}  // namespace

LowerBoundDetail InteractivityLowerBoundDetailed(const Problem& problem) {
  return ComputePairwise(problem);
}

double InteractivityLowerBound(const Problem& problem) {
  return ComputePairwise(problem).value;
}

double TripleEnhancedLowerBound(const Problem& problem, std::int32_t samples,
                                std::uint64_t seed) {
  DIACA_CHECK(samples >= 0);
  const LowerBoundDetail pairwise = ComputePairwise(problem);
  const std::int32_t num_clients = problem.num_clients();
  if (num_clients < 3) return pairwise.value;

  double bound = pairwise.value;
  Rng rng(seed);
  // Targeted triples: the pairwise argmax pair plus each sampled third —
  // the pair already forces the bound, a third client can only raise it.
  for (std::int32_t i = 0; i < samples; ++i) {
    const auto third = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    if (third == pairwise.first || third == pairwise.second) continue;
    bound = std::max(bound, TripleBound(problem, pairwise.first,
                                        pairwise.second, third, bound));
  }
  // Plus fully random triples (diversity against pathological instances).
  for (std::int32_t i = 0; i < samples; ++i) {
    const auto a = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    const auto b = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    const auto c = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    if (a == b || b == c || a == c) continue;
    bound = std::max(bound, TripleBound(problem, a, b, c, bound));
  }
  return bound;
}

double NormalizedInteractivity(double max_path_length, double lower_bound) {
  DIACA_CHECK_MSG(lower_bound >= 0.0, "negative lower bound");
  if (lower_bound == 0.0) return max_path_length == 0.0 ? 1.0 :
      std::numeric_limits<double>::infinity();
  return max_path_length / lower_bound;
}

}  // namespace diaca::core
