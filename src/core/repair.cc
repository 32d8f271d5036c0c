#include "core/repair.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

// Strict-improvement threshold, matching the session's epoch comparisons.
constexpr double kEps = 1e-9;

}  // namespace

RepairResult RepairAssign(const Problem& problem, const Assignment& current,
                          const RepairOptions& options) {
  DIACA_OBS_SPAN("core.repair");
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  DIACA_CHECK_MSG(current.size() == static_cast<std::size_t>(num_clients),
                  "repair: current assignment has the wrong size");
  DIACA_CHECK_MSG(current.IsComplete(),
                  "repair: current assignment must be complete");

  const ClientBlockView& view = problem.client_block();
  std::vector<char> is_failed(static_cast<std::size_t>(num_servers), 0);
  for (const ServerIndex s : options.failed) {
    DIACA_CHECK_MSG(s >= 0 && s < num_servers,
                    "repair: failed server " << s << " out of range");
    DIACA_CHECK_MSG(is_failed[static_cast<std::size_t>(s)] == 0,
                    "repair: failed server " << s << " listed twice");
    is_failed[static_cast<std::size_t>(s)] = 1;
  }
  DIACA_CHECK_MSG(
      static_cast<std::int32_t>(options.failed.size()) < num_servers,
      "repair: every server failed — nothing to repair onto");

  std::vector<std::int32_t> load(static_cast<std::size_t>(num_servers), 0);
  for (ClientIndex c = 0; c < num_clients; ++c) {
    ++load[static_cast<std::size_t>(current[c])];
  }
  const bool capacitated = options.assign.capacitated();
  if (capacitated) {
    if (!options.assign.per_server_capacity.empty()) {
      DIACA_CHECK_MSG(options.assign.per_server_capacity.size() ==
                          static_cast<std::size_t>(num_servers),
                      "repair: per-server capacity vector size "
                          << options.assign.per_server_capacity.size()
                          << " != " << num_servers << " servers");
    }
    // Survivor-only feasibility: the failed servers' capacity is gone.
    std::int64_t surviving_capacity = 0;
    for (ServerIndex s = 0; s < num_servers; ++s) {
      if (is_failed[static_cast<std::size_t>(s)] != 0) continue;
      const std::int32_t cap = options.assign.CapacityOf(s);
      DIACA_CHECK_MSG(cap > 0,
                      "repair: capacity of server " << s << " must be positive");
      surviving_capacity += cap;
      if (load[static_cast<std::size_t>(s)] > cap) {
        throw Error("repair: surviving server " + std::to_string(s) +
                    " already exceeds its capacity in the current assignment");
      }
    }
    if (surviving_capacity < num_clients) {
      throw Error("infeasible after failures: surviving capacity " +
                  std::to_string(surviving_capacity) + " < " +
                  std::to_string(num_clients) + " clients");
    }
  }
  auto has_room = [&](ServerIndex s) {
    return !capacitated ||
           load[static_cast<std::size_t>(s)] < options.assign.CapacityOf(s);
  };

  std::vector<char> is_orphan(static_cast<std::size_t>(num_clients), 0);
  // Orphans ordered hardest-first: the client farthest from its nearest
  // survivor seeds and improves first, while placement is least
  // constrained (the longest-first idiom of §IV-B). Ties break on the
  // lower client index, so the order — and everything downstream — is
  // deterministic.
  std::vector<std::pair<double, ClientIndex>> orphan_order;
  std::vector<double> row(view.server_stride());
  for (ClientIndex c = 0; c < num_clients; ++c) {
    if (is_failed[static_cast<std::size_t>(current[c])] == 0) continue;
    is_orphan[static_cast<std::size_t>(c)] = 1;
    // One row fill per orphan: the masked min then runs over a resident
    // row instead of |S| virtual spot lookups.
    view.FillRow(c, row.data());
    double nearest = std::numeric_limits<double>::infinity();
    for (ServerIndex s = 0; s < num_servers; ++s) {
      if (is_failed[static_cast<std::size_t>(s)] != 0) continue;
      nearest = std::min(nearest, row[static_cast<std::size_t>(s)]);
    }
    orphan_order.emplace_back(nearest, c);
  }
  std::sort(orphan_order.begin(), orphan_order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });

  RepairResult result;
  result.repair.orphans = static_cast<std::int32_t>(orphan_order.size());
  DIACA_OBS_COUNT("repair.solves", 1);
  DIACA_OBS_COUNT("repair.orphans", result.repair.orphans);
  if (orphan_order.empty() && options.migration_budget <= 0) {
    result.assignment = current;
    result.stats.max_len = MaxInteractionPathLength(problem, current);
    return result;
  }

  // Seed every orphan at its nearest survivor with room (room always
  // exists: surviving capacity covers all clients).
  Assignment seeded = current;
  for (const auto& [unused, c] : orphan_order) {
    ServerIndex best = kUnassigned;
    double best_d = std::numeric_limits<double>::infinity();
    view.FillRow(c, row.data());
    for (ServerIndex s = 0; s < num_servers; ++s) {
      if (is_failed[static_cast<std::size_t>(s)] != 0 || !has_room(s)) continue;
      const double d = row[static_cast<std::size_t>(s)];
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    DIACA_CHECK(best != kUnassigned);
    seeded[c] = best;
    ++load[static_cast<std::size_t>(best)];
  }

  // Failed servers now hold no clients, so the evaluator's masked pair
  // scans (far < 0 lanes are skipped) score the survivor-only objective.
  IncrementalEvaluator eval(problem, seeded);

  // Bottleneck-driven improvement over the orphans. Moving a client off
  // server s can only lower the objective when s is an endpoint of the
  // current argmax pair AND the client is that server's farthest — so a
  // scan over every (orphan, survivor) pair evaluates O(orphans * |U|)
  // moves that provably cannot improve. Instead, repeatedly relocate the
  // argmax endpoints' farthest orphans while that strictly lowers the
  // objective; when neither endpoint's orphan move improves, no orphan
  // move can. Every applied move strictly improves, so the loop
  // terminates. This phase ignores the budget, keeping the result a
  // deterministic prefix of any budgeted run (budget never hurts).
  while (true) {
    const ServerIndex pair_a = eval.MaxPairFirst();
    if (pair_a == kUnassigned) break;
    const ServerIndex pair_b = eval.MaxPairSecond();
    ClientIndex best_client = -1;
    ServerIndex best_target = kUnassigned;
    double best_value = eval.CurrentMax() - kEps;
    std::vector<ServerIndex> anchors{pair_a};
    if (pair_b != pair_a && pair_b != kUnassigned) anchors.push_back(pair_b);
    for (const ServerIndex anchor : anchors) {
      // The anchor's farthest orphan (hardest-first order on ties). If
      // the anchor's true witness is an unaffected client, this orphan's
      // move cannot reduce far(anchor) and the exact evaluation below
      // rejects it.
      ClientIndex witness = -1;
      double witness_d = -1.0;
      for (const auto& [unused, c] : orphan_order) {
        if (eval.ServerOf(c) != anchor) continue;
        const double d = view.cs(c, anchor);
        if (d > witness_d) {
          witness_d = d;
          witness = c;
        }
      }
      if (witness < 0) continue;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        if (s == anchor || is_failed[static_cast<std::size_t>(s)] != 0 ||
            !has_room(s)) {
          continue;
        }
        ++result.repair.evaluations;
        const double value = eval.EvaluateMove(witness, s);
        if (value < best_value) {
          best_value = value;
          best_client = witness;
          best_target = s;
        }
      }
    }
    if (best_client < 0) break;
    --load[static_cast<std::size_t>(eval.ServerOf(best_client))];
    ++load[static_cast<std::size_t>(best_target)];
    eval.ApplyMove(best_client, best_target);
    ++result.repair.orphan_improvements;
  }

  // Bounded-migration mode: relocate the bottleneck pair's witness
  // clients while that strictly improves the objective. Moves of orphans
  // are free; moves of unaffected clients consume the budget. Every
  // applied move strictly lowers the objective, so the loop terminates.
  std::int32_t budget = options.migration_budget;
  while (budget > 0) {
    const ServerIndex pair_a = eval.MaxPairFirst();
    if (pair_a == kUnassigned) break;
    const ServerIndex pair_b = eval.MaxPairSecond();
    ClientIndex best_client = -1;
    ServerIndex best_target = kUnassigned;
    double best_value = eval.CurrentMax() - kEps;
    std::vector<ServerIndex> anchors{pair_a};
    if (pair_b != pair_a && pair_b != kUnassigned) anchors.push_back(pair_b);
    for (const ServerIndex anchor : anchors) {
      // The anchor's witness: its farthest client (first on ties).
      const ClientIndex witness = eval.WitnessOf(anchor);
      if (witness < 0) continue;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        if (s == anchor || is_failed[static_cast<std::size_t>(s)] != 0 ||
            !has_room(s)) {
          continue;
        }
        ++result.repair.evaluations;
        const double value = eval.EvaluateMove(witness, s);
        if (value < best_value) {
          best_value = value;
          best_client = witness;
          best_target = s;
        }
      }
    }
    if (best_client < 0) break;
    --load[static_cast<std::size_t>(eval.ServerOf(best_client))];
    ++load[static_cast<std::size_t>(best_target)];
    eval.ApplyMove(best_client, best_target);
    if (is_orphan[static_cast<std::size_t>(best_client)] != 0) {
      ++result.repair.orphan_improvements;
    } else {
      ++result.repair.migrations;
      --budget;
    }
  }
  DIACA_OBS_COUNT("repair.migrations", result.repair.migrations);
  DIACA_OBS_COUNT("repair.evaluations", result.repair.evaluations);

  result.assignment = eval.assignment();
  result.stats.iterations = result.repair.orphans;
  result.stats.modifications = result.repair.orphans +
                               result.repair.orphan_improvements +
                               result.repair.migrations;
  result.stats.migrations = result.repair.migrations;
  result.stats.orphans_rehomed = result.repair.orphans;
  result.stats.max_len = eval.CurrentMax();
  return result;
}

ReoptimizeResult ProposeReoptimization(const Problem& problem,
                                       IncrementalEvaluator& eval,
                                       const ReoptimizeOptions& options) {
  DIACA_OBS_SPAN("core.reoptimize");
  const std::int32_t num_servers = problem.num_servers();
  DIACA_CHECK_MSG(options.down.empty() ||
                      options.down.size() ==
                          static_cast<std::size_t>(num_servers),
                  "reoptimize: down mask size " << options.down.size()
                                                << " != " << num_servers
                                                << " servers");
  DIACA_CHECK_MSG(options.min_gain > 0.0,
                  "reoptimize: min_gain must be positive");
  auto is_down = [&](ServerIndex s) {
    return !options.down.empty() && options.down[static_cast<std::size_t>(s)];
  };

  ReoptimizeResult result;
  result.projected_max_len = eval.CurrentMax();
  if (options.max_moves <= 0) return result;

  // Proposals are applied to `eval` inside a trial, so move k's gain is
  // exact given moves 0..k-1; the trial undoes them all on every exit
  // (hysteresis may decide not to apply anything).
  const IncrementalEvaluator::Trial trial(eval);
  const bool capacitated = options.assign.capacitated();
  auto has_room = [&](ServerIndex s) {
    return !capacitated || eval.LoadOf(s) < options.assign.CapacityOf(s);
  };

  // The bottleneck loop of RepairAssign's bounded-migration phase, with
  // two deadline twists: every candidate evaluation is charged against
  // eval_budget, and exhaustion aborts the round without applying its
  // partial best (a half-scanned round could differ from the full scan's
  // choice, and serving a worse-vetted move under deadline pressure is
  // exactly what graceful degradation exists to avoid).
  while (static_cast<std::int32_t>(result.moves.size()) < options.max_moves) {
    const ServerIndex pair_a = eval.MaxPairFirst();
    if (pair_a == kUnassigned) break;
    const ServerIndex pair_b = eval.MaxPairSecond();
    ClientIndex best_client = -1;
    ServerIndex best_target = kUnassigned;
    double best_value = eval.CurrentMax() - options.min_gain;
    bool out_of_budget = false;
    const ServerIndex anchors[] = {pair_a,
                                   pair_b != pair_a ? pair_b : kUnassigned};
    for (const ServerIndex anchor : anchors) {
      if (anchor == kUnassigned) continue;
      // The anchor's witness: its farthest active client (first on ties).
      const ClientIndex witness = eval.WitnessOf(anchor);
      if (witness < 0) continue;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        if (s == anchor || is_down(s) || !has_room(s)) continue;
        if (options.eval_budget >= 0 &&
            result.evaluations >= options.eval_budget) {
          out_of_budget = true;
          break;
        }
        ++result.evaluations;
        const double value = eval.EvaluateMove(witness, s);
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
    if (best_client < 0) break;  // local optimum under min_gain
    const ServerIndex from = eval.ServerOf(best_client);
    const double before = eval.CurrentMax();
    const double after = eval.ApplyMove(best_client, best_target);
    result.moves.push_back(
        MoveProposal{best_client, from, best_target, before - after});
  }
  result.projected_max_len = eval.CurrentMax();
  DIACA_OBS_COUNT("reoptimize.proposals",
                  static_cast<std::int64_t>(result.moves.size()));
  DIACA_OBS_COUNT("reoptimize.evaluations", result.evaluations);
  return result;
}

}  // namespace diaca::core
