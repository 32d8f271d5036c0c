#include "core/solver_registry.h"

#include <utility>

#include "common/error.h"
#include "core/ablations.h"
#include "core/distributed_greedy.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/longest_first_batch.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/repair.h"
#include "obs/obs.h"

namespace diaca::core {

SolverRegistry& SolverRegistry::Default() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    r->Register("nearest", [](const Problem& problem, const SolveOptions& o) {
      SolveResult result;
      result.assignment = NearestServerAssign(problem, o.assign);
      result.stats.iterations = 1;
      return result;
    });
    r->Register("lfb", [](const Problem& problem, const SolveOptions& o) {
      SolveResult result;
      result.assignment =
          LongestFirstBatchAssign(problem, o.assign, &result.stats);
      return result;
    });
    r->Register("greedy", [](const Problem& problem, const SolveOptions& o) {
      SolveResult result;
      result.assignment = GreedyAssign(problem, o.assign, &result.stats);
      return result;
    });
    r->Register("dg", [](const Problem& problem, const SolveOptions& o) {
      SolveResult result;
      DgResult dg = DistributedGreedyAssign(problem, o.assign, o.initial);
      result.assignment = std::move(dg.assignment);
      result.stats.iterations = dg.rounds;
      result.stats.modifications =
          static_cast<std::int32_t>(dg.modifications.size());
      return result;
    });
    r->Register("single", [](const Problem& problem, const SolveOptions& o) {
      SolveResult result;
      result.assignment = BestSingleServerAssign(problem, o.assign);
      result.stats.iterations = 1;
      return result;
    });
    r->Register("repair", [](const Problem& problem, const SolveOptions& o) {
      if (o.initial == nullptr) {
        throw Error(
            "repair needs options.initial (the pre-failure assignment)");
      }
      RepairOptions repair_options;
      repair_options.assign = o.assign;
      repair_options.failed = o.failed_servers;
      repair_options.migration_budget = o.repair_migration_budget;
      RepairResult repaired = RepairAssign(problem, *o.initial, repair_options);
      SolveResult result;
      result.assignment = std::move(repaired.assignment);
      result.stats = repaired.stats;
      return result;
    });
    r->Register("exact", [](const Problem& problem, const SolveOptions& o) {
      ExactOptions exact_options;
      exact_options.assign = o.assign;
      exact_options.node_limit = o.exact_node_limit;
      auto exact = ExactAssign(problem, exact_options);
      if (!exact) {
        throw Error("exact solver hit its node limit (" +
                    std::to_string(o.exact_node_limit) + " nodes)");
      }
      SolveResult result;
      result.assignment = std::move(exact->assignment);
      result.stats.iterations = 1;
      result.stats.nodes_explored = exact->nodes_explored;
      return result;
    });
    return r;
  }();
  return *registry;
}

void SolverRegistry::Register(const std::string& name, SolverFn fn) {
  DIACA_CHECK_MSG(!name.empty(), "solver name must be non-empty");
  const auto [it, inserted] =
      solvers_.emplace(name, Entry{std::move(fn), "solver." + name});
  if (!inserted) throw Error("solver '" + name + "' is already registered");
}

bool SolverRegistry::Has(const std::string& name) const {
  return solvers_.count(name) > 0;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& [name, entry] : solvers_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string SolverRegistry::NamesJoined(const std::string& separator) const {
  std::string joined;
  for (const auto& [name, entry] : solvers_) {
    if (!joined.empty()) joined += separator;
    joined += name;
  }
  return joined;
}

SolveResult SolverRegistry::Solve(const std::string& name,
                                  const Problem& problem,
                                  const SolveOptions& options,
                                  obs::Registry* metrics) const {
  const auto it = solvers_.find(name);
  if (it == solvers_.end()) {
    throw Error("unknown algorithm '" + name + "' (expected " + NamesJoined() +
                ")");
  }
#if DIACA_OBS
  obs::TraceSpan span(it->second.span_label.c_str());
  const std::int64_t start_ns = obs::NowNs();
#endif
  const ClientBlockStats block_before = problem.client_block().stats();
  SolveResult result = it->second.fn(problem, options);
  result.stats.max_len = MaxInteractionPathLength(problem, result.assignment);
  // Tile usage attributable to this solve (counters are monotonic and the
  // view may be shared across Problem copies, hence the delta); the bytes
  // peak is a high-water mark, so it is reported absolute.
  const ClientBlockStats block_after = problem.client_block().stats();
  result.stats.tiles_loaded = block_after.tiles_loaded - block_before.tiles_loaded;
  result.stats.tile_bytes_peak = block_after.tile_bytes_peak;
  result.stats.tiles_pruned =
      block_after.tiles_pruned - block_before.tiles_pruned;
#if DIACA_OBS
  // Solver-level metrics: an explicit target registry records always; the
  // default registry only when metrics are enabled. Off the hot path —
  // one map lookup per metric per solve.
  obs::Registry* target = metrics;
  if (target == nullptr && obs::MetricsEnabled()) {
    target = &obs::Registry::Default();
  }
  if (target != nullptr) {
    const std::string prefix = it->second.span_label;  // "solver.<name>"
    target->GetCounter(prefix + ".solves").Add(1);
    target->GetCounter(prefix + ".iterations").Add(result.stats.iterations);
    if (result.stats.modifications > 0) {
      target->GetCounter(prefix + ".modifications")
          .Add(result.stats.modifications);
    }
    if (result.stats.nodes_explored > 0) {
      target->GetCounter(prefix + ".nodes_explored")
          .Add(result.stats.nodes_explored);
    }
    if (result.stats.migrations > 0) {
      target->GetCounter(prefix + ".migrations").Add(result.stats.migrations);
    }
    if (result.stats.orphans_rehomed > 0) {
      target->GetCounter(prefix + ".orphans_rehomed")
          .Add(result.stats.orphans_rehomed);
    }
    if (result.stats.tiles_loaded > 0) {
      target->GetCounter(prefix + ".tiles_loaded")
          .Add(result.stats.tiles_loaded);
      target->GetGauge(prefix + ".tile_bytes_peak")
          .Set(result.stats.tile_bytes_peak);
    }
    if (result.stats.tiles_pruned > 0) {
      target->GetCounter(prefix + ".tiles_pruned")
          .Add(result.stats.tiles_pruned);
    }
    if (result.stats.candidate_bytes_peak > 0) {
      target->GetGauge(prefix + ".candidate_bytes_peak")
          .Set(result.stats.candidate_bytes_peak);
    }
    target->GetHistogram(prefix + ".solve_ms")
        .Record(static_cast<double>(obs::NowNs() - start_ns) / 1e6);
    target->GetHistogram(prefix + ".max_len_ms").Record(result.stats.max_len);
  }
#else
  static_cast<void>(metrics);
#endif
  return result;
}

SolveResult Solve(const std::string& name, const Problem& problem,
                  const SolveOptions& options, obs::Registry* metrics) {
  return SolverRegistry::Default().Solve(name, problem, options, metrics);
}

}  // namespace diaca::core
