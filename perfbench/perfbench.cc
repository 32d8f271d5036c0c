// perfbench — the repository benchmark program (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out FILE] [--git-commit SHA]
//
// One process runs one workload as a closed loop: a single caller issues
// the next operation only after the previous one returned, on the shared
// thread pool at the workload's thread count (kThreads, or 1 for
// churn-100k; see Churn100K). The workload's inputs are generated
// from --seed. The untraced run (--trace 0) times whole operations; the
// traced run (--trace 1) wraps every call into the library's public
// layers (data, net, placement, core, dia) in benchmark-side spans, turns
// on the library's existing obs spans for splits the benchmark cannot make
// from outside, and reports per-layer numbers. Every operation's output is
// checked against an independent reference computed here.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; --out receives the full report: run manifest, every metric
// with its sample count (null where not measured), and the failures. The
// exit code is 0 once the result line is printed (a failed check shows as
// correct: false) and 2 on bad flags or an error thrown by the library.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "core/distributed_greedy.h"
#include "core/greedy.h"
#include "core/longest_first_batch.h"
#include "core/lower_bound.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/problem.h"
#include "data/churn.h"
#include "data/streaming.h"
#include "data/synthetic.h"
#include "data/waxman.h"
#include "dia/control_plane.h"
#include "net/distance_oracle.h"
#include "net/graph.h"
#include "obs/trace.h"
#include "placement/placement.h"
#include "sim/faults.h"

namespace {

using namespace diaca;
using Clock = std::chrono::steady_clock;

// The shared pool size a workload runs at unless it says otherwise.
constexpr int kThreads = 4;

// Seed of each workload's substrate (the latency matrix or the Waxman
// topology, and the churn trace). The substrate is the workload's fixed
// dataset, as the paper's measured matrix is: --seed draws what varies on
// top of it (random placements, the client population, the crashed
// server). Seeding the substrate too made the figures of one workload
// differ by up to 20% between seeds, beyond the run-to-run noise of one
// seed.
constexpr std::uint64_t kDatasetSeed = 2011;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------- memory

// VmHWM of this process in MiB, or nullopt when /proc is unreadable.
std::optional<double> ReadHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return std::nullopt;
}

// Per-phase peak RSS. Writing 5 to /proc/self/clear_refs resets VmHWM to
// the current RSS, so each phase's high-water mark is its own. The
// process-wide peak is folded in before every reset. When the reset is
// refused the phase peak is unknown and reported as null, never as the
// stale process-wide mark. The setups come first, so their peak is the
// process-wide mark after the last one whether or not a reset held.
class PhaseMemory {
 public:
  void Begin() {
    Fold();
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    reset_ok_ = static_cast<bool>(out);
  }
  std::optional<double> End() {
    const std::optional<double> hwm = Fold();
    if (!reset_ok_) return std::nullopt;
    return hwm;
  }
  std::optional<double> EndFirstPhase() { return Fold(); }
  std::optional<double> process_peak() {
    Fold();
    return process_peak_;
  }

 private:
  std::optional<double> Fold() {
    const std::optional<double> hwm = ReadHwmMb();
    if (hwm) process_peak_ = std::max(process_peak_.value_or(0.0), *hwm);
    return hwm;
  }
  std::optional<double> process_peak_;
  bool reset_ok_ = false;
};

// ----------------------------------------------------------------- spans

// Benchmark-side spans: total wall time per layer name over one scope
// (a setup or one operation). A null sink records nothing.
using SpanTotals = std::map<std::string, double>;

class Span {
 public:
  Span(SpanTotals* sink, const char* name)
      : sink_(sink), name_(name), start_(Clock::now()) {}
  ~Span() {
    if (sink_ != nullptr) (*sink_)[name_] += MsSince(start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTotals* sink_;
  const char* name_;
  Clock::time_point start_;
};

template <class F>
auto Timed(SpanTotals* sink, const char* name, F&& f) {
  Span span(sink, name);
  return f();
}

// The library's recorded obs spans by name: total ms and event count, from
// the Chrome trace the tracer exports: one `{"ph": "X", ..., "name":
// "...", ..., "dur": <us>}` event per line.
struct LibraryTrace {
  SpanTotals ms;
  std::map<std::string, std::int64_t> events;
};

LibraryTrace ReadLibraryTrace() {
  std::ostringstream os;
  obs::Tracer::Default().WriteChromeTrace(os);
  std::istringstream in(os.str());
  LibraryTrace totals;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const std::size_t n0 = line.find("\"name\": \"");
    const std::size_t d0 = line.find("\"dur\": ");
    if (n0 == std::string::npos || d0 == std::string::npos) continue;
    const std::size_t name_begin = n0 + 9;
    const std::size_t name_end = line.find('"', name_begin);
    const std::string name = line.substr(name_begin, name_end - name_begin);
    totals.ms[name] += std::stod(line.substr(d0 + 7)) / 1000.0;
    ++totals.events[name];
  }
  return totals;
}

// ------------------------------------------------------------ references

std::uint64_t Digest(const core::Assignment& a,
                     std::uint64_t h = 1469598103934665603ull) {
  for (core::ServerIndex s : a.server_of) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(s));
    h *= 1099511628211ull;
  }
  return h;
}

// D over eccentricities far (-1 = unused), in the library's summation
// order (far(s1) + d(s1, s2)) + far(s2) over s1 <= s2 so that the
// comparison can be exact.
double ReferenceMaxPath(std::span<const double> far,
                        const std::function<double(int, int)>& ss) {
  double best = 0.0;
  const int n = static_cast<int>(far.size());
  for (int a = 0; a < n; ++a) {
    if (far[a] < 0.0) continue;
    for (int b = a; b < n; ++b) {
      if (far[b] < 0.0) continue;
      best = std::max(best, (far[a] + ss(a, b)) + far[b]);
    }
  }
  return best;
}

// Failures found while checking one operation.
struct Checker {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  // Complete, every server in range, and within `capacity` when > 0.
  void ExpectAssignment(const std::string& what, const core::Assignment& a,
                  std::size_t clients, int servers, int capacity = 0) {
    if (a.size() != clients) {
      failures.push_back(what + ": wrong size");
      return;
    }
    std::vector<int> load(static_cast<std::size_t>(servers), 0);
    for (core::ServerIndex s : a.server_of) {
      if (s < 0 || s >= servers) {
        failures.push_back(what + ": incomplete or server out of range");
        return;
      }
      ++load[static_cast<std::size_t>(s)];
    }
    if (capacity > 0) {
      Expect(*std::max_element(load.begin(), load.end()) <= capacity,
             what + ": capacity exceeded");
    }
  }
};

// ------------------------------------------------------------- workloads

struct OpOutcome {
  double wall_ms = 0.0;
  std::vector<std::string> failures;
  SpanTotals layers;                       // benchmark spans (traced only)
  std::map<std::string, double> counters;  // per-op counts from stats
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  // Workload parameters for the run manifest (a JSON object).
  virtual std::string ParamsJson() const = 0;
  virtual std::string OracleSpec() const = 0;
  // Shared pool size for the whole run but the traced thread-count replay.
  virtual int threads() const { return kThreads; }
  // Drop all state so the next Setup starts from nothing.
  virtual void Reset() = 0;
  // Build inputs and run the untimed warm-up. Layer calls are timed into
  // `spans`; counters go to `counters`.
  virtual void Setup(SpanTotals* spans, std::map<std::string, double>* counters) = 0;
  // Operations making one full cycle of distinct inputs: a run holds at
  // least this many, and the thread-count check replays them.
  virtual std::int64_t cycle() const = 0;
  // Operation `index`: times the library calls only, then checks them.
  virtual OpOutcome Op(std::int64_t index, SpanTotals* spans) = 0;
  // After the timed phase: the deterministic quality ratio (untimed) and
  // any workload-level checks. Layer spans of the pass go to `spans`.
  virtual double Quality(SpanTotals* spans, std::vector<std::string>* failures) = 0;
  // End-to-end numbers of this workload only (full report), given the
  // median operation time.
  struct Extra {
    std::string name, unit;
    double value;
  };
  virtual std::vector<Extra> ExtraEndToEnd(double /*op_ms_p50*/) const { return {}; }
  // Library obs spans read in traced operations, by per-layer metric name:
  // their total time, and (LibraryEvents) their number. Library tracing
  // is switched on only for workloads that need one.
  virtual std::map<std::string, std::string> LibrarySpans() const { return {}; }
  virtual std::map<std::string, std::string> LibraryEvents() const { return {}; }
  virtual double BlockEquivalentMb() const = 0;
};

// paper-meridian: the paper's §V setting, a client on every node of a
// 1796-node Meridian-like matrix. One operation is one trial.
class PaperMeridian final : public Workload {
 public:
  explicit PaperMeridian(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "paper-meridian"; }
  std::string ParamsJson() const override {
    return "{\"nodes\": 1796, \"profile\": \"MeridianLike\", \"dataset_seed\": 2011, "
           "\"placements\": [\"kcenter-a\", \"kcenter-b\", \"random\"], "
           "\"servers\": [20, 40, 60, 80, 100], "
           "\"capacity_rule\": \"ceil(25 * 80 / k)\", "
           "\"algorithms\": [\"nearest\", \"lfb\", \"greedy\", \"dg\", "
           "\"greedy-capacitated\", \"lower-bound\"]}";
  }
  std::string OracleSpec() const override { return "none (dense matrix)"; }
  void Reset() override { matrix_.reset(); }
  void Setup(SpanTotals* spans, std::map<std::string, double>*) override {
    matrix_ = Timed(spans, "data.substrate", [&] {
      return std::make_unique<net::LatencyMatrix>(data::GenerateSyntheticInternet(
          data::SyntheticParams::MeridianLike(), kDatasetSeed));
    });
    Op(0, nullptr);  // warm-up trial
    reference_.clear();
    trial_quality_.clear();
  }
  std::int64_t cycle() const override { return 15; }

  OpOutcome Op(std::int64_t index, SpanTotals* spans) override {
    const int combo = static_cast<int>(index % cycle());
    const int kind = combo % 3;              // kcenter-a, kcenter-b, random
    const int k = 20 * (1 + combo / 3);      // 20, 40, 60, 80, 100
    // The paper's tightest Fig. 10 capacity (25 at 80 servers), at the
    // same load factor capacity * k / |C| for every k.
    const int capacity = (25 * 80 + k - 1) / k;
    const net::LatencyMatrix& m = *matrix_;
    core::AssignOptions capped;
    capped.capacity = capacity;

    OpOutcome out;
    core::SolveStats greedy_stats;
    double d_nearest, d_lfb, d_greedy, d_dg_eval, d_cap, lb;
    core::Assignment nearest, lfb, greedy, cap;
    core::DgResult dg;
    std::optional<core::Problem> problem;
    const auto start = Clock::now();
    {
      const std::vector<net::NodeIndex> servers =
          Timed(spans, "placement", [&] {
            if (kind == 0) return placement::KCenterHochbaumShmoys(m, k);
            if (kind == 1) return placement::KCenterGreedy(m, k);
            Rng rng(seed_ * 1000003ull + static_cast<std::uint64_t>(combo));
            return placement::RandomPlacement(m, k, rng);
          });
      Timed(spans, "core.problem", [&] {
        problem.emplace(core::Problem::WithClientsEverywhere(m, servers));
      });
      const core::Problem& p = *problem;
      nearest = Timed(spans, "core.nearest",
                      [&] { return core::NearestServerAssign(p); });
      d_nearest = Timed(spans, "core.evaluate",
                        [&] { return core::MaxInteractionPathLength(p, nearest); });
      lfb = Timed(spans, "core.lfb",
                  [&] { return core::LongestFirstBatchAssign(p); });
      d_lfb = Timed(spans, "core.evaluate",
                    [&] { return core::MaxInteractionPathLength(p, lfb); });
      greedy = Timed(spans, "core.greedy",
                     [&] { return core::GreedyAssign(p, {}, &greedy_stats); });
      d_greedy = Timed(spans, "core.evaluate",
                       [&] { return core::MaxInteractionPathLength(p, greedy); });
      dg = Timed(spans, "core.dg", [&] {
        return core::DistributedGreedyAssign(p, {}, &nearest);
      });
      d_dg_eval = Timed(spans, "core.evaluate",
                        [&] { return core::MaxInteractionPathLength(p, dg.assignment); });
      cap = Timed(spans, "core.greedy_cap",
                  [&] { return core::GreedyAssign(p, capped); });
      d_cap = Timed(spans, "core.evaluate",
                    [&] { return core::MaxInteractionPathLength(p, cap); });
      lb = Timed(spans, "core.lower_bound",
                 [&] { return core::InteractivityLowerBound(p); });
    }
    out.wall_ms = MsSince(start);
    if (spans != nullptr) out.layers = *spans;

    const core::Problem& p = *problem;
    const core::ClientBlockStats view = p.client_block().stats();  // fresh view
    out.counters["core.greedy.iterations"] = greedy_stats.iterations;
    out.counters["core.dg.modifications"] =
        static_cast<double>(dg.modifications.size());
    out.counters["core.view.tiles_pruned"] = static_cast<double>(view.tiles_pruned);
    out.counters["core.view.columns_gathered"] =
        static_cast<double>(view.columns_gathered);

    Checker check;
    const std::size_t clients = static_cast<std::size_t>(m.size());
    const struct {
      const char* name;
      const core::Assignment* a;
      double reported;
      int capacity;
    } results[] = {{"nearest", &nearest, d_nearest, 0},
                   {"lfb", &lfb, d_lfb, 0},
                   {"greedy", &greedy, d_greedy, 0},
                   {"dg", &dg.assignment, dg.max_len, 0},
                   {"greedy-cap", &cap, d_cap, capacity}};
    std::uint64_t digest = 1469598103934665603ull;
    for (const auto& r : results) {
      const std::string what = "trial " + std::to_string(index) + " " + r.name;
      check.ExpectAssignment(what, *r.a, clients, k, r.capacity);
      if (!check.failures.empty()) break;
      const double d = Reference(p, *r.a);
      check.Expect(d == r.reported, what + ": reported D differs from recomputed D");
      check.Expect(d >= lb * (1.0 - 1e-12), what + ": D below the lower bound");
      digest = Digest(*r.a, digest);
    }
    if (check.failures.empty()) {
      check.Expect(d_dg_eval == dg.max_len, "dg: evaluated D differs");
      const auto [it, first] = reference_.emplace(combo, digest);
      check.Expect(first || it->second == digest,
                   "trial " + std::to_string(index) + ": assignment digest changed");
      trial_quality_.emplace(combo, d_greedy / lb);
    }
    out.failures = std::move(check.failures);
    return out;
  }

  double Quality(SpanTotals*, std::vector<std::string>*) override {
    // The paper's normalized interactivity: greedy D over the lower bound,
    // averaged over the cycle's distinct trials.
    double sum = 0.0;
    for (const auto& [combo, q] : trial_quality_) sum += q;
    return sum / static_cast<double>(trial_quality_.size());
  }

  double BlockEquivalentMb() const override {
    return static_cast<double>(matrix_->size()) *
           static_cast<double>(simd::PaddedStride(100)) * sizeof(double) /
           (1024.0 * 1024.0);
  }

 private:
  // D recomputed from the matrix itself, not from the problem's block.
  double Reference(const core::Problem& p, const core::Assignment& a) const {
    const net::LatencyMatrix& m = *matrix_;
    std::vector<double> far(static_cast<std::size_t>(p.num_servers()), -1.0);
    for (std::size_t c = 0; c < a.size(); ++c) {
      const core::ServerIndex s = a.server_of[c];
      far[static_cast<std::size_t>(s)] =
          std::max(far[static_cast<std::size_t>(s)],
                   m(p.client_node(static_cast<core::ClientIndex>(c)), p.server_node(s)));
    }
    return ReferenceMaxPath(far, [&](int x, int y) {
      return m(p.server_node(x), p.server_node(y));
    });
  }

  std::uint64_t seed_;
  std::unique_ptr<net::LatencyMatrix> matrix_;
  std::map<int, std::uint64_t> reference_;
  std::map<int, double> trial_quality_;
};

// Rows of the substrate distance oracle for `nodes`, read once for the
// benchmark's own reference computations.
std::vector<std::vector<double>> OracleRows(const net::DistanceOracle& oracle,
                                            std::span<const net::NodeIndex> nodes) {
  std::vector<std::vector<double>> rows;
  for (net::NodeIndex u : nodes) {
    rows.emplace_back(static_cast<std::size_t>(oracle.size()));
    oracle.FillRow(u, rows.back());
  }
  return rows;
}

// The oracle-backed workloads' shared setup: the dataset Waxman substrate
// of `nodes` nodes, its rows oracle (default cache), and `servers`
// farthest-point K-center servers.
std::vector<net::NodeIndex> BuildSubstrate(int nodes, int servers, SpanTotals* spans,
                                           std::unique_ptr<net::DistanceOracle>* oracle) {
  data::WaxmanParams substrate;
  substrate.num_nodes = nodes;
  const net::Graph graph = Timed(spans, "data.substrate", [&] {
    return data::GenerateWaxmanTopology(substrate, kDatasetSeed);
  });
  *oracle = Timed(spans, "net.oracle_build", [&] {
    return std::make_unique<net::DistanceOracle>(
        net::DistanceOracle::FromGraph(graph, net::OracleOptions{}));
  });
  return Timed(spans, "placement",
               [&] { return placement::KCenterFarthest(**oracle, servers); });
}

// Row builds and cache hit rate of the oracle since it was built.
void RecordOracleStats(const net::DistanceOracle& oracle,
                       std::map<std::string, double>* counters) {
  const net::OracleStats stats = oracle.stats();
  (*counters)["net.oracle.row_builds"] = static_cast<double>(stats.row_builds);
  const double lookups =
      static_cast<double>(stats.row_cache_hits + stats.row_cache_misses);
  if (lookups > 0) {
    (*counters)["net.oracle.hit_rate"] = static_cast<double>(stats.row_cache_hits) / lookups;
  }
}

// cloud-1m: the production-shaped streamed path — 1M clients attached to
// a 2000-node Waxman substrate, served through a rows oracle and a tiled
// client block that is never materialized.
class Cloud1M final : public Workload {
 public:
  static constexpr std::int64_t kClients = 1000000;
  static constexpr int kServers = 256;
  static constexpr int kNodes = 2000;

  explicit Cloud1M(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "cloud-1m"; }
  std::string ParamsJson() const override {
    return "{\"substrate\": \"waxman\", \"nodes\": 2000, \"dataset_seed\": 2011, "
           "\"clients\": 1000000, "
           "\"servers\": 256, \"placement\": \"KCenterFarthest\", "
           "\"materialize_block\": false, \"algorithm\": \"greedy\"}";
  }
  std::string OracleSpec() const override { return "rows:cache=128,shards=4"; }
  void Reset() override {
    cloud_.reset();
    oracle_.reset();
    rows_.clear();
  }
  void Setup(SpanTotals* spans, std::map<std::string, double>* counters) override {
    const std::vector<net::NodeIndex> servers =
        BuildSubstrate(kNodes, kServers, spans, &oracle_);
    data::ClientCloudParams params;
    params.substrate.num_nodes = kNodes;
    params.num_clients = kClients;
    params.materialize_block = false;
    cloud_ = Timed(spans, "data.cloud_build", [&] {
      return std::make_unique<data::ClientCloud>(
          data::BuildClientCloud(params, seed_, *oracle_, servers));
    });
    RecordOracleStats(*oracle_, counters);
    Timed(spans, "warmup", [&] {
      const core::Assignment a = core::GreedyAssign(cloud_->problem);
      return core::MaxInteractionPathLength(cloud_->problem, a);
    });
    reference_.reset();
  }
  std::int64_t cycle() const override { return 1; }

  OpOutcome Op(std::int64_t index, SpanTotals* spans) override {
    const core::Problem& p = cloud_->problem;
    const core::ClientBlockStats before = p.client_block().stats();
    OpOutcome out;
    core::SolveStats stats;
    const auto start = Clock::now();
    const core::Assignment a = Timed(
        spans, "core.greedy", [&] { return core::GreedyAssign(p, {}, &stats); });
    const double d = Timed(spans, "core.evaluate",
                           [&] { return core::MaxInteractionPathLength(p, a); });
    out.wall_ms = MsSince(start);
    if (spans != nullptr) out.layers = *spans;
    const core::ClientBlockStats after = p.client_block().stats();
    out.counters["core.greedy.iterations"] = stats.iterations;
    out.counters["core.view.tiles_pruned"] =
        static_cast<double>(after.tiles_pruned - before.tiles_pruned);
    out.counters["core.view.columns_gathered"] =
        static_cast<double>(after.columns_gathered - before.columns_gathered);

    Checker check;
    const std::string what = "solve " + std::to_string(index);
    check.ExpectAssignment(what, a, kClients, kServers);
    if (check.failures.empty()) {
      check.Expect(Reference(a) == d, what + ": reported D differs from recomputed D");
      const std::uint64_t digest = Digest(a);
      if (!reference_) reference_ = digest;
      check.Expect(*reference_ == digest, what + ": assignment digest changed");
      greedy_d_ = d;
    }
    out.failures = std::move(check.failures);
    return out;
  }

  double Quality(SpanTotals* spans, std::vector<std::string>* failures) override {
    const core::Problem& p = cloud_->problem;
    const core::Assignment nearest = Timed(
        spans, "core.nearest", [&] { return core::NearestServerAssign(p); });
    Checker check;
    check.ExpectAssignment("nearest", nearest, kClients, kServers);
    if (!check.failures.empty()) {
      failures->insert(failures->end(), check.failures.begin(), check.failures.end());
      return std::nan("");
    }
    return greedy_d_ / Reference(nearest);
  }

  double BlockEquivalentMb() const override {
    return static_cast<double>(kClients) *
           static_cast<double>(simd::PaddedStride(kServers)) * sizeof(double) /
           (1024.0 * 1024.0);
  }

 private:
  // D recomputed from the cloud's attachments and exact substrate rows:
  // d(c, s) = access(c) + d_substrate(attach(c), server(s)).
  double Reference(const core::Assignment& a) {
    if (rows_.empty()) rows_ = OracleRows(*oracle_, cloud_->server_nodes);
    std::vector<double> far(kServers, -1.0);
    for (std::size_t c = 0; c < a.size(); ++c) {
      const auto s = static_cast<std::size_t>(a.server_of[c]);
      far[s] = std::max(far[s], cloud_->access_ms[c] +
                                    rows_[s][static_cast<std::size_t>(cloud_->attach[c])]);
    }
    return ReferenceMaxPath(far, [&](int x, int y) {
      return rows_[static_cast<std::size_t>(x)]
                  [static_cast<std::size_t>(cloud_->server_nodes[static_cast<std::size_t>(y)])];
    });
  }

  std::uint64_t seed_;
  std::unique_ptr<net::DistanceOracle> oracle_;
  std::unique_ptr<data::ClientCloud> cloud_;
  std::vector<std::vector<double>> rows_;
  std::optional<std::uint64_t> reference_;
  double greedy_d_ = std::nan("");
};

// churn-100k: the mutating use of core — a 60-epoch churn trace over 100k
// initial members, re-optimized under a migration cap, with a server
// crash that forces re-homes and a degraded epoch.
//
// It runs on a 1-thread pool. The Run fans many small reductions out to
// the pool; at 4 threads it is no faster than at 1 (see
// common.pool.speedup_4v1, which replays it at both), and the wake-up
// latency of those fan-outs follows the host's load, which spread the
// 4-thread median over runs by two to three times as much as the 1-thread
// one.
//
// The substrate and the churn trace are the workload's dataset; --seed
// picks the crashed server slot. On this metric substrate D is pinned by
// the farthest member pair, so whether the re-optimizer finds any move at
// all depends on the trace: some trace seeds make no migration under any
// crash. The dataset trace makes migrations under every one of the 32
// crash slots, which keeps "migrations > 0" a checkable property.
class Churn100K final : public Workload {
 public:
  static constexpr int kNodes = 2000;
  static constexpr int kServers = 32;
  static constexpr std::int32_t kInitial = 100000;
  static constexpr std::int32_t kEpochs = 60;
  static constexpr std::int32_t kCap = 64;
  static constexpr const char* kSpec =
      "arrive@400;depart@0.004;move@0.004;flash@20-24:x8;until@45";

  explicit Churn100K(std::uint64_t seed)
      : faults_spec_("crash@30500-38000:n" + std::to_string(seed % kServers)),
        faults_(sim::ParseFaultSpec(faults_spec_)) {}
  std::string name() const override { return "churn-100k"; }
  std::string ParamsJson() const override {
    return std::string("{\"substrate\": \"waxman\", \"nodes\": 2000, "
                       "\"dataset_seed\": 2011, "
                       "\"servers\": 32, \"initial_members\": 100000, "
                       "\"epochs\": 60, \"churn\": \"") +
           kSpec + "\", \"faults\": \"" + faults_spec_ +
           "\", \"migration_cap\": 64, \"hysteresis_epochs\": 2, "
           "\"hysteresis_eps\": 0.02, \"deadline_evals\": -1, "
           "\"epoch_ms\": 1000, \"oracle_every\": 0}";
  }
  std::string OracleSpec() const override { return "rows:cache=128,shards=4"; }
  int threads() const override { return 1; }
  void Reset() override {
    instance_.reset();
    trace_.reset();
    oracle_.reset();
    rows_.clear();
  }
  void Setup(SpanTotals* spans, std::map<std::string, double>* counters) override {
    const std::vector<net::NodeIndex> servers =
        BuildSubstrate(kNodes, kServers, spans, &oracle_);
    trace_ = Timed(spans, "data.churn_trace", [&] {
      data::ChurnParams churn = data::ParseChurnSpec(kSpec);
      churn.epochs = kEpochs;
      return std::make_unique<data::ChurnTrace>(
          data::GenerateChurnTrace(churn, kInitial, oracle_->size(), kDatasetSeed));
    });
    instance_ = Timed(spans, "data.churn_build", [&] {
      return std::make_unique<data::ChurnProblem>(
          data::BuildChurnProblem(*trace_, *oracle_, servers));
    });
    RecordOracleStats(*oracle_, counters);
    Timed(spans, "warmup", [&] { return Plane(0).Run(); });
    reference_.reset();
  }
  std::int64_t cycle() const override { return 1; }

  OpOutcome Op(std::int64_t index, SpanTotals* spans) override {
    const dia::ControlPlane plane = Plane(0);
    OpOutcome out;
    const auto start = Clock::now();
    const dia::ControlPlaneReport report =
        Timed(spans, "dia.control.run", [&] { return plane.Run(); });
    out.wall_ms = MsSince(start);
    if (spans != nullptr) out.layers = *spans;
    out.counters["dia.control.evaluations"] = static_cast<double>(report.total_evaluations);
    out.counters["dia.control.forced_moves"] = static_cast<double>(report.total_forced_moves);
    out.counters["dia.control.degraded_epochs"] = report.degraded_epochs;
    out.counters["dia.control.recover_epochs"] = report.recover_epochs;
    out.counters["dia.control.migrations"] = static_cast<double>(report.total_migrations);
    out.failures = Check("run " + std::to_string(index), report);
    if (out.failures.empty()) {
      migrations_ = report.total_migrations;
      epochs_ = static_cast<double>(report.epochs.size());
    }
    return out;
  }

  double Quality(SpanTotals*, std::vector<std::string>* failures) override {
    // Untimed pass sampling fresh greedy every 5 epochs; the sampling is
    // pure measurement, so its final assignment must equal the timed runs'.
    const dia::ControlPlaneReport report = Plane(5).Run();
    std::vector<std::string> f = Check("quality pass", report);
    double worst = std::nan("");
    int sampled = 0;
    for (const dia::ControlEpochReport& e : report.epochs) {
      if (e.oracle_objective <= 0.0) continue;
      ++sampled;
      const double ratio = e.objective / e.oracle_objective;
      worst = sampled == 1 ? ratio : std::max(worst, ratio);
    }
    if (sampled < 2) f.push_back("quality pass sampled fewer than 2 epochs");
    failures->insert(failures->end(), f.begin(), f.end());
    return worst;
  }

  std::vector<Extra> ExtraEndToEnd(double op_ms_p50) const override {
    return {{"epoch_ms_mean", "ms", op_ms_p50 / epochs_},
            {"migrations", "count", static_cast<double>(migrations_)}};
  }
  // GreedyAssign runs inside the Run (the epoch-0 boot), so the library's
  // greedy spans give core.greedy_ms and core.greedy.iterations here.
  std::map<std::string, std::string> LibrarySpans() const override {
    return {{"core.reoptimize_ms", "core.reoptimize"},
            {"core.greedy.boot_ms", "core.greedy.solve"},
            {"core.greedy_ms", "core.greedy.solve"}};
  }
  std::map<std::string, std::string> LibraryEvents() const override {
    return {{"core.greedy.iterations", "core.greedy.iteration"}};
  }

  double BlockEquivalentMb() const override {
    return static_cast<double>(trace_->instances.size()) *
           static_cast<double>(simd::PaddedStride(kServers)) * sizeof(double) /
           (1024.0 * 1024.0);
  }

 private:
  dia::ControlPlane Plane(std::int32_t oracle_every) const {
    dia::ControlPlaneParams params;
    params.migration_cap = kCap;
    params.hysteresis_eps = 0.02;
    params.faults = &faults_;
    params.oracle_every = oracle_every;
    return dia::ControlPlane(instance_->problem, *trace_, params);
  }

  std::vector<std::string> Check(const std::string& what,
                                 const dia::ControlPlaneReport& r) {
    Checker check;
    check.Expect(!r.cap_ever_exceeded && r.max_migrations_per_epoch <= kCap,
                 what + ": migration cap exceeded");
    for (const dia::ControlEpochReport& e : r.epochs) {
      check.Expect(e.migrations <= kCap, what + ": epoch over the migration cap");
    }
    check.Expect(r.converged, what + ": did not converge");
    check.Expect(r.total_migrations > 0, what + ": no capped migrations");
    check.Expect(r.degraded_epochs >= 1, what + ": no degraded epoch");
    check.Expect(r.epochs.size() == static_cast<std::size_t>(kEpochs) + 1,
                 what + ": wrong epoch count");
    const std::size_t instances = trace_->instances.size();
    check.Expect(r.final_assignment.size() == instances, what + ": wrong assignment size");
    if (!check.failures.empty()) return check.failures;
    // Every final member has a home in range; D over the members
    // recomputed from the trace's attachments and exact substrate rows.
    if (rows_.empty()) rows_ = OracleRows(*oracle_, instance_->server_nodes);
    std::vector<double> far(kServers, -1.0);
    for (core::ClientIndex c : r.final_members) {
      const core::ServerIndex s = r.final_assignment[c];
      if (s < 0 || s >= kServers) {
        check.Expect(false, what + ": final member unassigned or out of range");
        return check.failures;
      }
      const data::ChurnClient& client = trace_->instances[static_cast<std::size_t>(c)];
      far[static_cast<std::size_t>(s)] =
          std::max(far[static_cast<std::size_t>(s)],
                   client.access_ms + rows_[static_cast<std::size_t>(s)]
                                           [static_cast<std::size_t>(client.attach)]);
    }
    const double d = ReferenceMaxPath(far, [&](int x, int y) {
      return rows_[static_cast<std::size_t>(x)]
                  [static_cast<std::size_t>(instance_->server_nodes[static_cast<std::size_t>(y)])];
    });
    const double reported = r.epochs.back().objective;
    check.Expect(std::abs(d - reported) <= 1e-9 * std::max(1.0, d),
                 what + ": final objective differs from recomputed D");
    const std::uint64_t digest = Digest(r.final_assignment);
    if (!reference_) reference_ = digest;
    check.Expect(*reference_ == digest, what + ": final assignment digest changed");
    return check.failures;
  }

  std::string faults_spec_;
  sim::FaultPlan faults_;
  std::unique_ptr<net::DistanceOracle> oracle_;
  std::unique_ptr<data::ChurnTrace> trace_;
  std::unique_ptr<data::ChurnProblem> instance_;
  std::vector<std::vector<double>> rows_;
  std::optional<std::uint64_t> reference_;
  std::int64_t migrations_ = 0;
  double epochs_ = 0.0;
};

// ---------------------------------------------------------------- output

std::string Num(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), *v);
  return std::string(buf, res.ptr);
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct MetricValue {
  std::optional<double> value;
  std::string unit;
  std::int64_t samples = 0;
};
using MetricTable = std::vector<std::pair<std::string, MetricValue>>;

// Names and units of the result line, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"op_ms_p50", "ms"},    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},     {"quality_ratio", "ratio"}};
// The per-layer metrics of the result line: those every workload measures,
// since the line must carry a measured value for each of them.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"data.substrate_ms", "ms"},        {"data.build_ms", "ms"},
    {"placement.ms", "ms"},             {"core.ms", "ms"},
    {"core.greedy_ms", "ms"},           {"core.greedy.iterations", "count"},
    {"common.pool.speedup_4v1", "ratio"}, {"mem.setup_peak_mb", "MB"},
    {"mem.op_peak_mb", "MB"},           {"trace.span_coverage", "ratio"},
    {"trace.overhead", "ratio"}};
// Every per-layer metric of the full report: the line's, and those of
// layers only some workloads call (null where a workload does not).
const std::vector<std::pair<std::string, std::string>> kReportLayer = {
    {"data.substrate_ms", "ms"},        {"data.build_ms", "ms"},
    {"data.cloud_build_ms", "ms"},
    {"data.churn_trace_ms", "ms"},      {"data.churn_build_ms", "ms"},
    {"net.oracle_build_ms", "ms"},      {"net.oracle.row_builds", "count"},
    {"net.oracle.hit_rate", "ratio"},   {"placement.ms", "ms"},
    {"core.ms", "ms"},
    {"core.problem_ms", "ms"},          {"core.greedy_ms", "ms"},
    {"core.greedy.iterations", "count"}, {"core.view.tiles_pruned", "count"},
    {"core.view.columns_gathered", "count"}, {"core.nearest_ms", "ms"},
    {"core.lfb_ms", "ms"},              {"core.dg_ms", "ms"},
    {"core.dg.modifications", "count"}, {"core.greedy_cap_ms", "ms"},
    {"core.lower_bound_ms", "ms"},      {"core.evaluate_ms", "ms"},
    {"core.reoptimize_ms", "ms"},       {"core.greedy.boot_ms", "ms"},
    {"dia.control.run_ms", "ms"},       {"dia.control.evaluations", "count"},
    {"dia.control.migrations", "count"}, {"dia.control.forced_moves", "count"},
    {"dia.control.degraded_epochs", "count"},
    {"dia.control.recover_epochs", "count"},
    {"common.pool.speedup_4v1", "ratio"}, {"mem.setup_peak_mb", "MB"},
    {"mem.op_peak_mb", "MB"},           {"mem.block_equiv_mb", "MB"},
    {"trace.span_coverage", "ratio"},   {"trace.overhead", "ratio"}};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string git_commit;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw Error("missing value for " + key);
    }
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw Error("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--git-commit") {
      args.git_commit = value;
    } else {
      throw Error("unknown flag " + key);
    }
  }
  if (!have_workload) throw Error("--workload is required");
  if (!(args.seconds > 0.0)) throw Error("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-meridian") return std::make_unique<PaperMeridian>(seed);
  if (name == "cloud-1m") return std::make_unique<Cloud1M>(seed);
  if (name == "churn-100k") return std::make_unique<Churn100K>(seed);
  throw Error("unknown workload '" + name +
              "' (expected paper-meridian|cloud-1m|churn-100k)");
}

// Benchmark span name of each per-layer timing metric.
const std::map<std::string, std::string> kBenchSpans = {
    {"data.substrate_ms", "data.substrate"},
    {"data.cloud_build_ms", "data.cloud_build"},
    {"data.churn_trace_ms", "data.churn_trace"},
    {"data.churn_build_ms", "data.churn_build"},
    {"net.oracle_build_ms", "net.oracle_build"},
    {"placement.ms", "placement"},
    {"core.problem_ms", "core.problem"},
    {"core.greedy_ms", "core.greedy"},
    {"core.nearest_ms", "core.nearest"},
    {"core.lfb_ms", "core.lfb"},
    {"core.dg_ms", "core.dg"},
    {"core.greedy_cap_ms", "core.greedy_cap"},
    {"core.lower_bound_ms", "core.lower_bound"},
    {"core.evaluate_ms", "core.evaluate"},
    {"dia.control.run_ms", "dia.control.run"}};

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  SetGlobalThreads(w->threads());
  PhaseMemory memory;

  // --- setup, several times; the last one's state is kept. At least three
  // and at most five setups, stopping once they took 10 s together: one
  // setup is mostly one warm-up operation, so a cheap setup gets more
  // samples for its median and a costly one does not stretch the run.
  std::vector<double> setup_s;
  std::vector<SpanTotals> setup_spans;
  std::map<std::string, double> setup_counters;
  std::optional<double> setup_peak;
  const auto setups_start = Clock::now();
  for (int rep = 0; rep < 5 && (rep < 3 || MsSince(setups_start) < 10000.0); ++rep) {
    w->Reset();
    memory.Begin();
    SpanTotals spans;
    const auto start = Clock::now();
    w->Setup(&spans, &setup_counters);
    setup_s.push_back(MsSince(start) / 1000.0);
    setup_spans.push_back(spans);
    if (const std::optional<double> peak = memory.EndFirstPhase()) {
      setup_peak = std::max(setup_peak.value_or(0.0), *peak);
    }
  }
  const auto setup_reps = static_cast<std::int64_t>(setup_s.size());

  // --- timed phase: closed loop for --seconds. In the traced run every
  // second operation is traced, so traced and untraced samples interleave
  // and the overhead ratio is not skewed by drift.
  std::vector<std::string> failures;
  std::int64_t attempted = 0, failed = 0;
  auto record = [&](const OpOutcome& o) {
    ++attempted;
    if (!o.failures.empty()) {
      ++failed;
      for (const std::string& f : o.failures) {
        if (failures.size() < 20) failures.push_back(f);
      }
    }
  };
  std::vector<double> op_ms, coverage;
  // Traced and untraced operation times per input of the cycle.
  std::map<std::int64_t, std::vector<double>> traced_ms, untraced_ms;
  std::vector<SpanTotals> traced_layers;
  std::vector<std::map<std::string, double>> op_counters;
  const std::map<std::string, std::string> library_spans = w->LibrarySpans();
  const std::map<std::string, std::string> library_events = w->LibraryEvents();
  const bool library_tracing = !library_spans.empty() || !library_events.empty();
  memory.Begin();
  const auto phase_start = Clock::now();
  // Whole cycles only, so every distinct input weighs the same in the
  // medians; a traced run holds two, so every input is traced once.
  const std::int64_t min_ops = (args.trace ? 2 : 1) * w->cycle();
  for (std::int64_t i = 0; MsSince(phase_start) < args.seconds * 1000.0 ||
                           i % w->cycle() != 0 || i < min_ops;
       ++i) {
    const bool traced = args.trace && i % 2 == 1;
    SpanTotals spans;
    if (traced && library_tracing) {
      obs::Tracer::Default().ClearForTest();
      obs::SetTracingEnabled(true);
    }
    OpOutcome o = w->Op(i, traced ? &spans : nullptr);
    if (traced) {
      obs::SetTracingEnabled(false);
      double covered = 0.0;
      for (const auto& [name, ms] : o.layers) covered += ms;
      coverage.push_back(covered / o.wall_ms);
      const LibraryTrace lib = library_tracing ? ReadLibraryTrace() : LibraryTrace{};
      if (library_tracing && obs::Tracer::Default().num_dropped() > 0) {
        o.failures.push_back("library trace dropped spans");
      }
      for (const auto& [metric, span] : library_spans) {
        const auto it = lib.ms.find(span);
        o.layers["lib:" + span] = it == lib.ms.end() ? 0.0 : it->second;
      }
      for (const auto& [metric, span] : library_events) {
        const auto it = lib.events.find(span);
        o.counters[metric] = it == lib.events.end() ? 0.0 : static_cast<double>(it->second);
      }
      // core.ms: the benchmark's core spans, or the library's core spans
      // inside a call into another layer (they do not nest in each other).
      double core_ms = 0.0;
      for (const auto& [name, ms] : o.layers) {
        if (name.rfind("core.", 0) == 0 || name.rfind("lib:core.", 0) == 0) core_ms += ms;
      }
      o.layers["sum:core"] = core_ms;
      traced_layers.push_back(o.layers);
    }
    (traced ? traced_ms : untraced_ms)[i % w->cycle()].push_back(o.wall_ms);
    op_ms.push_back(o.wall_ms);
    op_counters.push_back(o.counters);
    record(o);
  }
  const double phase_s = MsSince(phase_start) / 1000.0;
  const std::optional<double> op_peak = memory.End();

  // --- untimed quality pass and workload-level checks.
  SpanTotals quality_spans;
  std::vector<std::string> finish_failures;
  const double quality = w->Quality(args.trace ? &quality_spans : nullptr, &finish_failures);
  ++attempted;
  if (!finish_failures.empty()) {
    ++failed;
    for (const std::string& f : finish_failures) failures.push_back(f);
  }

  // --- traced run only: the cycle replayed untraced at kThreads and at 1
  // thread; assignments must be identical, and the time ratio is the
  // pool's speedup over the plain single-thread baseline.
  std::optional<double> speedup;
  if (args.trace) {
    double t4 = 0.0, t1 = 0.0;
    for (int threads : {kThreads, 1}) {
      SetGlobalThreads(threads);
      for (std::int64_t i = 0; i < w->cycle(); ++i) {
        const OpOutcome o = w->Op(i, nullptr);
        (threads == 1 ? t1 : t4) += o.wall_ms;
        record(o);
      }
    }
    SetGlobalThreads(w->threads());
    speedup = t1 / t4;
  }

  // --- metrics.
  MetricTable e2e;
  const auto n_ops = static_cast<std::int64_t>(op_ms.size());
  e2e.push_back({"setup_s", {Median(setup_s), "s", setup_reps}});
  e2e.push_back({"op_ms_p50", {Median(op_ms), "ms", n_ops}});
  e2e.push_back({"op_ms_p90",
                 {n_ops >= 100 ? std::optional<double>(Quantile(op_ms, 0.9)) : std::nullopt,
                  "ms", n_ops}});
  e2e.push_back({"ops_per_s", {static_cast<double>(n_ops) / phase_s, "1/s", n_ops}});
  e2e.push_back({"peak_rss_mb", {memory.process_peak(), "MB", 1}});
  e2e.push_back({"quality_ratio", {quality, "ratio", 1}});
  e2e.push_back({"failed_frac",
                 {static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
                  attempted}});
  for (const Workload::Extra& x : w->ExtraEndToEnd(Median(op_ms))) {
    e2e.push_back({x.name, {x.value, x.unit, n_ops}});
  }

  // Per-layer: setup layers are medians over the setup repetitions, op
  // layers medians over the traced operations; null where not exercised.
  std::map<std::string, MetricValue> layer;
  if (args.trace) {
    auto median_of = [](const std::vector<SpanTotals>& samples, const std::string& key)
        -> std::optional<double> {
      std::vector<double> v;
      for (const SpanTotals& s : samples) {
        const auto it = s.find(key);
        if (it != s.end()) v.push_back(it->second);
      }
      if (v.empty()) return std::nullopt;
      return Median(v);
    };
    for (const auto& [metric, span] : kBenchSpans) {
      if (auto v = median_of(traced_layers, span)) {
        layer[metric] = {v, "ms", static_cast<std::int64_t>(traced_layers.size())};
      } else if (auto s = median_of(setup_spans, span)) {
        layer[metric] = {s, "ms", setup_reps};
      } else if (auto q = median_of({quality_spans}, span)) {
        layer[metric] = {q, "ms", 1};
      }
    }
    for (const auto& [metric, span] : library_spans) {
      if (auto v = median_of(traced_layers, "lib:" + span)) {
        layer[metric] = {v, "ms", static_cast<std::int64_t>(traced_layers.size())};
      }
    }
    layer["core.ms"] = {median_of(traced_layers, "sum:core"), "ms",
                        static_cast<std::int64_t>(traced_layers.size())};
    // Every data-layer call of one setup, median over the setups.
    std::vector<SpanTotals> setup_data(setup_spans.size());
    for (std::size_t i = 0; i < setup_spans.size(); ++i) {
      for (const auto& [name, ms] : setup_spans[i]) {
        if (name.rfind("data.", 0) == 0) setup_data[i]["data"] += ms;
      }
    }
    layer["data.build_ms"] = {median_of(setup_data, "data"), "ms", setup_reps};
    for (const auto& [name, v] : setup_counters) {
      layer[name] = {v, name == "net.oracle.hit_rate" ? "ratio" : "count", setup_reps};
    }
    std::map<std::string, std::vector<double>> counts;
    for (const auto& c : op_counters) {
      for (const auto& [name, v] : c) counts[name].push_back(v);
    }
    for (const auto& [name, v] : counts) {
      layer[name] = {Median(v), "count", static_cast<std::int64_t>(v.size())};
    }
    layer["common.pool.speedup_4v1"] = {speedup, "ratio", w->cycle()};
    layer["mem.setup_peak_mb"] = {setup_peak, "MB", setup_reps};
    layer["mem.op_peak_mb"] = {op_peak, "MB", 1};
    layer["mem.block_equiv_mb"] = {w->BlockEquivalentMb(), "MB", 0};  // computed
    layer["trace.span_coverage"] = {
        *std::min_element(coverage.begin(), coverage.end()), "ratio",
        static_cast<std::int64_t>(coverage.size())};
    // Traced over untraced time of the same input, median over inputs.
    std::vector<double> overhead;
    for (const auto& [input, t] : traced_ms) {
      const auto u = untraced_ms.find(input);
      if (u != untraced_ms.end()) overhead.push_back(Median(t) / Median(u->second));
    }
    layer["trace.overhead"] = {
        overhead.empty() ? std::nullopt : std::optional<double>(Median(overhead)),
        "ratio", static_cast<std::int64_t>(traced_layers.size())};
    if (layer["trace.span_coverage"].value.value_or(0.0) < 0.95) {
      failures.push_back("benchmark spans cover under 95% of an operation");
    }
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = layer.find(name);
      if (it == layer.end() || !it->second.value || !std::isfinite(*it->second.value)) {
        failures.push_back("per-layer metric " + name + " was not measured");
      }
    }
  }

  const bool correct = failed == 0 && failures.empty();

  // --- human-readable summary.
  std::cout << "perfbench " << w->name() << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " threads=" << w->threads()
            << " simd=" << simd::BackendName(simd::ActiveBackend()) << "\n";
  for (const auto& [name, m] : e2e) {
    std::cout << "  " << name << " = " << Num(m.value) << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  for (const auto& [name, m] : layer) {
    std::cout << "  " << name << " = " << Num(m.value) << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  for (const std::string& f : failures) std::cout << "  FAILED: " << f << "\n";

  // --- full report.
  if (!args.out.empty()) {
    std::ofstream out(args.out);
    if (!out) throw Error("cannot write " + args.out);
    out << "{\"manifest\": {\"workload\": " << Str(w->name())
        << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"params\": " << w->ParamsJson() << ", \"threads\": " << w->threads()
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"simd_backend\": " << Str(simd::BackendName(simd::ActiveBackend()))
        << ", \"oracle\": " << Str(w->OracleSpec())
        << ", \"compiler\": " << Str(PERFBENCH_COMPILER)
        << ", \"build_type\": " << Str(PERFBENCH_BUILD_TYPE)
        << ", \"git_commit\": "
        << (args.git_commit.empty() ? std::string("null") : Str(args.git_commit))
        << "}, \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i ? ", " : "") << Str(failures[i]);
    }
    out << "], \"end_to_end\": {";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      const auto& [name, m] = e2e[i];
      out << (i ? ", " : "") << Str(name) << ": {\"value\": " << Num(m.value)
          << ", \"unit\": " << Str(m.unit) << ", \"samples\": " << m.samples << "}";
    }
    out << "}, \"per_layer\": {";
    bool first = true;
    for (const auto& [name, unit] : kReportLayer) {
      if (!args.trace) break;
      const auto it = layer.find(name);
      const MetricValue m = it == layer.end() ? MetricValue{std::nullopt, unit, 0} : it->second;
      out << (first ? "" : ", ") << Str(name) << ": {\"value\": " << Num(m.value)
          << ", \"unit\": " << Str(unit) << ", \"samples\": " << m.samples << "}";
      first = false;
    }
    out << "}, \"samples\": {\"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) out << (i ? ", " : "") << Num(setup_s[i]);
    out << "], \"op_ms\": [";
    for (std::size_t i = 0; i < op_ms.size(); ++i) out << (i ? ", " : "") << Num(op_ms[i]);
    out << "]}}\n";
  }

  // --- the result line: the manifest's metrics, each measured on every
  // workload (a missing one is a failure above).
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  const auto& names = args.trace ? kPerLayer : kEndToEnd;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& [name, unit] = names[i];
    std::optional<double> v;
    if (args.trace) {
      const auto it = layer.find(name);
      if (it != layer.end()) v = it->second.value;
    } else {
      for (const auto& [n, m] : e2e) {
        if (n == name) v = m.value;
      }
    }
    std::cout << (i ? ", " : "") << Str(name) << ": {\"value\": " << Num(v)
              << ", \"unit\": " << Str(unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
