#include "core/incremental.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace diaca::core {

IncrementalEvaluator::IncrementalEvaluator(const Problem& problem,
                                           const Assignment& initial)
    : IncrementalEvaluator(problem, initial, AllowPartial{}) {
  DIACA_CHECK_MSG(initial.IsComplete(),
                  "incremental evaluator needs a complete assignment");
}

IncrementalEvaluator::IncrementalEvaluator(const Problem& problem,
                                           const Assignment& initial,
                                           AllowPartial)
    : problem_(problem), assignment_(initial) {
  clients_.resize(static_cast<std::size_t>(problem.num_servers()));
  problem.client_block().ForEachTile([&](const ClientTile& tile) {
    for (ClientIndex c = tile.begin; c < tile.end; ++c) {
      const ServerIndex s = assignment_[c];
      if (s == kUnassigned) continue;  // inactive until AddClient
      clients_[static_cast<std::size_t>(s)].insert(Entry{tile.row(c)[s], c});
      ++active_;
    }
  });
  // Initial scan with a no-op "move" (from == to short-circuits
  // EffectiveFar to the plain set eccentricities).
  max_pair_ = ScanAllPairs(/*c=*/0, kUnassigned, kUnassigned);
}

double IncrementalEvaluator::EffectiveFar(ServerIndex s, ClientIndex c,
                                          ServerIndex from,
                                          ServerIndex to) const {
  if (from == to) return Far(s);  // no-op move
  if (s == from) {
    // c leaves: if it is the witness, the survivor max is next.
    const auto& set = clients_[static_cast<std::size_t>(from)];
    auto it = set.rbegin();
    if (it->client != c) return it->distance;
    ++it;
    return it == set.rend() ? -1.0 : it->distance;
  }
  if (s == to) return std::max(Far(to), problem_.client_block().cs(c, to));
  return Far(s);
}

std::span<const double> IncrementalEvaluator::MaterializeEffectiveFar(
    ClientIndex c, ServerIndex from, ServerIndex to) const {
  const auto num_servers = static_cast<std::size_t>(problem_.num_servers());
  eff_buf_.resize(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    eff_buf_[s] = EffectiveFar(static_cast<ServerIndex>(s), c, from, to);
  }
  return eff_buf_;
}

IncrementalEvaluator::PairMax IncrementalEvaluator::ScanAllPairs(
    ClientIndex c, ServerIndex from, ServerIndex to) const {
  const std::int32_t num_servers = problem_.num_servers();
  // The rows of the pair scan are independent, so the full O(|U|^2)
  // rescan fans out across the pool by anchor server s1. Each row runs
  // the masked max-plus kernel over its s2 >= s1 subrange (first partner
  // on value ties, like the serial strict `>` scan, with the same
  // (f1 + d) + f2 association); the deterministic max-reduce then keeps
  // the lowest s1 on cross-row ties — together that reproduces the serial
  // lexicographically-first argmax pair exactly. Effective eccentricities
  // are materialized once, not looked up per pair.
  const std::span<const double> eff = MaterializeEffectiveFar(c, from, to);
  std::vector<ServerIndex>& best_s2 = best_s2_buf_;
  best_s2.assign(static_cast<std::size_t>(num_servers), kUnassigned);
  const ThreadPool::Extremum row_best = GlobalPool().ParallelMaxReduce(
      0, num_servers, 8, [&](std::int64_t si) {
        const auto s1 = static_cast<ServerIndex>(si);
        const double f1 = eff[static_cast<std::size_t>(si)];
        if (f1 < 0.0) return -std::numeric_limits<double>::infinity();
        const simd::ArgResult r = simd::ArgMaxPlusFirst(
            problem_.ss_row(s1) + s1, eff.data() + si,
            static_cast<std::size_t>(num_servers - s1), f1);
        if (r.index < 0) return -std::numeric_limits<double>::infinity();
        best_s2[static_cast<std::size_t>(si)] =
            s1 + static_cast<ServerIndex>(r.index);
        return r.value;
      });
  if (row_best.index < 0) return PairMax{};
  const auto s1 = static_cast<ServerIndex>(row_best.index);
  return {row_best.value, s1, best_s2[static_cast<std::size_t>(row_best.index)]};
}

IncrementalEvaluator::PairMax IncrementalEvaluator::ScanTouching(
    ClientIndex c, ServerIndex from, ServerIndex to) const {
  PairMax best;
  const auto num_servers = static_cast<std::size_t>(problem_.num_servers());
  const std::span<const double> eff = MaterializeEffectiveFar(c, from, to);
  for (ServerIndex anchor : {from, to}) {
    if (anchor < 0) continue;  // attach/detach legs pass kUnassigned
    const double fa = eff[static_cast<std::size_t>(anchor)];
    if (fa < 0.0) continue;
    const simd::ArgResult r = simd::ArgMaxPlusFirst(
        problem_.ss_row(anchor), eff.data(), num_servers, fa);
    if (r.index < 0) continue;
    const auto s = static_cast<ServerIndex>(r.index);
    if (r.value > best.value || best.a == kUnassigned) {
      best = {r.value, std::min(anchor, s), std::max(anchor, s)};
    }
  }
  return best;
}

IncrementalEvaluator::PairMax IncrementalEvaluator::Evaluate(
    ClientIndex c, ServerIndex to, bool* used_full_rescan) const {
  const ServerIndex from = assignment_[c];
  DIACA_CHECK_MSG(from != kUnassigned,
                  "move of inactive client " << c << " (use EvaluateAdd)");
  if (to == from) {
    if (used_full_rescan != nullptr) *used_full_rescan = false;
    return max_pair_;
  }
  const bool max_pair_touched =
      max_pair_.a == from || max_pair_.a == to || max_pair_.b == from ||
      max_pair_.b == to;
  if (!max_pair_touched) {
    // Pairs avoiding {from, to} are unchanged; the cached maximum still
    // stands among them. Only pairs touching a changed server can beat it.
    if (used_full_rescan != nullptr) *used_full_rescan = false;
    DIACA_OBS_COUNT("core.incremental.cache_hits", 1);
    const PairMax touching = ScanTouching(c, from, to);
    return touching.value > max_pair_.value ? touching : max_pair_;
  }
  if (used_full_rescan != nullptr) *used_full_rescan = true;
  ++full_rescans_;
  DIACA_OBS_COUNT("core.incremental.cache_misses", 1);
  return ScanAllPairs(c, from, to);
}

double IncrementalEvaluator::EvaluateMove(ClientIndex c, ServerIndex to) const {
  return Evaluate(c, to, nullptr).value;
}

void IncrementalEvaluator::Relocate(ClientIndex c, ServerIndex from,
                                    ServerIndex to) {
  auto& from_set = clients_[static_cast<std::size_t>(from)];
  const auto it = from_set.find(Entry{problem_.client_block().cs(c, from), c});
  DIACA_CHECK(it != from_set.end());
  auto node = from_set.extract(it);
  node.value().distance = problem_.client_block().cs(c, to);
  clients_[static_cast<std::size_t>(to)].insert(std::move(node));
}

double IncrementalEvaluator::ApplyMove(ClientIndex c, ServerIndex to) {
  const ServerIndex from = assignment_[c];
  if (to == from) return max_pair_.value;
  const PairMax new_max = Evaluate(c, to, nullptr);
  // Logged before anything changes; Rollback skips a record whose move
  // never happened.
  if (in_trial_) undo_.push_back(Undo{c, from, max_pair_});
  Relocate(c, from, to);
  assignment_[c] = to;
  max_pair_ = new_max;
  return max_pair_.value;
}

IncrementalEvaluator::Trial::Trial(IncrementalEvaluator& eval) : eval_(eval) {
  DIACA_CHECK_MSG(!eval_.in_trial_, "nested evaluator trial");
  eval_.in_trial_ = true;
}

IncrementalEvaluator::Trial::~Trial() { eval_.Rollback(); }

void IncrementalEvaluator::Rollback() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    const ServerIndex at = assignment_[it->client];
    if (at != it->from) {
      Relocate(it->client, at, it->from);
      assignment_[it->client] = it->from;
    }
    max_pair_ = it->max_pair;
  }
  undo_.clear();
  in_trial_ = false;
}

double IncrementalEvaluator::EvaluateAdd(ClientIndex c, ServerIndex to) const {
  DIACA_CHECK_MSG(assignment_[c] == kUnassigned,
                  "EvaluateAdd of active client " << c
                                                  << " (use EvaluateMove)");
  // An attachment only raises far(to); every pair avoiding `to` is
  // unchanged, so the cached maximum competes only with pairs touching
  // `to` — no full rescan, ever. The kUnassigned "from" leg is skipped
  // by the touching scan and matches no server in EffectiveFar.
  const PairMax touching = ScanTouching(c, kUnassigned, to);
  return std::max(max_pair_.value, touching.value);
}

double IncrementalEvaluator::AddClient(ClientIndex c, ServerIndex to) {
  DIACA_CHECK_MSG(!in_trial_, "AddClient inside an evaluator trial");
  DIACA_CHECK_MSG(assignment_[c] == kUnassigned,
                  "AddClient of active client " << c);
  DIACA_CHECK(to >= 0 && to < problem_.num_servers());
  const PairMax touching = ScanTouching(c, kUnassigned, to);
  if (max_pair_.a == kUnassigned || touching.value > max_pair_.value) {
    max_pair_ = touching;
  }
  clients_[static_cast<std::size_t>(to)].insert(
      Entry{problem_.client_block().cs(c, to), c});
  assignment_[c] = to;
  ++active_;
  return max_pair_.value;
}

double IncrementalEvaluator::RemoveClient(ClientIndex c) {
  DIACA_CHECK_MSG(!in_trial_, "RemoveClient inside an evaluator trial");
  const ServerIndex from = assignment_[c];
  DIACA_CHECK_MSG(from != kUnassigned, "RemoveClient of inactive client " << c);
  if (max_pair_.a == from || max_pair_.b == from) {
    // far(from) may fall, taking the cached maximum with it: rescan with
    // the detachment applied virtually (EffectiveFar's from-leg drops c's
    // distance; the kUnassigned "to" matches no server).
    ++full_rescans_;
    DIACA_OBS_COUNT("core.incremental.cache_misses", 1);
    max_pair_ = ScanAllPairs(c, from, kUnassigned);
  }
  // Otherwise pairs avoiding `from` are untouched and pairs touching it
  // only fall, so the cached maximum stands exactly.
  auto& from_set = clients_[static_cast<std::size_t>(from)];
  const auto it = from_set.find(Entry{problem_.client_block().cs(c, from), c});
  DIACA_CHECK(it != from_set.end());
  from_set.erase(it);
  assignment_[c] = kUnassigned;
  --active_;
  return max_pair_.value;
}

}  // namespace diaca::core
