// Incremental maintenance of the maximum interaction path length under
// single-client moves.
//
// Local search methods (steepest descent, simulated annealing) evaluate
// huge numbers of candidate moves; recomputing
// D = max_{s1,s2} far(s1) + d(s1,s2) + far(s2) from scratch costs
// O(|C| + |U|^2) each time. IncrementalEvaluator keeps, per server, the
// set of its clients as (distance, client) entries ordered by distance and
// then by descending client, plus the argmax server pair. The last entry
// of a set is far(s) and its witness: the farthest client, lowest index
// on ties (WitnessOf, O(1)). A move changes only far(from) and far(to),
// so:
//   * if the cached argmax pair avoids both changed servers, the new
//     objective is max(old maximum, best pair touching a changed server)
//     — O(|S|);
//   * otherwise the old maximum may fall, and a full O(|U|^2) rescan runs.
// Random/local moves rarely touch the argmax pair, so evaluation is O(|S|)
// in the common case (measured in the evaluator microbenchmark).
//
// Trials: while an IncrementalEvaluator::Trial is open, every ApplyMove is
// logged with the argmax pair it replaced, and closing the trial undoes
// the moves newest-first, restoring the exact cached pair (no rescan), so
// the evaluator ends bit-identical to where it started and every later
// tie-break is unchanged. The guard closes on every exit path, a thrown
// error included. AddClient, RemoveClient and a nested trial are rejected
// while one is open. Evaluations made inside a trial count in
// full_rescans() like any other.
#pragma once

#include <set>
#include <span>
#include <vector>

#include "core/problem.h"
#include "core/types.h"

namespace diaca::core {

class IncrementalEvaluator {
 public:
  /// Tag selecting the partial-assignment constructor below.
  struct AllowPartial {};

  /// Build from a complete assignment. O(|C| log |C| + |U|^2).
  IncrementalEvaluator(const Problem& problem, const Assignment& initial);

  /// Build from a possibly-partial assignment: kUnassigned rows are
  /// inactive clients that do not participate in the objective until
  /// attached via AddClient. The churn control plane uses this to keep
  /// one evaluator alive across the whole instance space while only the
  /// current members count.
  IncrementalEvaluator(const Problem& problem, const Assignment& initial,
                       AllowPartial);

  /// Current maximum interaction path length (over active clients).
  double CurrentMax() const { return max_pair_.value; }

  /// Objective if client c moved to server `to` (no state change).
  /// c must be active.
  double EvaluateMove(ClientIndex c, ServerIndex to) const;

  /// Apply the move for real and return the new objective. c must be
  /// active. Inside a Trial the move is logged and undone when the trial
  /// closes.
  double ApplyMove(ClientIndex c, ServerIndex to);

  /// Objective if the inactive client c were attached to `to` (no state
  /// change). O(|S|) always: an attachment can only raise far(to), so
  /// the cached maximum never needs a full rescan.
  double EvaluateAdd(ClientIndex c, ServerIndex to) const;

  /// Attach the inactive client c to `to` and return the new objective.
  /// Rejected inside a Trial.
  double AddClient(ClientIndex c, ServerIndex to);

  /// Detach the active client c (its row becomes kUnassigned) and return
  /// the new objective. Full rescan only when c's server is an argmax
  /// pair endpoint. Rejected inside a Trial.
  double RemoveClient(ClientIndex c);

  /// Whether client c currently participates in the objective.
  bool IsActive(ClientIndex c) const { return assignment_[c] != kUnassigned; }
  std::int32_t num_active() const { return active_; }

  /// Current assignment (kept in sync with the applied moves).
  const Assignment& assignment() const { return assignment_; }

  ServerIndex ServerOf(ClientIndex c) const { return assignment_[c]; }
  /// Endpoint servers of the cached argmax interaction pair (kUnassigned
  /// when no server holds a client). The bounded-migration phase of the
  /// repair solver relocates these servers' witness clients.
  ServerIndex MaxPairFirst() const { return max_pair_.a; }
  ServerIndex MaxPairSecond() const { return max_pair_.b; }
  std::int32_t LoadOf(ServerIndex s) const {
    return static_cast<std::int32_t>(
        clients_[static_cast<std::size_t>(s)].size());
  }
  /// The client whose distance is far(s): s's farthest active client,
  /// lowest index on ties (-1 when s holds none). O(1).
  ClientIndex WitnessOf(ServerIndex s) const {
    const auto& set = clients_[static_cast<std::size_t>(s)];
    return set.empty() ? ClientIndex{-1} : set.rbegin()->client;
  }
  /// Full O(|U|^2) rescans triggered so far (perf introspection).
  std::int64_t full_rescans() const { return full_rescans_; }

  /// Scope guard for trial moves: ApplyMove calls made while it is alive
  /// are undone newest-first when it is destroyed, restoring the exact
  /// assignment, client sets and cached argmax pair. One at a time.
  class Trial {
   public:
    explicit Trial(IncrementalEvaluator& eval);
    ~Trial();
    Trial(const Trial&) = delete;
    Trial& operator=(const Trial&) = delete;

   private:
    IncrementalEvaluator& eval_;
  };

 private:
  struct PairMax {
    double value = 0.0;
    ServerIndex a = kUnassigned;
    ServerIndex b = kUnassigned;
  };
  /// One client of a server's set.
  struct Entry {
    double distance;
    ClientIndex client;
  };
  /// Ascending distance, then descending client: the last entry is the
  /// farthest client with the lowest index on ties.
  struct EntryOrder {
    bool operator()(const Entry& x, const Entry& y) const {
      return x.distance != y.distance ? x.distance < y.distance
                                      : x.client > y.client;
    }
  };
  /// A trial move: the client, the server it left and the argmax pair
  /// cached before it.
  struct Undo {
    ClientIndex client;
    ServerIndex from;
    PairMax max_pair;
  };

  /// far(s) from the client set (-1 when empty).
  double Far(ServerIndex s) const {
    const auto& set = clients_[static_cast<std::size_t>(s)];
    return set.empty() ? -1.0 : set.rbegin()->distance;
  }

  /// Move c's entry from server `from`'s set to `to`'s, reusing the node.
  void Relocate(ClientIndex c, ServerIndex from, ServerIndex to);

  /// Undo the logged trial moves newest-first and close the trial.
  void Rollback();

  /// Eccentricity with the move (c: from -> to) applied virtually.
  double EffectiveFar(ServerIndex s, ClientIndex c, ServerIndex from,
                      ServerIndex to) const;

  /// Fill eff_buf_ with EffectiveFar(s, ...) for every server and return
  /// it: the pair scans then fold contiguous doubles instead of paying a
  /// set lookup per (s1, s2) pair.
  std::span<const double> MaterializeEffectiveFar(ClientIndex c,
                                                  ServerIndex from,
                                                  ServerIndex to) const;

  /// Full scan over server pairs with the move applied virtually.
  PairMax ScanAllPairs(ClientIndex c, ServerIndex from, ServerIndex to) const;

  /// Best pair with at least one endpoint in {from, to}, move applied
  /// virtually. O(|S|).
  PairMax ScanTouching(ClientIndex c, ServerIndex from, ServerIndex to) const;

  PairMax Evaluate(ClientIndex c, ServerIndex to,
                   bool* used_full_rescan) const;

  const Problem& problem_;
  Assignment assignment_;
  /// Per-server set of (distance, client) entries.
  std::vector<std::set<Entry, EntryOrder>> clients_;
  /// Scratch for MaterializeEffectiveFar and ScanAllPairs, reused across
  /// evaluations (the evaluator is single-caller by contract, like the
  /// rest of its state).
  mutable std::vector<double> eff_buf_;
  mutable std::vector<ServerIndex> best_s2_buf_;
  PairMax max_pair_;
  /// Moves of the open trial, oldest first.
  std::vector<Undo> undo_;
  bool in_trial_ = false;
  std::int32_t active_ = 0;
  mutable std::int64_t full_rescans_ = 0;
};

}  // namespace diaca::core
