// The client-block view: the solver-facing contract for the |C| x |S|
// client-to-server latency block.
//
// Solvers never assume a resident block; they consume it through
//
//   * ForEachTile(fn)        — sequential, ascending tiles of padded
//                              client rows (the row-major pass every
//                              heuristic is built from);
//   * cs(c, s) / Row / FillRow — random access for spot lookups and
//                              row-at-a-time consumers;
//   * GatherColumn / FillColumn — column access for the server-major
//                              passes (greedy bucket lists, LFB batch
//                              scans).
//
// One concrete type stores the block in factorized form:
//
//   d(c, s) = access(c) + rows[row(c)][s]
//
// where `rows` holds one padded server-distance row per distinct
// attachment node and `access` is an optional per-client delay (absent:
// no addition at all, so the leg's bits pass through unchanged). Three
// factories fill it:
//
//   * FromBlock — a resident padded block: every client is its own row
//     and there is no access leg. Tiles are zero-copy views of the block.
//   * FromOracle / FromAttachments — |S| oracle rows gathered once
//     (O(n * |S|) state, independent of |C| x |S|); client rows are
//     synthesized on demand into a small reusable tile pool by the SIMD
//     broadcast-add kernel, with up to prefetch_depth later tiles
//     synthesizing on the thread pool while a solver scans the current
//     one. Every synthesized double comes from the same operands a
//     materialized build uses (access + leg, one IEEE addition), so
//     results are bit-identical to FromBlock at every tile size, pool
//     size, prefetch depth and thread count.
//
// Whether the block is resident is decided here and nowhere else: solver
// code is written once against the accessors above.
//
// Thread safety: views are shared const (Problem copies alias one view).
// All accessors are safe to call concurrently; the usage counters are
// relaxed atomics. The sequential ForEachTile is a single-consumer
// traversal delivering ascending tiles on the calling thread; the fused
// overload (fn(tile, slot)) fans tiles out across the pool for in-place
// per-tile reductions — see its contract for the determinism rules.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/types.h"
#include "net/distance_oracle.h"

namespace diaca::core {

/// One contiguous run of client rows, padded exactly like the
/// materialized block: stride >= num_servers, pad lanes 0.0.
struct ClientTile {
  ClientIndex begin = 0;
  ClientIndex end = 0;
  const double* data = nullptr;  ///< (end - begin) rows of `stride` doubles
  std::size_t stride = 0;

  /// Row of client c (absolute index; begin <= c < end).
  const double* row(ClientIndex c) const {
    return data + static_cast<std::size_t>(c - begin) * stride;
  }
};

/// Monotonic usage counters, snapshotted by SolverRegistry::Solve into
/// SolveStats (tiles_loaded / tile_bytes_peak deltas per solve).
struct ClientBlockStats {
  /// Tiles synthesized from stored rows (0 on a resident block: its
  /// tiles are zero-copy aliases, not loads).
  std::int64_t tiles_loaded = 0;
  /// Column accesses served (GatherColumn + FillColumn).
  std::int64_t columns_gathered = 0;
  /// High-water bytes of live tile-pool buffers across all traversals
  /// (0 on a resident block). The memory the tiling actually costs.
  std::int64_t tile_bytes_peak = 0;
  /// Synthesis units a certified bound skipped without touching their
  /// exact values: whole tiles rejected by a ForEachTileBounded /
  /// FoldAssignedMax predicate plus 512-entry units of greedy candidate
  /// lanes its bucket bounds retired without a gather. Always 0 on a
  /// resident block (nothing is avoided); unlike
  /// the solver outputs this counter is telemetry, not part of the
  /// bit-determinism contract.
  std::int64_t tiles_pruned = 0;
};

/// Tile sizing for synthesized blocks (a resident block ignores it for
/// the sequential traversal: its one tile is the whole block, zero-copy).
struct TileOptions {
  /// Client rows per tile. Clamped to [1, |C|]. The default keeps a tile
  /// around 4 MB at 64 servers — big enough to amortize the per-tile
  /// fan-out, small enough to stay cache- and budget-friendly (see
  /// docs/performance.md).
  std::int32_t tile_clients = 8192;
  /// Buffers in the reusable tile pool of the sequential traversal.
  /// 1 disables prefetch; prefetch_depth is clamped to pool_tiles - 1, so
  /// the default (3 buffers, depth 2) keeps two tiles synthesizing on the
  /// thread pool while the consumer scans a third.
  std::int32_t pool_tiles = 3;
  /// Tiles synthesized ahead of the consumer in ForEachTile. Clamped to
  /// [0, pool_tiles - 1]; 0 — or a threadless pool — degrades to
  /// synchronous generation. Results are bit-identical at every depth.
  std::int32_t prefetch_depth = 2;
  /// Master switch for the view's certified filter-and-refine paths
  /// (bounded tile traversal skips, assigned-fold tile rejection; greedy's
  /// cutoff-seeded scans follow AssignOptions::bound_pruning). Off forces
  /// every bound-gated path to do the full exact work — slower,
  /// bit-identical output — which is how the tier-1 smoke validates the
  /// certification.
  bool bound_pruning = true;
};

/// Cheap certified aggregates of one logical tile, handed to
/// ForEachTileBounded predicates BEFORE the tile is synthesized. Combined
/// with ColumnBounds they sandwich every cell exactly:
///   fl(access_min + ColumnBounds(s).lower) <= d(c, s)
///                                          <= fl(access_max + ColumnBounds(s).upper)
/// for every client c in [begin, end) — monotone IEEE adds of exact
/// aggregates, so the sandwich holds bitwise with no slack term.
struct TileBounds {
  ClientIndex begin = 0;
  ClientIndex end = 0;
  /// Exact min/max access delay over the tile's clients; both 0.0 when
  /// clients sit directly on substrate nodes (no access leg is added).
  double access_min = 0.0;
  double access_max = 0.0;
};

class ClientBlockView final {
  struct FactoryOnly {};

 public:
  /// A resident block: adopts `padded_block`, num_clients rows of
  /// PaddedStride(num_servers) doubles, pad lanes 0.0 (the layout
  /// Problem's constructors build).
  static std::shared_ptr<ClientBlockView> FromBlock(
      std::int32_t num_clients, std::int32_t num_servers,
      std::vector<double> padded_block);

  /// Clients sitting directly on substrate nodes:
  /// d(c, s) = d_substrate(client_nodes[c], server_nodes[s]). Matches the
  /// matrix/oracle Problem constructors bit-for-bit (exact oracle
  /// backends; estimated backends match an estimated materialized build).
  /// Queries |S| oracle rows at construction, then drops the oracle.
  static std::shared_ptr<ClientBlockView> FromOracle(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes,
      std::span<const net::NodeIndex> client_nodes,
      const TileOptions& tile = {});

  /// Attached clients (the streaming-cloud shape, data/streaming.h):
  /// d(c, s) = access_ms[c] + d_substrate(attach[c], server_nodes[s]).
  /// The addition uses the same operand order as the materialized cloud
  /// build, so the synthesized block is bit-identical to it.
  static std::shared_ptr<ClientBlockView> FromAttachments(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes,
      std::span<const net::NodeIndex> attach, std::span<const double> access_ms,
      const TileOptions& tile = {});

  /// Reachable only through the factories (FactoryOnly is private); public
  /// so they can build the view and its shared_ptr control block in one
  /// std::make_shared allocation.
  ClientBlockView(FactoryOnly, std::int32_t num_clients,
                  std::int32_t num_servers, const TileOptions& tile);
  ClientBlockView(const ClientBlockView&) = delete;
  ClientBlockView& operator=(const ClientBlockView&) = delete;

  std::int32_t num_clients() const { return num_clients_; }
  std::int32_t num_servers() const { return num_servers_; }

  /// Doubles between consecutive rows: simd::PaddedStride(num_servers()),
  /// pad lanes 0.0 — the layout the SIMD kernels run on.
  std::size_t server_stride() const { return server_stride_; }

  /// The resident padded block of a FromBlock view, else nullptr.
  const double* raw_block() const {
    return row_of_.empty() ? rows_.data() : nullptr;
  }

  /// The |S| x |S| server block captured by FromOracle / FromAttachments
  /// (dense row-major, zero diagonal; empty for FromBlock) —
  /// Problem::FromView consumes it so the oracle is queried exactly once.
  std::span<const double> server_block() const { return ss_block_; }

  /// Client-to-server latency d(c, s): one load, plus one addition when
  /// clients carry an access delay.
  double cs(ClientIndex c, ServerIndex s) const {
    const double leg =
        rows_[RowIndex(c) * server_stride_ + static_cast<std::size_t>(s)];
    return access_.empty() ? leg : access_[static_cast<std::size_t>(c)] + leg;
  }

  /// Client c's padded row: a pointer into the view when the row is
  /// stored as is (no access leg), else the row filled into `scratch`
  /// (server_stride() doubles) and `scratch` itself.
  const double* Row(ClientIndex c, double* scratch) const;

  /// Write client c's padded row into out[0..server_stride()): the
  /// num_servers() latencies then 0.0 pad lanes.
  void FillRow(ClientIndex c, double* out) const;

  /// out[i] = cs(ids[i], s) for i in [0, count) — the server-major gather
  /// greedy's bucket refinement reads.
  void GatherColumn(ServerIndex s, const ClientIndex* ids, std::size_t count,
                    double* out) const;

  /// out[c] = cs(c, s) for every client — the full-column scan of the LFB
  /// batch collection and greedy's one bucketing pass per server.
  void FillColumn(ServerIndex s, double* out) const;

  /// Visit ascending, disjoint tiles covering every client exactly once.
  /// A resident block is one zero-copy tile; otherwise TileOptions-sized
  /// tiles are synthesized through the buffer pool, keeping up to
  /// prefetch_depth tiles in flight on the global pool when it has
  /// workers. Tile data is valid only during fn; fn runs on the calling
  /// thread, and tiles arrive in ascending order regardless of depth.
  void ForEachTile(const std::function<void(const ClientTile&)>& fn) const;

  /// Fused traversal: every tile is handed to fn exactly once together
  /// with its slot index in [0, NumTiles()), but tiles may arrive
  /// CONCURRENTLY and OUT OF ORDER when the pool has workers — fn reduces
  /// each tile while it is cache-resident instead of staging results for
  /// a second pass. Callers keep determinism by writing per-client slots
  /// (disjoint) or folding into per-slot state merged in ascending slot
  /// order after the call (exact for max/min folds). Order-sensitive
  /// consumers (float accumulation) must use the sequential overload.
  /// A resident block is partitioned into zero-copy tiles.
  void ForEachTile(
      const std::function<void(const ClientTile&, std::size_t)>& fn) const;

  /// Tiles the fused traversal delivers: ceil(|C| / clamped tile_clients).
  std::size_t NumTiles() const;

  /// Bounds-first sequential traversal (filter-and-refine): before tile t
  /// is synthesized, pred(TileBounds of t) decides whether its exact
  /// values can matter — false skips synthesis entirely (counted in
  /// ClientBlockStats::tiles_pruned), true refines by synthesizing the
  /// tile and handing it to fn like ForEachTile. The caller's predicate
  /// must be CERTIFIED: it may only reject a tile when the TileBounds
  /// sandwich proves fn's result cannot change, so the traversal output
  /// is bit-identical to ForEachTile at every pruning rate. A resident
  /// block — one zero-copy tile, nothing to avoid — and a view with
  /// bound_pruning disabled ignore pred and visit every tile.
  void ForEachTileBounded(
      const std::function<bool(const TileBounds&)>& pred,
      const std::function<void(const ClientTile&)>& fn) const;

  /// Exact min/max of column s over the stored rows: every cs(c, s)
  /// satisfies
  ///   fl(access(c) + lower) <= cs(c, s) <= fl(access(c) + upper)
  /// (equality-tight when there is no access leg). Computed once, on
  /// first use. The doubles are exact column aggregates — no estimation
  /// slack — so bounds composed from them by monotone IEEE ops are
  /// certified.
  struct ColumnAggregate {
    double lower = 0.0;
    double upper = 0.0;
  };
  ColumnAggregate ColumnBounds(ServerIndex s) const;

  /// TileBounds of logical tile t (the grid NumTiles() defines).
  TileBounds TileBoundsOf(std::size_t t) const;

  /// out[c] = cs(c, assign[c]) for every client with assign[c] >= 0
  /// (out[c] = -1.0 otherwise — the repo-wide "unused" sentinel). The
  /// sparse exact gather of the assigned diagonal: O(|C|) loads instead
  /// of synthesizing O(|C| x |S|) tiles.
  void GatherAssigned(const ServerIndex* assign, double* out) const;

  /// Eccentricity fold: far[s] = max(far[s], cs(c, s)) over every client
  /// with assign[c] == s. On a synthesized block the fold runs
  /// bounds-first, bit-identical to the full pass at any pruning rate
  /// (max is exact, and a skipped tile is certified to leave every far[s]
  /// unchanged: fl(access(c) + ColumnBounds(a_c).upper) <= far[a_c] held
  /// for each of its clients, and far only grows). Pruned tile ranges
  /// count into tiles_pruned; surviving tiles refine through the sparse
  /// assigned gather, never tile synthesis.
  void FoldAssignedMax(const ServerIndex* assign, double* far) const {
    FoldAssignedMax(assign, far, 0, num_clients_);
  }

  /// The same fold over clients [begin, end) only (distributed greedy
  /// folds around one excluded client).
  void FoldAssignedMax(const ServerIndex* assign, double* far,
                       ClientIndex begin, ClientIndex end) const;

  /// Per-client nearest server, bit-identical to running
  /// simd::ArgMinFirst over every exact row: server_out[c] = the LOWEST
  /// server index attaining min_s cs(c, s), dist_out[c] = that minimum.
  /// The scan is factorized per stored row (each row's minimum plus an
  /// ulp-window candidate set refined exactly per client), turning the
  /// O(|C| x |S|) row scans into O(rows x |S| + |C|) work.
  void FillNearest(ServerIndex* server_out, double* dist_out) const;

  /// The full padded block as a fresh vector (|C| rows of
  /// server_stride()). The escape hatch for consumers that genuinely need
  /// random row access over the whole block (the exact solver's
  /// branch-and-bound); O(|C| x |S|) memory by definition — callers own
  /// that trade.
  std::vector<double> MaterializeBlock() const;

  ClientBlockStats stats() const;

  /// Credit `n` 512-entry candidate blocks as pruned-without-synthesis.
  /// Solvers call this when a certified bound retires candidate lanes
  /// before any gather ran (greedy's bucket bounds): only the caller knows
  /// how many were avoided. A no-op on a resident block, where nothing is
  /// avoided. Telemetry only — feeds ClientBlockStats::tiles_pruned.
  void CountPrunedTiles(std::int64_t n) const;

 private:
  static std::shared_ptr<ClientBlockView> Build(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes,
      std::span<const net::NodeIndex> attach_nodes,
      std::span<const double> access_ms, const TileOptions& tile);

  /// Index of client c's row in rows_.
  std::size_t RowIndex(ClientIndex c) const {
    return row_of_.empty()
               ? static_cast<std::size_t>(c)
               : static_cast<std::size_t>(row_of_[static_cast<std::size_t>(c)]);
  }
  std::size_t NumRows() const { return rows_.size() / server_stride_; }
  /// Server s's row of the server-major mirror (synthesized blocks only).
  const double* Column(ServerIndex s) const {
    return cols_.data() + static_cast<std::size_t>(s) * NumRows();
  }
  /// The access delays, or nullptr without an access leg.
  const double* Access() const {
    return access_.empty() ? nullptr : access_.data();
  }
  /// Fill rows [begin, end) into `out` ((end - begin) * stride doubles,
  /// pads included).
  void FillTile(ClientIndex begin, ClientIndex end, double* out) const;
  /// ColumnBounds of every server, computed on first use.
  const std::vector<ColumnAggregate>& AllColumnBounds() const;
  void BumpTileBytesPeak(std::int64_t live_bytes) const;

  std::int32_t num_clients_;
  std::int32_t num_servers_;
  std::size_t server_stride_;
  TileOptions tile_;

  /// Row-major server distances: one padded row (server_stride doubles,
  /// pads 0.0) per stored row — every client of a resident block, else
  /// every distinct attachment node in first-appearance order.
  std::vector<double> rows_;
  /// row_of_[c]: client c's row in rows_; empty for a resident block,
  /// where client c is row c.
  std::vector<std::int32_t> row_of_;
  /// Per-client access delay; empty when clients sit on their rows (no
  /// addition is performed, preserving the matrix path's bits).
  std::vector<double> access_;
  /// Server-major mirror of rows_ (|S| rows of NumRows() doubles) so
  /// column gathers stay inside one compact row; empty for a resident
  /// block, whose columns are read in place.
  std::vector<double> cols_;
  /// |S| x |S| dense server block (see server_block()).
  std::vector<double> ss_block_;
  /// Exact per-logical-tile access-delay range (empty without an access
  /// leg), computed once at build on the NumTiles() grid.
  std::vector<double> tile_access_min_;
  std::vector<double> tile_access_max_;

  mutable std::atomic<std::int64_t> tiles_loaded_{0};
  mutable std::atomic<std::int64_t> columns_gathered_{0};
  mutable std::atomic<std::int64_t> tile_bytes_peak_{0};
  mutable std::atomic<std::int64_t> tiles_pruned_{0};
  mutable std::once_flag col_bounds_once_;
  mutable std::vector<ColumnAggregate> col_bounds_;

  /// Factorized nearest-server structure (FillNearest), built lazily on
  /// first use: per stored row, its minimum, and the ascending list of
  /// servers whose entry sits within the ulp-collapse window of that
  /// minimum — the only servers any client on the row could tie with
  /// under IEEE rounding of access + leg.
  void BuildNearestIndex() const;
  mutable std::once_flag nearest_once_;
  mutable std::vector<double> node_min_;
  mutable std::vector<ServerIndex> node_argmin_;
  mutable std::vector<std::int32_t> cand_begin_;  ///< NumRows() + 1 offsets
  mutable std::vector<ServerIndex> cand_list_;
};

}  // namespace diaca::core
