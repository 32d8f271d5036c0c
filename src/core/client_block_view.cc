#include "core/client_block_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <unordered_map>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace diaca::core {

ClientBlockView::ClientBlockView(FactoryOnly, std::int32_t num_clients,
                                 std::int32_t num_servers,
                                 const TileOptions& tile)
    : num_clients_(num_clients),
      num_servers_(num_servers),
      server_stride_(
          simd::PaddedStride(static_cast<std::size_t>(num_servers))),
      tile_(tile) {
  DIACA_CHECK_MSG(num_clients > 0, "client block needs at least one client");
  DIACA_CHECK_MSG(num_servers > 0, "client block needs at least one server");
}

std::shared_ptr<ClientBlockView> ClientBlockView::FromBlock(
    std::int32_t num_clients, std::int32_t num_servers,
    std::vector<double> padded_block) {
  auto view = std::make_shared<ClientBlockView>(FactoryOnly{}, num_clients,
                                                num_servers, TileOptions{});
  const std::size_t expected =
      static_cast<std::size_t>(num_clients) * view->server_stride_;
  DIACA_CHECK_MSG(padded_block.size() == expected,
                  "padded block is " << padded_block.size()
                                     << " doubles, expected " << expected);
  view->rows_ = std::move(padded_block);
  return view;
}

std::shared_ptr<ClientBlockView> ClientBlockView::FromOracle(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes,
    std::span<const net::NodeIndex> client_nodes, const TileOptions& tile) {
  return Build(oracle, server_nodes, client_nodes, {}, tile);
}

std::shared_ptr<ClientBlockView> ClientBlockView::FromAttachments(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes,
    std::span<const net::NodeIndex> attach, std::span<const double> access_ms,
    const TileOptions& tile) {
  DIACA_CHECK_MSG(attach.size() == access_ms.size(),
                  "attach list has " << attach.size() << " clients but "
                                     << access_ms.size() << " access delays");
  return Build(oracle, server_nodes, attach, access_ms, tile);
}

std::shared_ptr<ClientBlockView> ClientBlockView::Build(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes,
    std::span<const net::NodeIndex> attach_nodes,
    std::span<const double> access_ms, const TileOptions& tile) {
  DIACA_OBS_SPAN("core.view.build");
  const net::NodeIndex n = oracle.size();
  DIACA_CHECK_MSG(!server_nodes.empty(), "server list must not be empty");
  DIACA_CHECK_MSG(!attach_nodes.empty(), "client list must not be empty");
  for (net::NodeIndex s : server_nodes) {
    DIACA_CHECK_MSG(s >= 0 && s < n,
                    "server node " << s << " outside substrate of size " << n);
  }
  const auto num_clients = static_cast<std::int32_t>(attach_nodes.size());
  const auto num_servers = static_cast<std::int32_t>(server_nodes.size());
  auto view = std::make_shared<ClientBlockView>(FactoryOnly{}, num_clients,
                                                num_servers, tile);
  const std::size_t stride = view->server_stride_;

  // Distinct attachment nodes in first-appearance order: the synthesized
  // state scales with the substrate, never with |C|.
  view->row_of_.resize(attach_nodes.size());
  std::vector<net::NodeIndex> node_of_row;
  {
    std::unordered_map<net::NodeIndex, std::int32_t> row_of;
    row_of.reserve(static_cast<std::size_t>(n));
    for (std::size_t c = 0; c < attach_nodes.size(); ++c) {
      const net::NodeIndex node = attach_nodes[c];
      DIACA_CHECK_MSG(node >= 0 && node < n, "client node "
                                                 << node
                                                 << " outside substrate of size "
                                                 << n);
      const auto [it, inserted] = row_of.try_emplace(
          node, static_cast<std::int32_t>(node_of_row.size()));
      if (inserted) node_of_row.push_back(node);
      view->row_of_[c] = it->second;
    }
  }
  view->access_.assign(access_ms.begin(), access_ms.end());

  const std::size_t rows = node_of_row.size();
  view->rows_.assign(rows * stride, 0.0);
  view->cols_.assign(static_cast<std::size_t>(num_servers) * rows, 0.0);
  view->ss_block_.assign(
      static_cast<std::size_t>(num_servers) * static_cast<std::size_t>(num_servers),
      0.0);

  // One oracle row per server — the only shortest-path work. Each task
  // owns its server's column/row slots, so the fan-out is write-disjoint.
  GlobalPool().ParallelFor(
      0, num_servers, 1, [&](std::int64_t sb, std::int64_t se) {
        std::vector<double> row(static_cast<std::size_t>(n));
        for (std::int64_t s = sb; s < se; ++s) {
          const auto si = static_cast<std::size_t>(s);
          oracle.FillRow(server_nodes[si], row);
          double* col = view->cols_.data() + si * rows;
          for (std::size_t r = 0; r < rows; ++r) {
            const double d = row[static_cast<std::size_t>(node_of_row[r])];
            col[r] = d;
            view->rows_[r * stride + si] = d;
          }
          double* ss = view->ss_block_.data() +
                       si * static_cast<std::size_t>(num_servers);
          for (std::int32_t b = 0; b < num_servers; ++b) {
            ss[static_cast<std::size_t>(b)] =
                s == b ? 0.0
                       : row[static_cast<std::size_t>(
                             server_nodes[static_cast<std::size_t>(b)])];
          }
        }
      });

  // Exact access range per logical tile (the TileBounds sandwich); one
  // O(|C|) pass, skipped entirely on the no-access (matrix) shape.
  if (!view->access_.empty()) {
    const std::size_t total = view->NumTiles();
    view->tile_access_min_.resize(total);
    view->tile_access_max_.resize(total);
    const std::int32_t tile_clients =
        std::clamp(tile.tile_clients, 1, num_clients);
    for (std::size_t t = 0; t < total; ++t) {
      const auto begin =
          static_cast<std::size_t>(t) * static_cast<std::size_t>(tile_clients);
      const auto end = std::min(static_cast<std::size_t>(num_clients),
                                begin + static_cast<std::size_t>(tile_clients));
      double lo = view->access_[begin];
      double hi = lo;
      for (std::size_t c = begin + 1; c < end; ++c) {
        lo = std::min(lo, view->access_[c]);
        hi = std::max(hi, view->access_[c]);
      }
      view->tile_access_min_[t] = lo;
      view->tile_access_max_[t] = hi;
    }
  }
  return view;
}

const double* ClientBlockView::Row(ClientIndex c, double* scratch) const {
  if (access_.empty()) return rows_.data() + RowIndex(c) * server_stride_;
  FillRow(c, scratch);
  return scratch;
}

void ClientBlockView::FillRow(ClientIndex c, double* out) const {
  const double* row = rows_.data() + RowIndex(c) * server_stride_;
  if (access_.empty()) {
    std::memcpy(out, row, server_stride_ * sizeof(double));
    return;
  }
  // Broadcast-add over the whole padded row would pollute the pad lanes
  // (access + 0.0 != 0.0), so the kernel covers the server lanes and the
  // pads are re-zeroed — they stay inert for max/sum kernels.
  simd::BroadcastAdd(out, row, access_[static_cast<std::size_t>(c)],
                     static_cast<std::size_t>(num_servers_));
  for (std::size_t s = static_cast<std::size_t>(num_servers_);
       s < server_stride_; ++s) {
    out[s] = 0.0;
  }
}

void ClientBlockView::FillTile(ClientIndex begin, ClientIndex end,
                               double* out) const {
  for (ClientIndex c = begin; c < end; ++c) {
    FillRow(c, out + static_cast<std::size_t>(c - begin) * server_stride_);
  }
}

void ClientBlockView::GatherColumn(ServerIndex s, const ClientIndex* ids,
                                   std::size_t count, double* out) const {
  if (const double* raw = raw_block()) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = raw[static_cast<std::size_t>(ids[i]) * server_stride_ +
                   static_cast<std::size_t>(s)];
    }
  } else {
    simd::GatherPlus(out, Column(s), row_of_.data(), Access(), ids, count);
  }
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::FillColumn(ServerIndex s, double* out) const {
  if (const double* raw = raw_block()) {
    const double* p = raw + static_cast<std::size_t>(s);
    for (std::int32_t c = 0; c < num_clients_; ++c) {
      out[c] = p[static_cast<std::size_t>(c) * server_stride_];
    }
  } else {
    simd::GatherPlus(out, Column(s), row_of_.data(), Access(), nullptr,
                     static_cast<std::size_t>(num_clients_));
  }
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::BumpTileBytesPeak(std::int64_t live_bytes) const {
  std::int64_t seen = tile_bytes_peak_.load(std::memory_order_relaxed);
  while (live_bytes > seen &&
         !tile_bytes_peak_.compare_exchange_weak(seen, live_bytes,
                                                 std::memory_order_relaxed)) {
  }
}

std::size_t ClientBlockView::NumTiles() const {
  const std::int32_t tile_clients =
      std::clamp(tile_.tile_clients, 1, num_clients_);
  return (static_cast<std::size_t>(num_clients_) +
          static_cast<std::size_t>(tile_clients) - 1) /
         static_cast<std::size_t>(tile_clients);
}

void ClientBlockView::ForEachTile(
    const std::function<void(const ClientTile&)>& fn) const {
  if (const double* raw = raw_block()) {
    // Zero-copy: the resident block IS the one tile.
    fn(ClientTile{0, num_clients_, raw, server_stride_});
    return;
  }
  DIACA_OBS_SPAN("core.view.tiles");
  const std::int32_t tile_clients =
      std::clamp(tile_.tile_clients, 1, num_clients_);
  const auto total = static_cast<std::int64_t>(NumTiles());
  ThreadPool& pool = GlobalPool();
  const std::int32_t pool_tiles = std::max(tile_.pool_tiles, 1);
  const std::int32_t depth =
      std::clamp(tile_.prefetch_depth, 0, pool_tiles - 1);
  // A threadless pool (or depth 0, or a single tile) degrades to
  // synchronous generation into one buffer.
  const bool prefetch = depth >= 1 && pool.num_threads() > 1 && total > 1;
  const std::size_t tile_doubles =
      static_cast<std::size_t>(tile_clients) * server_stride_;
  const auto buffers = static_cast<std::size_t>(
      prefetch ? std::min<std::int64_t>(pool_tiles, total) : 1);
  std::vector<std::vector<double>> ring(buffers);
  for (auto& buf : ring) buf.resize(tile_doubles);
  BumpTileBytesPeak(
      static_cast<std::int64_t>(buffers * tile_doubles * sizeof(double)));

  const auto fill = [&](std::int64_t t, double* buf) -> ClientTile {
    const auto begin = static_cast<std::int32_t>(
        t * static_cast<std::int64_t>(tile_clients));
    const std::int32_t end = std::min(num_clients_, begin + tile_clients);
    FillTile(begin, end, buf);
    tiles_loaded_.fetch_add(1, std::memory_order_relaxed);
    return ClientTile{begin, end, buf, server_stride_};
  };

  if (!prefetch) {
    for (std::int64_t t = 0; t < total; ++t) {
      fn(fill(t, ring[0].data()));
    }
    return;
  }

  // Depth-D pipeline: while fn scans tile t, tiles (t, t + depth] are in
  // flight on the pool. Buffers rotate t % buffers with
  // depth <= buffers - 1, so no in-flight synthesis ever aliases the tile
  // being consumed; tile t + 1 + depth is only submitted after fn(t)
  // returns, freeing t's buffer. If fn or a fill throws, the guard waits
  // out every in-flight job (they hold pointers into `ring`/`slot`)
  // before the stack unwinds; the future's get() rethrows fill failures.
  std::vector<ClientTile> slot(buffers);
  std::deque<std::future<void>> inflight;
  struct PrefetchGuard {
    std::deque<std::future<void>>* pending;
    ~PrefetchGuard() {
      for (auto& f : *pending) {
        if (f.valid()) f.wait();
      }
    }
  } guard{&inflight};
  std::int64_t submitted = 0;
  const auto submit_next = [&] {
    const std::int64_t t = submitted++;
    double* buf = ring[static_cast<std::size_t>(t) % buffers].data();
    ClientTile* out = &slot[static_cast<std::size_t>(t) % buffers];
    inflight.push_back(
        pool.Submit([out, t, buf, &fill] { *out = fill(t, buf); }));
  };
  for (std::int64_t t = 0; t < total; ++t) {
    while (submitted < total && submitted <= t + depth) submit_next();
    inflight.front().get();
    inflight.pop_front();
    fn(slot[static_cast<std::size_t>(t) % buffers]);
  }
}

void ClientBlockView::ForEachTile(
    const std::function<void(const ClientTile&, std::size_t)>& fn) const {
  const std::int32_t tile_clients =
      std::clamp(tile_.tile_clients, 1, num_clients_);
  const auto total = static_cast<std::int64_t>(NumTiles());
  if (const double* raw = raw_block()) {
    // Zero-copy partition of the resident block; each slot owns its rows.
    GlobalPool().ParallelFor(0, total, 1, [&](std::int64_t tb,
                                              std::int64_t te) {
      for (std::int64_t t = tb; t < te; ++t) {
        const auto begin = static_cast<std::int32_t>(
            t * static_cast<std::int64_t>(tile_clients));
        const std::int32_t end = std::min(num_clients_, begin + tile_clients);
        fn(ClientTile{begin, end,
                      raw + static_cast<std::size_t>(begin) * server_stride_,
                      server_stride_},
           static_cast<std::size_t>(t));
      }
    });
    return;
  }
  DIACA_OBS_SPAN("core.view.tiles");
  const std::size_t tile_doubles =
      static_cast<std::size_t>(tile_clients) * server_stride_;
  const auto tile_bytes =
      static_cast<std::int64_t>(tile_doubles * sizeof(double));
  // One synthesis buffer per concurrent chunk, charged against the pool
  // peak while live.
  std::atomic<std::int64_t> live{0};
  GlobalPool().ParallelFor(0, total, 1, [&](std::int64_t tb,
                                            std::int64_t te) {
    std::vector<double> buf(tile_doubles);
    BumpTileBytesPeak(live.fetch_add(tile_bytes, std::memory_order_relaxed) +
                      tile_bytes);
    for (std::int64_t t = tb; t < te; ++t) {
      const auto begin = static_cast<std::int32_t>(
          t * static_cast<std::int64_t>(tile_clients));
      const std::int32_t end = std::min(num_clients_, begin + tile_clients);
      FillTile(begin, end, buf.data());
      tiles_loaded_.fetch_add(1, std::memory_order_relaxed);
      fn(ClientTile{begin, end, buf.data(), server_stride_},
         static_cast<std::size_t>(t));
    }
    live.fetch_sub(tile_bytes, std::memory_order_relaxed);
  });
}

void ClientBlockView::CountPrunedTiles(std::int64_t n) const {
  // Resident data: nothing was avoided.
  if (raw_block() != nullptr) return;
  tiles_pruned_.fetch_add(n, std::memory_order_relaxed);
}

void ClientBlockView::ForEachTileBounded(
    const std::function<bool(const TileBounds&)>& pred,
    const std::function<void(const ClientTile&)>& fn) const {
  // Nothing to avoid on a resident block, and pruning-off must do the
  // full exact work: both ignore pred entirely.
  if (raw_block() != nullptr || !tile_.bound_pruning) {
    ForEachTile(fn);
    return;
  }
  DIACA_OBS_SPAN("core.view.tiles");
  const std::int32_t tile_clients =
      std::clamp(tile_.tile_clients, 1, num_clients_);
  const std::size_t total = NumTiles();
  const std::size_t tile_doubles =
      static_cast<std::size_t>(tile_clients) * server_stride_;
  std::vector<double> buf;  // allocated on first surviving tile
  for (std::size_t t = 0; t < total; ++t) {
    const TileBounds tb = TileBoundsOf(t);
    if (!pred(tb)) {
      tiles_pruned_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (buf.empty()) {
      buf.resize(tile_doubles);
      BumpTileBytesPeak(
          static_cast<std::int64_t>(tile_doubles * sizeof(double)));
    }
    FillTile(tb.begin, tb.end, buf.data());
    tiles_loaded_.fetch_add(1, std::memory_order_relaxed);
    fn(ClientTile{tb.begin, tb.end, buf.data(), server_stride_});
  }
}

ClientBlockView::ColumnAggregate ClientBlockView::ColumnBounds(
    ServerIndex s) const {
  return AllColumnBounds()[static_cast<std::size_t>(s)];
}

const std::vector<ClientBlockView::ColumnAggregate>&
ClientBlockView::AllColumnBounds() const {
  // Exact min/max per column over the stored rows. The access leg is not
  // folded in: TileBounds carries it, composed by one monotone IEEE add.
  std::call_once(col_bounds_once_, [&] {
    const auto servers = static_cast<std::size_t>(num_servers_);
    col_bounds_.assign(servers,
                       {std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()});
    for (std::size_t r = 0; r < NumRows(); ++r) {
      const double* row = rows_.data() + r * server_stride_;
      for (std::size_t i = 0; i < servers; ++i) {
        col_bounds_[i].lower = std::min(col_bounds_[i].lower, row[i]);
        col_bounds_[i].upper = std::max(col_bounds_[i].upper, row[i]);
      }
    }
  });
  return col_bounds_;
}

TileBounds ClientBlockView::TileBoundsOf(std::size_t t) const {
  const std::int32_t tile_clients =
      std::clamp(tile_.tile_clients, 1, num_clients_);
  TileBounds tb;
  tb.begin = static_cast<ClientIndex>(t * static_cast<std::size_t>(tile_clients));
  tb.end = std::min(num_clients_, tb.begin + tile_clients);
  if (!tile_access_min_.empty()) {
    tb.access_min = tile_access_min_[t];
    tb.access_max = tile_access_max_[t];
  }
  return tb;
}

void ClientBlockView::GatherAssigned(const ServerIndex* assign,
                                     double* out) const {
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const ServerIndex s = assign[c];
    out[c] = s >= 0 ? cs(c, s) : -1.0;
  }
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::FoldAssignedMax(const ServerIndex* assign, double* far,
                                      ClientIndex begin,
                                      ClientIndex end) const {
  if (begin >= end) return;
  if (const double* raw = raw_block()) {
    // Resident data: nothing to avoid, one scatter pass.
    simd::MaxAbsorbScatter(far, assign, raw, server_stride_, begin, end);
    return;
  }
  // Bounds-first fold over the logical tile grid. A tile is skippable
  // when every assigned client already satisfies
  //   fl(access(c) + ColumnBounds(a_c).upper) <= far[a_c]:
  // then d(c, a_c) <= that bound <= far[a_c], and since far only grows
  // during the fold the max is a no-op for the whole tile — skipping is
  // bit-identical. The test touches only cache-resident arrays (access,
  // assign, column bounds, far); surviving tiles refine through direct
  // cs() loads, so no tile is ever synthesized here.
  const std::int32_t tile_clients =
      std::clamp(tile_.tile_clients, 1, num_clients_);
  const std::vector<ColumnAggregate>& bounds = AllColumnBounds();
  std::int64_t pruned = 0;
  for (std::int32_t chunk_end = begin; chunk_end < end;) {
    // The part of the grid tile holding `chunk_begin` inside the range.
    const std::int32_t chunk_begin = chunk_end;
    chunk_end = static_cast<std::int32_t>(std::min<std::int64_t>(
        end, (static_cast<std::int64_t>(chunk_begin) / tile_clients + 1) *
                 tile_clients));
    if (tile_.bound_pruning) {
      bool skip = true;
      for (std::int32_t c = chunk_begin; c < chunk_end; ++c) {
        const ServerIndex s = assign[c];
        if (s < 0) continue;
        const double upper = bounds[static_cast<std::size_t>(s)].upper;
        const double hi = access_.empty()
                              ? upper
                              : access_[static_cast<std::size_t>(c)] + upper;
        if (!(hi <= far[s])) {
          skip = false;
          break;
        }
      }
      if (skip) {
        ++pruned;
        continue;
      }
    }
    for (std::int32_t c = chunk_begin; c < chunk_end; ++c) {
      const ServerIndex s = assign[c];
      if (s >= 0) far[s] = std::max(far[s], cs(c, s));
    }
  }
  if (pruned > 0) CountPrunedTiles(pruned);
}

void ClientBlockView::BuildNearestIndex() const {
  // Per stored row: exact minimum m_r, its first server, and the
  // ascending candidate list of servers within the ulp-collapse window.
  // Soundness of the window: if fl(a + col_s) == fl(a + m_r) for some
  // access a in [0, amax], both sums round to the same v, so
  // col_s - m_r <= ulp(v) <= ulp(fl(amax + m_r)) (fl and ulp are
  // monotone for non-negative doubles). W doubles that bound and the
  // threshold is widened one more ulp against the rounding of m_r + W —
  // over-inclusion only costs refine time, never correctness.
  const std::size_t rows = NumRows();
  const auto servers = static_cast<std::size_t>(num_servers_);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  node_min_.resize(rows);
  node_argmin_.resize(rows);
  cand_begin_.assign(rows + 1, 0);
  cand_list_.clear();
  double amax = 0.0;
  for (const double a : access_) amax = std::max(amax, a);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = rows_.data() + r * server_stride_;
    const simd::ArgResult m = simd::ArgMinFirst(row, servers);
    node_min_[r] = m.value;
    node_argmin_[r] = static_cast<ServerIndex>(m.index);
    if (!access_.empty()) {
      const double vmax = amax + m.value;
      const double w = 2.0 * (std::nextafter(vmax, kInf) - vmax);
      const double threshold = std::nextafter(m.value + w, kInf);
      for (std::size_t s = 0; s < servers; ++s) {
        if (row[s] <= threshold) {
          cand_list_.push_back(static_cast<ServerIndex>(s));
        }
      }
    }
    cand_begin_[r + 1] = static_cast<std::int32_t>(cand_list_.size());
  }
}

void ClientBlockView::FillNearest(ServerIndex* server_out,
                                  double* dist_out) const {
  std::call_once(nearest_once_, [&] { BuildNearestIndex(); });
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
  if (access_.empty()) {
    // No per-client rounding: every client on row r shares its exact
    // minimum and first-index winner.
    for (std::int32_t c = 0; c < num_clients_; ++c) {
      const std::size_t r = RowIndex(c);
      server_out[c] = node_argmin_[r];
      dist_out[c] = node_min_[r];
    }
    return;
  }
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const std::size_t r = RowIndex(c);
    const double a = access_[static_cast<std::size_t>(c)];
    const double dmin = a + node_min_[r];
    const std::int32_t b = cand_begin_[r];
    const std::int32_t e = cand_begin_[r + 1];
    ServerIndex winner = node_argmin_[r];
    if (e - b > 1) {
      // Lowest-index server whose rounded sum collapses onto the minimum;
      // the argmin itself is always a candidate, so the scan never fails.
      const double* row = rows_.data() + r * server_stride_;
      for (std::int32_t i = b; i < e; ++i) {
        const ServerIndex s = cand_list_[static_cast<std::size_t>(i)];
        if (a + row[static_cast<std::size_t>(s)] == dmin) {
          winner = s;
          break;
        }
      }
    }
    server_out[c] = winner;
    dist_out[c] = dmin;
  }
}

std::vector<double> ClientBlockView::MaterializeBlock() const {
  std::vector<double> block(static_cast<std::size_t>(num_clients_) *
                            server_stride_);
  ForEachTile([&](const ClientTile& tile) {
    std::memcpy(block.data() +
                    static_cast<std::size_t>(tile.begin) * server_stride_,
                tile.data,
                static_cast<std::size_t>(tile.end - tile.begin) *
                    server_stride_ * sizeof(double));
  });
  return block;
}

ClientBlockStats ClientBlockView::stats() const {
  ClientBlockStats s;
  s.tiles_loaded = tiles_loaded_.load(std::memory_order_relaxed);
  s.columns_gathered = columns_gathered_.load(std::memory_order_relaxed);
  s.tile_bytes_peak = tile_bytes_peak_.load(std::memory_order_relaxed);
  s.tiles_pruned = tiles_pruned_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace diaca::core
