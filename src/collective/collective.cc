#include "collective/collective.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/fingerprint.h"
#include "collective/rank_space.h"
#include "common/assert.h"
#include "common/word_io.h"

namespace mgcomp {
namespace {

constexpr std::size_t kWordsPerLine = kLineBytes / sizeof(std::uint32_t);

/// splitmix64 finalizer — the kRandom fill and nothing else.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Initial value of u32 element `elem` of rank `rank`'s buffer.
std::uint32_t fill_value(CollectiveFill fill, std::uint64_t seed, std::uint32_t rank,
                         std::uint64_t elem) noexcept {
  switch (fill) {
    case CollectiveFill::kZero:
      return 0;
    case CollectiveFill::kLowRange:
      // Small values with small deltas: the BDI/FPC sweet spot, standing in
      // for the narrow-range gradients of a training step.
      return 0x1000 + static_cast<std::uint32_t>((elem * 7 + rank * 13) & 0x3F);
    case CollectiveFill::kRamp:
      return rank * 0x01000000u + static_cast<std::uint32_t>(elem);
    case CollectiveFill::kRandom:
      return static_cast<std::uint32_t>(
          mix64(seed ^ (static_cast<std::uint64_t>(rank) << 40) ^ elem));
  }
  return 0;
}

std::uint32_t combine(ReduceOp op, std::uint32_t a, std::uint32_t b) noexcept {
  return op == ReduceOp::kSum ? a + b : std::max(a, b);
}

/// One hop of a chunk's ring schedule: rank `dst` pulls the chunk's lines
/// from rank `src`, reducing into or overwriting its local copy.
struct Hop {
  std::uint32_t src;
  std::uint32_t dst;
  bool reduce;
};

/// The m-1 hops that walk a chunk around the ring of `members` (rank ids,
/// ascending) starting at member slot `start`.
std::vector<Hop> ring_chain(const std::vector<std::uint32_t>& members, std::uint32_t start,
                            bool reduce) {
  const auto m = static_cast<std::uint32_t>(members.size());
  std::vector<Hop> hops;
  hops.reserve(m - 1);
  for (std::uint32_t s = 0; s + 1 < m; ++s) {
    hops.push_back(Hop{members[(start + s) % m], members[(start + s + 1) % m], reduce});
  }
  return hops;
}

/// Shared bookkeeping for all chunk chains of one attempt.
struct RunState {
  MultiGpuSystem* sys;
  RankSpace* space;
  CollectiveConfig cfg;
  CollectiveStats* stats;
  Tick last_done{0};
  /// Null unless the system runs with fault episodes; with it null every
  /// branch below is dead and the schedule matches the pre-fail-stop one.
  HealthMonitor* health{nullptr};
  /// First fault aborts the whole attempt: no chunk issues further pulls,
  /// in-flight ones drain ignored, and run_collective decides what's next.
  bool aborted{false};
  CollectiveError error{};
};

/// Executes one chunk's hop list sequentially; hops stream their lines
/// through a bounded pull window. Chunks are independent, so while chunk c
/// is on hop s, chunk c+1 is already running hop s elsewhere on the ring —
/// that pipelining is what makes the ring schedule bandwidth-optimal.
class ChunkTask {
 public:
  /// `lines_per_block` is this chain's pull granularity — the hierarchical
  /// schedule pulls page-sized blocks on its trunk phase while the
  /// intra-node phases keep the config's line granularity.
  ChunkTask(RunState& rs, std::vector<Hop> hops, std::size_t first_line, std::size_t num_lines,
            std::uint32_t lines_per_block)
      : rs_(&rs),
        hops_(std::move(hops)),
        first_line_(first_line),
        num_lines_(num_lines),
        lines_per_block_(std::max<std::uint32_t>(lines_per_block, 1)) {}

  void start() {
    if (num_lines_ == 0 || hops_.empty()) return;  // empty tail chunk
    begin_hop();
  }

 private:
  void begin_hop() {
    next_line_ = 0;
    completed_ = 0;
    inflight_ = 0;
    ++rs_->stats->steps;
    pump();
  }

  /// Keeps up to cfg.window line pulls of the current hop in flight.
  void pump() {
    if (rs_->aborted) return;  // attempt is doomed; stop issuing work
    const Hop& hop = hops_[hop_idx_];
    // Fail fast instead of pulling from (or into) a rank whose GPU the
    // health monitor has declared DOWN — those pulls could only time out.
    if (rs_->health != nullptr &&
        (rs_->health->endpoint_down(rs_->sys->gpu_endpoint(hop.src)) ||
         rs_->health->endpoint_down(rs_->sys->gpu_endpoint(hop.dst)))) {
      abort_attempt(CollectiveErrorKind::kPeerDown, hop);
      return;
    }
    while (inflight_ < rs_->cfg.window && next_line_ < num_lines_) {
      const std::size_t line = first_line_ + next_line_;
      const Addr src_addr = rs_->space->line_addr(hop.src, line);
      const Addr dst_addr = rs_->space->line_addr(hop.dst, line);
      // Bulk fast path: pull up to lines_per_block lines in ONE request,
      // clamped to the chunk tail and the source page boundary (lines are
      // contiguous within a page and a page has a single owner). A k-line
      // block occupies k slots of the same pull window.
      std::size_t lines = std::min<std::size_t>(
          std::min<std::size_t>(lines_per_block_, kLinesPerPage), num_lines_ - next_line_);
      if (lines > 1) {
        lines = std::min(lines, kLinesPerPage - line % kLinesPerPage);
      }
      next_line_ += lines;
      inflight_ += static_cast<std::uint32_t>(lines);
      rs_->stats->line_transfers += lines;
      if (lines == 1) {
        rs_->sys->gpu(hop.dst).rdma().remote_read(
            src_addr,
            [this, src_addr, dst_addr](bool ok) { on_block(ok, src_addr, dst_addr, 1); });
      } else {
        ++rs_->stats->block_transfers;
        rs_->sys->gpu(hop.dst).rdma().remote_read_bulk(
            src_addr, static_cast<std::uint32_t>(lines * kLineBytes),
            [this, src_addr, dst_addr, lines](bool ok) {
              on_block(ok, src_addr, dst_addr, lines);
            });
      }
    }
  }

  /// Records the attempt's first fault; later faults keep the original.
  void abort_attempt(CollectiveErrorKind kind, const Hop& hop) {
    if (rs_->aborted) return;
    rs_->aborted = true;
    rs_->error = CollectiveError{kind, hop.dst, hop.src, hop_idx_, rs_->sys->engine().now()};
  }

  /// A pulled block (`lines` == 1 on the per-line path) landed at the
  /// destination: apply each line to the local copy (functionally) and book
  /// the local-DRAM writes (timing). Reduction stays per-line and in line
  /// order, so bulk pulls produce bit-exact digests against per-line runs.
  void on_block(bool ok, Addr src_addr, Addr dst_addr, std::size_t lines) {
    const Hop& hop = hops_[hop_idx_];
    if (rs_->aborted) {
      inflight_ -= static_cast<std::uint32_t>(lines);  // draining a doomed attempt
      return;
    }
    if (!ok) {
      // The pull exhausted its retry budget: data is stale.
      inflight_ -= static_cast<std::uint32_t>(lines);
      abort_attempt(CollectiveErrorKind::kPullFailed, hop);
      return;
    }
    GlobalMemory& mem = rs_->sys->memory();
    for (std::size_t l = 0; l < lines; ++l) {
      const Addr src_line = src_addr + static_cast<Addr>(l) * kLineBytes;
      const Addr dst_line = dst_addr + static_cast<Addr>(l) * kLineBytes;
      const Line src = mem.read_line(src_line);
      if (hop.reduce) {
        Line dst = mem.read_line(dst_line);
        for (std::size_t w = 0; w < kWordsPerLine; ++w) {
          const std::size_t off = w * sizeof(std::uint32_t);
          store_le<std::uint32_t>(dst, off,
                                  combine(rs_->cfg.op, load_le<std::uint32_t>(dst, off),
                                          load_le<std::uint32_t>(src, off)));
        }
        mem.write_line(dst_line, dst);
        ++rs_->stats->reduced_lines;
      } else {
        mem.write_line(dst_line, src);
      }
      rs_->sys->gpu(hop.dst).owner_access(dst_line, /*is_write=*/true);
    }
    rs_->last_done = std::max(rs_->last_done, rs_->sys->engine().now());

    inflight_ -= static_cast<std::uint32_t>(lines);
    completed_ += lines;
    if (completed_ == num_lines_) {
      if (++hop_idx_ < hops_.size()) begin_hop();
      return;
    }
    pump();
  }

  RunState* rs_;
  std::vector<Hop> hops_;
  std::size_t first_line_;
  std::size_t num_lines_;
  std::uint32_t lines_per_block_;
  std::size_t hop_idx_{0};
  std::size_t next_line_{0};
  std::size_t completed_{0};
  std::uint32_t inflight_{0};
};

/// Fills the input buffers of the participating `members` (slot c <-> rank
/// members[c]). Which slots hold defined input depends on the collective:
/// all-reduce and reduce-scatter start with every member's full buffer
/// populated; all-gather gives each member only its slot's chunk; broadcast
/// populates the root alone. Re-running this before a retry restores the
/// exact reference inputs, so a clean retry's digest is bit-exact.
void fill_inputs(MultiGpuSystem& sys, RankSpace& space, const CollectiveConfig& cfg,
                 const std::vector<std::uint32_t>& members, std::size_t chunk_lines) {
  const auto m = static_cast<std::uint32_t>(members.size());
  for (std::uint32_t c = 0; c < m; ++c) {
    const std::uint32_t r = members[c];
    std::size_t lo = 0;
    std::size_t hi = space.lines_per_rank();
    if (cfg.kind == CollectiveKind::kAllGather) {
      lo = std::min<std::size_t>(static_cast<std::size_t>(c) * chunk_lines, hi);
      hi = std::min(lo + chunk_lines, hi);
    } else if (cfg.kind == CollectiveKind::kBroadcast && r != cfg.root) {
      continue;
    }
    for (std::size_t l = lo; l < hi; ++l) {
      Line line;
      for (std::size_t w = 0; w < kWordsPerLine; ++w) {
        store_le<std::uint32_t>(line, w * sizeof(std::uint32_t),
                                fill_value(cfg.fill, cfg.seed, r, l * kWordsPerLine + w));
      }
      sys.memory().write_line(space.line_addr(r, l), line);
    }
  }
}

/// Host-side reference for the u32 element `elem` of chunk slot `c` after
/// the collective completes over `members` (identical at every member that
/// defines it).
std::uint32_t expected_value(const CollectiveConfig& cfg,
                             const std::vector<std::uint32_t>& members, std::uint32_t c,
                             std::uint64_t elem) noexcept {
  switch (cfg.kind) {
    case CollectiveKind::kAllGather:
      return fill_value(cfg.fill, cfg.seed, members[c], elem);
    case CollectiveKind::kBroadcast:
      return fill_value(cfg.fill, cfg.seed, cfg.root, elem);
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kReduceScatter: {
      std::uint32_t v = fill_value(cfg.fill, cfg.seed, members[0], elem);
      for (std::size_t i = 1; i < members.size(); ++i) {
        v = combine(cfg.op, v, fill_value(cfg.fill, cfg.seed, members[i], elem));
      }
      return v;
    }
  }
  return 0;
}

/// Compares every defined output region against the reference and folds
/// the defined words into the data digest. Reduce-scatter defines only
/// chunk slot c at member c; the other collectives define every member's
/// full buffer. Non-members (fail-stopped ranks) hold no defined output.
bool verify_outputs(MultiGpuSystem& sys, RankSpace& space, const CollectiveConfig& cfg,
                    const std::vector<std::uint32_t>& members, std::size_t chunk_lines,
                    FingerprintHasher& digest) {
  const auto m = static_cast<std::uint32_t>(members.size());
  bool ok = true;
  for (std::uint32_t c = 0; c < m; ++c) {
    const std::uint32_t r = members[c];
    std::size_t lo = 0;
    std::size_t hi = space.lines_per_rank();
    if (cfg.kind == CollectiveKind::kReduceScatter) {
      lo = std::min<std::size_t>(static_cast<std::size_t>(c) * chunk_lines, hi);
      hi = std::min(lo + chunk_lines, hi);
    }
    for (std::size_t l = lo; l < hi; ++l) {
      const Line line = sys.memory().read_line(space.line_addr(r, l));
      const auto chunk = static_cast<std::uint32_t>(l / chunk_lines);
      for (std::size_t w = 0; w < kWordsPerLine; ++w) {
        const std::uint32_t got = load_le<std::uint32_t>(line, w * sizeof(std::uint32_t));
        digest.add_u64(got);
        ok = ok && got == expected_value(cfg, members, chunk, l * kWordsPerLine + w);
      }
    }
  }
  return ok;
}

/// Builds the three-stage hierarchical all-reduce over all `n` ranks in
/// `g`-rank node groups. Stage A (intra-node): each node reduce-scatters
/// its members' buffers into g per-slot chunks, so rank k*g+j ends up with
/// the node-reduced chunk j. Stage B (inter-node): for each slot j the
/// node leaders {k*g+j} run a flat all-reduce of chunk j at trunk
/// granularity — the only stage that crosses the oversubscribed trunks,
/// moving 1/g of the flat schedule's inter-node bytes. Stage C
/// (intra-node): each node all-gathers the g globally-reduced chunks back
/// to every member. Wrapping u32 sum/max are associative and commutative,
/// so the result is bit-exact against the flat single-ring schedule.
void build_hier_stages(RunState& rs, std::uint32_t n, std::uint32_t g, std::uint32_t trunk_lpb,
                       std::vector<std::vector<std::unique_ptr<ChunkTask>>>& stages) {
  const std::uint32_t num_nodes = n / g;
  const std::size_t total = rs.cfg.lines_per_rank;
  const std::size_t ic = (total + g - 1) / g;  // intra-node chunk, lines
  stages.resize(3);
  for (std::uint32_t node = 0; node < num_nodes; ++node) {
    std::vector<std::uint32_t> local(g);
    for (std::uint32_t j = 0; j < g; ++j) local[j] = node * g + j;
    for (std::uint32_t j = 0; j < g; ++j) {
      const std::size_t first = std::min<std::size_t>(static_cast<std::size_t>(j) * ic, total);
      const std::size_t count = std::min(ic, total - first);
      // Stage A: chunk j's reduce chain ends at member slot j.
      stages[0].push_back(std::make_unique<ChunkTask>(
          rs, ring_chain(local, (j + 1) % g, /*reduce=*/true), first, count,
          rs.cfg.lines_per_block));
      // Stage C: slot j fans chunk j back out around the node ring.
      stages[2].push_back(std::make_unique<ChunkTask>(
          rs, ring_chain(local, j, /*reduce=*/false), first, count, rs.cfg.lines_per_block));
    }
  }
  for (std::uint32_t j = 0; j < g; ++j) {
    std::vector<std::uint32_t> leaders(num_nodes);
    for (std::uint32_t k = 0; k < num_nodes; ++k) leaders[k] = k * g + j;
    const std::size_t first = std::min<std::size_t>(static_cast<std::size_t>(j) * ic, total);
    const std::size_t count = std::min(ic, total - first);
    const std::size_t sub = (count + num_nodes - 1) / num_nodes;
    for (std::uint32_t s = 0; s < num_nodes; ++s) {
      const std::size_t sub_first = std::min(first + static_cast<std::size_t>(s) * sub,
                                             first + count);
      const std::size_t sub_count = std::min(sub, first + count - sub_first);
      // Stage B: spliced reduce-scatter + all-gather chains, exactly the
      // flat all-reduce shape but over the leader ring at trunk blocks.
      std::vector<Hop> hops = ring_chain(leaders, (s + 1) % num_nodes, /*reduce=*/true);
      const std::vector<Hop> gather = ring_chain(leaders, s, /*reduce=*/false);
      hops.insert(hops.end(), gather.begin(), gather.end());
      stages[1].push_back(
          std::make_unique<ChunkTask>(rs, std::move(hops), sub_first, sub_count, trunk_lpb));
    }
  }
}

/// Members (ascending rank ids) whose GPUs the health monitor still
/// believes alive.
std::vector<std::uint32_t> alive_members(const MultiGpuSystem& sys,
                                         const std::vector<std::uint32_t>& members) {
  const HealthMonitor* health = sys.health();
  std::vector<std::uint32_t> alive;
  alive.reserve(members.size());
  for (const std::uint32_t r : members) {
    if (!health->endpoint_down(sys.gpu_endpoint(r))) alive.push_back(r);
  }
  return alive;
}

}  // namespace

double collective_bus_factor(CollectiveKind kind, std::uint32_t ranks) noexcept {
  const double n = ranks;
  switch (kind) {
    case CollectiveKind::kAllReduce:
      return 2.0 * (n - 1.0) / n;
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      return (n - 1.0) / n;
    case CollectiveKind::kBroadcast:
      return 1.0;
  }
  return 0.0;
}

std::string_view to_string(CollectiveKind kind) noexcept {
  switch (kind) {
    case CollectiveKind::kAllReduce:
      return "allreduce";
    case CollectiveKind::kAllGather:
      return "allgather";
    case CollectiveKind::kReduceScatter:
      return "reducescatter";
    case CollectiveKind::kBroadcast:
      return "broadcast";
  }
  return "?";
}

std::string_view to_string(CollectiveFill fill) noexcept {
  switch (fill) {
    case CollectiveFill::kZero:
      return "zero";
    case CollectiveFill::kLowRange:
      return "lowrange";
    case CollectiveFill::kRamp:
      return "ramp";
    case CollectiveFill::kRandom:
      return "random";
  }
  return "?";
}

std::string_view to_string(ReduceOp op) noexcept {
  return op == ReduceOp::kSum ? "sum" : "max";
}

std::string_view to_string(CollectiveAlgo algo) noexcept {
  switch (algo) {
    case CollectiveAlgo::kAuto:
      return "auto";
    case CollectiveAlgo::kFlat:
      return "flat";
    case CollectiveAlgo::kHier:
      return "hier";
  }
  return "?";
}

bool parse_collective_kind(std::string_view s, CollectiveKind* out) noexcept {
  for (const CollectiveKind k : {CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
                                 CollectiveKind::kReduceScatter, CollectiveKind::kBroadcast}) {
    if (s == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool parse_collective_fill(std::string_view s, CollectiveFill* out) noexcept {
  for (const CollectiveFill f : {CollectiveFill::kZero, CollectiveFill::kLowRange,
                                 CollectiveFill::kRamp, CollectiveFill::kRandom}) {
    if (s == to_string(f)) {
      *out = f;
      return true;
    }
  }
  return false;
}

bool parse_collective_algo(std::string_view s, CollectiveAlgo* out) noexcept {
  for (const CollectiveAlgo a :
       {CollectiveAlgo::kAuto, CollectiveAlgo::kFlat, CollectiveAlgo::kHier}) {
    if (s == to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

CollectiveOutcome run_collective(MultiGpuSystem& sys, const CollectiveConfig& cfg) {
  const std::uint32_t n = sys.config().num_gpus;
  MGCOMP_CHECK(cfg.lines_per_rank > 0);
  MGCOMP_CHECK(cfg.window > 0);
  MGCOMP_CHECK_MSG(cfg.lines_per_block > 0, "lines_per_block must be >= 1");
  MGCOMP_CHECK_MSG(cfg.max_attempts > 0, "CollectiveConfig::max_attempts must be > 0");
  MGCOMP_CHECK_MSG(cfg.kind != CollectiveKind::kBroadcast || cfg.root < n,
                   "broadcast root out of range");

  // Schedule-family selection. The hierarchical schedule needs a real
  // node grouping (1 < g < n dividing n) and only exists for all-reduce;
  // kAuto additionally requires the fabric to actually be hierarchical —
  // on flat fabrics the node grouping buys nothing, so auto stays flat.
  const ResolvedTopology& topo = sys.topology();
  const std::uint32_t gpn = topo.hier.gpus_per_node;
  const bool hier_capable = cfg.kind == CollectiveKind::kAllReduce && gpn > 1 && gpn < n &&
                            n % gpn == 0;
  if (cfg.algo == CollectiveAlgo::kHier) {
    MGCOMP_CHECK_MSG(hier_capable,
                     "CollectiveAlgo::kHier requires an all-reduce with "
                     "1 < gpus_per_node < num_gpus and gpus_per_node | num_gpus");
  }
  const bool use_hier =
      cfg.algo == CollectiveAlgo::kHier ||
      (cfg.algo == CollectiveAlgo::kAuto && hier_capable && topo.fabric == FabricKind::kHier);
  const std::uint32_t trunk_lpb = std::min<std::uint32_t>(
      cfg.trunk_lines_per_block == 0 ? kLinesPerPage : cfg.trunk_lines_per_block,
      kLinesPerPage);

  RankSpace space(sys.memory(), sys.address_map(), cfg.lines_per_rank,
                  "coll:" + std::string(to_string(cfg.kind)));

  CollectiveStats st;
  st.op = std::string(to_string(cfg.kind));
  st.ranks = n;
  st.chunks = n;
  st.bytes_per_rank = cfg.lines_per_rank * kLineBytes;
  st.bus_factor = collective_bus_factor(cfg.kind, n);
  st.lines_per_block = std::min<std::uint32_t>(cfg.lines_per_block, kLinesPerPage);

  std::vector<std::uint32_t> members(n);
  for (std::uint32_t r = 0; r < n; ++r) members[r] = r;

  CollectiveOutcome out;
  const Tick start = sys.engine().now();
  std::size_t chunk_lines = 0;
  Tick last_done = start;
  bool shrunk = false;
  bool success = false;

  // Attempt loop. Each iteration either succeeds, retries the same ring
  // (bounded by max_attempts), shrinks the ring (members strictly
  // decreases, bounded below by kMinGpus), or gives up — so it terminates.
  while (true) {
    ++out.attempts;
    const auto m = static_cast<std::uint32_t>(members.size());
    chunk_lines = (cfg.lines_per_rank + m - 1) / m;
    fill_inputs(sys, space, cfg, members, chunk_lines);

    RunState rs{&sys, &space, cfg, &st, sys.engine().now(), sys.health()};

    // A shrunk ring breaks the node grouping, so a shrink retry falls back
    // to the flat schedule (the hierarchical fabric forbids fail-stop
    // episodes anyway, so this only triggers when the algo was forced).
    const bool hier_attempt = use_hier && members.size() == n;
    st.algo = hier_attempt ? "hier" : "flat";
    st.nodes = hier_attempt ? n / gpn : 1;
    st.trunk_lines_per_block = hier_attempt ? trunk_lpb : 0;

    // Broadcast's chain starts at the root's member slot (== cfg.root on a
    // full ring; recomputed after a shrink).
    std::uint32_t root_slot = 0;
    if (cfg.kind == CollectiveKind::kBroadcast) {
      const auto it = std::find(members.begin(), members.end(), cfg.root);
      MGCOMP_CHECK(it != members.end());  // root death fails before retry
      root_slot = static_cast<std::uint32_t>(it - members.begin());
    }

    // One task per (chunk, phase chain), grouped into stages that drain
    // one after another (the flat schedule is a single stage; the
    // hierarchical one needs barriers between its levels because stage
    // N+1's sources are only reduced once stage N fully lands). Tasks are
    // owned here; callbacks borrow raw pointers that stay valid until the
    // stage's engine().run() returns.
    std::vector<std::vector<std::unique_ptr<ChunkTask>>> stages;
    if (hier_attempt) {
      build_hier_stages(rs, n, gpn, trunk_lpb, stages);
    } else {
      stages.resize(1);
      for (std::uint32_t c = 0; c < m; ++c) {
        const std::size_t first = std::min<std::size_t>(
            static_cast<std::size_t>(c) * chunk_lines, cfg.lines_per_rank);
        const std::size_t count = std::min(chunk_lines, cfg.lines_per_rank - first);
        switch (cfg.kind) {
          case CollectiveKind::kReduceScatter:
            // Start at slot c+1 so the chain's final destination is slot c.
            stages[0].push_back(std::make_unique<ChunkTask>(
                rs, ring_chain(members, (c + 1) % m, /*reduce=*/true), first, count,
                cfg.lines_per_block));
            break;
          case CollectiveKind::kAllGather:
            stages[0].push_back(std::make_unique<ChunkTask>(
                rs, ring_chain(members, c, /*reduce=*/false), first, count,
                cfg.lines_per_block));
            break;
          case CollectiveKind::kAllReduce: {
            // Reduce-scatter phase then all-gather phase, spliced into one
            // hop list per chunk: the gather chain starts at slot c, exactly
            // where the reduce chain deposited chunk c's full reduction.
            std::vector<Hop> hops = ring_chain(members, (c + 1) % m, /*reduce=*/true);
            const std::vector<Hop> gather = ring_chain(members, c, /*reduce=*/false);
            hops.insert(hops.end(), gather.begin(), gather.end());
            stages[0].push_back(std::make_unique<ChunkTask>(rs, std::move(hops), first, count,
                                                            cfg.lines_per_block));
            break;
          }
          case CollectiveKind::kBroadcast:
            stages[0].push_back(std::make_unique<ChunkTask>(
                rs, ring_chain(members, root_slot, /*reduce=*/false), first, count,
                cfg.lines_per_block));
            break;
        }
      }
    }
    for (auto& stage : stages) {
      if (rs.aborted) break;  // a doomed attempt skips its later stages
      for (auto& t : stage) t->start();
      sys.engine().run();
    }
    last_done = rs.last_done;

    if (!rs.aborted) {
      success = true;
      break;
    }
    out.error = rs.error;

    // The drain above ran every queued event — flap-end episodes, probe
    // chains, heartbeat misses — so believed health is now current.
    const std::vector<std::uint32_t> alive = alive_members(sys, members);
    if (alive.size() < members.size()) {
      // A GPU fail-stopped; a full-ring retry can never complete.
      if (cfg.kind == CollectiveKind::kBroadcast &&
          std::find(alive.begin(), alive.end(), cfg.root) == alive.end()) {
        break;  // the only defined input died with its GPU
      }
      if (!cfg.allow_shrink) break;  // keep the abort error as the verdict
      if (alive.size() < kMinGpus) {
        out.error.kind = CollectiveErrorKind::kShrinkRejected;
        break;
      }
      members = alive;
      shrunk = true;
      continue;
    }
    // Links only (flap or down window): time already advanced past the
    // episode; if the link RECOVERED, a full-ring retry from refilled
    // inputs reproduces the reference digest bit-exactly.
    if (out.attempts >= cfg.max_attempts) {
      out.error.kind = CollectiveErrorKind::kRetriesExhausted;
      break;
    }
  }

  st.duration = last_done > start ? last_done - start : 0;
  st.payload_bytes = st.line_transfers * kLineBytes;
  st.chunks = static_cast<std::uint32_t>(members.size());

  out.surviving_ranks = std::move(members);
  if (success) {
    FingerprintHasher digest;
    out.verified = verify_outputs(sys, space, cfg, out.surviving_ranks, chunk_lines, digest);
    out.data_digest = digest.value();
    out.partial = shrunk;
    out.status = (shrunk || out.attempts > 1) ? CollectiveStatus::kDegraded
                                              : CollectiveStatus::kCompleted;
  } else {
    out.status = CollectiveStatus::kFailed;
  }
  out.run = sys.collect_result("coll:" + std::string(to_string(cfg.kind)));
  out.run.collective = std::move(st);
  return out;
}

std::uint64_t collective_fingerprint(const CollectiveOutcome& o) {
  FingerprintHasher f;
  f.add_u64(o.data_digest);
  f.add_byte(o.verified ? 1 : 0);
  const CollectiveStats& st = o.run.collective;
  f.add_str(st.op);
  f.add_u64(st.ranks);
  f.add_u64(st.chunks);
  f.add_u64(st.steps);
  f.add_u64(st.line_transfers);
  f.add_u64(st.reduced_lines);
  f.add_u64(st.bytes_per_rank);
  f.add_u64(st.payload_bytes);
  f.add_u64(st.duration);
  f.add_double(st.bus_factor);
  f.add_str(o.run.policy);
  f.add_u64(o.run.exec_ticks);
  f.add_u64(o.run.bus.inter_gpu_messages);
  f.add_u64(o.run.bus.inter_gpu_wire_bytes);
  f.add_u64(o.run.bus.inter_gpu_payload_raw_bits);
  f.add_u64(o.run.bus.inter_gpu_payload_wire_bits);
  f.add_u64(o.run.bus.busy_cycles);
  f.add_u64(o.run.link.crc_failures);
  f.add_u64(o.run.link.hard_failures);
  return f.value();
}

}  // namespace mgcomp
