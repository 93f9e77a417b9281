/// \file protocol.hpp
/// \brief The coloring protocol of Sect. 4 — Algorithms 1, 2 and 3 as a
///        single per-node state machine driven by the radio engine.
///
/// State diagram (Fig. 2):
///
///     Z ──wake──▶ A₀ ──c_v ≥ σΔlog n──▶ C₀ (leader)
///                 │ M_C⁰                      │ serves FIFO queue of
///                 ▼                           │ M_R requests with
///                 R ──M_C⁰(L(v),v,tc)──▶ A_{tc(κ₂+1)} ─▶ … ─▶ C_i
///                                             │ M_C^i
///                                             ▼
///                                           A_{i+1}
///
/// Faithfulness notes (mapped to paper lines):
///  * passive phase of ⌈αΔ log n⌉ slots on every A_i entry (Alg. 1 l. 4);
///  * competitor list P_v stores one key d − slot per competitor; the
///    per-slot +1 aging of d_v(w) (Alg. 1 l. 5/18) is computed lazily as
///    key + now;
///  * reset to χ(P_v) only when a received counter is within the critical
///    range ⌈γζ_i log n⌉ (Alg. 1 l. 29);
///  * threshold test precedes the transmission attempt within a slot
///    (Alg. 1 l. 19 before l. 22), and a node that decides starts behaving
///    as C_i in the same slot;
///  * leaders keep a requester in the queue for the whole ⌈β log n⌉
///    broadcast window and re-admit it afterwards if it requests again
///    (Alg. 3 l. 10 checks only current queue membership) — the optional
///    `remember_served` extension suppresses re-admission (ablation A3);
///  * any message from a node in C₀ (beacon or assignment) identifies a
///    leader to an A₀ listener (Fig. 2 transition M_C⁰).
///
/// **Draw-order spec v1** (fixed in PR 5, preserved verbatim since):
/// every node draws only from its own `mix_seed(seed, id)` xoshiro
/// stream, in its awake-list visit order — (wake slot, id) ascending
/// while the network is waking, id-ascending once all nodes are awake —
/// and the medium draws drop chances from `mix_seed(seed, 0xFADED)` in
/// first-touch listener order.  The engine (on either medium), the naive
/// reference engine and both protocol sweeps (the scalar `on_slot` loop
/// and the SoA `batch_slots` pass) implement this same sequence, which
/// is what makes them bit-comparable; `tests/test_reference_diff.cpp`
/// is the arbiter.  Changing the spec (a v2) means re-baselining every
/// exact key under bench/.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "radio/engine.hpp"
#include "radio/message.hpp"
#include "support/check.hpp"
#include "support/containers.hpp"
#include "support/rng.hpp"

namespace urn::core {

using graph::NodeId;
using radio::Slot;

/// Top-level protocol states (A_i and C_i carry the color index i).
enum class Phase : std::uint8_t {
  kVerify,   ///< A_i: verifying / competing for color i (Algorithm 1)
  kRequest,  ///< R: requesting an intra-cluster color (Algorithm 2)
  kDecided,  ///< C_i: color i fixed (Algorithm 3)
};

/// Algorithm 3 state of one leader (C₀): the FIFO request queue Q, the
/// requesters already served and the assignment window in progress.  Only
/// leaders need it, so it lives in the `ColoringHot::leaders` pool and a
/// node gets its entry on its C₀ decision.
struct LeaderState {
  RingQueue<NodeId> queue;           ///< FIFO request queue Q
  std::vector<NodeId> served;        ///< requesters already served
  std::int32_t next_tc = 0;          ///< running intra-cluster color
  std::int32_t serve_tc = 0;         ///< tc of the window in progress
  std::int64_t serve_remaining = 0;  ///< slots left in the current window
};

/// Engine-owned block holding every piece of `ColoringNode` state that is
/// the same for all nodes of a run, or that is better stored per run than
/// per node.  The engine constructs one block per run from the graph and
/// attaches every node to it (`attach_hot`); a node indexes the arrays
/// with its own id.
///
///  * The per-slot state (`klass`, `counter`, `activate_at`) is a
///    structure of arrays, so the hot sweep streams three small arrays
///    instead of striding over node records.
///  * The Params-derived scalars are identical for every node (all nodes
///    are built from one immutable `Params`) and are published once by
///    the first `attach_hot`.
///  * The competitor lists P_v share one store with a slot per directed
///    edge, aligned with the graph's CSR adjacency: P_v ⊆ N(v) (a node
///    hears only its neighbours), so v's deg(v) slots bound its list, the
///    2|E| slots bound all of them at once, and no node allocates.  v's
///    list occupies the first |P_v| of its slots in arrival order, as
///    parallel (id, key) arrays; the key is d − stamp of the stored
///    counter copy d_v(w), aged lazily: d_v(w) at slot `now` is key + now.
///  * Leader-only Algorithm 3 state is pooled in `leaders`.
///  * The work-proportional sweep state: a per-block skip deadline
///    (`sweep_at`) and a decision count (`decisions`), see below.
///
/// `klass` collapses the (phase, active, leader?) triple into one byte,
/// ordered so the per-slot dispatch and the decided test are each a
/// single compare.  Invariants: `kLeader` ⟺ decided with color 0 (only
/// an A₀ threshold decision yields color 0), `kCount` ⟺ actively
/// counting, and the checkpoint codec round-trips through the (phase,
/// active) pair of the URNC v1 layout.
struct ColoringHot {
  enum Klass : std::uint8_t {
    kPassive = 0,       ///< A_i, passive listening (Alg. 1 l. 4–14)
    kCount = 1,         ///< A_i, actively counting (Alg. 1 l. 15–26)
    kRequest = 2,       ///< R, requesting (Algorithm 2)
    kDecidedOther = 3,  ///< C_i with i > 0, announcing (Alg. 3 l. 4)
    kLeader = 4,        ///< C₀, serving its cluster (Algorithm 3)
  };

  /// Ids per sweep block: the identity sweep skips whole blocks of
  /// waiting passive nodes.
  static constexpr std::size_t kBlock = 64;
  /// `sweep_at` of a block that holds a node with work in every slot.
  static constexpr Slot kEverySlot = 0;

  /// A block for one run on `g`, which must outlive it.  The competitor
  /// store is left uninitialized (only the first |P_v| slots of a node
  /// are ever read), so a node's pages are touched only once it hears a
  /// competitor.
  explicit ColoringHot(const graph::Graph& g)
      : klass(g.num_nodes(), kPassive),
        counter(g.num_nodes(), 0),
        activate_at(g.num_nodes(), 0),
        sweep_at((g.num_nodes() + kBlock - 1) / kBlock, kEverySlot),
        graph(&g),
        competitor_ids(
            std::make_unique_for_overwrite<NodeId[]>(2 * g.num_edges())),
        competitor_keys(std::make_unique_for_overwrite<std::int64_t[]>(
            2 * g.num_edges())) {}

  /// O(1) decided test without touching the node object.
  [[nodiscard]] bool decided(NodeId v) const {
    return klass[v] >= kDecidedOther;
  }

  /// False when `on_receive(msg)` provably changes nothing at u, from
  /// the hot arrays alone: a C_i node with i > 0 ignores every frame
  /// (Alg. 3 l. 4), a leader acts only on a request addressed to it
  /// (Alg. 3 l. 10), a requester only on an assignment addressed to it
  /// (Alg. 2 l. 3; the sender check stays in `on_receive`), and no
  /// verifying node acts on a request.
  [[nodiscard]] bool listens(NodeId u, const radio::Message& msg) const {
    switch (klass[u]) {
      case kDecidedOther:
        return false;
      case kLeader:
        return msg.type == radio::MsgType::kRequest && msg.target == u;
      case kRequest:
        return msg.type == radio::MsgType::kAssign && msg.target == u;
      default:
        return msg.type != radio::MsgType::kRequest;
    }
  }

  /// First delivery-pass prefetch stage: u's state byte and counter.
  void prefetch_entries(NodeId u) const {
    __builtin_prefetch(klass.data() + u);
    __builtin_prefetch(counter.data() + u);
  }

  /// The engine stops running v (a crash, or a wake after one) while its
  /// next local slot would have been `next`: a waiting passive node's
  /// deadline turns into the countdown frozen at that slot.
  void freeze(NodeId v, Slot next) {
    if (klass[v] == kPassive) activate_at[v] -= next;
  }

  /// Make the identity sweep visit v's block again from the next slot.
  void rearm(NodeId v) { sweep_at[v / kBlock] = kEverySlot; }

  /// Cache the run's Params-derived scalars (the first `attach_hot`).
  void set_params(const Params* p) {
    params = p;
    threshold = p->threshold();
    p_active = p->p_active();
    p_leader = p->p_leader();
    passive_slots = p->passive_slots();
    assign_window = p->assign_window();
    critical_range0 = p->critical_range(0);
    critical_rangeN = p->critical_range(1);
  }

  std::vector<std::uint8_t> klass;   ///< state byte per node
  std::vector<std::int64_t> counter; ///< c_v
  /// For a kPassive node the engine runs: the local slot at which it
  /// activates (Alg. 1 l. 15), so waiting costs no per-slot store.  For
  /// every other node: the passive countdown URNC v1 stores, frozen when
  /// the node left the passive phase early (M_C⁰ heard: → R) or stopped
  /// running (0 before the wake and after activation).  `save_state` /
  /// `load_state` convert with the node's next local slot.
  std::vector<Slot> activate_at;
  /// Per block of kBlock ids: the identity sweep skips the block at
  /// slots before this one.  A swept block whose nodes are all waiting
  /// passive nodes records their earliest `activate_at`; any other block
  /// records kEverySlot.  Entering A_i and leaving the passive phase on a
  /// reception re-arm the node's block (`rearm`).
  std::vector<Slot> sweep_at;
  /// Decisions taken so far; the engine scans its undecided list only on
  /// ticks where this moved.
  std::uint64_t decisions = 0;

  // Params-derived scalars shared by every node of a run; the batched
  // sweep compares against them in registers.  `threshold()` and the
  // critical ranges hide a std::log, so they are computed once per run.
  const Params* params = nullptr;
  std::int64_t threshold = 0;        ///< ⌈σΔ log n⌉
  double p_active = 0.0;             ///< 1/(κ₂Δ)
  double p_leader = 0.0;             ///< 1/κ₂
  std::int64_t passive_slots = 0;    ///< ⌈αΔ log n⌉
  std::int64_t assign_window = 0;    ///< ⌈β log n⌉
  std::int64_t critical_range0 = 0;  ///< ζ = 1 (color index 0)
  std::int64_t critical_rangeN = 0;  ///< ζ = Δ (color index > 0)

  const graph::Graph* graph = nullptr;  ///< the run's graph (CSR layout)
  /// 2|E| competitor slots, v's at [adjacency_offset(v), +degree(v)):
  /// the sender w (the scan key) and d_v(w) − stamp.
  std::unique_ptr<NodeId[]> competitor_ids;
  std::unique_ptr<std::int64_t[]> competitor_keys;

  std::vector<LeaderState> leaders;  ///< one entry per C₀ node
};

/// Per-node event counters for experiments and ablations.
struct NodeStats {
  std::uint32_t resets = 0;            ///< counter resets via Alg. 1 l. 29
  std::uint32_t verify_states = 0;     ///< number of A_i states entered
  std::uint32_t assignments_heard = 0; ///< intra-cluster colors received
  std::uint32_t duplicate_serves = 0;  ///< leader only: re-served requesters
};

/// One state-machine transition, recorded for tracing/verification.
/// The sequence of these per node must follow Fig. 2:
/// A₀ → {C₀ | R}, R → A_{tc(κ₂+1)}, A_i → {C_i | A_{i+1}} for i > 0.
/// When the engine carries an event sink, each record is also emitted as
/// an obs::EventKind::kPhase event (plus kReset / kServe for Alg. 1 l. 29
/// resets and Alg. 3 window completions).
struct Transition {
  Slot slot = 0;                ///< local slot of the transition
  Phase phase = Phase::kVerify; ///< state entered
  std::int32_t color_index = 0; ///< i of A_i / C_i (unused for R)
};

/// One protocol participant; plugged into radio::Engine<ColoringNode>.
///
/// Hot per-slot state (state byte, counter, passive deadline), the run's
/// Params-derived constants, the competitor list and the leader service
/// state live in an engine-owned `ColoringHot` block — see `Hot` /
/// `attach_hot`.  The node object keeps only its identity, its color
/// bookkeeping, stats and the transition log (≤ 96 bytes, asserted
/// below).  A node must be attached to a block before any callback runs;
/// the engines attach every node in their constructors, and unit tests
/// drive a node standalone by attaching it to a block built on a small
/// graph around it.
class ColoringNode {
 public:
  /// Engine-discovered SoA hot-state type (radio::HotStateOf).
  using Hot = ColoringHot;

  ColoringNode() = default;

  /// \param params shared parameter set (must outlive the node)
  /// \param id this node's identifier
  ///
  /// Cheap by design: the Params-derived constants are computed once per
  /// run, when the first node is attached to the block.
  ColoringNode(const Params* params, NodeId id) : params_(params), id_(id) {}

  /// Point this node at the run's block and reset its entries to the
  /// pre-wake state.  The first node attached publishes the run's
  /// Params-derived scalars into the block; every node of a run must be
  /// built from the same `Params`.
  void attach_hot(ColoringHot* hot) {
    hot_ = hot;
    URN_DCHECK(id_ < hot->klass.size());
    if (hot->params != params_) {
      URN_CHECK(hot->params == nullptr);  // one Params per run
      hot->set_params(params_);
    }
    hot->klass[id_] = ColoringHot::kPassive;
    hot->counter[id_] = 0;
    hot->activate_at[id_] = 0;
    hot->rearm(id_);
    slots_ = hot->graph->adjacency_offset(id_);
    competitors_ = 0;
  }

  // --- radio::NodeProtocol interface -------------------------------------

  void on_wake(radio::SlotContext& ctx);
  std::optional<radio::Message> on_slot(radio::SlotContext& ctx);
  void on_receive(radio::SlotContext& ctx, const radio::Message& msg);
  [[nodiscard]] bool decided() const {
    return hot_->klass[id_] >= ColoringHot::kDecidedOther;
  }

  /// Second delivery-pass prefetch stage (the engine prefetched this
  /// node object and its hot entries some listeners earlier): the
  /// competitor slots in use, which a verifying node's `on_receive`
  /// scans.
  void prefetch_receive() const {
    if (hot_->klass[id_] > ColoringHot::kCount) return;
    constexpr std::uint32_t kLine = 64;
    const auto* ids = reinterpret_cast<const char*>(competitor_ids());
    const auto* keys = reinterpret_cast<const char*>(competitor_keys());
    for (std::uint32_t b = 0; b < competitors_ * sizeof(NodeId); b += kLine) {
      __builtin_prefetch(ids + b);
    }
    for (std::uint32_t b = 0; b < competitors_ * sizeof(std::int64_t);
         b += kLine) {
      __builtin_prefetch(keys + b);
    }
  }

  /// One whole-slot protocol pass over the engine's awake list — the
  /// structure-of-arrays replacement for calling `on_slot` per node.
  /// Bit-identical to the scalar loop by construction (draw-order spec
  /// v1 of PR 5 is preserved exactly):
  ///
  ///  * nodes are visited in ascending awake-list position — the scalar
  ///    loop's exact order — so messages land in the same transmitter
  ///    order (which pins the medium-RNG drop-draw sequence under
  ///    drop_probability > 0);
  ///  * each node's own RNG consumption is unchanged: the fast classes
  ///    draw the one raw xoshiro word their scalar `chance(p_active)`
  ///    would, rephrased as an exact integer compare (see the proof at
  ///    the cutoff computation), and the cold classes (activation with
  ///    its χ reset and possible threshold decision, leader service) run
  ///    the full scalar `on_slot`.
  ///
  /// The win over the scalar loop is mechanical, not semantic: one
  /// branch on the hot `klass` byte instead of the nested phase
  /// dispatch, no per-node SlotContext / std::optional<Message>
  /// construction on the non-transmitting fast path, and a Bernoulli
  /// compare against a precomputed integer cutoff instead of an
  /// int→double conversion + double compare per draw.  On the identity
  /// sweep (every node awake and live) a block of kBlock ids whose nodes
  /// all wait out their passive phase is skipped until the earliest
  /// deadline among them (`ColoringHot::sweep_at`): a waiting passive
  /// node draws nothing and changes nothing, so skipping it is exact.
  /// Only called on untraced engines (no sink), where `ctx.tracing()` is
  /// false for every node.
  static void batch_slots(ColoringHot& hot, const NodeId* awake,
                          std::size_t count, Slot now, ColoringNode* nodes,
                          Rng* rngs, std::vector<radio::Message>& out);

 private:
  /// The irregular minority of `batch_slots` node-slots (activation with
  /// its χ reset and possible threshold decision, leader service): runs
  /// the full scalar `on_slot`, so RNG consumption and message position
  /// match the scalar loop trivially.  Deliberately defined out of line
  /// (protocol.cpp) — with `on_slot` expanded in place the fused loop
  /// grows past what the compiler will keep in registers (measured ~25%
  /// throughput loss).
  static void batch_cold_slot(NodeId v, Slot now, ColoringNode* nodes,
                              Rng* rngs, std::vector<radio::Message>& out);

  /// The `sweep_at` entry of block [lo, hi) right after its sweep: the
  /// earliest deadline when every node in it waits in the passive phase,
  /// else ColoringHot::kEverySlot.
  static Slot waiting_until(const std::uint8_t* klass, const Slot* activate_at,
                            std::size_t lo, std::size_t hi);

 public:

  // --- inspection ---------------------------------------------------------

  [[nodiscard]] Phase phase() const {
    const std::uint8_t k = hot_->klass[id_];
    if (k <= ColoringHot::kCount) return Phase::kVerify;
    return k == ColoringHot::kRequest ? Phase::kRequest : Phase::kDecided;
  }
  /// Final color (graph::kUncolored until decided).
  [[nodiscard]] graph::Color color() const {
    return decided() ? color_index_ : graph::kUncolored;
  }
  /// Color index currently verified (only meaningful in kVerify).
  [[nodiscard]] std::int32_t verifying_color() const { return color_index_; }
  [[nodiscard]] bool is_leader() const {
    return hot_->klass[id_] == ColoringHot::kLeader;
  }
  /// Leader this node associated with (kInvalidNode for leaders / pre-R).
  [[nodiscard]] NodeId leader() const { return leader_; }
  /// Intra-cluster color received from the leader (−1 before assignment).
  [[nodiscard]] std::int32_t intra_cluster_color() const { return tc_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t counter() const { return hot_->counter[id_]; }
  /// Current competitor-list size |P_v|.
  [[nodiscard]] std::size_t competitors() const { return competitors_; }
  /// The node's state-transition history (capped at kMaxTransitions).
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  /// Transition-log capacity; a well-behaved run needs ≤ κ₂ + 3 entries.
  static constexpr std::size_t kMaxTransitions = 256;

  // --- postmortem checkpointing -------------------------------------------

  /// Serialize every mutable protocol field (the Params-derived caches
  /// are rebuilt from the scenario and are skipped).  Layout is part of
  /// the URNC checkpoint format.  Competitors are written in arrival
  /// order with their key as the value and a stamp of 0: aging and χ
  /// depend only on value − stamp.  `next` is the local slot the engine
  /// runs the node in next, or radio::kNotRunning for a node it does not
  /// run (asleep or crashed): v1 stores a passive countdown, which is
  /// the deadline minus `next`.
  void save_state(obs::postmortem::Writer& w, Slot next) const;

  /// Restore fields written by `save_state` into a node constructed with
  /// the same (params, id) and attached to its run's block; `next` as
  /// for `save_state`.  Returns false on a truncated or corrupt buffer —
  /// including a competitor that is not a neighbour, a competitor listed
  /// twice, or leader service state on a node that is not a leader.
  [[nodiscard]] bool load_state(obs::postmortem::Reader& r, Slot next);

 private:
  /// Enter A_i; `first_slot` is the node's next local slot, where its
  /// passive phase starts.
  void enter_verify(std::int32_t color_index, Slot first_slot,
                    const radio::SlotContext& ctx);
  void enter_decided(std::int32_t color_index, const radio::SlotContext& ctx);
  void record_transition(Slot slot, const radio::SlotContext& ctx);
  void store_competitor(NodeId who, std::int64_t value, Slot now);
  void clear_competitors() { competitors_ = 0; }
  [[nodiscard]] NodeId* competitor_ids() const {
    return hot_->competitor_ids.get() + slots_;
  }
  [[nodiscard]] std::int64_t* competitor_keys() const {
    return hot_->competitor_keys.get() + slots_;
  }
  [[nodiscard]] std::int64_t chi_of_competitors(Slot now) const;
  [[nodiscard]] LeaderState& leader_state() {
    return hot_->leaders[leader_state_];
  }
  /// This node's leader-pool entry, taken on first use.
  LeaderState& claim_leader_state();
  std::optional<radio::Message> leader_slot(radio::SlotContext& ctx);
  std::optional<radio::Message> count_slot(radio::SlotContext& ctx);

  /// ⌈γζ_i log n⌉ for the current color index, from the cached pair.
  [[nodiscard]] std::int64_t critical_range_now() const {
    return color_index_ == 0 ? hot_->critical_range0 : hot_->critical_rangeN;
  }

  static constexpr std::uint32_t kNoLeaderState = ~std::uint32_t{0};

  // Everything shared by the run, the per-slot state, P_v and the leader
  // service state live in the block; the fields kept here are read on
  // transitions, receive events, or only for the transmitting minority
  // of slots.
  ColoringHot* hot_ = nullptr;    ///< the run's block (attach_hot)
  const Params* params_ = nullptr;  ///< published into the block on attach
  NodeId id_ = graph::kInvalidNode;
  std::int32_t color_index_ = 0;  ///< i of the current A_i / C_i
  std::int32_t tc_ = -1;          ///< intra-cluster color
  NodeId leader_ = graph::kInvalidNode;  ///< L(v)
  /// v's competitor slots start here in the block's store (its CSR
  /// offset, cached: the receive path then needs no graph lookup).
  std::uint32_t slots_ = 0;
  /// |P_v|: v's first |P_v| competitor slots are in use, so clearing
  /// the list is this one store.
  std::uint32_t competitors_ = 0;
  std::uint32_t leader_state_ = kNoLeaderState;  ///< index in hot_->leaders

  NodeStats stats_;
  std::vector<Transition> transitions_;
};

// ---- hot-path definitions -------------------------------------------------
// `on_slot` (and the leader service slot it dispatches to) runs once per
// node per slot inside the engine's fully-inlined loop; defining it here
// lets the engine template inline it instead of paying an out-of-line
// call (and a by-value std::optional<Message> return) per node-slot.

inline std::optional<radio::Message> ColoringNode::on_slot(
    radio::SlotContext& ctx) {
  switch (hot_->klass[id_]) {
    case ColoringHot::kPassive: {
      // Passive listening phase (Alg. 1 l. 4–14): d_v(w) copies age
      // implicitly; no transmissions.
      Slot& at = hot_->activate_at[id_];
      if (ctx.now < at) return std::nullopt;
      at = 0;  // the countdown v1 stores from here on
      // c_v := χ(P_v) (Alg. 1 l. 15), then become active.  The naive /
      // no-reset ablations skip χ and start from 0.
      hot_->counter[id_] =
          (hot_->params->reset_policy == ResetPolicy::kCriticalRange)
              ? chi_of_competitors(ctx.now)
              : 0;
      hot_->klass[id_] = ColoringHot::kCount;
      return count_slot(ctx);
    }

    case ColoringHot::kCount:
      return count_slot(ctx);

    case ColoringHot::kRequest: {
      // Alg. 2 l. 2: transmit M_R(v, L(v)) with probability 1/(κ₂Δ).
      if (ctx.random().chance(hot_->p_active)) {
        return radio::make_request(id_, leader_);
      }
      return std::nullopt;
    }

    case ColoringHot::kLeader:
      return leader_slot(ctx);

    default: {  // kDecidedOther
      // Alg. 3 l. 4: non-leader C_i keeps announcing its color.
      if (ctx.random().chance(hot_->p_active)) {
        return radio::make_decided(id_, color_index_);
      }
      return std::nullopt;
    }
  }
}

inline std::optional<radio::Message> ColoringNode::count_slot(
    radio::SlotContext& ctx) {
  std::int64_t& counter = hot_->counter[id_];
  ++counter;  // Alg. 1 l. 17
  if (counter >= hot_->threshold) {
    // Alg. 1 l. 19–20: decide color i and start Algorithm 3 at once.
    enter_decided(color_index_, ctx);
    return on_slot(ctx);
  }
  if (ctx.random().chance(hot_->p_active)) {
    return radio::make_compete(id_, color_index_, counter);
  }
  return std::nullopt;
}

inline std::optional<radio::Message> ColoringNode::leader_slot(
    radio::SlotContext& ctx) {
  LeaderState& l = leader_state();
  // Start serving the next request if idle (Alg. 3 l. 15–17).
  if (l.serve_remaining == 0 && !l.queue.empty()) {
    l.serve_tc = ++l.next_tc;
    l.serve_remaining = hot_->assign_window;
  }
  if (l.serve_remaining > 0) {
    const NodeId target = l.queue.front();
    --l.serve_remaining;
    const bool transmit = ctx.random().chance(hot_->p_leader);
    if (l.serve_remaining == 0) {
      // Window exhausted: remove w from Q (Alg. 3 l. 21).
      l.served.push_back(target);
      l.queue.pop_front();
      if (ctx.tracing()) {
        ctx.emit(obs::Event::serve(ctx.now, id_, target, l.serve_tc));
      }
    }
    if (transmit) return radio::make_assign(id_, target, l.serve_tc);
    return std::nullopt;
  }
  // Idle beacon (Alg. 3 l. 13–14).
  if (ctx.random().chance(hot_->p_leader)) {
    return radio::make_decided(id_, 0);
  }
  return std::nullopt;
}

inline void ColoringNode::batch_slots(ColoringHot& hot, const NodeId* awake,
                                      std::size_t count, Slot now,
                                      ColoringNode* nodes, Rng* rngs,
                                      std::vector<radio::Message>& out) {
  const double p = hot.p_active;
  if (!(p > 0.0 && p < 1.0)) {
    // Degenerate transmit probability: `chance(p)` consumes no
    // randomness, so there is nothing to batch — run the scalar slots.
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId v = awake[i];
      radio::SlotContext ctx;
      ctx.id = v;
      ctx.now = now;
      ctx.rng = &rngs[v];
      if (std::optional<radio::Message> msg = nodes[v].on_slot(ctx)) {
        out.push_back(*msg);
      }
    }
    return;
  }

  // Exact integer form of the Bernoulli draw.  `uniform() < p` computes
  // (double)u · 2⁻⁵³ < p with u = (x >> 11) ∈ [0, 2⁵³); every step is
  // exact (u has ≤ 53 significant bits, and scaling by a power of two
  // neither rounds nor over/underflows here), so the comparison holds
  // iff u < p·2⁵³ over the reals, iff u < ⌈p·2⁵³⌉ for integral u.  With
  // 0 < p < 1, p·2⁵³ and its ceiling are themselves computed exactly in
  // double, so the cutoff is the true ⌈p·2⁵³⌉ and the integer compare
  // reproduces the double compare bit-for-bit — while keeping the draw
  // free of the int→double conversion on the critical path.
  const auto tx_cut = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));

  std::uint8_t* klass = hot.klass.data();
  std::int64_t* counter = hot.counter.data();
  const Slot* activate_at = hot.activate_at.data();
  const std::int64_t threshold = hot.threshold;

  // One node-slot in scalar node order.  The branch chain is ordered by
  // late-run frequency: once a node decides it spends every further slot
  // in kDecidedOther, so long runs are dominated by the first test, a
  // one-byte load + compare + one RNG draw per node-slot.  The irregular
  // work (activation, threshold decisions, leader service) lives out of
  // line in `batch_cold_slot` so the loop body stays small enough for the
  // compiler to keep its state in registers.
  const auto visit = [&](NodeId v) __attribute__((always_inline)) {
    const std::uint8_t k = klass[v];
    if (k == ColoringHot::kDecidedOther) {
      // Alg. 3 l. 4: non-leader C_i keeps announcing its color.
      if ((rngs[v]() >> 11) < tx_cut) {
        out.push_back(radio::make_decided(v, nodes[v].color_index_));
      }
    } else if (k == ColoringHot::kCount) {
      const std::int64_t c = counter[v] + 1;  // Alg. 1 l. 17
      if (c >= threshold) {
        batch_cold_slot(v, now, nodes, rngs, out);  // decides (re-increments)
      } else {
        counter[v] = c;
        if ((rngs[v]() >> 11) < tx_cut) {
          out.push_back(radio::make_compete(v, nodes[v].color_index_, c));
        }
      }
    } else if (k == ColoringHot::kPassive) {
      // Alg. 1 l. 4–14: listen silently until the deadline.
      if (now >= activate_at[v]) {
        batch_cold_slot(v, now, nodes, rngs, out);  // activates (χ, …)
      }
    } else if (k == ColoringHot::kRequest) {
      // Alg. 2 l. 2: transmit M_R(v, L(v)) with probability 1/(κ₂Δ).
      if ((rngs[v]() >> 11) < tx_cut) {
        out.push_back(radio::make_request(v, nodes[v].leader_));
      }
    } else {  // kLeader
      batch_cold_slot(v, now, nodes, rngs, out);  // Algorithm 3 service
    }
  };

  // The awake list holds distinct live node ids and is id-sorted from
  // the slot the last node wakes, so a full list IS the identity
  // permutation: walk ids directly and spare the hot loop one dependent
  // load per node-slot.  This is the steady state of every long run
  // (all awake, none deactivated), and the only sweep that skips blocks:
  // it starts at the tick the last node wakes and ends for good at the
  // first crash, so no block it skips can hold a node woken meanwhile.
  if (count != hot.klass.size()) {
    for (std::size_t i = 0; i < count; ++i) visit(awake[i]);
    return;
  }
  Slot* sweep_at = hot.sweep_at.data();
  for (std::size_t lo = 0, b = 0; lo < count; lo += ColoringHot::kBlock, ++b) {
    if (now < sweep_at[b]) continue;  // every node in it is still waiting
    const std::size_t hi = std::min(count, lo + ColoringHot::kBlock);
    for (std::size_t v = lo; v < hi; ++v) visit(static_cast<NodeId>(v));
    sweep_at[b] = waiting_until(klass, activate_at, lo, hi);
  }
}

inline Slot ColoringNode::waiting_until(const std::uint8_t* klass,
                                        const Slot* activate_at,
                                        std::size_t lo, std::size_t hi) {
  // A node still kPassive after its sweep waits past `now` (one whose
  // deadline came activated in it).  Blocks with work exit at once.
  for (std::size_t v = lo; v < hi; ++v) {
    if (klass[v] != ColoringHot::kPassive) return ColoringHot::kEverySlot;
  }
  return *std::min_element(activate_at + lo, activate_at + hi);
}

static_assert(radio::NodeProtocol<ColoringNode>);
static_assert(sizeof(ColoringNode) <= 96,
              "per-node state belongs in ColoringHot, not the node object");

}  // namespace urn::core
