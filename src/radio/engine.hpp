/// \file engine.hpp
/// \brief The slotted radio-medium simulator (the unstructured radio
///        network model of Sect. 2).
///
/// One engine, two media.  The default `AlignedMedium` implements the
/// model exactly as specified:
///  * time is divided into discrete synchronized slots;
///  * in each slot a node either transmits or listens, never both;
///  * a node receives a message iff **exactly one** of its (open-)
///    neighborhood members transmits in that slot and the node itself is
///    listening — two or more transmitting neighbors collide silently,
///    and **no collision detection** exists: the receiver cannot tell a
///    collision from silence, and the sender learns nothing;
///  * sleeping nodes (before their wake slot) neither send nor receive.
/// `HalfSlotMedium` (radio/misaligned_engine.hpp) is the non-aligned
/// variant the paper's Sect. 2 mentions; both plug into the same engine
/// shell as a compile-time policy.
///
/// The engine is a class template over the node-protocol type so that the
/// per-slot loop is fully inlined (the simulator sustains tens of millions
/// of node-slots per second on one core).  Protocols implement:
///
///     void on_wake(SlotContext&);
///     std::optional<Message> on_slot(SlotContext&);   // state step + tx decision
///     void on_receive(SlotContext&, const Message&);  // end-of-slot delivery
///     bool decided() const;                           // irrevocable color fixed
///
/// Receptions are delivered via `on_receive` after every slot that started
/// at the same tick has run, so state changes made there take effect in
/// the receiver's next slot, matching the paper's slot granularity.
///
/// **Observability.**  The engine's second template parameter is its
/// observer (obs/observer.hpp), defaulting to `obs::NullObserver`.  With
/// the default every hook is discarded at compile time (`if constexpr`),
/// so the hot loop is the uninstrumented loop.  An observer with events
/// receives wake / transmit / delivery / collision / drop / decision
/// events, and protocols get a hook in `SlotContext` through which they
/// emit their own (phase transitions, counter resets, serves).

#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "obs/event.hpp"
#include "obs/observer.hpp"
#include "obs/postmortem.hpp"
#include "obs/telemetry.hpp"
#include "radio/message.hpp"
#include "radio/wakeup.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace urn::radio {

// The obs layer mirrors MsgType as small integer codes; keep them in sync.
static_assert(static_cast<std::uint8_t>(MsgType::kCompete) ==
              static_cast<std::uint8_t>(obs::MsgCode::kCompete));
static_assert(static_cast<std::uint8_t>(MsgType::kDecided) ==
              static_cast<std::uint8_t>(obs::MsgCode::kDecided));
static_assert(static_cast<std::uint8_t>(MsgType::kAssign) ==
              static_cast<std::uint8_t>(obs::MsgCode::kAssign));
static_assert(static_cast<std::uint8_t>(MsgType::kRequest) ==
              static_cast<std::uint8_t>(obs::MsgCode::kRequest));

/// Per-node, per-slot view handed to protocol callbacks.
struct SlotContext {
  NodeId id = graph::kInvalidNode;
  Slot now = 0;        ///< global slot index
  Rng* rng = nullptr;  ///< per-node deterministic stream

  /// Optional event hook (set when the engine's observer takes events;
  /// null otherwise).  Protocols emit their protocol-level events through
  /// this.
  void* events_sink = nullptr;
  void (*events_fn)(void*, const obs::Event&) = nullptr;

  [[nodiscard]] Rng& random() const { return *rng; }

  /// True when events are observed (protocols may skip event construction).
  [[nodiscard]] bool tracing() const { return events_fn != nullptr; }
  void emit(const obs::Event& e) const {
    if (events_fn != nullptr) events_fn(events_sink, e);
  }
};

/// Node-protocol concept; see file comment for callback semantics.
template <typename P>
concept NodeProtocol = requires(P p, const P cp, SlotContext& ctx,
                                const Message& msg) {
  { p.on_wake(ctx) };
  { p.on_slot(ctx) } -> std::same_as<std::optional<Message>>;
  { p.on_receive(ctx, msg) };
  { cp.decided() } -> std::convertible_to<bool>;
};

// ---- SoA hot-state discovery ----------------------------------------------
// Data-oriented protocols keep their per-slot state in an engine-owned
// structure-of-arrays block instead of scattered across the node objects
// (core::ColoringHot is the exemplar).  A protocol opts in by declaring
//
//     using Hot = <block type>;               // constructible from the graph
//     void attach_hot(Hot*);                  // point a node at the block
//     static void batch_slots(Hot&, const NodeId* awake, std::size_t count,
//                             Slot now, P* nodes, Rng* rngs,
//                             std::vector<Message>& out);
//     bool Hot::decided(NodeId) const;        // node-object-free test
//     std::uint64_t Hot::decisions;           // moves when a node decides
//     bool Hot::listens(NodeId, const Message&) const;
//     void Hot::prefetch_entries(NodeId) const;
//     void Hot::freeze(NodeId, Slot next);    // the engine stops running it
//     void prefetch_receive() const;          // the node's receive state
//     void save_state(Writer&, Slot next) const;
//     bool load_state(Reader&, Slot next);
//
// The engine then (a) owns one block per run and attaches every node to
// it in its constructor; (b) on instantiations whose observer takes no
// events replaces the per-node `on_slot` loop with one `batch_slots` call,
// which must be bit-identical to the scalar loop (the protocol owns that
// proof; the traced-vs-untraced and reference-diff suites are the
// arbiters); (c) scans its undecided list only on ticks where
// `decisions` moved (and on the first tick after `load_state`); (d)
// counts and reports every delivery but calls `on_receive` only when
// `listens` is true, so `listens` may be false only for frames whose
// `on_receive` changes no state and emits no event; (e) prefetches each
// delivery's listener in two stages from the aligned medium's delivery
// pass (`prefetch_entries` plus the node object, then the node's own
// `prefetch_receive`); and (f) calls `freeze` when it stops running an
// awake node (a
// crash, or a crashed node's wake), with the local slot the node would
// have run next.  `save_state` / `load_state` get each node's next local
// slot, or kNotRunning for a node the engine does not run (asleep or
// crashed), so a protocol may keep time-based state as absolute slots.
// Protocols without a `Hot` alias get `NoHotState`, the scalar loop, a
// scan every tick and a `on_receive` call for every delivery.

/// Placeholder hot block for protocols without SoA state (zero size, the
/// attach/batch paths compile away behind `if constexpr`).
struct NoHotState {
  explicit NoHotState(const graph::Graph& /*g*/) {}
};

template <typename P, typename = void>
struct HotStateOfT {
  using type = NoHotState;
};
template <typename P>
struct HotStateOfT<P, std::void_t<typename P::Hot>> {
  using type = typename P::Hot;
};

/// The protocol's SoA hot-block type (NoHotState when it has none).
template <typename P>
using HotStateOf = typename HotStateOfT<P>::type;

/// True when P declared an SoA hot block the engine must own and attach.
template <typename P>
inline constexpr bool kHasHotState =
    !std::is_same_v<HotStateOf<P>, NoHotState>;

/// Aggregate medium statistics for one run.
struct RunStats {
  /// Slots the run covered, fast-forwarded ones included.  On the
  /// half-slot medium: completed global half-slots ÷ 2.
  Slot slots_run = 0;
  std::uint64_t transmissions = 0;
  /// Clean receptions: a listener heard exactly one frame.
  std::uint64_t deliveries = 0;
  /// Lost receptions, counted per medium.  Aligned: listener-slot pairs
  /// where two or more neighbors transmitted.  Half-slot: (frame,
  /// listener) pairs where the frame ended unheard because a second frame
  /// overlapped it at that listener, so one collided listener-slot counts
  /// once for every frame that reached it.
  std::uint64_t collisions = 0;
  /// Otherwise-clean receptions lost to injected fading (MediumOptions).
  std::uint64_t dropped = 0;
  bool all_decided = false;
};

/// Failure-injection knobs for the aligned medium (all off by default;
/// with the defaults the engine is bit-identical to the ideal
/// collision-only medium, which the differential tests rely on).
struct MediumOptions {
  /// Probability that an otherwise-successful reception is lost anyway —
  /// a crude model of fading/shadowing, which the BIG model explicitly
  /// wants to accommodate (Sect. 2).
  double drop_probability = 0.0;
};

/// Engine time: slots on the aligned medium, half-slots on the half-slot
/// medium.  Protocols only ever see local slots.
using Tick = Slot;

/// The "next local slot" of a node the engine does not run: asleep, or
/// crashed (see the SoA hot-state contract above).
inline constexpr Slot kNotRunning = -1;

namespace detail {

inline void write_ids(obs::postmortem::Writer& w,
                      const std::vector<NodeId>& ids) {
  w.u64(ids.size());
  for (const NodeId v : ids) w.u32(v);
}

/// Reads a list written by `write_ids`; false when it cannot be a list
/// of at most `max` nodes.
[[nodiscard]] inline bool read_ids(obs::postmortem::Reader& r,
                                   std::vector<NodeId>& ids,
                                   std::size_t max) {
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > max) return false;
  ids.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<NodeId>(r.u32()));
  }
  return true;
}

}  // namespace detail

/// The slot-aligned medium of Sect. 2, the engine's default policy.
///
/// A *medium policy* is the one place where the engine's media differ.
/// It fixes how local slots line up in engine time (`kTicksPerSlot`,
/// `phase`), which nodes take part at a tick (`admit`, `participants`,
/// `order_by_id`, `idle`), what the tick's transmissions do
/// (`resolve`, which reports each outcome through the engine's
/// `deliver` / `collide` / `drop`), and the middle of the engine-state
/// blob (`save` / `load`, which also place the engine's own fields where
/// that medium's v1 layout has them).  Media are friends of `Engine`.
///
/// Here every node's slot t is tick t.  All awake live nodes share one
/// list, and a listener receives iff exactly one neighbor transmits.
class AlignedMedium {
 public:
  static constexpr Tick kTicksPerSlot = 1;

  AlignedMedium(std::size_t n, std::uint64_t seed, MediumOptions options)
      : options_(options),
        rng_(mix_seed(seed, 0xFADEDull)),
        rx_(n, 0) {
    URN_CHECK(options_.drop_probability >= 0.0 &&
              options_.drop_probability < 1.0);
  }

  [[nodiscard]] static constexpr Tick end_tick(Slot max_slots) {
    return max_slots;
  }
  [[nodiscard]] static constexpr Tick phase(NodeId /*v*/) { return 0; }

  void admit(NodeId v) {
    live_.push_back(v);
    rx_[v] = kRxAwake;  // now a listening candidate
  }
  void remove(NodeId v) {
    rx_[v] = 0;
    std::erase(live_, v);
  }
  void order_by_id() { std::sort(live_.begin(), live_.end()); }
  [[nodiscard]] bool idle() const { return live_.empty(); }
  [[nodiscard]] const std::vector<NodeId>& participants(Tick /*h*/) const {
    return live_;
  }

  /// Resolve the slot in ONE pass: classify each touched live listener
  /// as clean (exactly one transmitting neighbor, with the source
  /// index) or collided, in first-touch order — which fixes the order of
  /// delivery / collision / drop events and of medium-RNG draws.  The
  /// whole per-listener state lives in ONE 4-byte `rx_` word (awake flag
  /// | clean/collided/self | source), so the ~Δ random accesses per
  /// transmitter touch one cache line each; the touched words are wiped
  /// at the end of the slot (touched_ and the transmitter list enumerate
  /// exactly the dirtied words), so no epoch stamps are needed.
  /// Sleeping and dead neighbors are skipped outright.
  template <typename E>
  void resolve(E& e, Tick now) {
    const std::vector<Message>& tx = e.transmitters_;
    touched_.clear();
    URN_DCHECK(tx.size() <= kRxSrcMask);
    for (std::uint32_t t = 0; t < tx.size(); ++t) {
      const NodeId sender = tx[t].sender;
      for (NodeId u : e.graph_.neighbors(sender)) {
        const std::uint32_t w = rx_[u];
        if (w == kRxAwake) {  // listening, untouched so far
          rx_[u] = kRxAwake | kRxClean | t;  // sole candidate sender
          touched_.push_back(u);
        } else if ((w & kRxStateMask) == kRxClean) {
          rx_[u] = kRxAwake | kRxCollided;
        }
        // else: sleeping/dead (no awake bit), already collided, or a
        // transmitter (kRxSelf) — nothing can change.
      }
      // A transmitting node cannot receive in the same slot.
      rx_[sender] = kRxAwake | kRxSelf;
    }

    // Each touched listener appears once; states are final by now.  A
    // delivery's cost is its listener's misses, so the pass prefetches
    // the protocol state of the listeners kFarAhead and kNearAhead places
    // on (the near stage reads what the far stage loaded).
    const std::size_t touched = touched_.size();
    for (std::size_t i = 0; i < touched; ++i) {
      if (i + kFarAhead < touched) e.prefetch_entries(touched_[i + kFarAhead]);
      if (i + kNearAhead < touched) {
        e.prefetch_receive(touched_[i + kNearAhead]);
      }
      const NodeId u = touched_[i];
      const std::uint32_t w = rx_[u];
      if ((w & kRxStateMask) == kRxClean) {
        const Message& msg = tx[w & kRxSrcMask];
        if (options_.drop_probability > 0.0 &&
            rng_.chance(options_.drop_probability)) {
          e.drop(u, msg, now);  // fading: clean reception lost anyway
        } else {
          e.deliver(u, msg, now);
        }
      } else if ((w & kRxStateMask) == kRxCollided) {
        e.collide(u, now);
      }
      rx_[u] = kRxAwake;  // wipe for the next slot (still listening)
    }
    // Transmitters are live and awake by construction.
    for (const Message& m : tx) rx_[m.sender] = kRxAwake;
  }

  /// v1 aligned layout: medium RNG, status and decisions, live list,
  /// undecided list, wake cursor, id-order flag, pending count.
  template <typename E>
  void save(obs::postmortem::Writer& w, const E& e) const {
    obs::postmortem::write_rng(w, rng_);
    e.save_status(w);
    detail::write_ids(w, live_);
    detail::write_ids(w, e.undecided_list_);
    w.u64(e.next_wake_);
    w.boolean(e.id_ordered_);
    w.u64(e.pending_live_);
  }

  template <typename E>
  [[nodiscard]] bool load(obs::postmortem::Reader& r, E& e) {
    if (!obs::postmortem::read_rng(r, rng_)) return false;
    e.load_status(r);
    // The persistent part of the medium word is a pure function of the
    // status bytes; the touch bits are clear between slots, which is
    // when checkpoints are taken.
    for (NodeId v = 0; v < rx_.size(); ++v) {
      rx_[v] = e.status_[v] == E::kAwakeBit ? kRxAwake : 0;
    }
    const std::size_t n = rx_.size();
    if (!detail::read_ids(r, live_, n) ||
        !detail::read_ids(r, e.undecided_list_, n)) {
      return false;
    }
    e.next_wake_ = static_cast<std::size_t>(r.u64());
    e.id_ordered_ = r.boolean();
    e.pending_live_ = static_cast<std::size_t>(r.u64());
    return e.next_wake_ <= n && e.pending_live_ <= n;
  }

 private:
  // Layout of the per-node medium word rx_: the top bit is the
  // persistent "live awake listener" flag (maintained on admit / remove /
  // load), the next two bits are the per-slot touch state, and the low 29
  // bits hold the transmitter index while the state is kRxClean.  Between
  // slots every word is either 0 or exactly kRxAwake.
  static constexpr std::uint32_t kRxAwake = 1u << 31;
  static constexpr std::uint32_t kRxClean = 1u << 29;
  static constexpr std::uint32_t kRxCollided = 2u << 29;
  static constexpr std::uint32_t kRxSelf = 3u << 29;
  static constexpr std::uint32_t kRxStateMask = 3u << 29;
  static constexpr std::uint32_t kRxSrcMask = (1u << 29) - 1;

  /// Prefetch distances of the delivery pass, in touched listeners.
  static constexpr std::size_t kFarAhead = 16;
  static constexpr std::size_t kNearAhead = 8;

  MediumOptions options_;
  Rng rng_;
  std::vector<std::uint32_t> rx_;
  std::vector<NodeId> live_;     ///< live awake nodes (the participants)
  std::vector<NodeId> touched_;  ///< live listeners touched this slot
};

/// The radio engine; owns the per-node protocol instances.  Holds the
/// graph **by reference** (hot-loop performance): the graph must outlive
/// the engine.  `O` is the observer (obs/observer.hpp): events, per-tick
/// slot samples, checkpoint offers and phase spans, each compiled in only
/// when `O` declares it; the default `obs::NullObserver` declares none.
/// `M` is the medium policy: `AlignedMedium` here, `HalfSlotMedium` in
/// radio/misaligned_engine.hpp (alias `MisalignedEngine`).
///
/// Node v's local slot t starts at tick `kTicksPerSlot·t + phase(v)`.
/// Each tick the engine (1) wakes the nodes whose wake slot starts now,
/// (2) runs the slot of every node whose slot starts now, collecting
/// transmissions, (3) lets the medium resolve them, and (4) records the
/// nodes that decided, in their own local slot.
template <NodeProtocol P, typename O = obs::NullObserver,
          typename M = AlignedMedium>
class Engine {
 public:
  static constexpr Tick kTicksPerSlot = M::kTicksPerSlot;

  /// Aligned medium.
  /// \pre nodes.size() == g.num_nodes() == schedule.size()
  /// \param observer may be null (no hook fires then); must outlive the
  ///        engine.
  Engine(const graph::Graph& g, WakeSchedule schedule, std::vector<P> nodes,
         std::uint64_t seed, MediumOptions medium = {},
         O* observer = nullptr)
    requires std::same_as<M, AlignedMedium>
      : Engine(M(g.num_nodes(), seed, medium), g, std::move(schedule),
               std::move(nodes), seed, observer) {}

  /// Media built from per-node phase offsets (the half-slot medium):
  /// `offsets[v]` is node v's phase in ticks.  Slots in events are the
  /// node's local slots.
  Engine(const graph::Graph& g, WakeSchedule schedule, std::vector<P> nodes,
         std::vector<std::uint8_t> offsets, std::uint64_t seed,
         O* observer = nullptr)
    requires std::constructible_from<M, std::size_t,
                                     std::vector<std::uint8_t>>
      : Engine(M(g.num_nodes(), std::move(offsets)), g, std::move(schedule),
               std::move(nodes), seed, observer) {}

  // Nodes point into the engine-owned hot block; a copied or moved
  // engine would leave them aimed at the source's block.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Uniformly random phase offsets for media built from offsets, the
  /// natural "unsynchronized clocks" model.
  [[nodiscard]] static std::vector<std::uint8_t> random_offsets(
      std::size_t n, Rng& rng)
    requires std::constructible_from<M, std::size_t,
                                     std::vector<std::uint8_t>>
  {
    return M::random_offsets(n, rng);
  }

  /// The observer's capabilities.  Slot samples carry counts only
  /// (`slots` counts local slots completed) and are bracketed by
  /// `begin_run`/`end_run` in `run()`; step()-driven users bracket them
  /// themselves.  Checkpoint offers come at the top of every `run()`
  /// iteration, at the current tick (a period in local slots is
  /// `kTicksPerSlot` times as many ticks).
  static constexpr bool kEvents = obs::kObservesEvents<O>;
  static constexpr bool kSamples = obs::kObservesSamples<O>;
  static constexpr bool kCheckpoints = obs::kObservesCheckpoints<O>;
  static constexpr bool kSpans = obs::kObservesSpans<O>;

  /// The track id engine phase spans are recorded under.
  static constexpr std::uint32_t kSpanTrack = 0;

  /// Advance the simulation one tick: a slot on the aligned medium, a
  /// global half-slot on the half-slot medium.
  void step() {
    const Tick h = tick_;
    const std::uint64_t ts_wake = span_now();

    // Slot-sample baselines for this tick's deltas (dead locals without
    // samples; the optimizer drops them).
    [[maybe_unused]] std::size_t probe_wakes_before = 0;
    [[maybe_unused]] std::size_t probe_pending_before = 0;
    [[maybe_unused]] RunStats probe_before;
    if constexpr (kSamples) {
      if (observer_ != nullptr) {
        probe_wakes_before = next_wake_;
        probe_pending_before = pending_live_;
        probe_before = stats_;
      }
    }

    // (1) Wake due nodes.  A node deactivated before its wake slot still
    // wakes (events + on_wake fire) but never takes part.
    while (next_wake_ < wake_order_.size() &&
           wake_tick(wake_order_[next_wake_]) <= h) {
      const NodeId v = wake_order_[next_wake_++];
      status_[v] |= kAwakeBit;
      if (status_[v] == kAwakeBit) {
        medium_.admit(v);
        undecided_list_.push_back(v);
      }
      const Slot local = local_slot(v, h);
      emit([&] { return obs::Event::wake(local, v); });
      SlotContext ctx = context(v, local);
      nodes_[v].on_wake(ctx);
      if constexpr (kHasHotState<P>) {
        if (status_[v] != kAwakeBit) hot_.freeze(v, local);  // crashed
      }
    }
    if (!id_ordered_ && next_wake_ >= wake_order_.size()) {
      // From the tick the last node wakes (inclusive), iterate nodes in
      // ascending id: under random schedules wake order is an arbitrary
      // permutation, and re-sorting once turns every later sweep into a
      // linear memory walk over nodes_/rngs_.  This is part of the
      // engine's documented iteration order — (wake tick, id) while
      // nodes are still waking, id-ascending once all are awake — which
      // the reference engine mirrors (it pins the medium-RNG draw
      // sequence under drop_probability > 0; aggregate stats and
      // per-node RNG streams are order-independent).
      std::sort(undecided_list_.begin(), undecided_list_.end());
      medium_.order_by_id();
      id_ordered_ = true;
    }

    // (2) Run the slot of every node whose slot starts now; they all
    // share local slot h / kTicksPerSlot.  The participant lists hold
    // only live awake nodes.  SoA protocols run the whole list through
    // one `batch_slots` call (classify over the hot arrays, batched
    // Bernoulli draws, messages in scalar order — bit-identical by the
    // protocol's contract) unless events are observed: then the scalar
    // loop runs, whose per-node contexts carry the event hook.
    const std::uint64_t ts_protocol = span_now();
    const std::vector<NodeId>& participants = medium_.participants(h);
    const Slot now = h / kTicksPerSlot;
    transmitters_.clear();
    if constexpr (kHasHotState<P> && !kEvents) {
      P::batch_slots(hot_, participants.data(), participants.size(), now,
                     nodes_.data(), rngs_.data(), transmitters_);
    } else {
      for (NodeId v : participants) {
        SlotContext ctx = context(v, now);
        if (std::optional<Message> msg = nodes_[v].on_slot(ctx)) {
          URN_DCHECK(msg->sender == v);
          transmitters_.push_back(*msg);
          emit([&] {
            return obs::Event::transmit(
                now, v, static_cast<std::uint8_t>(msg->type),
                msg->color_index, msg->counter);
          });
        }
      }
    }
    stats_.transmissions += transmitters_.size();

    // (3) The medium reports every reception outcome of this tick
    // through deliver / collide / drop.
    const std::uint64_t ts_medium = span_now();
    medium_.resolve(*this, h);

    // (4) Track decisions, compacting decided nodes out of the scan so
    // its cost follows the number of still-undecided nodes, not n.  SoA
    // protocols answer `decided` straight from the hot block, so the
    // scan never touches a node object, and count their decisions, so
    // the scan runs only on ticks where some node decided.
    if (decisions_moved()) scan_decisions(h);

    span_emit("wake", ts_wake, ts_protocol, now);
    span_emit("protocol", ts_protocol, ts_medium, now);
    span_emit("medium", ts_medium, span_now(), now);

    ++tick_;
    stats_.slots_run = tick_ / kTicksPerSlot;

    if constexpr (kSamples) {
      if (observer_ != nullptr) {
        obs::telemetry::SlotSample s;
        s.slots = static_cast<std::uint64_t>(stats_.slots_run -
                                             probe_before.slots_run);
        s.active = participants.size();
        s.wakes = next_wake_ - probe_wakes_before;
        s.decisions = probe_pending_before - pending_live_;
        s.transmissions = transmitters_.size();
        s.deliveries = stats_.deliveries - probe_before.deliveries;
        s.collisions = stats_.collisions - probe_before.collisions;
        s.drops = stats_.dropped - probe_before.dropped;
        s.undecided = undecided_list_.size();
        observer_->on_slot(s);
      }
    }
  }

  /// One global half-slot: `step()` under its half-slot name.
  void step_half()
    requires(kTicksPerSlot == 2)
  {
    step();
  }

  /// Run until every node is awake and has decided, or `max_slots` local
  /// slots elapse (the medium's `end_tick`).  Returns the statistics so
  /// far; `all_decided` reports success.
  ///
  /// Empty wake gaps are fast-forwarded: while no node takes part and the
  /// next wake lies in the future, stepping consumes no RNG and changes
  /// no state, so the tick jumps straight to the next wake (or the cap).
  /// The jump requires a pending wake — it cannot fire when the lists are
  /// empty because every woken node died, where the loop stops after one
  /// more step via `all_decided`.
  RunStats run(Slot max_slots) {
    URN_CHECK(max_slots > 0);
    if constexpr (kSamples) {
      if (observer_ != nullptr) observer_->begin_run();
    }
    const Tick end = M::end_tick(max_slots);
    while (tick_ < end) {
      if constexpr (kCheckpoints) {
        if (observer_ != nullptr) observer_->maybe_checkpoint(*this, tick_);
      }
      if (medium_.idle() && next_wake_ < wake_order_.size()) {
        const Tick next = wake_tick(wake_order_[next_wake_]);
        if (next > tick_) {
          [[maybe_unused]] const Slot slots_before = stats_.slots_run;
          tick_ = std::min(next, end);
          stats_.slots_run = tick_ / kTicksPerSlot;
          if constexpr (kSamples) {
            // Fast-forwarded slots still count toward engine.slots so
            // the exported total matches stats_.slots_run exactly.
            if (observer_ != nullptr && stats_.slots_run > slots_before) {
              obs::telemetry::SlotSample s;
              s.slots =
                  static_cast<std::uint64_t>(stats_.slots_run - slots_before);
              observer_->on_slot(s);
            }
          }
          if (tick_ >= end) break;
        }
      }
      step();
      if (all_decided()) break;
    }
    stats_.all_decided = all_decided();
    flush();
    if constexpr (kSamples) {
      if (observer_ != nullptr) observer_->end_run();
    }
    return stats_;
  }

  /// O(1): every node woke, and no live node is still undecided.
  [[nodiscard]] bool all_decided() const {
    return next_wake_ >= wake_order_.size() && pending_live_ == 0;
  }

  /// Flush the observer's events (`run()` does this on exit; step()-
  /// driven users call it once capture is complete).  Compiled away
  /// without events.
  void flush() {
    if constexpr (kEvents) {
      if (observer_ != nullptr) observer_->flush();
    }
  }

  /// Crash-stop failure injection (aligned medium only): from the next
  /// slot on, node v neither transmits nor receives.  It is excluded from
  /// `all_decided` (a dead node has no obligation to decide) and
  /// compacted out of the live lists so later slots never branch on it.
  /// Idempotent: deactivating an already-dead node changes no accounting.
  void deactivate(NodeId v)
    requires std::same_as<M, AlignedMedium>
  {
    URN_CHECK(v < nodes_.size());
    if ((status_[v] & kDeadBit) != 0) return;
    if constexpr (kHasHotState<P>) {
      if (status_[v] == kAwakeBit) hot_.freeze(v, next_slot(v));
    }
    status_[v] |= kDeadBit;
    if (decision_slot_[v] == kUndecided) --pending_live_;
    if ((status_[v] & kAwakeBit) != 0) {
      medium_.remove(v);
      std::erase(undecided_list_, v);
    }
  }

  [[nodiscard]] bool is_dead(NodeId v) const {
    URN_CHECK(v < status_.size());
    return (status_[v] & kDeadBit) != 0;
  }

  [[nodiscard]] bool is_awake(NodeId v) const {
    URN_CHECK(v < status_.size());
    return (status_[v] & kAwakeBit) != 0;
  }

  /// Serialize the complete engine state (a checkpoint's engine-state
  /// section).  Everything a freshly constructed engine cannot
  /// reconstruct from its constructor arguments is written: the tick
  /// cursor, aggregate stats, the medium's section (which also places the
  /// per-node status/decision arrays, lists and cursors where that
  /// medium's v1 layout has them), all per-node RNG streams and every
  /// node's protocol state.  Per-tick scratch is never read across tick
  /// boundaries, so it is deliberately skipped.
  void save_state(obs::postmortem::Writer& w) const {
    w.u64(nodes_.size());
    w.i64(tick_);
    w.i64(stats_.slots_run);
    w.u64(stats_.transmissions);
    w.u64(stats_.deliveries);
    w.u64(stats_.collisions);
    w.u64(stats_.dropped);
    w.boolean(stats_.all_decided);
    medium_.save(w, *this);
    for (const Rng& r : rngs_) obs::postmortem::write_rng(w, r);
    for (NodeId v = 0; v < nodes_.size(); ++v) {
      nodes_[v].save_state(w, next_slot(v));
    }
  }

  /// Restore state written by `save_state` into a freshly constructed
  /// engine (same graph, schedule, seed and medium arguments — the
  /// scenario section of the checkpoint carries them).  Returns false on
  /// a truncated or inconsistent buffer; the engine must not be used
  /// after a failed load.  After a successful load, `run()` continues the
  /// original run bit-identically.
  [[nodiscard]] bool load_state(obs::postmortem::Reader& r) {
    if (r.u64() != nodes_.size()) return false;
    tick_ = r.i64();
    stats_.slots_run = r.i64();
    stats_.transmissions = r.u64();
    stats_.deliveries = r.u64();
    stats_.collisions = r.u64();
    stats_.dropped = r.u64();
    stats_.all_decided = r.boolean();
    if (!r.ok() || !medium_.load(r, *this)) return false;
    for (Rng& rng : rngs_) {
      if (!obs::postmortem::read_rng(r, rng)) return false;
    }
    for (NodeId v = 0; v < nodes_.size(); ++v) {
      if (!nodes_[v].load_state(r, next_slot(v))) return false;
    }
    rescan_ = true;
    return r.ok();
  }

  /// Slots covered so far (`stats().slots_run` between ticks).
  [[nodiscard]] Slot current_slot() const { return tick_ / kTicksPerSlot; }

  /// The local slot the engine runs live awake node v in next (the first
  /// slot starting at or after the current tick), or kNotRunning while v
  /// sleeps or after it crashed: what `save_state` hands each node.
  [[nodiscard]] Slot next_slot(NodeId v) const {
    if (status_.at(v) != kAwakeBit) return kNotRunning;
    return (tick_ - medium_.phase(v) + kTicksPerSlot - 1) / kTicksPerSlot;
  }
  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] const P& node(NodeId v) const { return nodes_.at(v); }
  [[nodiscard]] P& node(NodeId v) { return nodes_.at(v); }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const WakeSchedule& schedule() const { return schedule_; }

  /// Local slot in which v's `decided()` first became true (kUndecided
  /// if never).
  [[nodiscard]] Slot decision_slot(NodeId v) const {
    return decision_slot_.at(v);
  }

  /// T_v of Sect. 2: local slots between wake-up and irrevocable
  /// decision.
  [[nodiscard]] Slot decision_latency(NodeId v) const {
    URN_CHECK(decision_slot_.at(v) != kUndecided);
    return decision_slot_[v] - schedule_.wake_slot(v);
  }

  static constexpr Slot kUndecided = -1;

 private:
  friend M;

  Engine(M medium, const graph::Graph& g, WakeSchedule schedule,
         std::vector<P> nodes, std::uint64_t seed, O* observer)
      : graph_(g),
        schedule_(std::move(schedule)),
        nodes_(std::move(nodes)),
        hot_(g),
        medium_(std::move(medium)),
        observer_(observer),
        status_(g.num_nodes(), 0),
        decision_slot_(g.num_nodes(), kUndecided),
        pending_live_(g.num_nodes()) {
    URN_CHECK(nodes_.size() == graph_.num_nodes());
    URN_CHECK(schedule_.size() == graph_.num_nodes());
    if constexpr (kHasHotState<P>) {
      // Attach AFTER the node vector is moved into place: the pointers
      // nodes keep into the block stay valid for the engine's lifetime.
      for (P& node : nodes_) node.attach_hot(&hot_);
    }
    rngs_.reserve(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      rngs_.emplace_back(mix_seed(seed, v));
    }
    // Wake order: nodes sorted by (wake tick, id) for an O(1) amortized
    // wake scan.  The id tie-break makes the order — and with it the
    // per-tick transmitter order, which fixes the medium-RNG draw
    // sequence under drop_probability > 0 — a specification the
    // reference engine can reproduce, not an artifact of the sort
    // implementation.
    wake_order_.resize(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) wake_order_[v] = v;
    std::sort(wake_order_.begin(), wake_order_.end(),
              [this](NodeId a, NodeId b) {
                const Tick wa = wake_tick(a);
                const Tick wb = wake_tick(b);
                return wa != wb ? wa < wb : a < b;
              });
  }

  // Per-node status bits (one byte per node; one byte encodes both flags
  // so the common "live awake?" test is a single compare with 0x1).
  static constexpr std::uint8_t kAwakeBit = 0x1;
  static constexpr std::uint8_t kDeadBit = 0x2;

  [[nodiscard]] Tick wake_tick(NodeId v) const {
    return kTicksPerSlot * schedule_.wake_slot(v) + medium_.phase(v);
  }

  /// v's local slot at tick h (h at or after v's first slot start).
  [[nodiscard]] Slot local_slot(NodeId v, Tick h) const {
    return (h - medium_.phase(v)) / kTicksPerSlot;
  }

  // ---- reception outcomes, reported by the medium's `resolve` ----------

  void deliver(NodeId u, const Message& msg, Slot local) {
    ++stats_.deliveries;
    emit([&] {
      return obs::Event::delivery(local, u, msg.sender,
                                  static_cast<std::uint8_t>(msg.type),
                                  msg.color_index);
    });
    if constexpr (kHasHotState<P>) {
      if (!hot_.listens(u, msg)) return;  // provably changes nothing
    }
    SlotContext ctx = context(u, local);
    nodes_[u].on_receive(ctx, msg);
  }

  // Delivery-pass prefetch stages (AlignedMedium::resolve); no-ops for
  // protocols without a hot block.
  void prefetch_entries(NodeId u) const {
    if constexpr (kHasHotState<P>) {
      hot_.prefetch_entries(u);
      const auto* node = reinterpret_cast<const char*>(nodes_.data() + u);
      __builtin_prefetch(node);
      __builtin_prefetch(node + sizeof(P) - 1);
    }
  }
  void prefetch_receive(NodeId u) const {
    if constexpr (kHasHotState<P>) nodes_[u].prefetch_receive();
  }

  /// Whether this tick may have decided a node: SoA protocols count
  /// their decisions; everything else is scanned every tick.
  [[nodiscard]] bool decisions_moved() {
    if constexpr (kHasHotState<P>) {
      if (scanned_decisions_ == hot_.decisions && !rescan_) return false;
      scanned_decisions_ = hot_.decisions;
      rescan_ = false;
    }
    return true;
  }

  /// Record the decisions of tick h and compact the decided nodes out of
  /// the undecided list.
  void scan_decisions(Tick h) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < undecided_list_.size(); ++i) {
      const NodeId v = undecided_list_[i];
      const bool is_decided = [&] {
        if constexpr (kHasHotState<P>) return hot_.decided(v);
        else return nodes_[v].decided();
      }();
      if (is_decided) {
        const Slot local = local_slot(v, h);
        decision_slot_[v] = local;
        --pending_live_;
        emit([&] {
          return obs::Event::decision(local, v, /*color=*/-1,
                                      local - schedule_.wake_slot(v));
        });
      } else {
        undecided_list_[keep++] = v;
      }
    }
    undecided_list_.resize(keep);
  }

  void collide(NodeId u, Slot local) {
    ++stats_.collisions;
    emit([&] { return obs::Event::collision(local, u); });
  }

  void drop(NodeId u, const Message& msg, Slot local) {
    ++stats_.dropped;
    emit([&] {
      return obs::Event::drop(local, u, msg.sender,
                              static_cast<std::uint8_t>(msg.type));
    });
  }

  // ---- blob pieces shared by the media's layouts ------------------------

  void save_status(obs::postmortem::Writer& w) const {
    for (const std::uint8_t s : status_) w.u8(s);
    for (const Slot s : decision_slot_) w.i64(s);
  }

  void load_status(obs::postmortem::Reader& r) {
    for (std::uint8_t& s : status_) s = r.u8();
    for (Slot& s : decision_slot_) s = r.i64();
  }

  /// Rebuild the undecided list (live awake nodes without a decision) in
  /// the order a straight run keeps it, for layouts that do not store it.
  void rebuild_undecided() {
    id_ordered_ = next_wake_ >= wake_order_.size();
    undecided_list_.clear();
    for (std::size_t i = 0; i < next_wake_; ++i) {
      const NodeId v = wake_order_[i];
      if (status_[v] == kAwakeBit && decision_slot_[v] == kUndecided) {
        undecided_list_.push_back(v);
      }
    }
    if (id_ordered_) {
      std::sort(undecided_list_.begin(), undecided_list_.end());
    }
  }

  /// Emit an event built by `make` — compiled away entirely without
  /// events (the lambda is never instantiated, so event construction
  /// costs nothing then).
  template <typename MakeEvent>
  void emit(MakeEvent&& make) {
    if constexpr (kEvents) {
      if (observer_ != nullptr) observer_->record(make());
    }
  }

  /// Span timestamp; a compile-time 0 without spans, so the
  /// phase-boundary reads in `step` fold away with `span_emit`.
  [[nodiscard]] std::uint64_t span_now() const {
    if constexpr (kSpans) {
      if (observer_ != nullptr) return observer_->now_ns();
    }
    return 0;
  }

  void span_emit(const char* name, std::uint64_t begin, std::uint64_t end,
                 Slot slot) {
    if constexpr (kSpans) {
      if (observer_ != nullptr) {
        observer_->record(name, kSpanTrack, begin, end - begin, slot);
      }
    }
  }

  [[nodiscard]] SlotContext context(NodeId v, Slot now) {
    SlotContext ctx;
    ctx.id = v;
    ctx.now = now;
    ctx.rng = &rngs_[v];
    if constexpr (kEvents) {
      if (observer_ != nullptr) {
        ctx.events_sink = observer_;
        ctx.events_fn = [](void* observer, const obs::Event& e) {
          static_cast<O*>(observer)->record(e);
        };
      }
    }
    return ctx;
  }

  const graph::Graph& graph_;
  WakeSchedule schedule_;
  std::vector<P> nodes_;
  /// SoA hot block for opted-in protocols (empty NoHotState otherwise).
  /// Nodes hold raw pointers into it, so the engine is neither copyable
  /// nor movable (see the deleted special members above).
  HotStateOf<P> hot_;
  M medium_;
  O* observer_;
  std::vector<Rng> rngs_;

  Tick tick_ = 0;
  std::vector<std::uint8_t> status_;     ///< kAwakeBit | kDeadBit per node
  std::vector<NodeId> undecided_list_;   ///< live awake undecided nodes
  std::vector<NodeId> wake_order_;
  std::size_t next_wake_ = 0;
  bool id_ordered_ = false;  ///< lists re-sorted to id order yet?
  std::vector<Slot> decision_slot_;
  /// Live (non-dead) nodes without a recorded decision — the O(1)
  /// termination counter behind `all_decided()`.
  std::size_t pending_live_ = 0;
  std::vector<Message> transmitters_;  ///< this tick's frames, sweep order
  /// `Hot::decisions` at the last undecided-list scan, and whether the
  /// next tick must scan regardless (set by `load_state`).
  std::uint64_t scanned_decisions_ = 0;
  bool rescan_ = false;

  RunStats stats_;
};

}  // namespace urn::radio
