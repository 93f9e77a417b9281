#include "core/protocol.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/chi.hpp"
#include "obs/event.hpp"
#include "support/check.hpp"

namespace urn::core {

// The obs layer mirrors Phase as small integer codes; keep them in sync.
static_assert(static_cast<std::uint8_t>(Phase::kVerify) ==
              static_cast<std::uint8_t>(obs::PhaseCode::kVerify));
static_assert(static_cast<std::uint8_t>(Phase::kRequest) ==
              static_cast<std::uint8_t>(obs::PhaseCode::kRequest));
static_assert(static_cast<std::uint8_t>(Phase::kDecided) ==
              static_cast<std::uint8_t>(obs::PhaseCode::kDecided));

void ColoringNode::on_wake(radio::SlotContext& ctx) {
  URN_CHECK(hot_ != nullptr);  // engines attach_hot before any callback
  URN_CHECK(id_ == ctx.id);
  // Upon waking up, a node is initially in A_0; its first slot is now.
  enter_verify(0, ctx.now, ctx);
}

void ColoringNode::enter_verify(std::int32_t color_index, Slot first_slot,
                                const radio::SlotContext& ctx) {
  hot_->klass[id_] = ColoringHot::kPassive;
  color_index_ = color_index;
  hot_->activate_at[id_] = first_slot + hot_->passive_slots;
  hot_->rearm(id_);
  hot_->counter[id_] = 0;
  clear_competitors();  // P_v := ∅ (Alg. 1 l. 1)
  ++stats_.verify_states;
  record_transition(ctx.now, ctx);
}

void ColoringNode::enter_decided(std::int32_t color_index,
                                 const radio::SlotContext& ctx) {
  // kLeader ⟺ decided with color 0: only the A₀ threshold decision
  // reaches here with color_index == 0 (Alg. 3's leader entry).
  hot_->klass[id_] = color_index == 0 ? ColoringHot::kLeader
                                      : ColoringHot::kDecidedOther;
  color_index_ = color_index;  // color_v := i (Alg. 3 l. 1)
  ++hot_->decisions;
  clear_competitors();
  if (color_index == 0) {
    LeaderState& l = claim_leader_state();
    l.next_tc = 0;  // tc := 0, Q := ∅ (Alg. 3 l. 7–8)
    l.queue.clear();
    l.serve_remaining = 0;
  }
  record_transition(ctx.now, ctx);
}

LeaderState& ColoringNode::claim_leader_state() {
  if (leader_state_ == kNoLeaderState) {  // first C₀ decision
    leader_state_ = static_cast<std::uint32_t>(hot_->leaders.size());
    hot_->leaders.emplace_back();
  }
  return leader_state();
}

void ColoringNode::record_transition(Slot slot,
                                     const radio::SlotContext& ctx) {
  if (ctx.tracing()) {
    ctx.emit(obs::Event::phase_change(
        slot, id_, static_cast<std::uint8_t>(phase()), color_index_));
  }
  if (transitions_.size() >= kMaxTransitions) return;
  // No up-front reservation: most nodes of a capped run record a single
  // transition, and the log's growth is amortized over the rest.
  transitions_.push_back({slot, phase(), color_index_});
}


void ColoringNode::on_receive(radio::SlotContext& ctx,
                              const radio::Message& msg) {
  // A reception ends the node's slot `ctx.now`; its next slot is the one
  // after.  Every state change here re-arms the node's sweep block.
  const Slot next = ctx.now + 1;
  switch (phase()) {
    case Phase::kVerify: {
      // A message from a node in C_i covering us (Alg. 1 l. 10/23)?
      const bool from_c0 = (msg.type == radio::MsgType::kDecided &&
                            msg.color_index == 0) ||
                           msg.type == radio::MsgType::kAssign;
      if (color_index_ == 0 && from_c0) {
        leader_ = msg.sender;  // L(v) := w
        // A waiting passive node keeps its countdown, frozen here.
        hot_->freeze(id_, next);
        hot_->klass[id_] = ColoringHot::kRequest;
        hot_->rearm(id_);
        record_transition(ctx.now, ctx);
        return;
      }
      if (color_index_ > 0 && msg.type == radio::MsgType::kDecided &&
          msg.color_index == color_index_) {
        enter_verify(color_index_ + 1, next, ctx);  // A_suc = A_{i+1}
        return;
      }
      // Competitor report M_A^i(w, c_w) (Alg. 1 l. 6–9 / 27–30).
      if (msg.type == radio::MsgType::kCompete &&
          msg.color_index == color_index_) {
        const bool active = hot_->klass[id_] == ColoringHot::kCount;
        std::int64_t& counter = hot_->counter[id_];
        switch (hot_->params->reset_policy) {
          case ResetPolicy::kCriticalRange: {
            store_competitor(msg.sender, msg.counter, ctx.now);
            if (active) {
              const std::int64_t range = critical_range_now();
              if (std::llabs(counter - msg.counter) <= range) {
                counter = chi_of_competitors(ctx.now);  // Alg. 1 l. 29
                ++stats_.resets;
                if (ctx.tracing()) {
                  ctx.emit(obs::Event::reset(ctx.now, id_, color_index_,
                                             counter));
                }
              }
            }
            break;
          }
          case ResetPolicy::kNaive: {
            // Strawman of Sect. 4: any higher counter resets us to 0.
            if (active && msg.counter > counter) {
              counter = 0;
              ++stats_.resets;
              if (ctx.tracing()) {
                ctx.emit(obs::Event::reset(ctx.now, id_, color_index_, 0));
              }
            }
            break;
          }
          case ResetPolicy::kNone:
            break;
        }
      }
      return;
    }

    case Phase::kRequest: {
      // Alg. 2 l. 3: M_C^0(L(v), v, tc_v) from our leader, addressed to us.
      if (msg.type == radio::MsgType::kAssign && msg.sender == leader_ &&
          msg.target == id_) {
        tc_ = msg.tc;
        ++stats_.assignments_heard;
        enter_verify(hot_->params->first_verify_color(tc_), next, ctx);
      }
      return;
    }

    case Phase::kDecided: {
      if (color_index_ != 0) return;
      // Leader: enqueue new requests addressed to us (Alg. 3 l. 10–12).
      if (msg.type != radio::MsgType::kRequest || msg.target != id_) return;
      const NodeId requester = msg.sender;
      LeaderState& l = leader_state();
      if (l.queue.contains(requester)) return;  // already queued
      const bool was_served =
          std::find(l.served.begin(), l.served.end(), requester) !=
          l.served.end();
      if (was_served) {
        ++stats_.duplicate_serves;
        if (hot_->params->remember_served) return;  // extension: never re-serve
      }
      l.queue.push_back(requester);
      return;
    }
  }
}

void ColoringNode::batch_cold_slot(NodeId v, Slot now, ColoringNode* nodes,
                                   Rng* rngs,
                                   std::vector<radio::Message>& out) {
  radio::SlotContext ctx;
  ctx.id = v;
  ctx.now = now;
  ctx.rng = &rngs[v];
  if (std::optional<radio::Message> msg = nodes[v].on_slot(ctx)) {
    out.push_back(*msg);
  }
}

void ColoringNode::store_competitor(NodeId who, std::int64_t value,
                                    Slot now) {
  // Every matching competitor report delivered to a verifying node scans
  // P_v for the sender — the hottest receive-path loop, ~10⁸ executions
  // in a large run — so the scan walks contiguous 4-byte ids.
  NodeId* ids = competitor_ids();
  std::int64_t* keys = competitor_keys();
  for (std::uint32_t i = 0; i < competitors_; ++i) {
    if (ids[i] == who) {
      keys[i] = value - now;  // d_v(w) at slot t is keys[i] + t
      return;
    }
  }
  // P_v ⊆ N(v): reports come from neighbours only, so deg(v) slots hold
  // every distinct sender.
  URN_CHECK(competitors_ < hot_->graph->degree(id_));
  ids[competitors_] = who;
  keys[competitors_] = value - now;
  ++competitors_;
}

std::int64_t ColoringNode::chi_of_competitors(Slot now) const {
  // Scratch reused across calls (χ runs on every activation and every
  // counter reset; a per-call allocation was measurable).  thread_local
  // because experiment sweeps run one engine per worker thread.
  static thread_local std::vector<std::int64_t> aged;
  aged.clear();
  const std::int64_t range = critical_range_now();
  // Only counters d ≤ R can forbid a value ≤ 0, so the rest (typically
  // the competitors well ahead of us) skip the sort.
  const std::int64_t* keys = competitor_keys();
  const std::int64_t max_key = range - now;
  for (std::uint32_t i = 0; i < competitors_; ++i) {
    if (keys[i] <= max_key) aged.push_back(keys[i] + now);
  }
  std::sort(aged.begin(), aged.end());
  return chi_sorted(aged, range);
}

// ---- postmortem checkpointing ---------------------------------------------

namespace {
/// Sanity cap on a leader's queue/served counts read from a checkpoint:
/// both are bounded by its neighborhood, so anything this large marks a
/// corrupt file, not a big run.  (Competitor counts are checked against
/// the node's actual degree.)
constexpr std::uint32_t kMaxCheckpointList = 1u << 24;
}  // namespace

void ColoringNode::save_state(obs::postmortem::Writer& w, Slot next) const {
  // The URNC v1 layout predates the hot block: it stores the (phase,
  // active) pair, which the klass byte round-trips through losslessly
  // (klass is a pure function of phase, active and color — see
  // load_state), the passive countdown a running passive node derives
  // from its deadline, a (who, value, stamp) triple per competitor, and
  // the leader service fields for every node.
  const bool waiting =
      hot_->klass[id_] == ColoringHot::kPassive && next != radio::kNotRunning;
  w.u8(static_cast<std::uint8_t>(phase()));
  w.boolean(hot_->klass[id_] == ColoringHot::kCount);
  w.u32(id_);
  w.i32(color_index_);
  w.i32(tc_);
  w.i64(hot_->counter[id_]);
  w.i64(waiting ? hot_->activate_at[id_] - next : hot_->activate_at[id_]);
  w.u32(competitors_);
  const NodeId* ids = competitor_ids();
  const std::int64_t* keys = competitor_keys();
  for (std::uint32_t i = 0; i < competitors_; ++i) {
    w.u32(ids[i]);
    w.i64(keys[i]);  // value − stamp, with the stamp normalised to 0
    w.i64(0);
  }
  w.u32(leader_);
  // Non-leaders write the empty service state a fresh leader starts
  // from.  The queue is serialized front-to-back; push_back on load
  // rebuilds the same FIFO order (buffer capacity is not state).
  static const LeaderState kIdle;
  const LeaderState& l = leader_state_ == kNoLeaderState
                             ? kIdle
                             : hot_->leaders[leader_state_];
  w.u32(static_cast<std::uint32_t>(l.queue.size()));
  for (std::size_t i = 0; i < l.queue.size(); ++i) w.u32(l.queue.at(i));
  w.u32(static_cast<std::uint32_t>(l.served.size()));
  for (const NodeId v : l.served) w.u32(v);
  w.i32(l.next_tc);
  w.i64(l.serve_remaining);
  w.i32(l.serve_tc);
  w.u32(stats_.resets);
  w.u32(stats_.verify_states);
  w.u32(stats_.assignments_heard);
  w.u32(stats_.duplicate_serves);
  w.u32(static_cast<std::uint32_t>(transitions_.size()));
  for (const Transition& t : transitions_) {
    w.i64(t.slot);
    w.u8(static_cast<std::uint8_t>(t.phase));
    w.i32(t.color_index);
  }
}

bool ColoringNode::load_state(obs::postmortem::Reader& r, Slot next) {
  URN_CHECK(hot_ != nullptr);
  const std::uint8_t phase = r.u8();
  if (phase > static_cast<std::uint8_t>(Phase::kDecided)) return false;
  const bool active = r.boolean();
  if (r.u32() != id_) return false;  // checkpoint applied to wrong node
  color_index_ = r.i32();
  tc_ = r.i32();
  hot_->counter[id_] = r.i64();
  const std::int64_t countdown = r.i64();
  // Reconstruct the klass byte from the v1 (phase, active, color) triple.
  switch (static_cast<Phase>(phase)) {
    case Phase::kVerify:
      hot_->klass[id_] = active ? ColoringHot::kCount : ColoringHot::kPassive;
      break;
    case Phase::kRequest:
      hot_->klass[id_] = ColoringHot::kRequest;
      break;
    case Phase::kDecided:
      hot_->klass[id_] = color_index_ == 0 ? ColoringHot::kLeader
                                           : ColoringHot::kDecidedOther;
      break;
  }
  // A running passive node waits until its next slot plus the countdown.
  Slot& at = hot_->activate_at[id_];
  at = countdown;
  if (hot_->klass[id_] == ColoringHot::kPassive &&
      next != radio::kNotRunning &&
      __builtin_add_overflow(next, countdown, &at)) {
    return false;
  }
  hot_->rearm(id_);

  // Competitors: each must be a distinct neighbour (P_v ⊆ N(v)).
  const std::uint32_t n_comp = r.u32();
  if (!r.ok() || n_comp > hot_->graph->degree(id_)) return false;
  clear_competitors();
  NodeId* ids = competitor_ids();
  std::int64_t* keys = competitor_keys();
  for (std::uint32_t i = 0; i < n_comp; ++i) {
    const NodeId who = r.u32();
    const std::int64_t value = r.i64();
    const std::int64_t stamp = r.i64();
    std::int64_t key = 0;
    if (!r.ok() || who >= hot_->graph->num_nodes() ||
        !hot_->graph->has_edge(id_, who) ||
        std::find(ids, ids + i, who) != ids + i ||
        __builtin_sub_overflow(value, stamp, &key)) {
      return false;
    }
    ids[i] = who;
    keys[i] = key;
  }
  competitors_ = n_comp;
  leader_ = r.u32();

  // Leader service state: only a leader may carry any.
  LeaderState l;
  const std::uint32_t n_queue = r.u32();
  if (!r.ok() || n_queue > kMaxCheckpointList) return false;
  for (std::uint32_t i = 0; i < n_queue; ++i) l.queue.push_back(r.u32());
  const std::uint32_t n_served = r.u32();
  if (!r.ok() || n_served > kMaxCheckpointList) return false;
  l.served.reserve(n_served);
  for (std::uint32_t i = 0; i < n_served; ++i) l.served.push_back(r.u32());
  l.next_tc = r.i32();
  l.serve_remaining = r.i64();
  l.serve_tc = r.i32();
  if (hot_->klass[id_] == ColoringHot::kLeader) {
    claim_leader_state() = std::move(l);
  } else if (!l.queue.empty() || !l.served.empty() || l.next_tc != 0 ||
             l.serve_remaining != 0 || l.serve_tc != 0) {
    return false;
  }

  stats_.resets = r.u32();
  stats_.verify_states = r.u32();
  stats_.assignments_heard = r.u32();
  stats_.duplicate_serves = r.u32();

  const std::uint32_t n_trans = r.u32();
  if (!r.ok() || n_trans > kMaxTransitions) return false;
  transitions_.clear();
  transitions_.reserve(n_trans);
  for (std::uint32_t i = 0; i < n_trans; ++i) {
    Transition t;
    t.slot = r.i64();
    t.phase = static_cast<Phase>(r.u8());
    t.color_index = r.i32();
    transitions_.push_back(t);
  }
  return r.ok();
}

}  // namespace urn::core
