/// \file misaligned_engine.hpp
/// \brief The non-aligned-slots medium (Sect. 2), as a medium policy of
///        radio::Engine.
///
/// The paper's analysis assumes slot boundaries are synchronized, but
/// notes: "all analytical results carry over to the practical non-aligned
/// case with an additional small constant factor, since each time slot can
/// overlap with at most two time-slots of a neighbor [29]."  This medium
/// implements that case so the claim can be *measured* (experiment E12):
///
///  * engine ticks are global **half-slots**; each node has a fixed phase
///    offset φ_v ∈ {0, 1} half-slots, so its local slot t occupies global
///    half-slots 2t+φ_v and 2t+φ_v+1 — overlapping at most two local
///    slots of any neighbor, exactly the situation in [29];
///  * a transmission occupies the sender's full local slot (two halves);
///  * a node u receives a transmission from neighbor s iff u was
///    listening (not transmitting) during *both* halves of s's
///    transmission and no other neighbor of u transmitted during either
///    half — the receiver needs the medium clear for the whole frame, but
///    does **not** need slot alignment with the sender;
///  * still no collision detection of any kind, and no drops.
///
/// Protocols are reused unchanged: callbacks fire once per *local* slot,
/// and all times a protocol sees (ctx.now, decision slots, latencies) are
/// in local slots, directly comparable to the aligned medium's slots.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "radio/engine.hpp"
#include "radio/message.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace urn::radio {

/// Half-slot medium policy (see engine.hpp for the policy contract).
/// Per-parity participation lists hold the nodes whose slots start on
/// even / odd halves; neighbor counts are stamped with the half they
/// belong to instead of being cleared wholesale.
class HalfSlotMedium {
 public:
  static constexpr Tick kTicksPerSlot = 2;

  /// \param offsets per-node phase offset in half-slots (each 0 or 1)
  HalfSlotMedium(std::size_t n, std::vector<std::uint8_t> offsets)
      : offsets_(std::move(offsets)),
        tx_until_half_(n, -1),
        nbr_count_{std::vector<std::uint32_t>(n, 0),
                   std::vector<std::uint32_t>(n, 0)},
        nbr_stamp_{std::vector<std::int64_t>(n, -1),
                   std::vector<std::int64_t>(n, -1)} {
    URN_CHECK(offsets_.size() == n);
    for (const std::uint8_t o : offsets_) URN_CHECK(o <= 1);
  }

  /// Uniformly random offsets, the natural "unsynchronized clocks" model.
  [[nodiscard]] static std::vector<std::uint8_t> random_offsets(
      std::size_t n, Rng& rng) {
    std::vector<std::uint8_t> offsets(n);
    for (auto& o : offsets) o = static_cast<std::uint8_t>(rng.below(2));
    return offsets;
  }

  /// The run ends after 2·max_slots + 2 halves, so a frame sent in either
  /// parity's last local slot can still end inside the run.
  [[nodiscard]] static constexpr Tick end_tick(Slot max_slots) {
    return 2 * max_slots + 2;
  }
  [[nodiscard]] Tick phase(NodeId v) const { return offsets_[v]; }

  void admit(NodeId v) { lists_[offsets_[v]].push_back(v); }
  void order_by_id() {
    for (auto& list : lists_) std::sort(list.begin(), list.end());
  }
  [[nodiscard]] bool idle() const {
    return lists_[0].empty() && lists_[1].empty();
  }
  [[nodiscard]] const std::vector<NodeId>& participants(Tick h) const {
    return lists_[h & 1];
  }

  /// Put this half's frames on air, count every frame on air at each
  /// neighbor, and end the frames that started on the previous half.
  template <typename E>
  void resolve(E& e, Tick h) {
    for (const Message& msg : e.transmitters_) {
      tx_until_half_[msg.sender] = h + 1;  // occupies halves h and h+1
      active_.push_back({msg, h});
    }
    const std::size_t parity = static_cast<std::size_t>(h & 1);
    for (const Frame& f : active_) {
      for (NodeId u : e.graph_.neighbors(f.msg.sender)) {
        if (nbr_stamp_[parity][u] != h) {
          nbr_stamp_[parity][u] = h;
          nbr_count_[parity][u] = 1;
        } else {
          ++nbr_count_[parity][u];
        }
      }
    }

    const std::size_t prev = parity ^ 1;
    for (std::size_t i = 0; i < active_.size();) {
      const Frame& f = active_[i];
      if (f.start_half != h - 1) {
        ++i;
        continue;
      }
      for (NodeId u : e.graph_.neighbors(f.msg.sender)) {
        if (e.status_[u] == 0) continue;        // asleep
        if (tx_until_half_[u] >= h - 1) continue;  // sent on h-1 or h
        const std::uint32_t c_prev = count_at(prev, u, h - 1);
        const std::uint32_t c_now = count_at(parity, u, h);
        const Slot local = (h - offsets_[u]) / 2;
        if (c_prev == 1 && c_now == 1) {
          e.deliver(u, f.msg, local);
        } else if (c_prev >= 2 || c_now >= 2) {
          e.collide(u, local);
        }
      }
      active_[i] = active_.back();
      active_.pop_back();
    }
  }

  /// v1 half-slot layout: status and decisions, wake cursor, pending
  /// count, transmit-until markers, per parity (counts, stamps, list,
  /// wake cursor), in-flight frames.  The cross-half state is all here
  /// because a delivery at half h reads what half h−1 wrote.
  template <typename E>
  void save(obs::postmortem::Writer& w, const E& e) const {
    e.save_status(w);
    w.u64(e.next_wake_);
    w.u64(e.pending_live_);
    for (const std::int64_t t : tx_until_half_) w.i64(t);
    const std::size_t woken_even = woken_with_parity(e, 0);
    for (std::size_t p = 0; p < 2; ++p) {
      for (const std::uint32_t c : nbr_count_[p]) w.u32(c);
      for (const std::int64_t s : nbr_stamp_[p]) w.i64(s);
      detail::write_ids(w, lists_[p]);
      w.u64(p == 0 ? woken_even : e.next_wake_ - woken_even);
    }
    w.u64(active_.size());
    for (const Frame& f : active_) {
      w.u8(static_cast<std::uint8_t>(f.msg.type));
      w.u32(f.msg.sender);
      w.i32(f.msg.color_index);
      w.i64(f.msg.counter);
      w.u32(f.msg.target);
      w.i32(f.msg.tc);
      w.i64(f.start_half);
    }
  }

  template <typename E>
  [[nodiscard]] bool load(obs::postmortem::Reader& r, E& e) {
    const std::size_t n = offsets_.size();
    e.load_status(r);
    e.next_wake_ = static_cast<std::size_t>(r.u64());
    e.pending_live_ = static_cast<std::size_t>(r.u64());
    if (!r.ok() || e.next_wake_ > n || e.pending_live_ > n) return false;
    for (std::int64_t& t : tx_until_half_) t = r.i64();
    const std::size_t woken_even = woken_with_parity(e, 0);
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::uint32_t& c : nbr_count_[p]) c = r.u32();
      for (std::int64_t& s : nbr_stamp_[p]) s = r.i64();
      if (!detail::read_ids(r, lists_[p], n)) return false;
      // The per-parity cursors must split the wake cursor as the wake
      // order does.
      if (r.u64() != (p == 0 ? woken_even : e.next_wake_ - woken_even)) {
        return false;
      }
    }
    const std::uint64_t n_active = r.u64();
    if (!r.ok() || n_active > n) return false;
    active_.clear();
    for (std::uint64_t i = 0; i < n_active; ++i) {
      Frame f;
      f.msg.type = static_cast<MsgType>(r.u8());
      f.msg.sender = static_cast<NodeId>(r.u32());
      f.msg.color_index = r.i32();
      f.msg.counter = r.i64();
      f.msg.target = static_cast<NodeId>(r.u32());
      f.msg.tc = r.i32();
      f.start_half = r.i64();
      active_.push_back(f);
    }
    e.rebuild_undecided();
    if (e.id_ordered_) order_by_id();
    return r.ok();
  }

 private:
  struct Frame {
    Message msg;
    std::int64_t start_half;
  };

  /// Neighbor count for parity `par` at the half it was stamped for
  /// (0 when the entry is stale — nothing transmitted near u then).
  [[nodiscard]] std::uint32_t count_at(std::size_t par, NodeId u,
                                       std::int64_t expected_half) const {
    return nbr_stamp_[par][u] == expected_half ? nbr_count_[par][u] : 0;
  }

  /// Woken nodes with phase `p`: the engine wakes a prefix of its wake
  /// order, and the v1 layout stores that prefix split by parity.
  template <typename E>
  [[nodiscard]] std::size_t woken_with_parity(const E& e,
                                              std::uint8_t p) const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < e.next_wake_; ++i) {
      if (offsets_[e.wake_order_[i]] == p) ++count;
    }
    return count;
  }

  std::vector<std::uint8_t> offsets_;
  std::vector<std::int64_t> tx_until_half_;
  std::vector<std::uint32_t> nbr_count_[2];
  std::vector<std::int64_t> nbr_stamp_[2];  ///< half the count is valid for
  std::vector<NodeId> lists_[2];            ///< live awake nodes per parity
  std::vector<Frame> active_;               ///< frames on air
};

/// The engine on the half-slot medium: constructed as
/// `(g, schedule, nodes, offsets, seed, observer)`, stepped per half-slot
/// with `step_half()`, run with a cap in local slots.  Checkpoint
/// positions are global half-slots.
template <NodeProtocol P, typename O = obs::NullObserver>
using MisalignedEngine = Engine<P, O, HalfSlotMedium>;

}  // namespace urn::radio
