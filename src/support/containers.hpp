/// \file containers.hpp
/// \brief Flat containers for per-node protocol state.
///
/// `RingQueue<T>` — a power-of-two ring-buffer FIFO replacing `std::deque`
/// (which allocates a map-of-blocks per instance and scatters elements
/// across pages) for a leader's request queue.  It supports exactly the
/// operations the leader service loop needs: push_back / front /
/// pop_front / clear / contains.  Deliberately minimal: no erase in the
/// middle, no iterator invalidation guarantees beyond "don't mutate while
/// iterating".

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace urn {

/// Power-of-two ring-buffer FIFO.  Capacity doubles on demand; `clear()`
/// keeps the buffer.  T must be trivially copyable (elements relocate on
/// growth with plain assignment).
template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingQueue requires trivially copyable T");

 public:
  RingQueue() = default;

  void push_back(const T& value) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = value;
    ++count_;
  }

  [[nodiscard]] const T& front() const {
    URN_DCHECK(count_ > 0);
    return buf_[head_];
  }

  void pop_front() {
    URN_DCHECK(count_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// FIFO-order element access (0 = front).
  [[nodiscard]] const T& at(std::size_t i) const {
    URN_DCHECK(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  [[nodiscard]] bool contains(const T& value) const {
    for (std::size_t i = 0; i < count_; ++i) {
      if (at(i) == value) return true;
    }
    return false;
  }

 private:
  void grow() {
    const std::size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> fresh(new_cap);
    for (std::size_t i = 0; i < count_; ++i) fresh[i] = at(i);
    buf_ = std::move(fresh);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< size is always 0 or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace urn
