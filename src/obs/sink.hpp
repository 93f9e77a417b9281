/// \file sink.hpp
/// \brief Event sinks: where the engines send their trace events.
///
/// Every sink is an events-only engine observer (obs/observer.hpp): its
/// `kEnabled` switches the engine's emission sites on, and `NullSink`,
/// with `kEnabled == false`, compiles them all away.  Buffering sinks:
///
///  * `MemorySink`  — unbounded in-memory vector (tests, the analyzer);
///  * `RingSink`    — fixed-capacity ring keeping the *last* N events
///                    ("flight recorder" for post-mortem of long runs);
///  * `JsonlSink`   — buffered JSONL file writer (the interchange format
///                    `urn_trace` consumes).
///
/// A run that feeds several consumers at once (metrics, logs, the
/// monitor) goes through the runner's one observer, which dispatches
/// each event to every consumer it owns (core/runner.cpp).

#pragma once

#include <concepts>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace urn::obs {

/// What the engines require of a sink.  `kEnabled` is the compile-time
/// switch: when false, emission sites are discarded entirely.
template <typename S>
concept EventSink = requires(S s, const Event& e) {
  { S::kEnabled } -> std::convertible_to<bool>;
  { s.record(e) };
  { s.flush() };
};

/// The zero-overhead default: nothing is recorded, nothing is compiled.
struct NullSink {
  static constexpr bool kEnabled = false;
  void record(const Event&) {}
  void flush() {}
};

/// Unbounded in-memory event buffer.
class MemorySink {
 public:
  static constexpr bool kEnabled = true;

  void record(const Event& e) { events_.push_back(e); }
  void flush() {}

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Fixed-capacity ring buffer retaining the most recent `capacity` events.
class RingSink {
 public:
  static constexpr bool kEnabled = true;

  explicit RingSink(std::size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity);
  }

  void record(const Event& e) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
      return;
    }
    ring_[next_] = e;
    next_ = (next_ + 1) % capacity_;
  }
  void flush() {}

  /// Total events ever offered (≥ size()).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  ///< overwrite cursor once full (oldest entry)
  std::uint64_t recorded_ = 0;
  std::vector<Event> ring_;
};

/// Buffered JSONL file writer.  Serialization happens at record time into
/// an in-memory buffer flushed in large chunks, so per-event cost stays
/// far from the syscall path.
class JsonlSink {
 public:
  static constexpr bool kEnabled = true;

  /// Opens `path` for writing (truncating).  `ok()` reports failure;
  /// records on a failed sink are silently discarded.
  explicit JsonlSink(const std::string& path);
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;
  ~JsonlSink();

  void record(const Event& e);
  void flush();

  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  [[nodiscard]] std::uint64_t written() const { return written_; }
  /// File bytes emitted so far (flushed serializations).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static constexpr std::size_t kFlushThreshold = 1 << 16;

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::uint64_t written_ = 0;  ///< events serialized so far
  std::uint64_t bytes_ = 0;    ///< file bytes emitted so far
};

static_assert(EventSink<NullSink>);
static_assert(EventSink<MemorySink>);
static_assert(EventSink<RingSink>);
static_assert(EventSink<JsonlSink>);

}  // namespace urn::obs
