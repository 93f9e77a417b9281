/// \file sink.hpp
/// \brief Event sinks: where the engines send their trace events.
///
/// Every sink is an events-only engine observer (obs/observer.hpp): its
/// `kEnabled` switches the engine's emission sites on, and `NullSink`,
/// with `kEnabled == false`, compiles them all away.  Buffering sinks:
///
///  * `MemorySink`  — unbounded in-memory vector (tests, the analyzer);
///  * `JsonlSink`   — buffered JSONL file writer (the interchange format
///                    `urn_trace` consumes).
///
/// The bounded "flight recorder" is `BinSink`'s ring mode (bintrace.hpp).
///
/// A run that feeds several consumers at once (logs, the monitor, a
/// memory capture) goes through the runner's one observer, which dispatches
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

 private:
  static constexpr std::size_t kFlushThreshold = 1 << 16;

  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::uint64_t written_ = 0;  ///< events serialized so far
  std::uint64_t bytes_ = 0;    ///< file bytes emitted so far
};

static_assert(EventSink<NullSink>);
static_assert(EventSink<MemorySink>);
static_assert(EventSink<JsonlSink>);

}  // namespace urn::obs
