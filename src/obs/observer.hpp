/// \file observer.hpp
/// \brief The engine's one observation seam: an observer policy with four
///        compile-time capabilities.
///
/// `radio::Engine<P, O, M>` holds one `O*` and reaches it only through
/// the capabilities `O` declares:
///
///  * events       (`kEvents`)      — `record(const Event&)` and `flush()`;
///    the engine also hands protocols a `SlotContext` hook that records
///    into `O`;
///  * slot samples (`kSamples`)     — `begin_run()`, `end_run()` and one
///    `on_slot(const telemetry::SlotSample&)` per tick;
///  * checkpoints  (`kCheckpoints`) — `maybe_checkpoint(engine, tick)` at
///    the top of every run-loop iteration;
///  * phase spans  (`kSpans`)       — `now_ns()` and
///    `record(name, track, start_ns, dur_ns, slot)`, one span per wake /
///    protocol / medium phase of every stepped tick.
///
/// A capability the observer does not declare is off, and every hook
/// behind it is discarded under `if constexpr`: `NullObserver` declares
/// none, so `Engine<P>` is the uninstrumented loop.  The building blocks
/// are observers on their own — an `EventSink` is an events-only observer
/// (its `kEnabled` is its `kEvents`), `telemetry::EngineProbe` a
/// samples-only one, `postmortem::Checkpointer` a checkpoints-only one
/// and `SpanSink` a spans-only one — and the runner's `RunObserver`
/// declares all four.  Only events change how the engine runs: with
/// events on it sweeps protocols through the scalar `on_slot` loop, whose
/// contexts carry the hook.  No hook touches an RNG stream, so every
/// observer leaves the run bit-identical.

#pragma once

namespace urn::obs {

/// The observer with no capabilities (the engine's default).
struct NullObserver {};

template <typename O>
inline constexpr bool kObservesEvents =
    requires { requires bool(O::kEvents); } ||
    requires { requires bool(O::kEnabled); };

template <typename O>
inline constexpr bool kObservesSamples =
    requires { requires bool(O::kSamples); };

template <typename O>
inline constexpr bool kObservesCheckpoints =
    requires { requires bool(O::kCheckpoints); };

template <typename O>
inline constexpr bool kObservesSpans = requires { requires bool(O::kSpans); };

}  // namespace urn::obs
