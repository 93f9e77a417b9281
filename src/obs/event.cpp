#include "obs/event.hpp"

#include <array>
#include <charconv>
#include <cstdio>

namespace urn::obs {

namespace {

constexpr std::array<const char*, kNumEventKinds> kKindNames = {
    "wake", "tx", "rx", "collision", "drop",
    "phase", "reset", "decision", "serve"};

constexpr std::array<const char*, 4> kMsgNames = {"compete", "decided",
                                                 "assign", "request"};

constexpr std::array<const char*, 3> kPhaseNames = {"verify", "request",
                                                    "decided"};

void append_key_int(std::string& out, const char* key, std::int64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(",\"").append(key).append("\":").append(buf,
                                                     std::size_t(ptr - buf));
}

void append_key_str(std::string& out, const char* key, const char* v) {
  out.append(",\"").append(key).append("\":\"").append(v).append("\"");
}

/// Locate `"key":` in `line` and return a view starting at the value.
[[nodiscard]] bool find_value(std::string_view line, std::string_view key,
                              std::string_view& value) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern.push_back('"');
  pattern.append(key);
  pattern.append("\":");
  const std::size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return false;
  value = line.substr(pos + pattern.size());
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  return !value.empty();
}

[[nodiscard]] bool get_int(std::string_view line, std::string_view key,
                           std::int64_t& out) {
  std::string_view v;
  if (!find_value(line, key, v)) return false;
  const auto [ptr, ec] =
      std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{};
}

[[nodiscard]] bool get_str(std::string_view line, std::string_view key,
                           std::string_view& out) {
  std::string_view v;
  if (!find_value(line, key, v)) return false;
  if (v.front() != '"') return false;
  v.remove_prefix(1);
  const std::size_t end = v.find('"');
  if (end == std::string_view::npos) return false;
  out = v.substr(0, end);
  return true;
}

}  // namespace

const char* kind_name(EventKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  return idx < kKindNames.size() ? kKindNames[idx] : "?";
}

bool kind_from_name(std::string_view name, EventKind& out) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

const char* msg_name(std::uint8_t code) {
  return code < kMsgNames.size() ? kMsgNames[code] : "?";
}

bool msg_from_name(std::string_view name, std::uint8_t& out) {
  for (std::size_t i = 0; i < kMsgNames.size(); ++i) {
    if (name == kMsgNames[i]) {
      out = static_cast<std::uint8_t>(i);
      return true;
    }
  }
  return false;
}

const char* phase_name(std::uint8_t code) {
  return code < kPhaseNames.size() ? kPhaseNames[code] : "?";
}

bool phase_from_name(std::string_view name, std::uint8_t& out) {
  for (std::size_t i = 0; i < kPhaseNames.size(); ++i) {
    if (name == kPhaseNames[i]) {
      out = static_cast<std::uint8_t>(i);
      return true;
    }
  }
  return false;
}

void append_jsonl(std::string& out, const Event& e) {
  out.append("{\"slot\":");
  {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), e.slot);
    out.append(buf, std::size_t(ptr - buf));
  }
  append_key_str(out, "kind", kind_name(e.kind));
  append_key_int(out, "node", static_cast<std::int64_t>(e.node));
  switch (e.kind) {
    case EventKind::kWake:
    case EventKind::kCollision:
      break;
    case EventKind::kTransmit:
      append_key_str(out, "msg", msg_name(e.msg));
      append_key_int(out, "color", e.color);
      if (e.msg == static_cast<std::uint8_t>(MsgCode::kCompete)) {
        append_key_int(out, "value", e.value);
      }
      break;
    case EventKind::kDelivery:
      append_key_int(out, "peer", static_cast<std::int64_t>(e.peer));
      append_key_str(out, "msg", msg_name(e.msg));
      append_key_int(out, "color", e.color);
      break;
    case EventKind::kDrop:
      append_key_int(out, "peer", static_cast<std::int64_t>(e.peer));
      append_key_str(out, "msg", msg_name(e.msg));
      break;
    case EventKind::kPhase:
      append_key_str(out, "phase", phase_name(e.phase));
      append_key_int(out, "color", e.color);
      break;
    case EventKind::kReset:
      append_key_int(out, "color", e.color);
      append_key_int(out, "value", e.value);
      break;
    case EventKind::kDecision:
      append_key_int(out, "color", e.color);
      append_key_int(out, "value", e.value);
      break;
    case EventKind::kServe:
      append_key_int(out, "peer", static_cast<std::int64_t>(e.peer));
      append_key_int(out, "value", e.value);
      break;
  }
  out.append("}\n");
}

bool parse_jsonl_line(std::string_view line, Event& out,
                      std::string* illegal) {
  Event e;
  std::int64_t slot = 0;
  std::string_view kind;
  if (!get_int(line, "slot", slot)) return false;
  if (slot < 0) {
    if (illegal != nullptr) *illegal = "negative slot " + std::to_string(slot);
    return false;
  }
  if (!get_str(line, "kind", kind)) return false;
  if (!kind_from_name(kind, e.kind)) return false;
  e.slot = slot;

  std::int64_t node = 0;
  if (!get_int(line, "node", node) || node < 0) return false;
  e.node = static_cast<NodeId>(node);

  std::int64_t peer = 0;
  if (get_int(line, "peer", peer) && peer >= 0) {
    e.peer = static_cast<NodeId>(peer);
  }
  std::int64_t color = 0;
  if (get_int(line, "color", color)) {
    e.color = static_cast<std::int32_t>(color);
  }
  std::int64_t value = 0;
  if (get_int(line, "value", value)) e.value = value;
  std::string_view msg;
  if (get_str(line, "msg", msg) && !msg_from_name(msg, e.msg)) return false;
  std::string_view phase;
  if (get_str(line, "phase", phase) && !phase_from_name(phase, e.phase)) {
    return false;
  }
  out = e;
  return true;
}

}  // namespace urn::obs
