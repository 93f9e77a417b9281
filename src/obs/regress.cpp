#include "obs/regress.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace urn::obs {

const BenchEntry* BenchDoc::find(std::string_view key) const {
  for (const BenchEntry& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

namespace {

void skip_ws(std::string_view text, std::size_t& i) {
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t' ||
                             text[i] == '\n' || text[i] == '\r')) {
    ++i;
  }
}

/// Read a quoted string starting at text[i] == '"'; returns the content
/// with escapes resolved and leaves i one past the closing quote.
[[nodiscard]] bool read_quoted(std::string_view text, std::size_t& i,
                               std::string& out) {
  if (i >= text.size() || text[i] != '"') return false;
  ++i;
  out.clear();
  while (i < text.size() && text[i] != '"') {
    if (text[i] == '\\' && i + 1 < text.size()) ++i;
    out.push_back(text[i]);
    ++i;
  }
  if (i >= text.size()) return false;
  ++i;  // closing quote
  return true;
}

}  // namespace

BenchDoc parse_bench_json(std::string_view text) {
  BenchDoc doc;
  std::size_t i = 0;
  skip_ws(text, i);
  if (i >= text.size() || text[i] != '{') return doc;
  ++i;
  while (true) {
    skip_ws(text, i);
    if (i >= text.size()) return doc;  // unterminated object
    if (text[i] == '}') break;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    BenchEntry entry;
    if (!read_quoted(text, i, entry.key)) return doc;
    skip_ws(text, i);
    if (i >= text.size() || text[i] != ':') return doc;
    ++i;
    skip_ws(text, i);
    if (i < text.size() && text[i] == '"') {
      // String value: keep the quotes in `raw` so strings can never
      // compare equal to an identically spelled number.
      std::string content;
      if (!read_quoted(text, i, content)) return doc;
      entry.raw = "\"" + content + "\"";
    } else {
      const std::size_t start = i;
      while (i < text.size() && text[i] != ',' && text[i] != '}' &&
             text[i] != '\n') {
        ++i;
      }
      std::size_t end = i;
      while (end > start && (text[end - 1] == ' ' || text[end - 1] == '\r' ||
                             text[end - 1] == '\t')) {
        --end;
      }
      entry.raw = std::string(text.substr(start, end - start));
      if (entry.raw.empty()) return doc;
      char* parse_end = nullptr;
      const double v = std::strtod(entry.raw.c_str(), &parse_end);
      if (parse_end != nullptr && *parse_end == '\0' &&
          parse_end != entry.raw.c_str()) {
        entry.numeric = true;
        entry.value = v;
      }
    }
    doc.entries.push_back(std::move(entry));
  }
  doc.ok = true;
  return doc;
}

BenchDoc read_bench_json_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return parse_bench_json(text);
}

namespace {

[[nodiscard]] bool matches_any(const std::string& key,
                               const std::vector<std::string>& subs) {
  for (const std::string& sub : subs) {
    if (!sub.empty() && key.find(sub) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

DiffReport diff_bench(const BenchDoc& baseline, const BenchDoc& fresh,
                      const DiffOptions& options) {
  DiffReport report;
  for (const BenchEntry& base : baseline.entries) {
    if (matches_any(base.key, options.skip_substrings)) {
      ++report.skipped;
      continue;
    }
    ++report.compared;
    const BenchEntry* got = fresh.find(base.key);
    if (got == nullptr) {
      report.regressions.push_back(
          {base.key, "missing from the fresh run (baseline " + base.raw +
                         ")"});
      continue;
    }
    if (base.numeric && got->numeric) {
      const double allowed =
          options.abs_tol + options.rel_tol * std::fabs(base.value);
      if (std::fabs(got->value - base.value) > allowed) {
        report.regressions.push_back(
            {base.key, "baseline " + base.raw + ", fresh " + got->raw +
                           " (allowed drift " + std::to_string(allowed) +
                           ")"});
      }
    } else if (base.raw != got->raw) {
      report.regressions.push_back(
          {base.key, "baseline " + base.raw + ", fresh " + got->raw});
    }
  }
  return report;
}

}  // namespace urn::obs
