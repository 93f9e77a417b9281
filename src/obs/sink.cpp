#include "obs/sink.hpp"

namespace urn::obs {

JsonlSink::JsonlSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  buffer_.reserve(kFlushThreshold + 256);
}

JsonlSink::~JsonlSink() {
  flush();
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlSink::record(const Event& e) {
  if (file_ == nullptr) return;
  append_jsonl(buffer_, e);
  ++written_;
  if (buffer_.size() >= kFlushThreshold) flush();
}

void JsonlSink::flush() {
  if (file_ == nullptr || buffer_.empty()) return;
  bytes_ += std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  std::fflush(file_);
  buffer_.clear();
}

}  // namespace urn::obs
