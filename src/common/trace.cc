#include "common/trace.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <thread>

#include "common/check.h"

namespace snowprune {

namespace {

uint64_t ThisThreadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') *out << '\\';
    *out << c;
  }
  *out << '"';
}

}  // namespace

int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanBuffer::Begin(const char* name, uint32_t parent) {
  TraceSpan span;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = name;
  span.start_ns = TraceNowNs();
  span.thread_id = ThisThreadId();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanBuffer::End(uint32_t id) {
  SNOW_DCHECK_GE(id, 1u);
  SNOW_DCHECK_LE(static_cast<size_t>(id), spans_.size());
  TraceSpan& span = spans_[id - 1];
  span.duration_ns = TraceNowNs() - span.start_ns;
}

void SpanBuffer::AnnotateInt(uint32_t id, const char* key, int64_t value) {
  SNOW_DCHECK_GE(id, 1u);
  SNOW_DCHECK_LE(static_cast<size_t>(id), spans_.size());
  TraceAnnotation a;
  a.key = key;
  a.int_value = value;
  spans_[id - 1].annotations.push_back(std::move(a));
}

uint32_t Trace::BeginSpan(const std::string& name, uint32_t parent) {
  SNOW_DCHECK_LE(static_cast<size_t>(parent), spans_.size());
  TraceSpan span;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = name;
  span.start_ns = TraceNowNs();
  span.thread_id = ThisThreadId();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::EndSpan(uint32_t id) {
  SNOW_DCHECK_GE(id, 1u);
  SNOW_DCHECK_LE(static_cast<size_t>(id), spans_.size());
  TraceSpan& span = spans_[id - 1];
  span.duration_ns = TraceNowNs() - span.start_ns;
}

void Trace::AnnotateInt(uint32_t id, const std::string& key, int64_t value) {
  SNOW_DCHECK_GE(id, 1u);
  SNOW_DCHECK_LE(static_cast<size_t>(id), spans_.size());
  TraceAnnotation a;
  a.key = key;
  a.int_value = value;
  spans_[id - 1].annotations.push_back(std::move(a));
}

void Trace::AnnotateStr(uint32_t id, const std::string& key,
                        std::string value) {
  SNOW_DCHECK_GE(id, 1u);
  SNOW_DCHECK_LE(static_cast<size_t>(id), spans_.size());
  TraceAnnotation a;
  a.key = key;
  a.str_value = std::move(value);
  a.is_string = true;
  spans_[id - 1].annotations.push_back(std::move(a));
}

void Trace::MergeBuffer(SpanBuffer* buffer, uint32_t parent_id) {
  SNOW_DCHECK_LE(static_cast<size_t>(parent_id), spans_.size());
  const uint32_t offset = static_cast<uint32_t>(spans_.size());
  for (TraceSpan& span : buffer->spans()) {
    span.id += offset;
    span.parent = span.parent == 0 ? parent_id : span.parent + offset;
    spans_.push_back(std::move(span));
  }
  buffer->clear();
}

int64_t Trace::EpochNs() const {
  int64_t epoch = 0;
  bool first = true;
  for (const TraceSpan& span : spans_) {
    if (first || span.start_ns < epoch) epoch = span.start_ns;
    first = false;
  }
  return epoch;
}

std::string Trace::ToJson() const {
  const int64_t epoch = EpochNs();
  std::ostringstream out;
  out << "{\"stage_tasks\":" << stage_tasks() << ",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    if (i > 0) out << ',';
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":";
    AppendJsonString(&out, span.name);
    out << ",\"start_ns\":" << (span.start_ns - epoch)
        << ",\"duration_ns\":" << span.duration_ns
        << ",\"thread\":" << (span.thread_id & 0xffff);
    if (!span.annotations.empty()) {
      out << ",\"annotations\":{";
      for (size_t a = 0; a < span.annotations.size(); ++a) {
        const TraceAnnotation& ann = span.annotations[a];
        if (a > 0) out << ',';
        AppendJsonString(&out, ann.key);
        out << ':';
        if (ann.is_string) {
          AppendJsonString(&out, ann.str_value);
        } else {
          out << ann.int_value;
        }
      }
      out << '}';
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

std::string Trace::ToText() const {
  // Children in recording order under each parent, roots first — a stable
  // depth-first render independent of thread interleaving at merge time.
  std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
  for (const TraceSpan& span : spans_) {
    SNOW_DCHECK_LT(span.parent, span.id);
    children[span.parent].push_back(span.id);
  }
  const int64_t epoch = EpochNs();
  std::ostringstream out;
  std::function<void(uint32_t, int)> render = [&](uint32_t id, int depth) {
    const TraceSpan& span = spans_[id - 1];
    for (int i = 0; i < depth; ++i) out << "  ";
    out << span.name << "  +"
        << (span.start_ns - epoch) / 1000 << "us "
        << span.duration_ns / 1000 << "us";
    for (const TraceAnnotation& ann : span.annotations) {
      out << ' ' << ann.key << '=';
      if (ann.is_string) {
        out << ann.str_value;
      } else {
        out << ann.int_value;
      }
    }
    out << '\n';
    for (uint32_t child : children[id]) render(child, depth + 1);
  };
  for (uint32_t root : children[0]) render(root, 0);
  return out.str();
}

}  // namespace snowprune
