#include "common/value.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace snowprune {

const char* ToString(DataType t) {
  switch (t) {
    case DataType::kBool: return "bool";
    case DataType::kInt64: return "int64";
    case DataType::kFloat64: return "float64";
    case DataType::kString: return "string";
  }
  return "?";
}

void Value::InitString(std::string_view s) {
  if (s.size() <= kInlineCapacity) {
    std::memcpy(bytes_, s.data(), s.size());
    set_tag(static_cast<uint8_t>(kInlineStringTag + s.size()));
    return;
  }
  if (s.size() > kHeapSizeMask) {
    throw std::length_error("Value: string too long");
  }
  char* data = new char[s.size()];
  std::memcpy(data, s.data(), s.size());
  std::memcpy(bytes_, &data, sizeof(data));
  // The length's top byte is the tag byte.
  const uint64_t word = s.size() | (uint64_t{kHeapStringTag} << 56);
  std::memcpy(bytes_ + 8, &word, sizeof(word));
}

// Out of line: inlined at every destructor, GCC 12 follows the bool and
// int64 constructors into a delete[] of their payload (-Wfree-nonheap-object)
// on paths the tag test rules out.
void Value::FreeHeap() { delete[] heap_data(); }

void Value::ThrowWrongKind() { throw std::bad_variant_access(); }

int Value::Compare(const Value& a, const Value& b) {
  assert(!a.is_null() && !b.is_null());
  return CompareScalars(a, b);
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  return ScalarsEqual(*this, other);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return bool_value() ? "true" : "false";
  if (is_int64()) return std::to_string(int64_value());
  if (is_float64()) {
    std::ostringstream os;
    os << float64_value();
    return os.str();
  }
  return "'" + string_value() + "'";
}

namespace {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashBytes(const void* data, size_t len) {
  // FNV-1a, finalized with a mix round.
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

uint64_t HashBoolValue(bool b) { return Mix64(b ? 3 : 5); }

uint64_t HashStringValue(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

uint64_t HashFloat64Value(double d) {
  // Integral numerics (2 and 2.0) hash identically. Only a double in
  // [-2^63, 2^63) converts to int64 defined; NaN fails the range test.
  // -0.0 converts to 0, so it hashes as 0.0 does.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (d >= -kTwo63 && d < kTwo63) {
    const auto as_int = static_cast<int64_t>(d);
    if (static_cast<double>(as_int) == d) {
      return Mix64(static_cast<uint64_t>(as_int) ^ 0xabcdef12345678ULL);
    }
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

uint64_t HashInt64Value(int64_t v) {
  // Through the canonical-double funnel, so 2 and 2.0 hash identically.
  return HashFloat64Value(static_cast<double>(v));
}

uint64_t HashValue(const Value& v) {
  if (v.is_null()) return 0x9ae16a3b2f90404fULL;
  return HashScalar(v);
}

}  // namespace snowprune
