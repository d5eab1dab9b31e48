#include "common/value.h"

#include <cassert>
#include <sstream>

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
  int64_t as_int = static_cast<int64_t>(d);
  if (static_cast<double>(as_int) == d) {
    // Integral numerics (2 and 2.0) hash identically.
    return Mix64(static_cast<uint64_t>(as_int) ^ 0xabcdef12345678ULL);
  }
  if (d == 0.0) d = 0.0;  // canonicalize -0.0
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
