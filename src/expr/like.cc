#include "expr/like.h"

namespace snowprune {

/// Two-pointer wildcard match with backtracking on the last %.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  size_t ti = 0, pi = 0;
  size_t star_pi = std::string_view::npos, star_ti = 0;
  while (ti < text.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == text[ti])) {
      ++ti;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_pi = pi++;
      star_ti = ti;
    } else if (star_pi != std::string_view::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

std::string LikePrefix(const std::string& pattern) {
  std::string prefix;
  for (char c : pattern) {
    if (c == '%' || c == '_') break;
    prefix.push_back(c);
  }
  return prefix;
}

bool IsPurePrefixPattern(const std::string& pattern) {
  if (pattern.empty() || pattern.back() != '%') return false;
  for (size_t i = 0; i + 1 < pattern.size(); ++i) {
    if (pattern[i] == '%' || pattern[i] == '_') return false;
  }
  return true;
}

bool IsExactPattern(const std::string& pattern) {
  for (char c : pattern) {
    if (c == '%' || c == '_') return false;
  }
  return true;
}

std::optional<std::string> PrefixSuccessor(const std::string& s) {
  std::string out = s;
  while (!out.empty()) {
    auto& back = reinterpret_cast<unsigned char&>(out.back());
    if (back != 0xFF) {
      ++back;
      return out;
    }
    out.pop_back();
  }
  return std::nullopt;
}

}  // namespace snowprune
