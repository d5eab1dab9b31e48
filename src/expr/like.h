#ifndef SNOWPRUNE_EXPR_LIKE_H_
#define SNOWPRUNE_EXPR_LIKE_H_

#include <optional>
#include <string>
#include <string_view>

namespace snowprune {

/// SQL LIKE matcher with % (any run) and _ (any single char); no escapes.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// The literal prefix of a LIKE pattern before the first wildcard
/// ("Marked-%-Ridge" -> "Marked-"). Empty when the pattern starts with a
/// wildcard.
std::string LikePrefix(const std::string& pattern);

/// True when `pattern` is exactly <literal>% — i.e. LIKE is *equivalent* to
/// STARTSWITH(literal), making the rewrite precise rather than widening.
bool IsPurePrefixPattern(const std::string& pattern);

/// True when the pattern contains no wildcards (LIKE degenerates to =).
bool IsExactPattern(const std::string& pattern);

/// The smallest string strictly greater than every string with prefix `s`:
/// increments the last non-0xFF byte and truncates. nullopt when every byte
/// is 0xFF (the prefix range is unbounded above). Strings with prefix p form
/// the interval [p, Successor(p)).
std::optional<std::string> PrefixSuccessor(const std::string& s);

}  // namespace snowprune

#endif  // SNOWPRUNE_EXPR_LIKE_H_
