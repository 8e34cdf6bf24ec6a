#ifndef JUGGLER_COMMON_JSON_TEXT_H_
#define JUGGLER_COMMON_JSON_TEXT_H_

#include <string>
#include <string_view>

namespace juggler {

/// \brief The one JSON scalar formatter.
///
/// `net::Json::Dump` and the direct reply writers (the recommend codec, the
/// service's per-answer encoding) all print numbers and strings through
/// these two functions, so a tree-built document and a directly written one
/// can never differ by a byte.

/// Appends `value` as a JSON number. Non-finite values print as `null`
/// (JSON has no Infinity/NaN); integral values below 2^53 in magnitude print
/// without fraction or exponent ("12000", and "0" for -0.0); everything else
/// prints in shortest round-trip form.
void AppendJsonNumber(std::string* out, double value);

/// Appends `text` as a quoted JSON string: `"` and `\` are escaped, the
/// control characters with a short form use it (\b \f \n \r \t), the rest of
/// 0x00-0x1f print as \u00xx, and every other byte is copied as is.
void AppendJsonString(std::string* out, std::string_view text);

}  // namespace juggler

#endif  // JUGGLER_COMMON_JSON_TEXT_H_
