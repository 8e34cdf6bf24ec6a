#include "common/json_text.h"

#include <cassert>
#include <charconv>
#include <cmath>

namespace juggler {

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::to_chars_result result;
  constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53
  if (value == std::floor(value) && std::fabs(value) < kExactIntLimit) {
    result = std::to_chars(buf, buf + sizeof(buf),
                           static_cast<long long>(value));
  } else {
    result = std::to_chars(buf, buf + sizeof(buf), value);
  }
  assert(result.ec == std::errc());
  out->append(buf, result.ptr);
}

void AppendJsonString(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  // Copy runs of plain bytes in one append; only escapes break a run.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
  out->push_back('"');
}

}  // namespace juggler
