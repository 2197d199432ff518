#include "common/strings.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace phoebe {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

void SplitInto(std::string_view s, char sep, std::vector<std::string_view>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out->push_back(s.substr(start));
      return;
    }
    out->push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& pieces, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

void AppendDouble(std::string* out, double v) {
  char buf[32];  // "%.17g" needs at most 24: -d.dddddddddddddddde-ddd
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17)
                       .ptr);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool Contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

namespace {

/// Quote a (possibly hostile/binary/huge) token for an error message:
/// non-printable bytes become '?', long tokens truncate with an ellipsis.
std::string QuoteToken(std::string_view token) {
  constexpr size_t kMax = 32;
  std::string q = "'";
  for (size_t i = 0; i < token.size() && i < kMax; ++i) {
    unsigned char c = static_cast<unsigned char>(token[i]);
    q += (c >= 0x20 && c < 0x7f) ? token[i] : '?';
  }
  if (token.size() > kMax) q += "...";
  q += "'";
  return q;
}

Status BadToken(const char* what, std::string_view token) {
  return Status::InvalidArgument(std::string(what) + ": " + QuoteToken(token));
}

}  // namespace

Status ParseInt64(std::string_view token, int64_t* out) {
  if (token.empty()) return Status::InvalidArgument("empty integer token");
  // from_chars takes no '+'; accept one (not followed by a second sign).
  std::string_view digits = token;
  if (digits.front() == '+') {
    digits.remove_prefix(1);
    if (digits.empty() || digits.front() == '-') return BadToken("not an integer", token);
  }
  int64_t v = 0;
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, v);
  if (ec == std::errc::result_out_of_range) return BadToken("integer out of range", token);
  if (ec != std::errc() || ptr != end) {
    return BadToken("not an integer", token);  // whitespace, junk or embedded NUL
  }
  *out = v;
  return Status::OK();
}

Status ParseInt32(std::string_view token, int32_t* out) {
  int64_t v = 0;
  PHOEBE_RETURN_NOT_OK(ParseInt64(token, &v));
  if (v < INT32_MIN || v > INT32_MAX) {
    return BadToken("integer out of int32 range", token);
  }
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status ParseFiniteDouble(std::string_view token, double* out) {
  if (token.empty()) return Status::InvalidArgument("empty numeric token");
  double v = 0.0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec == std::errc::result_out_of_range) return BadToken("number out of range", token);
  if (ec != std::errc() || ptr != end) return BadToken("not a number", token);
  if (!std::isfinite(v)) return BadToken("number is not finite", token);  // inf, nan
  *out = v;
  return Status::OK();
}

Status ParseHexU32(std::string_view token, uint32_t* out) {
  if (token.empty() || token.size() > 8) {
    return BadToken("not an 8-digit-or-less hex token", token);
  }
  uint32_t v = 0;
  for (char ch : token) {
    uint32_t digit;
    if (ch >= '0' && ch <= '9') digit = static_cast<uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') digit = static_cast<uint32_t>(ch - 'a') + 10;
    else if (ch >= 'A' && ch <= 'F') digit = static_cast<uint32_t>(ch - 'A') + 10;
    else return BadToken("not a hex token", token);
    v = (v << 4) | digit;
  }
  *out = v;
  return Status::OK();
}

std::string HumanBytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB", "EB"};
  int unit = 0;
  double v = std::abs(bytes);
  while (v >= 1024.0 && unit < 6) {
    v /= 1024.0;
    ++unit;
  }
  return StrFormat("%s%.2f %s", bytes < 0 ? "-" : "", v, kUnits[unit]);
}

std::string HumanDuration(double seconds) {
  if (seconds < 60.0) return StrFormat("%.1fs", seconds);
  if (seconds < 3600.0)
    return StrFormat("%dm %.0fs", static_cast<int>(seconds / 60), std::fmod(seconds, 60.0));
  return StrFormat("%dh %dm", static_cast<int>(seconds / 3600),
                   static_cast<int>(std::fmod(seconds, 3600.0) / 60.0));
}

}  // namespace phoebe
