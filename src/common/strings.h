// Small string helpers shared across modules.
#pragma once

#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace phoebe {

/// Split `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(const std::string& s, char sep);

/// Split `s` on `sep` into views of `s`, keeping empty pieces. `*out` is
/// cleared first, so one vector can be reused across lines without
/// allocating; the views live only as long as `s`'s bytes.
void SplitInto(std::string_view s, char sep, std::vector<std::string_view>* out);

/// Join pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, const std::string& sep);

/// ASCII lower-casing.
std::string ToLower(std::string s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Append `v` to `*out` byte for byte as printf("%.17g") prints it. This is
/// the one double writer of every text format (trace, bundle, model text,
/// shard blob, reports, JSON): 17 significant digits round-trip any finite
/// double bit-exactly through ParseFiniteDouble, and std::to_chars produces
/// the same bytes several times faster than vsnprintf (common_test pins the
/// equality on edge values and random bit patterns).
void AppendDouble(std::string* out, double v);

namespace strings_internal {
template <typename T>
void AppendPiece(std::string* out, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    AppendDouble(out, v);
  } else if constexpr (std::is_same_v<T, char>) {
    out->push_back(v);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(!std::is_same_v<T, bool>, "StrAppend: write bools explicitly");
    char buf[24];
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else {
    static_assert(std::is_convertible_v<const T&, std::string_view>,
                  "StrAppend takes strings, chars, integers and doubles");
    out->append(std::string_view(v));
  }
}
}  // namespace strings_internal

/// Append each argument to `*out`: strings and chars verbatim, integers in
/// decimal (as %d / %zu / %lld print them), doubles through AppendDouble.
/// The text writers build their lines with this instead of StrFormat.
template <typename... Args>
void StrAppend(std::string* out, const Args&... args) {
  (strings_internal::AppendPiece(out, args), ...);
}

/// True if `s` starts with / ends with / contains `sub`.
bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);
bool Contains(const std::string& s, const std::string& sub);

/// Strict numeric token parsers for untrusted text (fuzzed traces, external
/// graph files). Unlike atoi/atof, they reject empty tokens, trailing junk,
/// and out-of-range values instead of returning garbage or invoking UB, so a
/// corrupted input surfaces as a clean error Status naming the offending
/// token (never a crash; fuzz_parser_test pins this). The whole token must be
/// the number; leading/trailing whitespace is rejected. On error `*out` is
/// untouched. Callers that only want a yes/no test use `.ok()`; callers
/// building a richer message can still wrap the returned Status.
/// Decimal integers, optionally signed ('-' or '+').
Status ParseInt32(std::string_view token, int32_t* out);
Status ParseInt64(std::string_view token, int64_t* out);
/// The one double parser of every text format, the inverse of AppendDouble.
/// Built on std::from_chars: decimal or exponent notation with an optional
/// leading '-' ("-0", ".5", "5.", "1e-3", denormals). It rejects a leading
/// '+', hex floats ("0x1p3"), and values that overflow ("1e999") or
/// underflow to zero ("1e-400"); AppendDouble never writes any of them.
/// Accepts only finite values (inf/nan are rejected): every numeric field
/// in the text formats is a finite quantity, and letting an overflowed
/// value through as +inf would poison downstream arithmetic.
Status ParseFiniteDouble(std::string_view token, double* out);
/// Unsigned 32-bit hex token (no 0x prefix), e.g. a CRC-32 printed "%08x".
/// Same strictness as the parsers above: the whole token must be hex digits.
Status ParseHexU32(std::string_view token, uint32_t* out);

/// Human-readable byte count, e.g. "1.50 GB".
std::string HumanBytes(double bytes);

/// Human-readable duration from seconds, e.g. "2h 15m".
std::string HumanDuration(double seconds);

}  // namespace phoebe
