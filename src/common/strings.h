// Small string formatting/parsing helpers (gcc 12 lacks std::format).
#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace chaser {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Split `s` on any of the whitespace characters, dropping empty tokens.
std::vector<std::string> SplitWhitespace(const std::string& s);

/// Split on a single delimiter, keeping empty tokens.
std::vector<std::string> Split(const std::string& s, char delim);

/// Hex rendering of a 64-bit value, e.g. "0x00000000004001a8".
std::string Hex64(std::uint64_t v);

/// Parse an unsigned integer (decimal, or 0x-prefixed hex).
/// Returns false on malformed input, including a sign or leading whitespace.
bool ParseU64(const std::string& s, std::uint64_t* out);

/// Parse a double. Returns false on malformed input.
bool ParseDouble(const std::string& s, double* out);

/// One `key=value` pair from a comma-separated spec string.
struct KeyVal {
  std::string key;
  std::string value;
};

/// Split a "k1=v1,k2=v2,..." spec into pairs — the one tokenizer shared by
/// `--injector` and `--hub-fault`-style flags. An empty spec yields an empty
/// list. Returns false (and sets *bad_token to the offending token) when a
/// token lacks '=' or has an empty key; the caller owns the error message.
bool ParseKeyValList(const std::string& spec, std::vector<KeyVal>* out,
                     std::string* bad_token);

/// Minimal JSON field lookup for the small, well-known documents chaser
/// tools exchange (status.json, /status scrape bodies). Finds the FIRST
/// `"key":` occurrence anywhere in `json` — keys must therefore be unique
/// across nesting levels in the documents these are used on — and writes the
/// raw value token (a quoted string, number, `null`, `true`/`false`, or a
/// balanced {...}/[...] sub-document) to *out. Returns false when the key is
/// absent or the value is malformed. Not a JSON validator.
bool JsonFindRaw(const std::string& json, const std::string& key,
                 std::string* out);

/// JsonFindRaw restricted to quoted string values; *out gets the unquoted
/// text with \" \\ \n escapes decoded. False if absent or not a string.
bool JsonFindString(const std::string& json, const std::string& key,
                    std::string* out);

/// JsonFindRaw restricted to numbers. False if absent, `null`, or not a
/// number — callers use the false return to honor the null-for-unknown
/// contract (e.g. a shard's eta_s) instead of reading 0.
bool JsonFindNumber(const std::string& json, const std::string& key,
                    double* out);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Lower-case copy (ASCII).
std::string ToLower(std::string s);

}  // namespace chaser
