// Minimal JSON helpers for the exporters: string escaping for emission
// and a strict recursive-descent validator used by the golden-file test,
// the registry reconciliation test and checked_write_json. Emission
// here is string building, not a DOM — exports are write-only and the
// formats (Perfetto trace-event, registry dump) are flat enough that a
// serializer library would be dead weight.
#pragma once

#include <string>
#include <string_view>

namespace prr::obs {

// Escapes `"`, `\`, and control characters per RFC 8259.
std::string json_escape(std::string_view s);

inline std::string json_quote(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

// Shortest round-trippable form that is still valid JSON (never bare
// "inf"/"nan": those are clamped to 0, which the exporters never feed
// it anyway).
std::string json_double(double v);

// True iff `s` is one complete, well-formed JSON value (object, array,
// string, number, true/false/null) with nothing but whitespace after
// it. Validates structure only — no limits on depth or duplicate keys.
bool json_valid(std::string_view s);

// util::checked_write_file after a structural validation of `body`
// (json_valid): malformed JSON is refused at the producer, before any
// byte reaches the file.
bool checked_write_json(const std::string& path, std::string_view body);

}  // namespace prr::obs
