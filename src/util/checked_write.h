// Checked whole-file writers for machine-readable artifacts (torture
// summaries and repro traces, prr_query JSON output). Every bench and
// gate used to hand-roll the same fopen/fwrite/ferror/fclose dance; a torn
// artifact (ENOSPC, a buffered tail lost at exit) must fail the producing
// tool, not surface later as unparseable JSON in a consumer. These helpers
// centralize that contract: they return false on ANY failure — open, short
// write, stream error, or fclose — and never leave a half-validated
// success path behind.
#pragma once

#include <string>
#include <string_view>

namespace prr::util {

// Writes `body` to `path` (truncating). Returns true iff every byte was
// durably handed to the OS (fwrite complete, no stream error, fclose
// clean). See obs::checked_write_json (obs/json.h) for the form that
// validates JSON first.
bool checked_write_file(const std::string& path, std::string_view body);

}  // namespace prr::util
