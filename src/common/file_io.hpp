// Whole-file I/O for the project's text artifacts: scenario and sweep files,
// task graphs, job-queue files, result tables and telemetry exports.
#pragma once

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace smartnoc {

/// All bytes of `path`; `what` names it in the ConfigError thrown when it
/// cannot be opened or read ("cannot open scenario file 'x.scn'").
inline std::string read_file(const std::string& path, std::string_view what = "file") {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw ConfigError("cannot open " + std::string(what) + " '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  if (f.bad()) throw ConfigError("cannot read " + std::string(what) + " '" + path + "'");
  return buf.str();
}

/// Atomic file write: tmp + rename within the target's directory, so a
/// reader (a scraper, a second explorer process, a resumed job) never sees a
/// half-written file. A target that exists and is not a regular file
/// (/dev/null, /dev/stdout, a FIFO) is written in place instead: its
/// directory may not be writable, and a rename would replace the device
/// node with a plain file. Throws ConfigError on I/O failure.
inline void write_file_atomic(const std::string& path, std::string_view content) {
  std::error_code ec;
  const auto st = std::filesystem::status(path, ec);
  const bool in_place =
      std::filesystem::exists(st) && !std::filesystem::is_regular_file(st);
  const std::string tmp = in_place ? path : path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw ConfigError("cannot write '" + tmp + "'");
    f.write(content.data(), static_cast<std::streamsize>(content.size()));
    f.flush();
    if (!f) throw ConfigError("write failed for '" + tmp + "'");
  }
  if (in_place) return;
  std::filesystem::rename(tmp, path, ec);
  if (ec) throw ConfigError("cannot rename '" + tmp + "': " + ec.message());
}

}  // namespace smartnoc
