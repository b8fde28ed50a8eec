// The durable line format shared by the result cache and job checkpoints:
// a one-line header naming format + version, then one record per line as
//
//   <tag> <16-hex fnv1a64(payload)> <payload>
//
// where tag is caller-defined (cache key / point index) and payload is a
// single-line JSON object. Every line carries its own checksum, so a file
// chopped mid-write by a crash (or a flipped byte on disk) loses exactly
// the damaged lines: the reader drops them, counts them, and the caller
// recomputes - corrupt state is never trusted, never fatal.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/table.hpp"

namespace smartnoc::serve {

/// One verified line: views into CheckedFile::bytes.
struct CheckedLine {
  std::string_view tag;
  std::string_view payload;
};

inline std::string format_checked_line(std::string_view tag, std::string_view payload) {
  std::string out(tag);
  out += strf(" %016llx ", static_cast<unsigned long long>(fnv1a64(payload)));
  out += payload;
  out += '\n';
  return out;
}

struct CheckedFile {
  bool header_ok = false;        ///< first line matched the expected header
  std::uint64_t dropped = 0;     ///< malformed / checksum-failed lines
  /// The whole file, read in one go. `lines` view into it; a vector (unlike
  /// a short std::string) keeps its bytes in place when the file is moved.
  std::vector<char> bytes;
  std::vector<CheckedLine> lines;
};

/// Reads a checked-line file: one read into CheckedFile::bytes, then each
/// line is split in place and its tag and checksum field checked, so every
/// line handed out is byte-for-byte what was written. The checksums are
/// verified after the split, four lines at a time (fnv1a64_x4): opening a
/// cache hashes every byte of it, and one FNV chain is bound by multiply
/// latency. Lines keep their file order. Payloads are not parsed here -
/// callers decode them when (and only if) they need the record. A missing
/// file yields header_ok=false and no lines; a wrong header drops the
/// whole content (callers rewrite). The payload may contain any byte but
/// '\n'.
inline CheckedFile read_checked_lines(const std::string& path, const std::string& header) {
  CheckedFile out;
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return out;
  const std::streamoff size = f.tellg();
  if (size <= 0) return out;
  out.bytes.resize(static_cast<std::size_t>(size));
  f.seekg(0);
  if (!f.read(out.bytes.data(), size)) {
    out.bytes.clear();
    return out;
  }

  const char* p = out.bytes.data();
  const char* const end = p + out.bytes.size();
  auto next_line = [&] {
    const std::size_t left = static_cast<std::size_t>(end - p);
    const auto* nl = static_cast<const char*>(std::memchr(p, '\n', left));
    const std::string_view line(p, nl ? static_cast<std::size_t>(nl - p) : left);
    p = nl ? nl + 1 : end;
    return line;
  };
  if (next_line() != header) return out;
  out.header_ok = true;
  std::vector<std::uint64_t> sums;  // the checksum field of each split line
  while (p < end) {
    const std::string_view line = next_line();
    if (line.empty()) continue;
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    std::uint64_t sum = 0;
    if (sp2 == std::string_view::npos || sp2 - sp1 != 17 ||
        !parse_hex64(line.substr(sp1 + 1, 16), sum)) {
      ++out.dropped;
      continue;
    }
    out.lines.push_back(CheckedLine{line.substr(0, sp1), line.substr(sp2 + 1)});
    sums.push_back(sum);
  }

  // Keeps line i if its checksum holds, compacting in place (kept <= i).
  std::size_t kept = 0;
  const auto keep = [&](std::size_t i, std::uint64_t hash) {
    if (hash == sums[i]) {
      out.lines[kept++] = out.lines[i];
    } else {
      ++out.dropped;
    }
  };
  const std::size_t n = out.lines.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::string_view in[4] = {out.lines[i].payload, out.lines[i + 1].payload,
                                    out.lines[i + 2].payload, out.lines[i + 3].payload};
    std::uint64_t hash[4];
    fnv1a64_x4(in, hash);
    for (std::size_t l = 0; l < 4; ++l) keep(i + l, hash[l]);
  }
  for (; i < n; ++i) keep(i, fnv1a64(out.lines[i].payload));
  out.lines.resize(kept);
  return out;
}

/// Opens `path` for checked-line appends. A crash can leave a partial line
/// at EOF; appending onto it would merge the next record into a corrupt
/// line, so any unterminated tail is newline-terminated first (the partial
/// line itself still fails its checksum and is dropped on the next load).
inline std::ofstream open_checked_append(const std::string& path) {
  bool dangling = false;
  {
    std::ifstream f(path, std::ios::binary);
    if (f) {
      f.seekg(0, std::ios::end);
      if (f.tellg() > 0) {
        f.seekg(-1, std::ios::end);
        char last = '\n';
        f.get(last);
        dangling = last != '\n';
      }
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (out && dangling) out << '\n' << std::flush;
  return out;
}

}  // namespace smartnoc::serve
