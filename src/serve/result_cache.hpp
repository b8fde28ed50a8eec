// Content-addressed, durable store of RunRecords keyed by point_key.
//
// On disk the cache is a single append-only checked-line file
// (results.srcl) under the cache directory:
//
//   smartnoc-result-cache v1
//   <32-hex point key> <16-hex fnv1a64(json)> <single-line record JSON>
//
// Opening the cache verifies and indexes, it does not decode: the file is
// read in one go, every line is split and its checksum checked - four lines
// at a time, on independent FNV-1a chains (read_checked_lines) - and the key
// is mapped to the verified record JSON, which stays in the load buffer. A lookup
// takes the mutex once, to find its entry, and decodes the record outside
// it, so the executor's workers decode in parallel. A line whose checksum
// holds but whose JSON does not parse is dropped on its first lookup: it
// counts as corrupt and as a miss, the point is recomputed and its fresh
// record appended, and last-wins on the next load serves that line.
//
// Appends are flushed per insert, so a crash loses at most the line being
// written - and a half-written line fails its checksum and is dropped (and
// recomputed) on the next load, never served. A header from a different
// format version retires the whole file: the cache starts empty and
// rewrites it. Duplicate keys are last-wins on load and suppressed on
// insert.
//
// Thread-safe (the sweep executor calls from worker threads): the entry map
// is guarded by an internal mutex, taken once per lookup or insert (a
// second time only to drop an undecodable line), and the counters are
// atomics bumped outside it, as are the registry's mirrors of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "explore/result_sink.hpp"

namespace smartnoc::serve {

class ResultCache {
 public:
  static constexpr const char* kHeader = "smartnoc-result-cache v1";

  /// Opens (creating directory and file as needed) the cache rooted at
  /// `dir`. Lines failing their checksum are dropped and counted.
  explicit ResultCache(const std::string& dir);

  /// The record stored under `key`, with rec.index zeroed (the caller
  /// re-stamps it for the sweep being served). Counts a hit or a miss; a
  /// stored record that does not decode is dropped and reads as a miss.
  std::optional<explore::RunRecord> lookup(const Hash128& key);

  /// Stores `rec` under `key` and appends it to disk. A key already present
  /// is ignored (first write wins; identical by construction - the key
  /// covers everything that determines the record).
  void insert(const Hash128& key, const explore::RunRecord& rec);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t corrupt_dropped = 0;  ///< lines rejected at load or first lookup
  };
  Counters counters() const;

  std::size_t size() const;
  const std::string& file() const { return file_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Hash128& k) const noexcept { return k.lo; }
  };

  mutable std::mutex mu_;
  std::string file_;
  std::vector<char> loaded_;          // the file as read at open
  std::deque<std::string> inserted_;  // record JSON appended since open
  // key -> verified record JSON, a view into loaded_ or inserted_ (neither
  // moves nor frees bytes while the cache lives, so a view read under the
  // lock stays valid after it is released).
  std::unordered_map<Hash128, std::string_view, KeyHash> entries_;
  std::ofstream out_;
  // Bumped outside mu_: a hit takes the lock once, to find its entry.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> corrupt_dropped_{0};
};

}  // namespace smartnoc::serve
