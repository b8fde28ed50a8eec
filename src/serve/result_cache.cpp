#include "serve/result_cache.hpp"

#include <filesystem>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "serve/checked_lines.hpp"

namespace smartnoc::serve {

namespace fs = std::filesystem;

namespace {

/// Registry-side mirrors of the per-instance Counters. Every increment below
/// updates both, side by side, so the printed cache report and the scraped
/// metrics cannot drift apart.
struct CacheInstruments {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& corrupt_dropped;
  obs::Counter& load_scrubs;
  obs::Gauge& entries;
  obs::Gauge& bytes;

  static CacheInstruments& get() {
    static CacheInstruments ci = [] {
      auto& reg = obs::MetricsRegistry::global();
      return CacheInstruments{
          reg.counter("smartnoc_cache_hits_total", "Result cache lookups served"),
          reg.counter("smartnoc_cache_misses_total", "Result cache lookups that missed"),
          reg.counter("smartnoc_cache_inserts_total", "Records appended to the cache file"),
          reg.counter("smartnoc_cache_corrupt_dropped_total",
                      "Cache lines rejected by checksum or parse at load or first lookup"),
          reg.counter("smartnoc_cache_load_scrubs_total",
                      "Cache loads that rewrote the file to scrub damage"),
          reg.gauge("smartnoc_cache_entries", "Records resident in the result cache"),
          reg.gauge("smartnoc_cache_bytes", "Bytes in the cache file (results.srcl)"),
      };
    }();
    return ci;
  }
};

}  // namespace

ResultCache::ResultCache(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw ConfigError("cannot create cache directory '" + dir + "': " + ec.message());
  file_ = (fs::path(dir) / "results.srcl").string();

  CheckedFile loaded = read_checked_lines(file_, kHeader);
  std::uint64_t dropped = loaded.dropped;
  entries_.reserve(loaded.lines.size());
  for (const CheckedLine& line : loaded.lines) {
    const std::optional<Hash128> key = Hash128::from_hex(line.tag);
    if (!key) {
      ++dropped;
      continue;
    }
    entries_.insert_or_assign(*key, line.payload);  // last wins
  }
  loaded_ = std::move(loaded.bytes);  // a vector move keeps the viewed bytes in place

  if (loaded.header_ok && dropped == 0) {
    out_ = open_checked_append(file_);
  } else {
    // Missing file, retired format version, or damage found: rewrite the
    // file from the entries that survived (empty for a version mismatch),
    // scrubbing corrupt lines instead of carrying them forever.
    if (!loaded.header_ok) entries_.clear();
    CacheInstruments::get().load_scrubs.inc();
    out_.open(file_, std::ios::binary | std::ios::trunc);
    if (out_) {
      out_ << kHeader << '\n';
      for (const auto& [key, json] : entries_) out_ << format_checked_line(key.hex(), json);
      out_ << std::flush;
    }
  }
  if (!out_) throw ConfigError("cannot open cache file '" + file_ + "' for writing");

  corrupt_dropped_.store(dropped, std::memory_order_relaxed);
  CacheInstruments& ci = CacheInstruments::get();
  ci.corrupt_dropped.inc(static_cast<double>(dropped));
  ci.entries.set(static_cast<double>(entries_.size()));
  std::error_code size_ec;
  const auto file_bytes = fs::file_size(file_, size_ec);
  if (!size_ec) ci.bytes.set(static_cast<double>(file_bytes));
}

std::optional<explore::RunRecord> ResultCache::lookup(const Hash128& key) {
  CacheInstruments& ci = CacheInstruments::get();
  std::optional<std::string_view> json;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) json = it->second;
  }
  if (json) {
    std::optional<explore::RunRecord> rec;
    try {
      rec = explore::record_from_json(*json);
    } catch (const std::exception&) {
    }
    if (rec) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      ci.hits.inc();
      return rec;
    }
    // The checksum held but the record does not parse: drop the entry (once,
    // if two lookups of one key raced here), so the point is recomputed and
    // its fresh line appended.
    bool dropped = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.data() == json->data()) {
        entries_.erase(it);
        dropped = true;
      }
    }
    if (dropped) {
      corrupt_dropped_.fetch_add(1, std::memory_order_relaxed);
      ci.corrupt_dropped.inc();
      ci.entries.add(-1.0);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  ci.misses.inc();
  return std::nullopt;
}

void ResultCache::insert(const Hash128& key, const explore::RunRecord& rec) {
  explore::RunRecord stored = rec;
  stored.index = 0;  // the key is position-independent; so is the stored row
  std::string json = explore::record_to_json(stored);
  const std::string line = format_checked_line(key.hex(), json);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.contains(key)) return;
    entries_.emplace(key, inserted_.emplace_back(std::move(json)));
    out_ << line << std::flush;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  CacheInstruments& ci = CacheInstruments::get();
  ci.inserts.inc();
  ci.entries.add(1.0);
  ci.bytes.add(static_cast<double>(line.size()));
}

ResultCache::Counters ResultCache::counters() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          inserts_.load(std::memory_order_relaxed),
          corrupt_dropped_.load(std::memory_order_relaxed)};
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace smartnoc::serve
