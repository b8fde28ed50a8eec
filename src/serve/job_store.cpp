#include "serve/job_store.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <filesystem>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/table.hpp"
#include "explore/explore.hpp"
#include "serve/checked_lines.hpp"

namespace smartnoc::serve {

namespace fs = std::filesystem;

namespace {

/// "my Sweep.sweep" -> "my-sweep": lowercase alnum runs joined by '-'.
std::string sanitize_hint(const std::string& hint) {
  std::string out;
  for (const char c : hint) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '-') {
      out += '-';
    }
    if (out.size() >= 24) break;
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

/// The numeric sequence in "j042-name" (0 if the name doesn't match).
unsigned long job_sequence(const std::string& id) {
  if (id.size() < 2 || id[0] != 'j') return 0;
  char* end = nullptr;
  const unsigned long seq = std::strtoul(id.c_str() + 1, &end, 10);
  if (end == id.c_str() + 1) return 0;
  return seq;
}

}  // namespace

const char* job_state_name(JobInfo::State s) {
  switch (s) {
    case JobInfo::State::Pending: return "pending";
    case JobInfo::State::Partial: return "partial";
    case JobInfo::State::Done: return "done";
    case JobInfo::State::Failed: return "failed";
  }
  return "?";
}

JobStore::JobStore(const std::string& root) : root_(root) {
  jobs_dir_ = (fs::path(root_) / "jobs").string();
  std::error_code ec;
  fs::create_directories(jobs_dir_, ec);
  if (ec) throw ConfigError("cannot create job directory '" + jobs_dir_ + "': " + ec.message());
}

std::string JobStore::cache_dir() const { return (fs::path(root_) / "cache").string(); }

std::string JobStore::submit(const std::string& sweep_text, const std::string& name_hint) {
  const std::string suffix = sanitize_hint(name_hint);
  unsigned long seq = 0;
  for (const std::string& id : job_ids()) seq = std::max(seq, job_sequence(id));
  for (;;) {
    ++seq;
    std::string id = strf("j%03lu", seq);
    if (!suffix.empty()) id += "-" + suffix;
    const fs::path dir = fs::path(jobs_dir_) / id;
    std::error_code ec;
    if (!fs::create_directory(dir, ec)) {
      if (ec) throw ConfigError("cannot create job '" + dir.string() + "': " + ec.message());
      continue;  // sequence collision (concurrent submit): try the next one
    }
    write_file_atomic(dir / "spec.sweep", sweep_text);
    return id;
  }
}

std::vector<std::string> JobStore::job_ids() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(jobs_dir_, ec)) {
    if (!entry.is_directory()) continue;
    if (fs::exists(entry.path() / "spec.sweep")) ids.push_back(entry.path().filename().string());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool JobStore::has_job(const std::string& id) const {
  return fs::exists(fs::path(jobs_dir_) / id / "spec.sweep");
}

std::string JobStore::job_dir(const std::string& id) const {
  return (fs::path(jobs_dir_) / id).string();
}

std::string JobStore::sweep_text(const std::string& id) const {
  if (!has_job(id)) throw ConfigError("unknown job '" + id + "'");
  return read_file(fs::path(jobs_dir_) / id / "spec.sweep");
}

JobInfo JobStore::info(const std::string& id) const {
  JobInfo info;
  info.id = id;
  info.dir = job_dir(id);
  const fs::path dir(info.dir);
  if (fs::exists(dir / "FAILED")) {
    info.state = JobInfo::State::Failed;
    try {
      info.error = read_file(dir / "FAILED");
    } catch (const std::exception&) {
    }
    while (!info.error.empty() && info.error.back() == '\n') info.error.pop_back();
  } else if (fs::exists(dir / "DONE")) {
    info.state = JobInfo::State::Done;
  } else if (fs::exists(dir / "progress.srcl")) {
    info.state = JobInfo::State::Partial;
  }
  try {
    info.total = explore::parse_sweep(sweep_text(id)).size();
  } catch (const std::exception&) {
    info.total = 0;
  }
  info.done = load_checkpoint(id).size();
  if (info.state == JobInfo::State::Done) info.done = info.total;
  return info;
}

std::map<std::size_t, explore::RunRecord> JobStore::load_checkpoint(const std::string& id,
                                                                    std::uint64_t* dropped) const {
  std::map<std::size_t, explore::RunRecord> out;
  const CheckedFile loaded = read_checked_lines(progress_file(id), kProgressHeader);
  std::uint64_t bad = loaded.dropped;
  for (const CheckedLine& line : loaded.lines) {
    std::uint64_t index = 0;
    const char* const tag_end = line.tag.data() + line.tag.size();
    const auto parsed = std::from_chars(line.tag.data(), tag_end, index);
    if (parsed.ec != std::errc() || parsed.ptr != tag_end) {
      ++bad;
      continue;
    }
    try {
      explore::RunRecord rec = explore::record_from_json(line.payload);
      if (rec.index != index) {
        ++bad;  // tag/payload disagree: do not trust the line
        continue;
      }
      out[static_cast<std::size_t>(index)] = std::move(rec);
    } catch (const std::exception&) {
      ++bad;
    }
  }
  if (dropped) *dropped = bad;
  return out;
}

std::string JobStore::progress_file(const std::string& id) const {
  return (fs::path(jobs_dir_) / id / "progress.srcl").string();
}

void JobStore::mark_failed(const std::string& id, const std::string& why) const {
  write_file_atomic(fs::path(jobs_dir_) / id / "FAILED", why + "\n");
}

void JobStore::finalize(const std::string& id, const explore::ResultTable& table) const {
  const fs::path dir(job_dir(id));
  write_file_atomic(dir / "results.csv", table.to_csv());
  write_file_atomic(dir / "results.json", table.to_json());
  write_file_atomic(dir / "DONE", "");
}

}  // namespace smartnoc::serve
