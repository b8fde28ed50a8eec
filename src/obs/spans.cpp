#include "obs/spans.hpp"

#include <chrono>

#include "common/json.hpp"
#include "common/table.hpp"

namespace smartnoc::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::string lane_name(int lane) {
  return lane < 0 ? std::string("server") : strf("worker %d", lane);
}

/// chrome sorts lanes by tid; keep the server on top, workers in order.
int lane_tid(int lane) { return lane < 0 ? 0 : lane + 1; }

}  // namespace

SpanTracer::SpanTracer(std::size_t max_events)
    : max_events_(max_events), epoch_ns_(steady_ns()) {}

std::uint64_t SpanTracer::now_us() const { return (steady_ns() - epoch_ns_) / 1000; }

void SpanTracer::span(int lane, std::string category, std::string name, std::uint64_t start_us,
                      std::uint64_t end_us) {
  SpanEvent ev;
  ev.lane = lane;
  ev.instant = false;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.start_us = start_us;
  ev.end_us = end_us < start_us ? start_us : end_us;
  std::lock_guard<std::mutex> lock(mu_);
  if (lane > max_lane_) max_lane_ = lane;
  if (events_.size() >= max_events_) {
    truncated_ = true;
    return;
  }
  events_.push_back(std::move(ev));
}

void SpanTracer::instant(int lane, std::string category, std::string name) {
  const std::uint64_t t = now_us();
  SpanEvent ev;
  ev.lane = lane;
  ev.instant = true;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.start_us = t;
  ev.end_us = t;
  std::lock_guard<std::mutex> lock(mu_);
  if (lane > max_lane_) max_lane_ = lane;
  if (events_.size() >= max_events_) {
    truncated_ = true;
    return;
  }
  events_.push_back(std::move(ev));
}

void SpanTracer::ensure_lanes(int workers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (workers - 1 > max_lane_) max_lane_ = workers - 1;
}

void SpanTracer::set_lane_name(int lane, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lane > max_lane_) max_lane_ = lane;
  for (auto& [l, n] : lane_names_) {
    if (l == lane) {
      n = std::move(name);
      return;
    }
  }
  lane_names_.emplace_back(lane, std::move(name));
}

std::string SpanTracer::lane_label(int lane) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [l, n] : lane_names_) {
    if (l == lane) return n;
  }
  return "";
}

bool SpanTracer::truncated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_;
}

int SpanTracer::max_lane() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_lane_;
}

std::vector<SpanEvent> SpanTracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string SpanTracer::to_chrome_json(const std::string& process_name) const {
  std::vector<SpanEvent> evs;
  std::vector<std::pair<int, std::string>> names;
  int top_lane = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    evs = events_;
    names = lane_names_;
    top_lane = max_lane_;
  }
  auto label = [&](int lane) -> std::string {
    for (const auto& [l, n] : names) {
      if (l == lane) return n;
    }
    return lane_name(lane);
  };
  std::string out = "[\n";
  out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"" + json_escape(process_name) + "\"}}";
  // One thread_name row per lane, server first - the acceptance check for
  // "one lane per executor worker" counts exactly these.
  for (int lane = -1; lane <= top_lane; ++lane) {
    out += strf(",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", "
                "\"args\": {\"name\": \"%s\"}}",
                lane_tid(lane), json_escape(label(lane)).c_str());
  }
  for (const SpanEvent& ev : evs) {
    if (ev.instant) {
      out += strf(",\n{\"ph\": \"i\", \"pid\": 1, \"tid\": %d, \"ts\": %llu, \"s\": \"t\", "
                  "\"cat\": \"%s\", \"name\": \"%s\"}",
                  lane_tid(ev.lane), static_cast<unsigned long long>(ev.start_us),
                  json_escape(ev.category).c_str(), json_escape(ev.name).c_str());
    } else {
      out += strf(",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %llu, \"dur\": %llu, "
                  "\"cat\": \"%s\", \"name\": \"%s\"}",
                  lane_tid(ev.lane), static_cast<unsigned long long>(ev.start_us),
                  static_cast<unsigned long long>(ev.end_us - ev.start_us),
                  json_escape(ev.category).c_str(), json_escape(ev.name).c_str());
    }
  }
  out += "\n]\n";
  return out;
}

}  // namespace smartnoc::obs
