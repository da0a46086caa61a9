#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "pkg/catalog.hpp"

namespace perfbench {

namespace {
const Clock::time_point kOrigin = Clock::now();
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(kOrigin + std::chrono::nanoseconds(t));
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

namespace {

/// A few records of one install burst: `keep` records starting at the
/// densest one-second bin of the window, so the report is still
/// install-shaped (DiscoveryServiceConfig::burst_min_records is 20) but
/// tiny.
fs::Changeset small_window(const fs::Changeset& full, std::size_t keep) {
  const auto& records = full.records();
  std::size_t best = 0;
  std::size_t best_count = 0;
  for (std::size_t i = 0, j = 0; i < records.size(); ++i) {
    while (records[i].time_ms - records[j].time_ms >= 1000) ++j;
    if (i - j + 1 > best_count) {
      best_count = i - j + 1;
      best = j;
    }
  }
  fs::Changeset out;
  out.set_open_time(full.open_time_ms());
  const std::size_t end = std::min(records.size(), best + keep);
  for (std::size_t i = best; i < end; ++i) out.add(records[i]);
  for (const auto& label : full.labels()) out.add_label(label);
  out.close(full.close_time_ms());
  return out;
}

}  // namespace

Corpus make_corpus(std::uint64_t seed, std::size_t apps, std::size_t samples,
                   bool small_windows) {
  const auto catalog = praxi::pkg::Catalog::subset(seed, apps, 0);
  praxi::pkg::CollectOptions collect;
  collect.samples_per_app = samples;
  Corpus corpus;
  corpus.train = praxi::pkg::DatasetBuilder(catalog, seed * 2 + 1)
                     .collect_dirty(collect);
  auto pool = praxi::pkg::DatasetBuilder(catalog, seed * 2 + 2)
                  .collect_dirty(collect);
  corpus.windows.reserve(pool.changesets.size());
  for (auto& changeset : pool.changesets) {
    corpus.windows.push_back(small_windows ? small_window(changeset, 24)
                                           : std::move(changeset));
  }
  if (corpus.train.changesets.empty() || corpus.windows.empty()) {
    throw std::runtime_error("corpus generation produced no changesets");
  }
  return corpus;
}

std::string agent_name(std::uint32_t agent) {
  return "agent-" + std::to_string(agent);
}

bool parse_agent(std::string_view id, std::uint32_t& agent) {
  constexpr std::string_view kPrefix = "agent-";
  if (id.substr(0, kPrefix.size()) != kPrefix) return false;
  const char* first = id.data() + kPrefix.size();
  const char* last = id.data() + id.size();
  const auto [ptr, ec] = std::from_chars(first, last, agent);
  return ec == std::errc() && ptr == last && first != last;
}

std::string encode_report(const Corpus& corpus, std::uint32_t agent,
                          std::uint64_t seq) {
  praxi::service::ChangesetReport report;
  report.agent_id = agent_name(agent);
  report.sequence = seq;
  const std::uint64_t pick = agent * 2654435761ULL + seq * 40503ULL;
  report.changeset = corpus.windows[pick % corpus.windows.size()];
  return report.to_wire();
}

std::uint64_t result_hash(const std::vector<std::string>& applications) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const auto& app : applications) {
    for (const char c : app) mix(static_cast<unsigned char>(c));
    mix(0);  // separator: {"ab"} and {"a", "b"} differ
  }
  return h | 1;
}

// ---------------------------------------------------------------------------
// Ledger + probe
// ---------------------------------------------------------------------------

Ledger::Ledger(std::uint32_t agents, std::uint32_t per_agent)
    : agents_(agents),
      per_agent_(per_agent),
      slots_(new Slot[static_cast<std::size_t>(agents) * per_agent]()) {}

SettleProbe::SettleProbe(praxi::service::Transport& inner, Ledger& ledger,
                         OnSettle on_settle)
    : inner_(inner), ledger_(ledger), on_settle_(std::move(on_settle)) {}

bool SettleProbe::identify(std::string_view wire, ReportId& id) const {
  const auto identity = praxi::service::ChangesetReport::peek_identity(wire);
  if (!identity || !parse_agent(identity->agent_id, id.agent)) return false;
  id.seq = identity->sequence;
  return ledger_.valid(id.agent, id.seq);
}

void SettleProbe::send(std::string wire_bytes) {
  inner_.send(std::move(wire_bytes));
}

std::vector<std::string> SettleProbe::drain() {
  std::vector<std::string> wires = inner_.drain();
  last_drained_ = wires.size();
  if (!tracing_ || wires.empty()) return wires;
  const std::int64_t at = now_ns();
  DrainBatch batch;
  batch.reports.reserve(wires.size());
  for (const auto& wire : wires) {
    ReportId id;
    if (!identify(wire, id)) continue;
    batch.reports.push_back(id);
    Slot& slot = ledger_.at(id.agent, id.seq);
    if (slot.traced.load(std::memory_order_relaxed) != 0) {
      slot.drained.store(at, std::memory_order_relaxed);
    }
  }
  batches_.push_back(std::move(batch));
  return wires;
}

void SettleProbe::ack(std::string_view wire_bytes) {
  const std::int64_t begin = now_ns();
  inner_.ack(wire_bytes);
  ReportId id;
  if (!identify(wire_bytes, id)) {
    ++unknown_acks_;
    return;
  }
  Slot& slot = ledger_.at(id.agent, id.seq);
  // A repeated ack leaves the first settle time; the output check counts
  // it from `acks`.
  if (slot.acks.fetch_add(1, std::memory_order_acq_rel) != 0) return;
  const std::int64_t end = now_ns();
  slot.acked.store(end, std::memory_order_relaxed);
  settled_.fetch_add(1, std::memory_order_relaxed);
  if (tracing_ && !batches_.empty()) {
    DrainBatch& batch = batches_.back();
    if (batch.acks++ == 0) batch.first_ack_begin = begin;
    batch.last_ack_end = end;
  }
  if (on_settle_) on_settle_(id, end);
}

void SettleProbe::close() { inner_.close(); }

praxi::service::TransportStats SettleProbe::stats() const {
  return inner_.stats();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

namespace {

std::uint64_t status_field_kb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) != 0) continue;
    std::uint64_t kb = 0;
    const char* p = line.data() + field.size();
    const char* end = line.data() + line.size();
    while (p < end && (*p == ':' || *p == ' ' || *p == '\t')) ++p;
    std::from_chars(p, end, kb);
    return kb;
  }
  return 0;
}

}  // namespace

std::uint64_t rss_kb() { return status_field_kb("VmRSS"); }
std::uint64_t rss_peak_kb() { return status_field_kb("VmHWM"); }

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// ---------------------------------------------------------------------------
// Result document
// ---------------------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : values_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  values_.push_back({name, {value, unit}});
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(values_[i].first) + ": {\"value\": " +
           json_number(values_[i].second.first) +
           ", \"unit\": " + json_string(values_[i].second.second) + "}";
  }
  return out + "}";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v);
  return std::string(buffer, result.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
