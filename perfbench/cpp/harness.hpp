// Shared pieces of the report-path benchmark: run options, the generated
// corpus, the per-report ledger, the settle probe (a service::Transport
// decorator around the ingress endpoint), exact sample quantiles, process
// memory readings and the result document.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fs/changeset.hpp"
#include "pkg/dataset.hpp"
#include "service/transport.hpp"

namespace perfbench {

namespace fs = praxi::fs;
namespace pkg = praxi::pkg;

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a fixed process-wide origin (steady clock).
std::int64_t now_ns();
/// Sleeps until now_ns() would read `t` (returns at once if it is past).
void sleep_until_ns(std::int64_t t);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< self-test configuration: everything small
  std::string work_dir;     ///< scratch space for WAL directories
  std::string trace_path;   ///< where the traced run writes its spans
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Everything generated from --seed before the program is set up. Only the
/// program's own calls are timed; building this corpus is not.
struct Corpus {
  pkg::Dataset train;                  ///< labeled: training + feedback
  std::vector<fs::Changeset> windows;  ///< report payload pool
};

/// `apps` repository packages, `samples` dirty installs of each for
/// training and as many again (another seed) for the report pool. With
/// `small_windows`, every pool entry is cut down to a few records of one
/// install burst (the churn workload's tiny reports).
Corpus make_corpus(std::uint64_t seed, std::size_t apps, std::size_t samples,
                   bool small_windows);

std::string agent_name(std::uint32_t agent);

/// Parses an id made by agent_name(); false for anything else.
bool parse_agent(std::string_view id, std::uint32_t& agent);

/// The wire bytes of report (agent, seq): a deterministic pick from the
/// pool, so the reference run can rebuild any report from its identity.
std::string encode_report(const Corpus& corpus, std::uint32_t agent,
                          std::uint64_t seq);

/// Order-sensitive 64-bit digest of a discovery's applications; never 0.
std::uint64_t result_hash(const std::vector<std::string>& applications);

// ---------------------------------------------------------------------------
// Ledger: one slot per report, keyed by (agent, seq)
// ---------------------------------------------------------------------------

/// Timestamps of one report (now_ns(); 0 = did not happen). Atomics because
/// sender threads, the processing thread and the reporting code all touch
/// a slot; every access is relaxed except the ack count.
struct Slot {
  std::atomic<std::int64_t> due{0};         ///< scheduled / ready time
  std::atomic<std::int64_t> send_begin{0};  ///< SocketClient::send entered
  std::atomic<std::int64_t> send_end{0};    ///< ... and returned
  std::atomic<std::int64_t> drained{0};     ///< probe drain() returned it
  std::atomic<std::int64_t> acked{0};       ///< first probe ack() of it
  std::atomic<std::uint32_t> acks{0};       ///< ack() calls seen
  /// result_hash() of the live discovery for this report (0 = none), so
  /// the output check keeps no growing map beside the program under test.
  std::atomic<std::uint64_t> result{0};
  std::atomic<std::uint8_t> traced{0};      ///< sent in a traced time slice
};

class Ledger {
 public:
  Ledger(std::uint32_t agents, std::uint32_t per_agent);

  std::uint32_t agents() const { return agents_; }
  std::uint32_t per_agent() const { return per_agent_; }
  bool valid(std::uint32_t agent, std::uint64_t seq) const {
    return agent < agents_ && seq < per_agent_;
  }
  Slot& at(std::uint32_t agent, std::uint64_t seq) {
    return slots_[static_cast<std::size_t>(agent) * per_agent_ + seq];
  }
  const Slot& at(std::uint32_t agent, std::uint64_t seq) const {
    return slots_[static_cast<std::size_t>(agent) * per_agent_ + seq];
  }

  /// fn(agent, seq, slot) for every report a sender attempted. Each agent
  /// belongs to one sender, which sends its sequences in order, so an
  /// agent's attempted reports are a prefix of its slots.
  template <typename Fn>
  void for_each_attempted(Fn&& fn) const {
    for (std::uint32_t agent = 0; agent < agents_; ++agent) {
      for (std::uint64_t seq = 0; seq < per_agent_; ++seq) {
        const Slot& slot = at(agent, seq);
        if (slot.send_begin.load(std::memory_order_relaxed) == 0) break;
        fn(agent, seq, slot);
      }
    }
  }

 private:
  std::uint32_t agents_;
  std::uint32_t per_agent_;
  std::unique_ptr<Slot[]> slots_;
};

/// Report identity as the ledger indexes it.
struct ReportId {
  std::uint32_t agent = 0;
  std::uint64_t seq = 0;
};

/// One drain() that returned at least one frame, with the acks that
/// followed it before the next drain (the ack loop of that process() call).
struct DrainBatch {
  std::vector<ReportId> reports;
  std::int64_t first_ack_begin = 0;
  std::int64_t last_ack_end = 0;
  std::size_t acks = 0;
};

// ---------------------------------------------------------------------------
// Settle probe
// ---------------------------------------------------------------------------

/// Transport decorator the benchmark puts between the ingress endpoint and
/// DiscoveryServer::process() / ShardRouter::process(). Both call ack()
/// only after the WAL fsync of the frame's batch, so the probe's ack time
/// is the report's settle time. Called from the one processing thread.
class SettleProbe final : public praxi::service::Transport {
 public:
  using OnSettle = std::function<void(const ReportId&, std::int64_t at_ns)>;

  SettleProbe(praxi::service::Transport& inner, Ledger& ledger,
              OnSettle on_settle);

  void send(std::string wire_bytes) override;
  std::vector<std::string> drain() override;
  void ack(std::string_view wire_bytes) override;
  void close() override;
  praxi::service::TransportStats stats() const override;

  /// Record drain batches and per-report drain/ack timestamps.
  void set_tracing(bool on) { tracing_ = on; }
  /// Frames returned by the most recent drain().
  std::size_t last_drained() const { return last_drained_; }
  std::uint64_t settled() const {
    return settled_.load(std::memory_order_relaxed);
  }
  /// Acks of frames the ledger does not know.
  std::uint64_t unknown_acks() const { return unknown_acks_; }
  std::vector<DrainBatch>& batches() { return batches_; }

 private:
  bool identify(std::string_view wire, ReportId& id) const;

  praxi::service::Transport& inner_;
  Ledger& ledger_;
  OnSettle on_settle_;
  bool tracing_ = false;
  std::size_t last_drained_ = 0;
  std::atomic<std::uint64_t> settled_{0};
  std::uint64_t unknown_acks_ = 0;
  std::vector<DrainBatch> batches_;
};

// ---------------------------------------------------------------------------
// Statistics and process readings
// ---------------------------------------------------------------------------

/// Exact order-statistic quantile (nearest rank) of `samples`; sorts in
/// place. 0 for an empty set.
double quantile(std::vector<double>& samples, double q);
double mean(const std::vector<double>& samples);

/// Resident set size and its high-water mark, in KiB (/proc/self/status).
std::uint64_t rss_kb();
std::uint64_t rss_peak_kb();
/// CPU time (user + system) of the whole process so far, in seconds.
double process_cpu_s();

/// Metric values in output order, with units, for the result document.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values_;
};

std::string json_number(double v);
std::string json_string(std::string_view s);

}  // namespace perfbench
