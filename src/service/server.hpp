// Discovery server: the central half of the distributed service.
//
// Drains agent reports off the bus, classifies each changeset with a Praxi
// model, and maintains:
//   * a fleet inventory (agent -> discovered applications, with the window
//     each discovery came from) — the paper's "searching for a specific
//     piece of software among a large set of VMs or containers";
//   * a TagsetStore of every processed window (Praxi's only retained
//     training artifact, §V-C);
//   * the model itself, which operators can improve ONLINE by feeding back
//     confirmed labels — the incremental-training loop of §V-D, impossible
//     in the DeltaSherlock architecture without a full retrain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/runtime_config.hpp"
#include "common/sync.hpp"
#include "core/discovery_service.hpp"
#include "core/praxi.hpp"
#include "core/tagset_store.hpp"
#include "obs/metrics.hpp"
#include "service/transport.hpp"
#include "service/wal.hpp"

namespace praxi::service {

struct ServerConfig {
  /// Quantity inference settings applied to every incoming window.
  core::DiscoveryServiceConfig quantity;
  /// Cross-cutting runtime knobs, re-applied to the embedded model at
  /// construction (the embedding host wins — common/runtime_config.hpp).
  /// num_threads: workers for classifying a drained batch (0 = one per
  /// hardware thread, 1 = sequential). Reports are independent, so
  /// discoveries are identical at every thread count.
  common::RuntimeConfig runtime{.num_threads = 0};
  /// Wire knobs for the endpoint this server drains (timeouts, backoff,
  /// ingest queue bound). The server itself only reads these when its host
  /// constructs the endpoint (e.g. cli `serve` builds a net::SocketServer
  /// from them); precedence follows docs/API.md — defaults < host < CLI.
  TransportConfig transport;
  /// Durable ingest (docs/DURABILITY.md): when non-empty, a WriteAheadLog
  /// in this directory is replayed at construction — BEFORE the host opens
  /// any transport listener — restoring every agent's dedup floor, and each
  /// settled report is logged + fsynced before its frame is acknowledged.
  /// Empty (the default) keeps the dedup state in-memory only.
  std::string wal_dir;
  /// Snapshot+truncate compaction runs once the bytes appended since the
  /// last snapshot reach max(wal_segment_bytes, snapshot size)
  /// (docs/DURABILITY.md).
  std::size_t wal_segment_bytes = 4u << 20;
  /// Soft bound on resident per-agent SequenceTrackers (0 = unbounded).
  /// When exceeded after a process() call, trackers of agents that were
  /// idle this batch and hold no out-of-order sequences are folded down to
  /// their floor (a single u64 per agent — the irreducible dedup state,
  /// which can never be dropped without re-admitting duplicates) and
  /// restored transparently when the agent reappears.
  std::size_t max_resident_agents = 0;
};

/// Per-agent ingest health: how many reports an agent delivered cleanly vs
/// how many arrived malformed, version-skewed, redelivered or over its
/// held-set cap. An agent whose malformed count climbs is corrupting data in
/// flight (or running a broken build) — exactly the graceful-degradation
/// signal an operator needs, which a fleet-wide counter cannot attribute.
///
/// One row of the server's bounded offender table (ingest_stats()): an
/// agent gets a row on its first bad outcome and from then on every outcome
/// of it is counted, processed included. The fleet-wide totals live in the
/// registry as praxi_server_reports_total{server, outcome}
/// (docs/OBSERVABILITY.md); the table is plain server state, so it keeps
/// counting when metrics are disabled via RuntimeConfig.
struct AgentIngestStats {
  std::uint64_t processed = 0;         ///< reports parsed and classified
  std::uint64_t malformed = 0;         ///< corrupt frames (checksum, bounds…)
  std::uint64_t version_mismatch = 0;  ///< structurally valid, wrong version
  std::uint64_t duplicate = 0;  ///< redelivered (agent, sequence), skipped
  std::uint64_t overflow = 0;   ///< held-set cap reached; frame NOT settled,
                                ///< left for the wire to redeliver
};

/// One processed report.
struct Discovery {
  std::string agent_id;
  std::uint64_t sequence = 0;
  std::int64_t open_time_ms = 0;
  std::int64_t close_time_ms = 0;
  std::size_t record_count = 0;
  std::size_t inferred_quantity = 0;
  std::vector<std::string> applications;
  /// Snapshot epoch that classified this report (docs/API.md): the whole
  /// batch it arrived in was classified against this one pinned epoch, so
  /// operators can attribute every discovery to a named model version even
  /// while learn_feedback() keeps publishing newer ones.
  std::uint64_t model_epoch = 0;
};

class DiscoveryServer {
 public:
  /// `model` must be trained.
  explicit DiscoveryServer(core::Praxi model, ServerConfig config = {});

  /// Drains every queued report into one batch and classifies the batch
  /// concurrently (ServerConfig::num_threads); returns the discoveries
  /// made (one per non-noise window), in arrival order. Malformed messages
  /// are counted and skipped, never fatal. Each report's tags are extracted
  /// exactly once and reused for both prediction and the tagset store.
  /// The whole batch is classified against ONE pinned model snapshot
  /// (core/model_snapshot.hpp) whose epoch every returned Discovery
  /// carries, so a batch is internally consistent and WAL-settled against
  /// a named model version.
  ///
  /// Works against any Transport (the in-memory MessageBus or a
  /// net::SocketServer). The transport may deliver at-least-once; this
  /// method makes processing exactly-once by tracking each agent's report
  /// sequence — a redelivered (agent, sequence) is counted as outcome
  /// "duplicate" and skipped. Every dispositioned frame is settled with
  /// transport.ack() EXCEPT malformed ones (a mangled frame may be a
  /// damaged copy of a report whose intact resend must still be accepted)
  /// and held-set overflow rejections (counted as outcome "overflow" and
  /// left unacked for redelivery once the window drains).
  ///
  /// Settle order (docs/DURABILITY.md): a report's acceptance is recorded —
  /// tracker mutation, WAL append — only at commit time, after
  /// classification succeeded; the batch is then fsynced (one fsync per
  /// call when a WAL is configured) before any frame is acknowledged. A
  /// crash at any point therefore either leaves a frame unacked (its
  /// redelivery is deduplicated by the durable floor) or finds it settled —
  /// never both-lost and re-learned.
  std::vector<Discovery> process(Transport& transport)
      PRAXI_EXCLUDES(state_mutex_);

  /// Fleet inventory: applications discovered per agent so far. By value:
  /// a reference could not outlive the state lock.
  std::map<std::string, std::set<std::string>> inventory() const
      PRAXI_EXCLUDES(state_mutex_) {
    common::LockGuard lock(state_mutex_);
    return inventory_;
  }

  /// Agents on which `application` has been discovered (compliance query).
  std::vector<std::string> agents_running(const std::string& application) const
      PRAXI_EXCLUDES(state_mutex_);

  /// Operator feedback: a labeled changeset improves the model online —
  /// new applications become discoverable without any retraining.
  void learn_feedback(const fs::Changeset& labeled_changeset)
      PRAXI_EXCLUDES(state_mutex_);

  /// Model/store references. Mutations happen under the state lock inside
  /// process()/learn_feedback(); callers of these accessors must be
  /// quiescent with respect to those (the store is additionally internally
  /// locked, so reading it concurrently is safe).
  const core::Praxi& model() const { return model_; }
  const core::TagsetStore& store() const { return store_; }
  /// Fleet-wide totals: one read of this server's
  /// praxi_server_reports_total{outcome=…} counter each, whatever the fleet
  /// size.
  std::uint64_t processed() const { return reports_.processed->value(); }
  std::uint64_t malformed() const { return reports_.malformed->value(); }
  std::uint64_t version_mismatched() const {
    return reports_.version_mismatch->value();
  }
  std::uint64_t duplicates() const { return reports_.duplicate->value(); }
  std::uint64_t overflows() const { return reports_.overflow->value(); }

  /// The durable log, when ServerConfig::wal_dir is set (else nullptr).
  const WriteAheadLog* wal() const { return wal_.get(); }
  /// Resident per-agent dedup trackers (mirrors praxi_server_agents).
  std::size_t resident_agents() const PRAXI_EXCLUDES(state_mutex_) {
    common::LockGuard lock(state_mutex_);
    return sequences_.size();
  }

  /// The offender table (returns a snapshot by value): every agent that has
  /// had a malformed, version_mismatch, duplicate or overflow outcome, with
  /// all of its outcomes since it entered. Agents that only ever delivered
  /// clean reports are absent. At most kMaxOffenders rows: when a new
  /// offender arrives at a full table, the row with the fewest bad outcomes
  /// is evicted (ties: the one whose last bad outcome is oldest). Frames too
  /// corrupt to attribute are charged to kUnattributedAgent.
  std::map<std::string, AgentIngestStats> ingest_stats() const
      PRAXI_EXCLUDES(state_mutex_);
  static constexpr const char* kUnattributedAgent = "(unattributed)";
  static constexpr std::size_t kMaxOffenders = 64;

  /// Label distinguishing this server's series in the process-global
  /// metrics registry (`server="<id>"`).
  const std::string& server_label() const { return server_label_; }

 private:
  /// This server's praxi_server_reports_total series, one per outcome —
  /// the registry owns the counters; the handles are taken at construction
  /// and stay valid for the process lifetime.
  struct OutcomeCounters {
    obs::Counter* processed = nullptr;
    obs::Counter* malformed = nullptr;
    obs::Counter* version_mismatch = nullptr;
    obs::Counter* duplicate = nullptr;
    obs::Counter* overflow = nullptr;
  };
  /// One offender-table row plus what eviction ranks it by.
  struct Offender {
    AgentIngestStats stats;
    std::uint64_t bad = 0;       ///< every outcome but processed
    std::uint64_t last_bad = 0;  ///< offender_clock_ at its latest bad one
  };
  using Outcome = std::uint64_t AgentIngestStats::*;

  /// Adds a processed report to the agent's row if it is an offender.
  /// Never inserts a row.
  void note_processed(const std::string& agent_id)
      PRAXI_REQUIRES(state_mutex_);
  /// Adds a bad outcome to the agent's row, creating the row (evicting the
  /// least offending one when the table is full) if absent.
  void note_offender(const std::string& agent_id, Outcome outcome)
      PRAXI_REQUIRES(state_mutex_);
  /// The agent's tracker, creating it (restored from its evicted floor if
  /// one exists) on first use.
  SequenceTracker& tracker_for(const std::string& agent_id)
      PRAXI_REQUIRES(state_mutex_);
  /// Full durable dedup state — resident trackers plus evicted floors —
  /// for WAL compaction snapshots.
  WalState current_wal_state() const PRAXI_REQUIRES(state_mutex_);
  void evict_idle_agents(const std::set<std::string>& active_agents)
      PRAXI_REQUIRES(state_mutex_);
  void update_state_gauges() PRAXI_REQUIRES(state_mutex_);

  /// Outermost lock of the whole hierarchy (rank kServerState): held across
  /// a full process()/learn_feedback() body, i.e. while the thread pool,
  /// metrics registry, tagset store, WAL, and transport locks are taken
  /// beneath it (docs/CONCURRENCY.md). Serializes ingest state AND
  /// model_/store_ mutation.
  mutable common::Mutex state_mutex_{"server_state",
                                     common::LockRank::kServerState};

  core::Praxi model_;
  ServerConfig config_;
  core::TagsetStore store_;
  std::map<std::string, std::set<std::string>> inventory_
      PRAXI_GUARDED_BY(state_mutex_);
  std::string server_label_;
  OutcomeCounters reports_;
  /// Bounded offender table (ingest_stats()), at most kMaxOffenders rows.
  std::map<std::string, Offender> offenders_
      PRAXI_GUARDED_BY(state_mutex_);
  std::uint64_t offender_clock_ PRAXI_GUARDED_BY(state_mutex_) = 0;
  /// Exactly-once processing over an at-least-once wire: one tracker per
  /// agent, keyed by the report's own sequence field.
  std::map<std::string, SequenceTracker> sequences_
      PRAXI_GUARDED_BY(state_mutex_);
  /// Floors of evicted idle agents (ServerConfig::max_resident_agents):
  /// one u64 per agent instead of a whole tracker.
  std::map<std::string, std::uint64_t> evicted_floors_
      PRAXI_GUARDED_BY(state_mutex_);
  std::unique_ptr<WriteAheadLog> wal_;
  obs::Histogram* process_seconds_ = nullptr;
  obs::Counter* discoveries_total_ = nullptr;
  obs::Gauge* agents_gauge_ = nullptr;
  obs::Gauge* held_gauge_ = nullptr;
  obs::Gauge* model_epoch_gauge_ = nullptr;
};

namespace testhooks {
/// When true, process() throws after classification but before ANY settle
/// effect (tracker mutation, WAL append, store/inventory commit, ack) —
/// simulating a crash in the worst window. Drained-but-unacked frames are
/// redelivered by the at-least-once wire and must then process cleanly,
/// exactly once.
inline bool simulate_crash_before_commit = false;
}  // namespace testhooks

}  // namespace praxi::service
