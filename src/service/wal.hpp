// Durable ingest: a checksummed, segment-rotated write-ahead log of settled
// (agent_id, sequence) → outcome records (docs/DURABILITY.md).
//
// PR 5's exactly-once guarantee lives in the in-memory SequenceTracker, so a
// DiscoveryServer restart forgets every settled report and re-learns
// duplicates. The WAL makes the dedup floor durable: each settled identity
// is appended as an individually enveloped record (docs/PERSISTENCE.md
// snapshot envelope, magic PWAL), the batch is fsynced once per process()
// call, and only then are the frames acknowledged. Replay happens in the
// DiscoveryServer constructor — before any transport listener opens — so a
// crash at any byte offset either leaves a frame unacked (its redelivery is
// deduplicated by the restored tracker) or finds it durably settled, never
// both-lost and re-learned.
//
// Durability rules:
//   * A torn tail of the LAST segment (crash mid-append) is truncated away
//     and replay continues — those records were never acknowledged.
//   * Any corruption with the bytes fully present (bad magic/CRC/decode), or
//     truncation anywhere but the last segment's tail, is a hard
//     SerializeError carrying the segment path and byte offset.
//   * Compaction folds the whole tracker state into one snapshot record
//     published as a fresh segment via write_file_atomic(), then deletes the
//     older segments. A snapshot record RESETS replay state, so a crash
//     between publish and delete only leaves superseded segments behind.
//
// Thread-safe: append/commit/compact and the size accessors serialize on an
// internal mutex (rank kWal — acquired under the server state lock on the
// settle path; see docs/CONCURRENCY.md). Startup replay happens in the
// constructor, before the object is shared.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace praxi::service {

/// WAL record envelope identity (docs/PERSISTENCE.md artifact registry).
inline constexpr std::uint32_t kWalRecordMagic = 0x5057414CU;  // "PWAL"
inline constexpr std::uint32_t kWalRecordVersion = 1;

/// Disposition of a settled report. Only processed reports are logged today
/// (duplicates/malformed frames are re-derivable and never mutate the
/// model); the field exists so future outcomes extend the format without a
/// version bump.
enum class SettleOutcome : std::uint8_t { kProcessed = 1 };

/// Durable view of one agent's SequenceTracker: contiguous prefix
/// [0, floor) settled, plus individually held out-of-order sequences above
/// the floor (sorted ascending).
struct WalTrackerState {
  std::uint64_t floor = 0;
  std::vector<std::uint64_t> held;
};

/// Replay accumulator / compaction input, keyed by agent id.
using WalState = std::map<std::string, WalTrackerState>;

/// Outcome of replaying one segment buffer.
struct WalReplayResult {
  std::size_t records = 0;      ///< records applied from this buffer
  std::size_t valid_bytes = 0;  ///< clean prefix length (== input size
                                ///< unless a torn tail was detected)
  bool torn_tail = false;       ///< last record was cut short mid-write
  /// Length of the buffer's first record when it is a snapshot (a segment
  /// published by compaction), else 0.
  std::size_t leading_snapshot_bytes = 0;
};

/// Replays one segment's bytes into `state`. Pure (no filesystem, no
/// metrics) so the fuzz harness can drive it on arbitrary input. When
/// `last_segment` is true an incomplete trailing record sets `torn_tail`
/// and returns the clean prefix length; otherwise every defect — including
/// truncation — throws SerializeError with the offending byte offset.
/// `max_record_bytes` bounds a record's claimed payload length before any
/// allocation trusts it.
WalReplayResult replay_wal_segment(std::string_view bytes, bool last_segment,
                                   std::size_t max_record_bytes,
                                   WalState& state);

/// Encodes one settle record (envelope included). Exposed for the seed
/// corpus generator and tests; production appends go through
/// WriteAheadLog::append.
std::string encode_wal_settle(std::string_view agent_id,
                              std::uint64_t sequence, SettleOutcome outcome);

/// Encodes one compaction snapshot record (envelope included). On replay a
/// snapshot REPLACES the accumulated state.
std::string encode_wal_snapshot(const WalState& state);

struct WalConfig {
  std::string dir;  ///< segment directory, created if absent
  /// Compaction threshold: compact once the bytes appended since the live
  /// segment's snapshot reach max(segment_bytes, that snapshot's size).
  std::size_t segment_bytes = 4u << 20;
  /// Replay-time bound on one record's claimed payload length.
  std::size_t max_record_bytes = 64u << 20;
  /// Value of the `server` label on the praxi_wal_* instruments.
  std::string server_label = "wal";
};

/// The durable log. Constructing it replays every segment in `config.dir`
/// (truncating a torn tail of the last segment) and opens the last segment
/// for appending. `restored()` hands the replayed tracker state to the
/// consumer; append()/commit() implement the settle path; compact() folds
/// state into a fresh segment and deletes the old ones.
class WriteAheadLog {
 public:
  explicit WriteAheadLog(WalConfig config);
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Tracker state accumulated by startup replay.
  const WalState& restored() const { return restored_; }
  /// Settle records applied during startup replay (snapshot records count
  /// as one each).
  std::size_t replayed_records() const { return replayed_records_; }

  /// Buffers one settle record. Not durable until commit().
  void append(std::string_view agent_id, std::uint64_t sequence,
              SettleOutcome outcome) PRAXI_EXCLUDES(mutex_);

  /// Writes the buffered batch to the live segment and fsyncs it — ONE
  /// fsync per process() batch, the settle-order contract's durability
  /// point. No-op when nothing is buffered. Throws SerializeError on IO
  /// failure (the caller must not acknowledge the batch's frames).
  void commit() PRAXI_EXCLUDES(mutex_);

  /// True once the bytes appended since the live segment's leading snapshot
  /// reach max(config.segment_bytes, snapshot size). A compaction rewrites
  /// the snapshot, so paying for it only after at least as many appended
  /// bytes keeps its amortized cost O(1) per record however large the state
  /// grows, and bounds the live segment below 2 × max(segment_bytes,
  /// snapshot) plus one batch.
  bool wants_compaction() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return live_bytes_ - snapshot_bytes_ >=
           std::max(config_.segment_bytes, snapshot_bytes_);
  }

  /// Publishes `state` as the single snapshot record of a fresh segment
  /// (write_file_atomic), then deletes every older segment. Call with the
  /// consumer's full current tracker state; nothing may be buffered
  /// (commit() first).
  void compact(const WalState& state) PRAXI_EXCLUDES(mutex_);

  /// Segments currently on disk (1 after compaction settles; more only in
  /// the crash window between snapshot publish and old-segment deletion).
  /// Pure directory scan — no lock.
  std::size_t segment_count() const;

  /// Bytes in the live segment (mirrors the praxi_wal_segment_bytes gauge).
  std::size_t live_bytes() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return live_bytes_;
  }

  /// Path of the live segment (diagnostics/tests). By value: the path
  /// changes under the lock when the log rotates.
  std::string live_segment_path() const PRAXI_EXCLUDES(mutex_) {
    common::LockGuard lock(mutex_);
    return live_path_;
  }

 private:
  /// Body of commit(); split out so compact() can commit while already
  /// holding the lock (the rank checker rejects same-rank re-entry).
  void commit_locked() PRAXI_REQUIRES(mutex_);
  void open_live(std::uint64_t index, std::size_t existing_bytes)
      PRAXI_REQUIRES(mutex_);
  std::string segment_path(std::uint64_t index) const;

  mutable common::Mutex mutex_{"wal", common::LockRank::kWal};

  WalConfig config_;
  WalState restored_;                  ///< const after the constructor
  std::size_t replayed_records_ = 0;   ///< const after the constructor
  std::uint64_t live_index_ PRAXI_GUARDED_BY(mutex_) = 1;
  std::string live_path_ PRAXI_GUARDED_BY(mutex_);
  std::size_t live_bytes_ PRAXI_GUARDED_BY(mutex_) = 0;
  /// Size of the live segment's leading snapshot record (0 when it has
  /// none): set by compact() and, after a restart, by replay.
  std::size_t snapshot_bytes_ PRAXI_GUARDED_BY(mutex_) = 0;
  int fd_ PRAXI_GUARDED_BY(mutex_) = -1;
  /// Encoded records awaiting commit().
  std::string pending_ PRAXI_GUARDED_BY(mutex_);
  std::uint64_t pending_records_ PRAXI_GUARDED_BY(mutex_) = 0;
  struct Instruments;               ///< praxi_wal_* handles (impl detail)
  std::unique_ptr<Instruments> instruments_;
};

}  // namespace praxi::service
