// Layer replay for the traced run. The layers inside process() cannot be
// timed from outside the program, so the benchmark replays the batches the
// traced run actually drained — same reports, same batch boundaries, one
// thread like the server — through the public functions each layer is
// made of, and times those calls:
//
//   decode   ChangesetReport::from_wire
//   extract  ModelSnapshot::extract_tags   (Columbus)
//   predict  ModelSnapshot::predict_tags   (ml)
//   append   WriteAheadLog::append          (on a scratch directory)
//   commit   WriteAheadLog::commit          (write + fsync)
//
// and, for operator writes, extract_tags / Praxi::learn_one /
// Praxi::publish on a model copy. What the replay does not cover of the
// measured process() time is the residual ("other").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/praxi.hpp"
#include "harness.hpp"
#include "service/wal.hpp"

namespace perfbench {

/// Seconds spent per layer (and work done) replaying some reports.
struct LayerCost {
  double decode_s = 0.0;
  double extract_s = 0.0;
  double predict_s = 0.0;
  double wal_append_s = 0.0;
  double wal_commit_s = 0.0;
  std::size_t reports = 0;
  std::size_t classified = 0;
  std::size_t tags = 0;
  std::size_t wal_bytes = 0;

  double total_s() const {
    return decode_s + extract_s + predict_s + wal_append_s + wal_commit_s;
  }
  void add(const LayerCost& other);
};

/// Replays drained batches against a frozen copy of the served model, with
/// one scratch WAL per shard.
class BatchReplayer {
 public:
  BatchReplayer(const Corpus& corpus, const praxi::core::Praxi& model,
                std::size_t shards, const std::string& scratch_dir);

  /// One shard's share of one drained batch, in drain order.
  LayerCost replay(std::size_t shard, const std::vector<ReportId>& reports);

 private:
  const Corpus& corpus_;
  praxi::core::ModelSnapshotPtr snapshot_;
  std::vector<std::unique_ptr<praxi::service::WriteAheadLog>> wals_;
};

/// Replayed cost of one learn_feedback() call.
struct FeedbackCost {
  double extract_s = 0.0;
  double learn_s = 0.0;
  double publish_s = 0.0;
};

/// Replays `changesets` (the feedback calls, in call order) on a copy of
/// `model` that publishes only when told to, so learn_one and publish are
/// timed apart.
std::vector<FeedbackCost> replay_feedback(
    const praxi::core::Praxi& model,
    const std::vector<const praxi::fs::Changeset*>& changesets);

}  // namespace perfbench
