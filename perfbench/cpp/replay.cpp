#include "replay.hpp"

#include <filesystem>
#include <span>
#include <stdexcept>

#include "core/discovery_service.hpp"
#include "service/transport.hpp"

namespace perfbench {

namespace {

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

}  // namespace

void LayerCost::add(const LayerCost& other) {
  decode_s += other.decode_s;
  extract_s += other.extract_s;
  predict_s += other.predict_s;
  wal_append_s += other.wal_append_s;
  wal_commit_s += other.wal_commit_s;
  reports += other.reports;
  classified += other.classified;
  tags += other.tags;
  wal_bytes += other.wal_bytes;
}

BatchReplayer::BatchReplayer(const Corpus& corpus,
                             const praxi::core::Praxi& model,
                             std::size_t shards,
                             const std::string& scratch_dir)
    : corpus_(corpus), snapshot_(model.snapshot()) {
  for (std::size_t i = 0; i < shards; ++i) {
    praxi::service::WalConfig config;
    config.dir = scratch_dir + "/replay-wal-" + std::to_string(i);
    std::filesystem::remove_all(config.dir);
    config.server_label = "perfbench-replay-" + std::to_string(i);
    wals_.push_back(std::make_unique<praxi::service::WriteAheadLog>(config));
  }
}

LayerCost BatchReplayer::replay(std::size_t shard,
                                const std::vector<ReportId>& reports) {
  namespace service = praxi::service;
  LayerCost cost;
  cost.reports = reports.size();
  if (reports.empty()) return cost;

  std::vector<std::string> wires;
  wires.reserve(reports.size());
  for (const auto& id : reports) {
    wires.push_back(encode_report(corpus_, id.agent, id.seq));
  }

  std::vector<service::ChangesetReport> decoded(wires.size());
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < wires.size(); ++i) {
    decoded[i] = service::ChangesetReport::from_wire(wires[i]);
  }
  cost.decode_s = seconds_between(t0, now_ns());

  // The server classifies only install-shaped windows (quantity > 0).
  const praxi::core::DiscoveryServiceConfig quantity;
  std::vector<const praxi::fs::Changeset*> changesets;
  for (const auto& report : decoded) {
    if (!report.changeset.empty() &&
        praxi::core::DiscoveryService::infer_quantity(report.changeset,
                                                      quantity) > 0) {
      changesets.push_back(&report.changeset);
    }
  }
  cost.classified = changesets.size();

  t0 = now_ns();
  const auto tagsets = snapshot_->extract_tags(
      std::span<const praxi::fs::Changeset* const>(changesets), nullptr);
  cost.extract_s = seconds_between(t0, now_ns());
  for (const auto& tagset : tagsets) cost.tags += tagset.size();

  t0 = now_ns();
  const auto predictions = snapshot_->predict_tags(
      std::span<const praxi::columbus::TagSet>(tagsets), praxi::core::TopN(1),
      nullptr);
  cost.predict_s = seconds_between(t0, now_ns());
  if (predictions.size() != tagsets.size()) {
    throw std::runtime_error("replay: prediction count mismatch");
  }

  auto& wal = *wals_.at(shard);
  t0 = now_ns();
  for (const auto& report : decoded) {
    wal.append(report.agent_id, report.sequence,
               service::SettleOutcome::kProcessed);
  }
  cost.wal_append_s = seconds_between(t0, now_ns());
  t0 = now_ns();
  wal.commit();
  cost.wal_commit_s = seconds_between(t0, now_ns());
  for (const auto& report : decoded) {
    cost.wal_bytes += service::encode_wal_settle(
                          report.agent_id, report.sequence,
                          service::SettleOutcome::kProcessed)
                          .size();
  }
  return cost;
}

std::vector<FeedbackCost> replay_feedback(
    const praxi::core::Praxi& model,
    const std::vector<const praxi::fs::Changeset*>& changesets) {
  praxi::core::Praxi copy = model;
  auto runtime = copy.runtime();
  runtime.num_threads = 1;
  runtime.snapshot_publish_every = 0;
  copy.set_runtime(runtime);
  std::vector<FeedbackCost> costs;
  costs.reserve(changesets.size());
  for (const auto* changeset : changesets) {
    FeedbackCost cost;
    std::int64_t t0 = now_ns();
    const auto tagset = copy.extract_tags(*changeset);
    std::int64_t t1 = now_ns();
    cost.extract_s = seconds_between(t0, t1);
    copy.learn_one(tagset);
    t0 = now_ns();
    cost.learn_s = seconds_between(t1, t0);
    copy.publish();
    cost.publish_s = seconds_between(t0, now_ns());
    costs.push_back(cost);
  }
  return costs;
}

}  // namespace perfbench
