#include "workloads.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "cluster/shard_router.hpp"
#include "core/praxi.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace {

namespace cluster = praxi::cluster;
namespace core = praxi::core;
namespace net = praxi::net;
namespace obs = praxi::obs;
namespace service = praxi::service;

constexpr std::uint32_t kSenders = 2;  ///< sender threads = connections
constexpr std::size_t kShards = 2;     ///< steady_cluster shard count

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  bool cluster = false;          ///< ShardRouter instead of one server
  bool open_loop = false;        ///< fixed-rate schedule (else closed loop)
  bool operator_thread = false;  ///< learn_feedback() beside ingest
  bool churn = false;            ///< one report per fresh agent
  /// Logical agents (open loop, closed loop) or reports in flight (churn).
  std::uint32_t agents = 0;
  double rate_rps = 0.0;      ///< open loop: aggregate send rate
  double feedback_rps = 0.0;  ///< operator thread call rate
  std::size_t min_agents = 0;  ///< churn: distinct agents at least
  std::size_t max_resident = 0;  ///< ServerConfig::max_resident_agents
  /// learn_feedback() calls made after ingest on workloads without an
  /// operator thread, so feedback latency is measured on every workload:
  /// rounds of back-to-back calls, quantiles per round, median over rounds.
  std::size_t idle_feedback_calls = 1000;
  std::size_t idle_feedback_rounds = 5;
  double max_rps = 0.0;  ///< closed loop: sizing bound for the ledger
  std::size_t corpus_apps = 32;
  std::size_t corpus_samples = 8;
  int setup_reps = 15;
  double warmup_s = 1.0;
  double grace_s = 30.0;  ///< settle deadline after the send window
};

Spec spec_for(const std::string& name, bool tiny) {
  Spec spec;
  spec.name = name;
  if (tiny) {
    spec.idle_feedback_calls = 20;
    spec.idle_feedback_rounds = 1;
    spec.corpus_apps = 4;
    spec.corpus_samples = 2;
    spec.setup_reps = 1;
    spec.warmup_s = 0.2;
    spec.grace_s = 20.0;
  }
  if (name == "steady_serve" || name == "feedback_serve") {
    spec.open_loop = true;
    spec.agents = tiny ? 8 : 256;
    spec.rate_rps = tiny ? 200.0 : 3000.0;
    if (name == "feedback_serve") {
      spec.operator_thread = true;
      spec.feedback_rps = tiny ? 20.0 : 200.0;
    }
  } else if (name == "steady_cluster") {
    spec.cluster = true;
    spec.open_loop = true;
    spec.agents = tiny ? 8 : 512;
    spec.rate_rps = tiny ? 200.0 : 5000.0;
  } else if (name == "churn_serve") {
    spec.churn = true;
    spec.agents = tiny ? 16 : 128;
    spec.min_agents = tiny ? 200 : 20000;
    spec.max_resident = tiny ? 50 : 1000;
    spec.max_rps = 40000.0;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// The program under test
// ---------------------------------------------------------------------------

std::vector<const fs::Changeset*> pointers(const pkg::Dataset& dataset) {
  std::vector<const fs::Changeset*> out;
  out.reserve(dataset.changesets.size());
  for (const auto& changeset : dataset.changesets) out.push_back(&changeset);
  return out;
}

/// One server (or a router over shards) plus the TCP listener in front.
struct Program {
  std::unique_ptr<service::DiscoveryServer> server;
  std::unique_ptr<cluster::ShardRouter> router;
  std::unique_ptr<net::SocketServer> listener;

  std::vector<service::Discovery> process(service::Transport& ingress) {
    return router ? router->process(ingress) : server->process(ingress);
  }
};

service::ServerConfig server_config(const Spec& spec) {
  service::ServerConfig config;
  config.runtime.num_threads = 1;
  config.max_resident_agents = spec.max_resident;
  return config;
}

/// Builds the program once, returning the seconds spent in program calls:
/// training, server or router construction (WAL open included) and the
/// listener. `trained` receives a copy of the model for the reference and
/// the replay (copied off the clock).
double build_program(const Spec& spec, const Corpus& corpus,
                     const std::string& wal_dir, Program& program,
                     core::Praxi& trained) {
  const auto corpus_ptrs = pointers(corpus.train);
  std::int64_t t0 = now_ns();
  core::Praxi model;
  model.train_changesets(corpus_ptrs);
  double spent = static_cast<double>(now_ns() - t0);
  trained = model;

  t0 = now_ns();
  service::ServerConfig config = server_config(spec);
  if (spec.cluster) {
    cluster::ClusterConfig cluster_config;
    cluster_config.shards = kShards;
    cluster_config.server = config;
    cluster_config.wal_root = wal_dir;
    program.router =
        std::make_unique<cluster::ShardRouter>(model, cluster_config);
  } else {
    config.wal_dir = wal_dir;
    program.server =
        std::make_unique<service::DiscoveryServer>(std::move(model), config);
  }
  net::SocketServerConfig listener_config;
  listener_config.transport = config.transport;
  program.listener = std::make_unique<net::SocketServer>(listener_config);
  spent += static_cast<double>(now_ns() - t0);
  return spent * 1e-9;
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

/// Timeline of one run, in now_ns() units.
struct Timeline {
  std::int64_t start = 0;        ///< first scheduled send
  std::int64_t warmup_end = 0;   ///< reports due before this are not sampled
  std::int64_t window_end = 0;   ///< no report is scheduled after this
  std::int64_t deadline = 0;     ///< unsettled reports fail after this
  bool trace = false;
  std::int64_t slice_ns = 250'000'000;  ///< traced / untraced alternation

  /// The traced run alternates traced and untraced slices of the window,
  /// so the two halves see the same server state and their difference is
  /// the tracing overhead.
  bool traced_at(std::int64_t due) const {
    return trace && ((due - start) / slice_ns) % 2 == 0;
  }
};

struct Ready {
  std::uint32_t agent = 0;
  std::int64_t since = 0;  ///< when its previous report settled
};

/// One sender thread with its own connection. Closed loops hand it agents
/// whose previous report settled through `ready`.
struct Sender {
  std::uint32_t index = 0;
  std::unique_ptr<net::SocketClient> client;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Ready> ready;
  std::thread thread;
  std::uint64_t send_errors = 0;
  std::string error;

  void push(Ready r) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ready.push_back(r);
    }
    cv.notify_one();
  }
};

struct LoadState {
  const Spec& spec;
  const Corpus& corpus;
  Ledger& ledger;
  const Timeline& timeline;
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint32_t> senders_done{0};
  std::atomic<bool> abort{false};
};

void send_one(LoadState& state, Sender& sender, Slot& slot, bool traced,
              std::string wire) {
  slot.send_begin.store(now_ns(), std::memory_order_relaxed);
  try {
    sender.client->send(std::move(wire));
  } catch (const service::TransportError&) {
    ++sender.send_errors;  // never settles: counted as failed
  }
  if (traced) slot.send_end.store(now_ns(), std::memory_order_relaxed);
  state.attempted.fetch_add(1, std::memory_order_relaxed);
}

/// Pumps the connection until the server accepted every buffered frame.
void finish_sender(LoadState& state, Sender& sender) {
  while (!state.abort.load() && now_ns() < state.timeline.deadline &&
         !sender.client->flush(50)) {
  }
  state.senders_done.fetch_add(1);
}

/// Open loop: report k (agent k % A, sequence k / A) is due at
/// start + k / rate whatever happened before; sender j sends k = j mod 2.
void open_loop_sender(LoadState& state, Sender& sender) {
  const Spec& spec = state.spec;
  const Timeline& tl = state.timeline;
  const double period_ns = 1e9 / spec.rate_rps;
  const auto due_of = [&](std::uint64_t k) {
    return tl.start + static_cast<std::int64_t>(static_cast<double>(k) *
                                                period_ns);
  };
  std::uint64_t k = sender.index;
  std::string next = encode_report(state.corpus, k % spec.agents,
                                   k / spec.agents);
  while (!state.abort.load(std::memory_order_relaxed)) {
    const std::int64_t due = due_of(k);
    if (due >= tl.window_end) break;
    const auto agent = static_cast<std::uint32_t>(k % spec.agents);
    Slot& slot = state.ledger.at(agent, k / spec.agents);
    const bool traced = tl.traced_at(due);
    slot.due.store(due, std::memory_order_relaxed);
    slot.traced.store(traced ? 1 : 0, std::memory_order_relaxed);
    sleep_until_ns(due);
    send_one(state, sender, slot, traced, std::move(next));
    k += kSenders;
    if (due_of(k) < tl.window_end) {
      next = encode_report(state.corpus, k % spec.agents, k / spec.agents);
    }
  }
  finish_sender(state, sender);
}

/// Next agent whose previous report settled; false once the sender should
/// stop. While it waits the connection is pumped, so frames the server
/// bounced or a partial write are not stranded in the client's buffer.
bool next_ready(LoadState& state, Sender& sender, bool may_stop, Ready& out) {
  std::unique_lock<std::mutex> lock(sender.mutex);
  while (sender.ready.empty()) {
    if (state.abort.load() ||
        (may_stop && now_ns() >= state.timeline.window_end)) {
      return false;
    }
    sender.cv.wait_for(lock, std::chrono::milliseconds(1));
    if (sender.ready.empty()) {
      lock.unlock();
      if (sender.client->stats().pending_frames > 0) sender.client->flush(1);
      lock.lock();
    }
  }
  out = sender.ready.front();
  sender.ready.pop_front();
  return true;
}

/// Closed loop: an agent sends its next report when its previous one
/// settled (the probe's ack). On churn every report comes from a fresh
/// agent (j, j + 2, j + 4, ...), and the window stays open until the
/// sender has used its share of spec.min_agents.
void closed_loop_sender(LoadState& state, Sender& sender) {
  const Spec& spec = state.spec;
  const Timeline& tl = state.timeline;
  Ledger& ledger = state.ledger;
  std::uint32_t fresh = sender.index;  // churn: next unused agent
  std::vector<std::uint64_t> next_seq(ledger.agents(), 0);
  std::map<std::uint32_t, std::string> next_wire;
  if (spec.churn) {
    next_wire[0] = encode_report(state.corpus, fresh, 0);
  } else {
    for (std::uint32_t a = sender.index; a < ledger.agents(); a += kSenders) {
      next_wire[a] = encode_report(state.corpus, a, 0);
    }
  }
  const std::size_t min_fresh = (spec.min_agents + kSenders - 1) / kSenders;
  std::size_t fresh_sent = 0;
  Ready ready;
  while (next_ready(state, sender, !spec.churn || fresh_sent >= min_fresh,
                    ready)) {
    if (now_ns() >= tl.window_end && (!spec.churn || fresh_sent >= min_fresh))
      break;
    std::uint32_t agent = ready.agent;
    std::string wire;
    if (spec.churn) {
      if (fresh >= ledger.agents()) break;
      agent = fresh;
      wire = std::move(next_wire[0]);
    } else {
      if (next_seq[agent] >= ledger.per_agent()) continue;  // agent retired
      wire = std::move(next_wire[agent]);
    }
    const std::uint64_t seq = next_seq[agent]++;
    Slot& slot = ledger.at(agent, seq);
    const bool traced = tl.traced_at(ready.since);
    slot.due.store(ready.since, std::memory_order_relaxed);
    slot.traced.store(traced ? 1 : 0, std::memory_order_relaxed);
    send_one(state, sender, slot, traced, std::move(wire));
    // Encode the agent's next report while this one is in flight.
    if (spec.churn) {
      ++fresh_sent;
      fresh += kSenders;
      if (fresh < ledger.agents()) {
        next_wire[0] = encode_report(state.corpus, fresh, 0);
      }
    } else if (next_seq[agent] < ledger.per_agent()) {
      next_wire[agent] = encode_report(state.corpus, agent, next_seq[agent]);
    }
  }
  finish_sender(state, sender);
}

/// One learn_feedback() call as the operator (or the idle probe) made it.
struct FeedbackCall {
  std::size_t changeset = 0;  ///< index into corpus.train
  std::size_t round = 0;      ///< idle probe round (operator calls: 0)
  std::int64_t begin = 0;
  std::int64_t end = 0;
  bool ok = false;
};

FeedbackCall call_feedback(service::DiscoveryServer& server,
                           const Corpus& corpus, std::size_t i) {
  FeedbackCall call;
  call.changeset = i % corpus.train.changesets.size();
  call.begin = now_ns();
  try {
    server.learn_feedback(corpus.train.changesets[call.changeset]);
    call.ok = true;
  } catch (const std::exception&) {
    call.ok = false;
  }
  call.end = now_ns();
  return call;
}

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

using Inventory = std::map<std::string, std::set<std::string>>;

std::string report_name(const std::string& agent_id, std::uint64_t seq) {
  return agent_id + "#" + std::to_string(seq);
}

/// Records each live discovery's result_hash() in its report's slot.
/// Returns the first discovery that names no report of the ledger.
std::string record_results(Ledger& ledger,
                           const std::vector<service::Discovery>& found) {
  for (const auto& d : found) {
    std::uint32_t agent = 0;
    if (!parse_agent(d.agent_id, agent) || !ledger.valid(agent, d.sequence)) {
      return "unexpected discovery for " + report_name(d.agent_id, d.sequence);
    }
    ledger.at(agent, d.sequence)
        .result.store(result_hash(d.applications), std::memory_order_relaxed);
  }
  return {};
}

/// Reference: a DiscoveryServer over the in-memory MessageBus, same model,
/// same reports (every settled (agent, seq), in per-agent order). Reports
/// that never settled are failures of their own, not output mismatches.
/// `difference` receives the first way the live discoveries recorded in
/// the ledger differ from the reference's (empty when they are equal).
std::unique_ptr<service::DiscoveryServer> run_reference(
    const Spec& spec, const Corpus& corpus, const core::Praxi& model,
    const Ledger& ledger, std::string& difference) {
  auto reference =
      std::make_unique<service::DiscoveryServer>(model, server_config(spec));
  service::MessageBus bus;
  std::size_t matched = 0;
  const auto compare = [&](const std::vector<service::Discovery>& found) {
    for (const auto& d : found) {
      if (!difference.empty()) return;
      std::uint32_t agent = 0;
      if (!parse_agent(d.agent_id, agent) ||
          !ledger.valid(agent, d.sequence)) {
        difference = "reference discovery for unknown report " +
                     report_name(d.agent_id, d.sequence);
        return;
      }
      const std::uint64_t live = ledger.at(agent, d.sequence).result.load();
      if (live == 0) {
        difference =
            "missing discovery for " + report_name(d.agent_id, d.sequence);
      } else if (live != result_hash(d.applications)) {
        difference = "different applications for " +
                     report_name(d.agent_id, d.sequence);
      } else {
        ++matched;
      }
    }
  };
  std::size_t queued = 0;
  std::size_t live_results = 0;
  ledger.for_each_attempted(
      [&](std::uint32_t agent, std::uint64_t seq, const Slot& slot) {
        if (slot.result.load() != 0) ++live_results;
        if (slot.acks.load() != 1) return;
        bus.send(encode_report(corpus, agent, seq));
        if (++queued % 512 == 0) compare(reference->process(bus));
      });
  compare(reference->process(bus));
  if (difference.empty() && live_results != matched) {
    difference = std::to_string(live_results - matched) +
                 " live discoveries the reference did not make";
  }
  return reference;
}

// ---------------------------------------------------------------------------
// Measurement summaries
// ---------------------------------------------------------------------------

struct Summary {
  std::size_t samples = 0;
  std::size_t groups = 1;  ///< windows or rounds the quantiles come from
  double p50 = 0.0;
  double p99 = 0.0;
  std::vector<double> group_p99;  ///< per window / round, in order
};

Summary summarize(std::vector<double> values) {
  Summary s;
  s.samples = values.size();
  s.p50 = quantile(values, 0.50);
  s.p99 = quantile(values, 0.99);
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Exact p50 / p99 of each group of samples, then the median over groups.
/// One stall of the host then moves one group's figure, not the run's.
Summary summarize_groups(const std::vector<std::vector<double>>& groups) {
  Summary s;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    const Summary g = summarize(group);
    s.samples += g.samples;
    p50s.push_back(g.p50);
    p99s.push_back(g.p99);
  }
  s.group_p99 = p99s;
  s.groups = p50s.size();
  s.p50 = median(p50s);
  s.p99 = median(p99s);
  return s;
}

std::string numbers_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

std::string groups_json(const Summary& s) {
  if (s.group_p99.size() < 2) return {};
  return ", \"group_p99\": " + numbers_json(s.group_p99);
}

std::string summary_json(const Summary& s) {
  return "{\"p50\": " + json_number(s.p50) + ", \"p99\": " +
         json_number(s.p99) + ", \"samples\": " + std::to_string(s.samples) +
         ", \"groups\": " + std::to_string(s.groups) + groups_json(s) + "}";
}

/// Latency and throughput over one group of measured reports.
struct Ingest {
  Summary latency_ms;
  /// Every measured report: settled / (last settle - first send). A
  /// group: its reports over the time its slices cover.
  double throughput_rps = 0.0;
  /// Every measured report: settles per one-second window, in order.
  std::vector<double> window_rps;
  std::size_t settled = 0;
};

/// `group`: -1 every measured report, 0 untraced slices, 1 traced slices.
Ingest ingest_stats(const Ledger& ledger, const Timeline& tl, int group) {
  // Latency quantiles per one-second window of due time (the whole
  // measured period when it is shorter), median over windows.
  const std::int64_t measured = tl.window_end - tl.warmup_end;
  const auto windows = static_cast<std::size_t>(
      std::max<std::int64_t>(1, measured / 1'000'000'000));
  std::vector<std::vector<double>> latency(windows);
  std::vector<std::size_t> settled_in(windows, 0);
  Ingest out;
  std::int64_t first_send = 0;
  std::int64_t last_settle = 0;
  const auto window_of = [&](std::int64_t t) {
    return std::min<std::size_t>(
        windows - 1,
        static_cast<std::size_t>((t - tl.warmup_end) *
                                 static_cast<std::int64_t>(windows) /
                                 measured));
  };
  ledger.for_each_attempted([&](std::uint32_t, std::uint64_t,
                                const Slot& slot) {
    const std::int64_t begin = slot.send_begin.load();
    const std::int64_t due = slot.due.load();
    const std::int64_t acked = slot.acked.load();
    if (acked == 0 || slot.acks.load() != 1) return;
    if (group < 0 && acked >= tl.warmup_end && acked < tl.window_end) {
      ++settled_in[window_of(acked)];
    }
    if (due < tl.warmup_end) return;
    if (group >= 0 && slot.traced.load() != group) return;
    latency[window_of(due)].push_back(static_cast<double>(acked - due) *
                                      1e-6);
    ++out.settled;
    if (first_send == 0 || begin < first_send) first_send = begin;
    last_settle = std::max(last_settle, acked);
  });
  out.latency_ms = summarize_groups(latency);
  if (last_settle > first_send && out.settled > 0) {
    out.throughput_rps = static_cast<double>(out.settled) /
                         (static_cast<double>(last_settle - first_send) *
                          1e-9);
  }
  if (group < 0) {
    const double window_s =
        static_cast<double>(measured) * 1e-9 / static_cast<double>(windows);
    for (const std::size_t n : settled_in) {
      out.window_rps.push_back(static_cast<double>(n) / window_s);
    }
  } else {
    // A group's reports were all due inside its own slices: rate over the
    // time those slices cover in the measured window.
    std::int64_t covered = 0;
    for (std::int64_t t = tl.warmup_end; t < tl.window_end;) {
      const std::int64_t slice_end =
          tl.start + ((t - tl.start) / tl.slice_ns + 1) * tl.slice_ns;
      const std::int64_t end = std::min(slice_end, tl.window_end);
      if (tl.traced_at(t) == (group == 1)) covered += end - t;
      t = end;
    }
    out.throughput_rps =
        covered > 0 ? static_cast<double>(out.settled) /
                          (static_cast<double>(covered) * 1e-9)
                    : 0.0;
  }
  return out;
}

service::TransportStats& operator+=(service::TransportStats& a,
                                    const service::TransportStats& b) {
  a.retransmits += b.retransmits;
  a.overloads += b.overloads;
  a.rejected_frames += b.rejected_frames;
  a.reconnects += b.reconnects;
  a.duplicates += b.duplicates;
  a.malformed_frames += b.malformed_frames;
  return a;
}

std::size_t count_series(const std::string& exposition) {
  std::size_t series = 0;
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    if (end > pos && exposition[pos] != '#') ++series;
    pos = end + 1;
  }
  return series;
}

void write_trace(const std::string& path, const Ledger& ledger,
                 const std::vector<DrainBatch>& batches,
                 const std::vector<std::pair<std::int64_t, std::int64_t>>&
                     process_spans,
                 const std::vector<FeedbackCall>& feedback) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  ledger.for_each_attempted(
      [&](std::uint32_t agent, std::uint64_t seq, const Slot& s) {
        if (s.traced.load() == 0) return;
        out << "{\"span\":\"report\",\"agent\":" << agent
            << ",\"seq\":" << seq << ",\"due\":" << s.due.load()
            << ",\"send_begin\":" << s.send_begin.load()
            << ",\"send_end\":" << s.send_end.load()
            << ",\"drained\":" << s.drained.load()
            << ",\"acked\":" << s.acked.load() << "}\n";
      });
  for (std::size_t i = 0; i < process_spans.size(); ++i) {
    out << "{\"span\":\"process\",\"begin\":" << process_spans[i].first
        << ",\"end\":" << process_spans[i].second << ",\"reports\":"
        << (i < batches.size() ? batches[i].reports.size() : 0)
        << ",\"ack_begin\":"
        << (i < batches.size() ? batches[i].first_ack_begin : 0)
        << ",\"ack_end\":"
        << (i < batches.size() ? batches[i].last_ack_end : 0) << "}\n";
  }
  for (const auto& call : feedback) {
    out << "{\"span\":\"learn_feedback\",\"begin\":" << call.begin
        << ",\"end\":" << call.end << ",\"ok\":" << (call.ok ? 1 : 0)
        << "}\n";
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "steady_serve" || name == "feedback_serve" ||
         name == "steady_cluster" || name == "churn_serve";
}

int run_workload(const Options& opts) {
  const Spec spec = spec_for(opts.workload, opts.tiny);
  const std::int64_t corpus_begin = now_ns();
  const Corpus corpus = make_corpus(opts.seed, spec.corpus_apps,
                                    spec.corpus_samples, spec.churn);
  const double corpus_s =
      static_cast<double>(now_ns() - corpus_begin) * 1e-9;
  double window_records = 0.0;
  double wire_bytes = 0.0;
  for (std::uint32_t i = 0; i < corpus.windows.size(); ++i) {
    window_records += static_cast<double>(corpus.windows[i].size());
    wire_bytes += static_cast<double>(encode_report(corpus, i, 0).size());
  }
  window_records /= static_cast<double>(corpus.windows.size());
  wire_bytes /= static_cast<double>(corpus.windows.size());

  // ---- Set-up, repeated; the median is setup_s. The last build serves.
  std::vector<double> setup_samples;
  Program program;
  core::Praxi trained;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    program = Program{};
    // A fresh WAL every time: a replayed log would turn the run's reports
    // into duplicates.
    const std::string wal_dir =
        opts.work_dir + "/wal-" + std::to_string(rep);
    std::filesystem::remove_all(wal_dir);
    setup_samples.push_back(
        build_program(spec, corpus, wal_dir, program, trained));
  }
  const double setup_s = quantile(setup_samples, 0.5);

  // ---- Ledger sizing.
  const double total_s = spec.warmup_s + opts.seconds;
  std::uint32_t ledger_agents = spec.agents;
  std::uint32_t per_agent = 1;
  if (spec.open_loop) {
    per_agent = static_cast<std::uint32_t>(
        spec.rate_rps * total_s / spec.agents + 2);
  } else if (spec.churn) {
    ledger_agents = static_cast<std::uint32_t>(std::max<double>(
        static_cast<double>(spec.min_agents) * 2, spec.max_rps * total_s));
  } else {
    per_agent =
        static_cast<std::uint32_t>(spec.max_rps * total_s / spec.agents + 2);
  }
  Ledger ledger(ledger_agents, per_agent);

  // ---- Connections and threads.
  Timeline tl;
  tl.trace = opts.trace;
  std::vector<std::unique_ptr<Sender>> senders;
  for (std::uint32_t j = 0; j < kSenders; ++j) {
    auto sender = std::make_unique<Sender>();
    sender->index = j;
    net::SocketClientConfig config;
    config.port = program.listener->port();
    config.client_id = "perfbench-sender-" + std::to_string(j);
    sender->client = std::make_unique<net::SocketClient>(config);
    senders.push_back(std::move(sender));
  }
  SettleProbe probe(
      *program.listener, ledger,
      [&senders, &spec](const ReportId& id, std::int64_t at) {
        if (!spec.open_loop) {
          senders[id.agent % kSenders]->push(Ready{id.agent, at});
        }
      });
  probe.set_tracing(opts.trace);
  LoadState state{spec, corpus, ledger, tl};

  service::DiscoveryServer* live_server = program.server.get();
  const std::uint64_t epoch_before =
      live_server != nullptr ? live_server->model().epoch() : 0;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  const std::uint64_t rss_before = rss_kb();
  const double cpu_before = process_cpu_s();
  tl.start = now_ns() + 20'000'000;  // threads are up before the first due
  tl.warmup_end = tl.start + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  tl.window_end = tl.warmup_end + static_cast<std::int64_t>(opts.seconds * 1e9);
  tl.deadline = tl.window_end + static_cast<std::int64_t>(spec.grace_s * 1e9);
  if (!spec.open_loop) {
    const std::uint32_t initial = spec.churn ? spec.agents : ledger.agents();
    for (std::uint32_t a = 0; a < initial; ++a) {
      senders[a % kSenders]->push(Ready{a, tl.start});
    }
  }
  for (auto& sender : senders) {
    Sender* s = sender.get();
    s->thread = std::thread([&state, s] {
      try {
        sleep_until_ns(state.timeline.start);
        if (state.spec.open_loop) {
          open_loop_sender(state, *s);
        } else {
          closed_loop_sender(state, *s);
        }
      } catch (const std::exception& e) {
        s->error = e.what();
        state.abort.store(true);
        state.senders_done.fetch_add(1);
      }
    });
  }
  std::vector<FeedbackCall> feedback;
  std::thread operator_thread;
  if (spec.operator_thread) {
    operator_thread = std::thread([&] {
      const double period_ns = 1e9 / spec.feedback_rps;
      for (std::size_t i = 0; !state.abort.load(); ++i) {
        const std::int64_t due =
            tl.start +
            static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
        if (due >= tl.window_end) break;
        sleep_until_ns(due);
        feedback.push_back(call_feedback(*live_server, corpus, i));
      }
    });
  }

  // ---- Processing loop (this thread): the server's own drive loop.
  std::string unexpected_result;
  std::vector<std::pair<std::int64_t, std::int64_t>> process_spans;
  std::uint64_t backlog_at_window_end = 0;
  bool window_closed = false;
  std::string process_error;
  try {
    while (true) {
      const std::int64_t now = now_ns();
      if (!window_closed && now >= tl.window_end) {
        window_closed = true;
        backlog_at_window_end =
            program.listener->stats().pending_frames +
            (state.attempted.load() - probe.settled());
      }
      if (state.senders_done.load() == kSenders &&
          probe.settled() >= state.attempted.load()) {
        break;
      }
      if (now >= tl.deadline) {
        state.abort.store(true);
        break;
      }
      const std::int64_t begin = now_ns();
      auto discoveries = program.process(probe);
      const std::int64_t end = now_ns();
      if (probe.last_drained() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (opts.trace) process_spans.emplace_back(begin, end);
      if (unexpected_result.empty()) {
        unexpected_result = record_results(ledger, discoveries);
      }
    }
  } catch (const std::exception& e) {
    process_error = e.what();
    state.abort.store(true);
  }
  const std::int64_t ingest_end = now_ns();
  const std::uint64_t rss_after = rss_kb();
  const double ingest_cpu_s = process_cpu_s() - cpu_before;
  const std::uint64_t settled_reports = probe.settled();
  const std::uint64_t rss_peak = rss_peak_kb();
  for (auto& sender : senders) sender->thread.join();
  if (operator_thread.joinable()) operator_thread.join();
  if (!process_error.empty()) {
    std::cerr << "perfbench: process() threw: " << process_error << "\n";
    return 1;
  }
  for (auto& sender : senders) {
    if (!sender->error.empty()) {
      std::cerr << "perfbench: sender " << sender->index
                << " failed: " << sender->error << "\n";
      return 1;
    }
  }

  service::TransportStats net_stats = program.listener->stats();
  for (auto& sender : senders) net_stats += sender->client->stats();
  if (program.router) net_stats += program.router->stats();
  const std::uint64_t pending_at_end = program.listener->stats().pending_frames;

  // ---- Exposition of the global registry (obs layer).
  std::vector<double> render_ms;
  std::string exposition;
  for (int i = 0; i < (opts.trace ? 5 : 1); ++i) {
    const std::int64_t t0 = now_ns();
    exposition = praxi::obs::render_prometheus(registry);
    render_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }

  for (auto& sender : senders) sender->client->close();
  program.listener->close();

  // ---- Exactly-once: every attempted report acked exactly once.
  std::uint64_t attempted_reports = 0;
  std::uint64_t unsettled = 0;
  std::uint64_t multi_acked = 0;
  std::set<std::uint32_t> agents_seen;
  ledger.for_each_attempted(
      [&](std::uint32_t agent, std::uint64_t, const Slot& slot) {
        ++attempted_reports;
        agents_seen.insert(agent);
        const std::uint32_t acks = slot.acks.load();
        if (acks == 0) ++unsettled;
        if (acks > 1) ++multi_acked;
      });
  if (multi_acked > 0 || probe.unknown_acks() > 0) {
    std::cerr << "perfbench: exactly-once violated: " << multi_acked
              << " reports acked more than once, " << probe.unknown_acks()
              << " acks of unknown frames\n";
    return 1;
  }

  // ---- What the traced run reports about the program's state, and the
  // live outputs, read before the program is torn down.
  Inventory live_inventory;
  std::size_t resident = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t overflows = 0;
  double shard_skew = 1.0;  // a single server is a one-shard cluster
  double ring_imbalance = 1.0;
  std::optional<cluster::HashRing> ring;
  if (program.router) {
    for (auto& [agent, row] : program.router->merge_now().agents) {
      live_inventory[agent] = std::move(row.applications);
    }
    std::uint64_t most = 0;
    std::uint64_t least = ~std::uint64_t{0};
    for (std::size_t i = 0; i < program.router->shard_count(); ++i) {
      const auto& shard = program.router->shard(i);
      most = std::max(most, shard.processed());
      least = std::min(least, shard.processed());
      resident += shard.resident_agents();
      duplicates += shard.duplicates();
      overflows += shard.overflows();
    }
    shard_skew = static_cast<double>(most) /
                 static_cast<double>(std::max<std::uint64_t>(1, least));
    ring = program.router->ring();
    ring_imbalance = ring->imbalance();
  } else {
    live_inventory = live_server->inventory();
    resident = live_server->resident_agents();
    duplicates = live_server->duplicates();
    overflows = live_server->overflows();
  }

  // ---- learn_feedback() latency where no operator thread ran: after
  // ingest, on the live server (the cluster has no learn_feedback, so there
  // it runs on the reference server below).
  std::uint64_t epochs_published = 0;
  const auto idle_feedback = [&](service::DiscoveryServer& server) {
    const std::uint64_t before = server.model().epoch();
    const std::size_t calls =
        spec.idle_feedback_calls * spec.idle_feedback_rounds;
    for (std::size_t i = 0; i < calls; ++i) {
      feedback.push_back(call_feedback(server, corpus, i));
      feedback.back().round = i / spec.idle_feedback_calls;
    }
    epochs_published = server.model().epoch() - before;
  };
  if (spec.operator_thread) {
    epochs_published = live_server->model().epoch() - epoch_before;
  } else if (live_server != nullptr) {
    idle_feedback(*live_server);
  }
  // The reference below holds as much state again; free the live one.
  live_server = nullptr;
  program = Program{};

  // ---- Reference check (not on feedback_serve: its epochs differ by
  // design).
  double reference_s = 0.0;
  if (!spec.operator_thread) {
    const std::int64_t reference_begin = now_ns();
    std::string diff = unexpected_result;
    auto reference = run_reference(spec, corpus, trained, ledger, diff);
    reference_s = static_cast<double>(now_ns() - reference_begin) * 1e-9;
    if (!diff.empty() || reference->inventory() != live_inventory) {
      std::cerr << "perfbench: output check failed: "
                << (diff.empty() ? "inventory differs from the reference"
                                 : diff)
                << "\n";
      return 1;
    }
    if (spec.cluster) idle_feedback(*reference);
  }

  std::uint64_t feedback_failed = 0;
  std::vector<double> feedback_ms;
  std::vector<std::vector<double>> feedback_rounds;
  for (const auto& call : feedback) {
    if (!call.ok) ++feedback_failed;
    const double ms = static_cast<double>(call.end - call.begin) * 1e-6;
    feedback_ms.push_back(ms);
    if (feedback_rounds.size() <= call.round) {
      feedback_rounds.resize(call.round + 1);
    }
    feedback_rounds[call.round].push_back(ms);
  }

  // ---- End-to-end figures.
  const Ingest all = ingest_stats(ledger, tl, -1);
  const Summary feedback_lat = summarize_groups(feedback_rounds);
  std::vector<double> lag_ms;
  ledger.for_each_attempted(
      [&](std::uint32_t, std::uint64_t, const Slot& slot) {
        const std::int64_t due = slot.due.load();
        if (due < tl.warmup_end) return;
        lag_ms.push_back(
            static_cast<double>(slot.send_begin.load() - due) * 1e-6);
      });
  const Summary lag = summarize(lag_ms);
  const double agents = static_cast<double>(agents_seen.size());
  const double rss_growth_kb = static_cast<double>(rss_after) -
                               static_cast<double>(rss_before);
  const std::uint64_t failed = unsettled + feedback_failed;
  const std::uint64_t attempted = attempted_reports + feedback.size();
  const std::uint64_t send_errors = [&] {
    std::uint64_t n = 0;
    for (auto& sender : senders) n += sender->send_errors;
    return n;
  }();

  Metrics metrics;
  std::string layers_json = "{}";
  const double failed_share =
      static_cast<double>(failed) /
      static_cast<double>(std::max<std::uint64_t>(1, attempted));
  if (!opts.trace) {
    metrics.set("throughput_rps", all.throughput_rps, "1/s");
    metrics.set("rss_per_agent_kb", rss_growth_kb / agents, "KiB");
    metrics.set("exposition_bytes_per_agent",
                static_cast<double>(exposition.size()) / agents, "B");
    metrics.set("rss_peak_mb", static_cast<double>(rss_peak) / 1024.0, "MiB");
    metrics.set("setup_s", setup_s, "s");
  } else {
    // ---- Per-layer figures from the traced run.
    std::vector<double> send_us;
    std::vector<double> queue_wait_ms;
    ledger.for_each_attempted(
        [&](std::uint32_t, std::uint64_t, const Slot& s) {
          if (s.traced.load() == 0 || s.due.load() < tl.warmup_end) return;
          const std::int64_t send_end = s.send_end.load();
          if (send_end == 0) return;
          send_us.push_back(
              static_cast<double>(send_end - s.send_begin.load()) * 1e-3);
          if (s.drained.load() != 0) {
            queue_wait_ms.push_back(
                static_cast<double>(s.drained.load() - send_end) * 1e-6);
          }
        });
    const Summary send = summarize(send_us);
    const Summary queue_wait = summarize(queue_wait_ms);

    auto& batches = probe.batches();
    std::vector<double> process_ms;
    std::vector<double> batch_sizes;
    double process_total_s = 0.0;
    double ack_total_s = 0.0;
    std::size_t batch_reports = 0;
    for (std::size_t i = 0; i < process_spans.size(); ++i) {
      const double ms =
          static_cast<double>(process_spans[i].second -
                              process_spans[i].first) *
          1e-6;
      process_ms.push_back(ms);
      process_total_s += ms * 1e-3;
      const DrainBatch& batch = batches.at(i);
      batch_sizes.push_back(static_cast<double>(batch.reports.size()));
      batch_reports += batch.reports.size();
      if (batch.acks > 0) {
        ack_total_s +=
            static_cast<double>(batch.last_ack_end - batch.first_ack_begin) *
            1e-9;
      }
    }
    const Summary process = summarize(process_ms);

    // Replay every drained batch; on the cluster each shard's share of a
    // round runs concurrently, so the round's critical path is its slowest
    // shard and that shard's layers are the ones charged to the round.
    const std::size_t shards = ring ? kShards : 1;
    BatchReplayer replayer(corpus, trained, shards, opts.work_dir);
    LayerCost critical;
    for (const auto& batch : batches) {
      std::vector<std::vector<ReportId>> per_shard(shards);
      for (const auto& id : batch.reports) {
        const std::size_t shard =
            ring ? ring->shard_for(agent_name(id.agent)) : 0;
        per_shard[shard].push_back(id);
      }
      LayerCost slowest;
      for (std::size_t shard = 0; shard < per_shard.size(); ++shard) {
        const LayerCost cost = replayer.replay(shard, per_shard[shard]);
        if (cost.total_s() >= slowest.total_s()) slowest = cost;
      }
      critical.add(slowest);
    }
    const double reports = std::max<double>(1.0, batch_reports);
    const double batches_n = std::max<double>(1.0, process_spans.size());
    const double other_s = process_total_s - critical.total_s() - ack_total_s;

    std::vector<const fs::Changeset*> feedback_sets;
    for (const auto& call : feedback) {
      feedback_sets.push_back(&corpus.train.changesets[call.changeset]);
    }
    const auto feedback_costs = replay_feedback(trained, feedback_sets);
    std::vector<double> learn_us;
    std::vector<double> publish_us;
    std::vector<double> lock_wait_ms;
    for (std::size_t i = 0; i < feedback_costs.size(); ++i) {
      const auto& c = feedback_costs[i];
      learn_us.push_back(c.learn_s * 1e6);
      publish_us.push_back(c.publish_s * 1e6);
      lock_wait_ms.push_back(
          feedback_ms[i] - (c.extract_s + c.learn_s + c.publish_s) * 1e3);
    }
    const Summary lock_wait = summarize(lock_wait_ms);

    const Ingest untraced = ingest_stats(ledger, tl, 0);
    const Ingest traced = ingest_stats(ledger, tl, 1);
    const double latency_overhead =
        untraced.latency_ms.p50 > 0
            ? traced.latency_ms.p50 / untraced.latency_ms.p50 - 1.0
            : 0.0;
    const double throughput_overhead =
        traced.throughput_rps > 0
            ? untraced.throughput_rps / traced.throughput_rps - 1.0
            : 0.0;

    // Latencies move with the host's fsync stalls and page-fault cost more
    // than a bound can absorb run to run, so they are reported here, from
    // the untraced slices of the traced run, rather than bounded.
    metrics.set("report_latency_p50_ms", untraced.latency_ms.p50, "ms");
    metrics.set("report_latency_p99_ms", untraced.latency_ms.p99, "ms");
    metrics.set("feedback_latency_p50_ms", feedback_lat.p50, "ms");
    metrics.set("feedback_latency_p99_ms", feedback_lat.p99, "ms");
    metrics.set("failed_share", failed_share, "ratio");
    metrics.set("net.send_us_p50", send.p50, "us");
    metrics.set("net.send_us_p99", send.p99, "us");
    metrics.set("net.queue_wait_ms_p50", queue_wait.p50, "ms");
    metrics.set("net.queue_wait_ms_p99", queue_wait.p99, "ms");
    metrics.set("net.retransmits", static_cast<double>(net_stats.retransmits),
                "count");
    metrics.set("net.overloads", static_cast<double>(net_stats.overloads),
                "count");
    metrics.set("net.rejected_frames",
                static_cast<double>(net_stats.rejected_frames), "count");
    metrics.set("service.batch_reports_mean", mean(batch_sizes), "count");
    metrics.set("service.batch_reports_max",
                batch_sizes.empty()
                    ? 0.0
                    : *std::max_element(batch_sizes.begin(),
                                        batch_sizes.end()),
                "count");
    metrics.set("service.process_calls",
                static_cast<double>(process_spans.size()), "count");
    metrics.set("service.process_ms_p50", process.p50, "ms");
    metrics.set("service.process_ms_p99", process.p99, "ms");
    metrics.set("service.decode_us_per_report",
                critical.decode_s * 1e6 / reports, "us");
    metrics.set("service.other_us_per_report", other_s * 1e6 / reports, "us");
    metrics.set("service.ack_us_per_batch", ack_total_s * 1e6 / batches_n,
                "us");
    metrics.set("service.resident_agents", static_cast<double>(resident),
                "count");
    metrics.set("service.duplicates", static_cast<double>(duplicates),
                "count");
    metrics.set("service.overflows", static_cast<double>(overflows), "count");
    metrics.set("service.wal.append_us_per_report",
                critical.wal_append_s * 1e6 / reports, "us");
    metrics.set("service.wal.commit_ms_per_batch",
                critical.wal_commit_s * 1e3 / batches_n, "ms");
    metrics.set("service.wal.bytes_per_report",
                static_cast<double>(critical.wal_bytes) /
                    std::max<double>(1.0, critical.reports),
                "B");
    metrics.set("columbus.extract_us_per_report",
                critical.extract_s * 1e6 / reports, "us");
    metrics.set("columbus.tags_per_report",
                static_cast<double>(critical.tags) /
                    std::max<double>(1.0, critical.classified),
                "count");
    metrics.set("ml.predict_us_per_report",
                critical.predict_s * 1e6 / reports, "us");
    metrics.set("core.learn_one_us", mean(learn_us), "us");
    metrics.set("core.publish_us", mean(publish_us), "us");
    metrics.set("core.feedback_lock_wait_ms_p99", lock_wait.p99, "ms");
    metrics.set("core.epochs_published",
                static_cast<double>(epochs_published), "count");
    metrics.set("cluster.round_ms_p50", process.p50, "ms");
    metrics.set("cluster.round_ms_p99", process.p99, "ms");
    metrics.set("cluster.reports_per_round_mean", mean(batch_sizes), "count");
    metrics.set("cluster.shard_skew", shard_skew, "ratio");
    metrics.set("cluster.ring_imbalance", ring_imbalance, "ratio");
    metrics.set("obs.render_ms", quantile(render_ms, 0.5), "ms");
    metrics.set("obs.series", static_cast<double>(count_series(exposition)),
                "count");
    metrics.set("generator.lag_ms_p99", lag.p99, "ms");
    metrics.set("trace.overhead_share",
                std::max(latency_overhead, throughput_overhead), "ratio");

    // Layer accounting: the replayed layers, the measured ack loop and the
    // residual add up to the measured process() time by construction.
    layers_json =
        "{\"process_us_per_report\": " +
        json_number(process_total_s * 1e6 / reports) +
        ", \"decode\": " + json_number(critical.decode_s * 1e6 / reports) +
        ", \"extract\": " + json_number(critical.extract_s * 1e6 / reports) +
        ", \"predict\": " + json_number(critical.predict_s * 1e6 / reports) +
        ", \"wal_append\": " +
        json_number(critical.wal_append_s * 1e6 / reports) +
        ", \"wal_commit\": " +
        json_number(critical.wal_commit_s * 1e6 / reports) +
        ", \"ack\": " + json_number(ack_total_s * 1e6 / reports) +
        ", \"other\": " + json_number(other_s * 1e6 / reports) +
        ", \"reports\": " + std::to_string(batch_reports) +
        ", \"classified\": " + std::to_string(critical.classified) +
        ", \"trace_overhead\": {\"latency_p50_untraced_ms\": " +
        json_number(untraced.latency_ms.p50) +
        ", \"latency_p50_traced_ms\": " + json_number(traced.latency_ms.p50) +
        ", \"throughput_untraced_rps\": " +
        json_number(untraced.throughput_rps) +
        ", \"throughput_traced_rps\": " + json_number(traced.throughput_rps) +
        "}, \"send_samples\": " + std::to_string(send.samples) +
        ", \"queue_wait_samples\": " + std::to_string(queue_wait.samples) +
        ", \"process_samples\": " + std::to_string(process.samples) +
        ", \"feedback_lock_wait_samples\": " +
        std::to_string(lock_wait.samples) + "}";
    write_trace(opts.trace_path, ledger, batches, process_spans, feedback);
  }

  // ---- Report: everything, with sample counts, then the result line.
  std::cout << "{\"report\": {\"workload\": " << json_string(spec.name)
            << ", \"seed\": " << opts.seed
            << ", \"seconds\": " << json_number(opts.seconds)
            << ", \"trace\": " << (opts.trace ? "true" : "false")
            << ", \"tiny\": " << (opts.tiny ? "true" : "false")
            << ",\n  \"report_latency_ms\": " << summary_json(all.latency_ms)
            << ", \"throughput_rps\": " << json_number(all.throughput_rps)
            << ", \"throughput_window_rps\": " << numbers_json(all.window_rps)
            << ", \"settled_measured\": " << all.settled
            << ",\n  \"generator_lag_ms\": " << summary_json(lag)
            << ", \"backlog_at_window_end\": " << backlog_at_window_end
            << ", \"pending_frames_at_end\": " << pending_at_end
            << ", \"unsettled_at_end\": " << unsettled
            << ",\n  \"feedback_latency_ms\": " << summary_json(feedback_lat)
            << ", \"feedback_calls\": " << feedback.size()
            << ", \"feedback_under_load\": "
            << (spec.operator_thread ? "true" : "false")
            << ", \"epochs_published\": " << epochs_published
            << ",\n  \"attempted_reports\": " << attempted_reports
            << ", \"distinct_agents\": " << agents_seen.size()
            << ", \"send_errors\": " << send_errors
            << ", \"failed\": " << failed
            << ", \"failed_share\": " << json_number(failed_share)
            << ",\n  \"rss_before_kb\": " << rss_before
            << ", \"rss_after_kb\": " << rss_after
            << ", \"rss_peak_kb\": " << rss_peak
            << ", \"exposition_bytes\": " << exposition.size()
            << ", \"setup_s_samples\": " << setup_samples.size()
            << ", \"corpus_s\": " << json_number(corpus_s)
            << ", \"window_records_mean\": " << json_number(window_records)
            << ", \"wire_bytes_mean\": " << json_number(wire_bytes)
            << ", \"reference_s\": " << json_number(reference_s)
            << ", \"ingest_cpu_s\": " << json_number(ingest_cpu_s)
            << ", \"cpu_us_per_report\": "
            << json_number(ingest_cpu_s * 1e6 /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, settled_reports)))
            << ", \"ingest_s\": "
            << json_number(static_cast<double>(ingest_end - tl.start) * 1e-9)
            << ",\n  \"layers_us_per_report\": " << layers_json << "}}\n";
  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.to_json() << "}" << std::endl;
  return 0;
}

}  // namespace perfbench
