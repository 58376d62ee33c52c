// perfbench — the repository benchmark's program (see perfbench/README.md).
//
// One process runs one workload. It generates the workload's world from
// --seed, trains it through the library's public round API on the schedule
// schemes::run_experiment uses, checks every record against run_experiment
// bit for bit, and prints its raw measurements as one JSON line. run.py
// builds this binary and reduces that line to the benchmark's result.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
//             [--rounds=R]   (override the round budget; smoke test only)
//
// --trace=0 measures the end-to-end metrics with tracing off. --trace=1
// alternates untraced and traced repetitions (the difference is the tracing
// overhead), records spans around every public call from this file, probes
// each layer in isolation at the workload's shapes, and writes the last
// traced repetition's spans as a Chrome trace-event file.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gsfl/common/async_lane.hpp"
#include "gsfl/common/thread_pool.hpp"
#include "gsfl/core/checkpoint.hpp"
#include "gsfl/core/experiment.hpp"
#include "gsfl/data/partition.hpp"
#include "gsfl/data/sampler.hpp"
#include "gsfl/data/synthetic_gtsrb.hpp"
#include "gsfl/metrics/evaluate.hpp"
#include "gsfl/nn/activations.hpp"
#include "gsfl/nn/conv2d.hpp"
#include "gsfl/nn/dense.hpp"
#include "gsfl/nn/flatten.hpp"
#include "gsfl/nn/loss.hpp"
#include "gsfl/nn/optimizer.hpp"
#include "gsfl/nn/split.hpp"
#include "gsfl/schemes/adaptive.hpp"
#include "gsfl/schemes/aggregate.hpp"
#include "gsfl/schemes/splitfed.hpp"
#include "gsfl/tensor/gemm.hpp"
#include "gsfl/tensor/quantize.hpp"
#include "gsfl/tensor/serialize.hpp"

namespace {

using namespace gsfl;
using Clock = std::chrono::steady_clock;
using tensor::Tensor;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += json_number(v[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by this file around the library's public calls.
// Disabled, open() returns -1 and close() ignores it — one branch per call.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Open a span under `parent` (-1 = root) and return its id. `round` is
  /// the 1-based round the span belongs to (0 = none); `track` is the
  /// viewer row (spans on one track must nest).
  int open(std::string name, int parent, std::size_t round = 0,
           int track = 1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), now_us(), -1.0, parent, round,
                          track});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }

  /// Durations in seconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name && s.end_us >= 0.0) {
        out.push_back((s.end_us - s.start_us) * 1e-6);
      }
    }
    return out;
  }

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  void write_chrome(const std::string& path,
                    const std::string& fingerprint) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << fingerprint
        << ",\"traceEvents\":[\n"
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"benchmark thread\"}}";
    for (int t = 2; t <= 3; ++t) {
      out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
          << ",\"args\":{\"name\":\"rounds in flight\"}}";
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_us < 0.0) continue;
      out << ",\n{\"name\":" << json_string(s.name)
          << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
          << ",\"ts\":" << json_number(s.start_us)
          << ",\"dur\":" << json_number(s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"round\":" << s.round << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
    std::size_t round = 0;
    int track = 1;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, int parent,
            std::size_t round = 0)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent, round)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads. Every stochastic input derives from the benchmark seed.

enum class Kind { kGsflPaper, kSflFanoutDense, kGsflFaultyQ8 };

struct Workload {
  Kind kind = Kind::kGsflPaper;
  std::string name;
  std::size_t lanes = 1;       ///< host lanes (capped at nproc)
  std::size_t depth = 1;       ///< rounds in flight
  std::size_t rounds = 1;      ///< fixed round budget of one repetition
  std::size_t cut = 0;         ///< initial cut layer
  std::size_t batch_size = 0;
  std::size_t replicas = 0;    ///< state dicts one round's FedAvg folds
  std::size_t quant_bits = 0;  ///< 0 ⇒ f32 smashed payloads
  bool checkpoint = false;     ///< experiment checkpoint written every round
  bool adaptive = false;       ///< greedy cut controller attached
  std::uint64_t seed = 0;
};

// Seed fork tags: one independent stream per stochastic input.
constexpr std::uint64_t kWorldTag = 1;     // data, partition, network, model
constexpr std::uint64_t kTrainTag = 2;     // batch sampling
constexpr std::uint64_t kFaultTag = 3;     // round-keyed fault plans
constexpr std::uint64_t kControllerTag = 4;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  common::Rng root(seed);
  return root.fork(tag).next();
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // Each round budget takes test accuracy past the steep part of its
  // curve, where its spread between seeds is small.
  if (name == "gsfl_paper") {
    w.kind = Kind::kGsflPaper;
    w.lanes = 3;  // 6 groups balance at 2 per lane
    w.depth = 2;
    w.rounds = 8;
    w.cut = 3;
    w.batch_size = 16;
    w.replicas = 6;
  } else if (name == "sfl_fanout_dense") {
    w.kind = Kind::kSflFanoutDense;
    w.lanes = 4;
    w.depth = 2;
    w.rounds = 12;
    w.cut = 2;
    w.batch_size = 8;
    w.replicas = 48;
  } else if (name == "gsfl_faulty_q8") {
    w.kind = Kind::kGsflFaultyQ8;
    w.lanes = 1;
    w.depth = 1;  // checkpointing every round is a barrier
    w.rounds = 20;
    w.cut = 3;
    w.batch_size = 8;
    w.replicas = 6;
    w.quant_bits = 8;
    w.checkpoint = true;
    w.adaptive = true;
  } else {
    return std::nullopt;
  }
  return w;
}

core::ExperimentConfig experiment_config(const Workload& w) {
  core::ExperimentConfig config = w.kind == Kind::kGsflPaper
                                      ? core::ExperimentConfig::paper()
                                      : core::ExperimentConfig::scaled();
  config.seed = derive_seed(w.seed, kWorldTag);
  config.train.seed = derive_seed(w.seed, kTrainTag);
  config.train.threads = w.lanes;
  if (w.kind == Kind::kGsflFaultyQ8) {
    config.network.channel.quantizer =
        tensor::QuantizerConfig{.bits = w.quant_bits, .per_channel = false};
    config.train.faults.crash_before_rate = 0.05;
    config.train.faults.uplink_loss_rate = 0.10;
    config.train.faults.straggler_rate = 0.20;
    config.train.faults.seed = derive_seed(w.seed, kFaultTag);
    config.train.round_policy.quorum_fraction = 0.67;
  }
  return config;
}

/// The generated inputs one repetition trains on.
struct World {
  std::unique_ptr<core::Experiment> experiment;   ///< Experiment-built worlds
  std::unique_ptr<net::WirelessNetwork> network;  ///< the explicit world
  std::vector<data::Dataset> client_data;
  data::Dataset test_set;
  nn::Sequential model;

  [[nodiscard]] const data::Dataset& test() const {
    return experiment ? experiment->test_set() : test_set;
  }
  [[nodiscard]] const std::vector<data::Dataset>& clients() const {
    return experiment ? experiment->client_data() : client_data;
  }
  [[nodiscard]] nn::Sequential initial_model() const {
    return experiment ? experiment->initial_model() : model;
  }
};

// 48 clients × one batch of 8 16×16×3 images, a ~1.85M-parameter dense
// split MLP cut after its first Dense: per-client compute is a skinny m=8
// GEMM, so replica state copies, optimizer steps, lane fan-out and the
// FedAvg fold dominate the round.
World build_fanout_world(const Workload& w) {
  constexpr std::size_t kClients = 48;
  constexpr std::size_t kClasses = 8;
  common::Rng root(derive_seed(w.seed, kWorldTag));
  auto data_rng = root.fork(1);
  auto test_rng = root.fork(2);
  auto partition_rng = root.fork(3);
  auto network_rng = root.fork(4);
  auto model_rng = root.fork(5);

  data::SyntheticGtsrbConfig data_config;
  data_config.image_size = 16;
  data_config.num_classes = kClasses;
  data_config.samples_per_class = kClients * w.batch_size / kClasses;
  const auto train = data::SyntheticGtsrb(data_config).generate(data_rng);
  auto test_config = data_config;
  test_config.samples_per_class = 25;

  World world;
  world.test_set = data::SyntheticGtsrb(test_config).generate(test_rng);
  world.client_data = data::materialize(
      train, data::partition_iid(train, kClients, partition_rng));

  net::NetworkConfig network_config;
  network_config.total_bandwidth_hz = 20e6;
  world.network = std::make_unique<net::WirelessNetwork>(
      net::WirelessNetwork::make_uniform_random(network_config, kClients,
                                                20.0, 120.0, 2e8, 1.2e9,
                                                network_rng));

  const std::size_t features = 3 * 16 * 16;
  world.model.emplace<nn::Flatten>();
  world.model.emplace<nn::Dense>(features, 1024, model_rng);
  world.model.emplace<nn::Relu>();
  world.model.emplace<nn::Dense>(1024, 1024, model_rng);
  world.model.emplace<nn::Relu>();
  world.model.emplace<nn::Dense>(1024, kClasses, model_rng);
  return world;
}

World build_world(const Workload& w) {
  if (w.kind == Kind::kSflFanoutDense) return build_fanout_world(w);
  World world;
  world.experiment = std::make_unique<core::Experiment>(experiment_config(w));
  return world;
}

struct Built {
  std::unique_ptr<schemes::Trainer> trainer;
  std::shared_ptr<schemes::AdaptiveController> controller;
};

schemes::AdaptiveConfig controller_config(const Workload& w) {
  schemes::AdaptiveConfig config;
  config.policy = schemes::AdaptivePolicy::kGreedy;
  config.seed = derive_seed(w.seed, kControllerTag);
  return config;
}

Built build_trainer(const Workload& w, const World& world) {
  Built built;
  if (w.kind == Kind::kSflFanoutDense) {
    schemes::TrainConfig train;
    train.learning_rate = 0.05;
    train.batch_size = w.batch_size;
    train.seed = derive_seed(w.seed, kTrainTag);
    train.threads = w.lanes;
    built.trainer = std::make_unique<schemes::SplitFedTrainer>(
        *world.network, world.client_data, world.model, w.cut, train);
  } else {
    built.trainer = world.experiment->make_gsfl();
  }
  if (w.adaptive) {
    built.controller =
        std::make_shared<schemes::AdaptiveController>(controller_config(w));
    built.trainer->set_adaptive(built.controller);
  }
  return built;
}

std::size_t total_samples(const World& world) {
  std::size_t n = 0;
  for (const auto& d : world.clients()) n += d.size();
  return n;
}

// FNV-1a over every state tensor's bytes: the final-model digest.
std::uint64_t state_digest(const nn::Sequential& model) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Tensor& t : model.state()) {
    for (const float v : t.data()) {
      std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      for (int b = 0; b < 4; ++b) {
        h ^= bits & 0xFFU;
        h *= 0x100000001b3ULL;
        bits >>= 8;
      }
    }
  }
  return h;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_record(const metrics::RoundRecord& a, const metrics::RoundRecord& b) {
  return a.round == b.round && same_bits(a.sim_seconds, b.sim_seconds) &&
         same_bits(a.train_loss, b.train_loss) &&
         same_bits(a.eval_accuracy, b.eval_accuracy);
}

// ---------------------------------------------------------------------------
// One repetition: build the world and trainer, drive the round budget.

struct RoundRow {
  metrics::RoundRecord record;
  sim::LatencyBreakdown latency;
  std::size_t cut = 0;  ///< cut the round trained at
  bool cut_changed = false;
  std::size_t clients_folded = 0;
  std::size_t samples_folded = 0;
  double done_s = 0.0;  ///< host seconds from the first submit to its record
};

struct Rep {
  double setup_s = 0.0;  ///< world plus trainer build
  double run_s = 0.0;    ///< the round budget, evaluation included
  std::vector<RoundRow> rows;
  std::uint64_t digest = 0;
  std::string error;  ///< non-empty ⇒ a round threw
  World world;        ///< kept alive for the traced run's probes
  Built built;
};

constexpr std::size_t kEvalBatch = 64;

RoundRow make_row(std::size_t round, double sim_seconds,
                  const schemes::RoundResult& result,
                  const metrics::EvalResult& eval, const World& world) {
  RoundRow row;
  row.record = metrics::RoundRecord{.round = round,
                                    .sim_seconds = sim_seconds,
                                    .train_loss = result.train_loss,
                                    .eval_accuracy = eval.accuracy};
  row.latency = result.latency;
  const auto& clients = world.clients();
  if (result.participation.empty()) {  // fault-free: every client folded
    row.clients_folded = clients.size();
    row.samples_folded = total_samples(world);
  }
  for (const auto& p : result.participation) {
    if (p.fault != sim::FaultKind::kNone) continue;
    ++row.clients_folded;
    row.samples_folded += clients[p.client].size();
  }
  return row;
}

// The round loop of schemes::run_experiment at the workload's depth, with
// evaluation every round, timed from this thread. Depth 1 is the barriered
// loop (plus a checkpoint per round when configured), driven through
// submit_round/collect_round so submit and collect time show separately;
// depth ≥ 2 is run_experiment's pipelined window, whose evaluation of
// round r is a lane task overlapping round r+1's compute.
void drive(const Workload& w, Rep& rep, Tracer& tracer, int rep_span,
           const std::string& checkpoint_dir) {
  schemes::Trainer& trainer = *rep.built.trainer;
  const data::Dataset& test = rep.world.test();
  std::vector<metrics::RoundRecord> records;
  double sim_seconds = 0.0;
  std::size_t cut = w.cut;
  const auto t0 = Clock::now();

  const auto finish_row = [&](std::size_t round, int round_span,
                              const schemes::RoundResult& result,
                              const metrics::EvalResult& eval) {
    sim_seconds += result.latency.total();
    RoundRow row = make_row(round, sim_seconds, result, eval, rep.world);
    row.cut = cut;
    if (rep.built.controller) {
      const auto& decision = rep.built.controller->last_decision();
      row.cut_changed = decision.changed;
      cut = decision.cut;
    }
    records.push_back(row.record);
    if (w.checkpoint) {
      SpanScope span(tracer, "core.checkpoint_save", round_span, round);
      core::save_experiment_checkpoint_file(
          core::checkpoint_path(checkpoint_dir, trainer.name(), round),
          trainer, records, sim_seconds);
    }
    tracer.close(round_span);
    row.done_s = since(t0);
    rep.rows.push_back(row);
  };

  GSFL_EXPECT_MSG(!rep.built.controller || w.depth == 1,
                  "controller decisions are read once per collected round, "
                  "so an adaptive workload must run at depth 1");
  if (w.depth == 1) {
    for (std::size_t round = 1; round <= w.rounds; ++round) {
      const int round_span = tracer.open("bench.round", rep_span, round, 2);
      schemes::RoundTicket ticket;
      {
        SpanScope span(tracer, "schemes.submit", round_span, round);
        ticket = trainer.submit_round();
      }
      schemes::RoundResult result;
      {
        SpanScope span(tracer, "schemes.collect_wait", round_span, round);
        result = trainer.collect_round(ticket);
      }
      metrics::EvalResult eval;
      {
        SpanScope span(tracer, "metrics.evaluate", round_span, round);
        auto model = trainer.global_model();
        eval = metrics::evaluate(model, test, kEvalBatch);
      }
      finish_row(round, round_span, result, eval);
    }
    rep.run_s = since(t0);
    return;
  }

  struct InFlight {
    std::size_t round = 0;
    int span = -1;
    schemes::RoundTicket ticket;
    common::TaskFuture<metrics::EvalResult> eval;
  };
  std::deque<InFlight> window;
  const auto drain_front = [&] {
    InFlight flight = std::move(window.front());
    window.pop_front();
    schemes::RoundResult result;
    {
      SpanScope span(tracer, "schemes.collect_wait", flight.span,
                     flight.round);
      result = trainer.collect_round(flight.ticket);
    }
    metrics::EvalResult eval;
    {
      SpanScope span(tracer, "metrics.evaluate", flight.span, flight.round);
      eval = flight.eval.wait();
    }
    finish_row(flight.round, flight.span, result, eval);
  };
  try {
    common::TaskHandle model_release;
    for (std::size_t round = 1; round <= w.rounds; ++round) {
      InFlight flight;
      flight.round = round;
      flight.span = tracer.open("bench.round", rep_span, round,
                                2 + static_cast<int>(round % 2));
      {
        SpanScope span(tracer, "schemes.submit", flight.span, round);
        flight.ticket = trainer.submit_round(model_release);
      }
      flight.eval = common::global_lane().submit_after(
          [&trainer, &test] {
            auto model = trainer.global_model();
            return metrics::evaluate(model, test, kEvalBatch);
          },
          {flight.ticket.done.handle()});
      model_release = flight.eval.handle();
      window.push_back(std::move(flight));
      if (window.size() >= w.depth) drain_front();
    }
    while (!window.empty()) drain_front();
  } catch (...) {
    // Lane tasks reference the trainer and test set: drain before unwinding.
    while (!window.empty()) {
      try {
        (void)trainer.collect_round(window.front().ticket);
      } catch (...) {
      }
      try {
        (void)window.front().eval.wait();
      } catch (...) {
      }
      window.pop_front();
    }
    throw;
  }
  rep.run_s = since(t0);
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

Rep run_rep(const Workload& w, Tracer& tracer,
            const std::string& checkpoint_dir) {
  Rep rep;
  reset_dir(checkpoint_dir);
  const int rep_span = tracer.open("bench.rep", -1);
  try {
    const auto t = Clock::now();
    {
      SpanScope span(tracer, "core.world_build", rep_span);
      rep.world = build_world(w);
    }
    {
      SpanScope span(tracer, "schemes.trainer_build", rep_span);
      rep.built = build_trainer(w, rep.world);
    }
    rep.setup_s = since(t);
    drive(w, rep, tracer, rep_span, checkpoint_dir);
    rep.digest = state_digest(rep.built.trainer->global_model());
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  tracer.close(rep_span);
  return rep;
}

struct Reference {
  std::vector<metrics::RoundRecord> records;
  std::uint64_t digest = 0;
};

// The same options through schemes::run_experiment: the oracle every
// repetition must match bit for bit. Also warms lazy state (lane workers,
// scratch arenas) before anything is timed.
Reference reference_run(const Workload& w, const std::string& checkpoint_dir) {
  reset_dir(checkpoint_dir);
  World world = build_world(w);
  Built built = build_trainer(w, world);
  schemes::ExperimentOptions options;
  options.rounds = w.rounds;
  options.eval_every = 1;
  options.eval_batch_size = kEvalBatch;
  options.pipeline_depth = w.depth;
  options.checkpoint_every = w.checkpoint ? 1 : 0;
  options.checkpoint_dir = checkpoint_dir;
  const auto recorder =
      schemes::run_experiment(*built.trainer, world.test(), options);
  Reference ref;
  ref.records = recorder.records();
  ref.digest = state_digest(built.trainer->global_model());
  return ref;
}

/// Rounds of `rep` that failed: threw, never ran, had a non-finite loss,
/// or differ from the reference (a digest mismatch fails the last round).
std::size_t failed_rounds(const Workload& w, const Rep& rep,
                          const Reference& ref, std::vector<std::string>& why) {
  std::size_t failed = 0;
  for (std::size_t r = 0; r < w.rounds; ++r) {
    if (r >= rep.rows.size() || r >= ref.records.size()) {
      ++failed;
      continue;
    }
    const auto& rec = rep.rows[r].record;
    if (!std::isfinite(rec.train_loss) || !same_record(rec, ref.records[r])) {
      ++failed;
      why.push_back("round " + std::to_string(r + 1) +
                    " differs from run_experiment");
    }
  }
  if (!rep.error.empty()) why.push_back("round threw: " + rep.error);
  if (failed == 0 && rep.digest != ref.digest) {
    failed = 1;
    why.push_back("final-model digest differs from run_experiment");
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Isolated probes at the workload's exact shapes (traced run only).

struct Probes {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  void add(std::string name, double value, std::string unit) {
    values.emplace_back(std::move(name),
                        std::make_pair(value, std::move(unit)));
  }
};

// Median seconds of timed() over repeated calls, each preceded by an
// untimed prepare(): at least 5 calls after one warm-up, then until
// `budget` seconds have passed.
template <typename Prepare, typename Timed>
double probe(Tracer& tracer, int parent, const std::string& name,
             double budget, Prepare prepare, Timed timed) {
  SpanScope span(tracer, "probe." + name, parent);
  std::vector<double> samples;
  prepare();
  timed();
  const auto start = Clock::now();
  while (samples.size() < 5 ||
         (since(start) < budget && samples.size() < 100000)) {
    prepare();
    const auto t0 = Clock::now();
    timed();
    samples.push_back(since(t0));
  }
  return median(samples);
}

template <typename Timed>
double probe(Tracer& tracer, int parent, const std::string& name,
             double budget, Timed timed) {
  return probe(tracer, parent, name, budget, [] {}, timed);
}

Tensor pattern_tensor(const tensor::Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  common::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

std::string layer_kind(const nn::Layer& layer) {
  const std::string name = layer.name();
  return name.substr(0, name.find('('));
}

struct GemmShape {
  std::size_t m, k, n;
  bool operator==(const GemmShape&) const = default;
};

// The GEMMs one training step issues per layer (per sample for Conv2d's
// forward and input gradient).
std::vector<GemmShape> layer_gemms(nn::Layer& layer, const tensor::Shape& in,
                                   const tensor::Shape& out) {
  if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
    const std::size_t b = in[0];
    const std::size_t i = dense->in_features(), o = dense->out_features();
    return {{b, i, o}, {o, b, i}, {b, o, i}};
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    const std::size_t co = conv->out_channels();
    const std::size_t patch = conv->weight().numel() / co;
    const std::size_t positions = out[2] * out[3];
    return {{co, patch, positions},
            {co, in[0] * positions, patch},
            {patch, co, positions}};
  }
  return {};
}

void probe_layers(const Workload& w, const World& world, Tracer& tracer,
                  int parent, double budget, const Tensor& images,
                  Probes& probes, std::vector<std::string>& table) {
  nn::Sequential model = world.initial_model();
  std::vector<Tensor> inputs;
  Tensor x = images;
  for (std::size_t i = 0; i < model.size(); ++i) {
    inputs.push_back(x);
    x = model.layer(i).forward(x, true);
  }
  double fwd_total = 0.0, bwd_total = 0.0;
  std::vector<GemmShape> shapes;
  for (std::size_t i = 0; i < model.size(); ++i) {
    nn::Layer& layer = model.layer(i);
    const Tensor& in = inputs[i];
    Tensor y = layer.forward(in, true);
    const Tensor dy = pattern_tensor(y.shape(), w.seed + i);
    char index[24];
    std::snprintf(index, sizeof index, "%02zu", i);
    const std::string key = "nn.layer." + std::string(index) + "." +
                            layer_kind(layer);
    const double fwd = probe(tracer, parent, key + ".fwd", budget,
                             [&] { y = layer.forward(in, true); });
    Tensor dx;
    const double bwd = probe(
        tracer, parent, key + ".bwd", budget,
        [&] { y = layer.forward(in, true); },
        [&] { dx = layer.backward(dy); });
    probes.add(key + ".fwd_s", fwd, "s");
    probes.add(key + ".bwd_s", bwd, "s");
    table.push_back(key + " = " + layer.name());
    fwd_total += fwd;
    bwd_total += bwd;
    for (const auto& s : layer_gemms(layer, in.shape(), y.shape())) {
      if (std::find(shapes.begin(), shapes.end(), s) == shapes.end()) {
        shapes.push_back(s);
      }
    }
  }
  probes.add("nn.layers.fwd_s", fwd_total, "s");
  probes.add("nn.layers.bwd_s", bwd_total, "s");

  double flops_total = 0.0, seconds_total = 0.0;
  for (const auto& s : shapes) {
    const Tensor a = pattern_tensor({s.m, s.k}, 1);
    const Tensor b = pattern_tensor({s.k, s.n}, 2);
    Tensor c({s.m, s.n});
    const std::string key = "tensor.gemm_gflops." + std::to_string(s.m) +
                            "x" + std::to_string(s.k) + "x" +
                            std::to_string(s.n);
    const double t = probe(tracer, parent, key, budget, [&] {
      tensor::gemm_raw(s.m, s.k, s.n, 1.0f, a.data().data(), b.data().data(),
                       0.0f, c.data().data());
    });
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    probes.add(key, flops / t * 1e-9, "GFLOP/s");
    flops_total += flops;
    seconds_total += t;
  }
  probes.add("tensor.gemm_gflops", flops_total / seconds_total * 1e-9,
             "GFLOP/s");
}

void run_probes(const Workload& w, Rep& rep, Tracer& tracer, double budget,
                Probes& probes, std::vector<std::string>& table) {
  const int parent = tracer.open("bench.probes", -1);
  const World& world = rep.world;
  schemes::Trainer& trainer = *rep.built.trainer;
  const auto& clients = world.clients();
  const nn::Sequential initial = world.initial_model();

  // One training batch of client 0, as its sampler would draw it.
  data::BatchSampler sampler(clients[0], w.batch_size, common::Rng(w.seed));
  const data::Batch batch = sampler.next();
  const tensor::Shape batch_shape = batch.images.shape();

  probe_layers(w, world, tracer, parent, budget, batch.images, probes,
               table);

  // Split half-passes on that batch.
  nn::SplitModel split(initial, w.cut);
  Tensor smashed = split.client_forward(batch.images, true);
  Tensor logits = split.server_forward(smashed, true);
  const Tensor grad_logits =
      nn::softmax_cross_entropy(logits, batch.labels).grad_logits;
  Tensor grad_smashed = split.server_backward(grad_logits);
  const double client_fwd = probe(tracer, parent, "nn.client_fwd", budget, [&] {
    smashed = split.client_forward(batch.images, true);
  });
  const double server_fwd = probe(tracer, parent, "nn.server_fwd", budget, [&] {
    logits = split.server_forward(smashed, true);
  });
  const double server_bwd = probe(
      tracer, parent, "nn.server_bwd", budget,
      [&] { logits = split.server_forward(smashed, true); },
      [&] { grad_smashed = split.server_backward(grad_logits); });
  const double client_bwd = probe(
      tracer, parent, "nn.client_bwd", budget,
      [&] { smashed = split.client_forward(batch.images, true); },
      [&] { split.client_backward(grad_smashed); });
  probes.add("nn.client_fwd_s", client_fwd, "s");
  probes.add("nn.client_bwd_s", client_bwd, "s");
  probes.add("nn.server_fwd_s", server_fwd, "s");
  probes.add("nn.server_bwd_s", server_bwd, "s");
  const auto cf = split.client_flops(batch_shape);
  const auto sf = split.server_flops(batch_shape);
  probes.add("nn.client_gflops",
             static_cast<double>(cf.forward + cf.backward) /
                 (client_fwd + client_bwd) * 1e-9,
             "GFLOP/s");
  probes.add("nn.server_gflops",
             static_cast<double>(sf.forward + sf.backward) /
                 (server_fwd + server_bwd) * 1e-9,
             "GFLOP/s");

  // GSQT wire codec on one smashed batch (8-bit on every workload, so the
  // codec's cost is visible even where the channel runs f32).
  const tensor::QuantizerConfig q8{.bits = 8, .per_channel = false};
  std::string wire;
  const double quantize = probe(tracer, parent, "tensor.quantize", budget, [&] {
    std::ostringstream out;
    tensor::write_quantized(out, smashed, q8);
    wire = std::move(out).str();
  });
  Tensor decoded;
  const double dequantize =
      probe(tracer, parent, "tensor.dequantize", budget, [&] {
        std::istringstream in(wire);
        decoded = tensor::read_quantized(in);
      });
  probes.add("tensor.quantize_s", quantize, "s");
  probes.add("tensor.dequantize_s", dequantize, "s");
  const tensor::QuantizerConfig channel{.bits = w.quant_bits,
                                        .per_channel = false};
  probes.add("net.smashed_wire_bytes",
             static_cast<double>(
                 channel.active()
                     ? tensor::quantized_wire_bytes(
                           split.smashed_shape(batch_shape), channel)
                     : split.smashed_bytes(batch_shape)),
             "bytes");

  // Batch plans for one round: every client's epoch.
  std::vector<data::BatchSampler> samplers;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    samplers.emplace_back(clients[c], w.batch_size, common::Rng(w.seed + c));
  }
  probes.add("data.plan_epoch_s",
             probe(tracer, parent, "data.plan_epoch", budget,
                   [&] {
                     for (auto& s : samplers) (void)s.plan_epoch();
                   }),
             "s");

  // Aggregation, copies and optimizer steps on the full model.
  nn::Sequential global = trainer.global_model();
  probes.add("schemes.global_model_s",
             probe(tracer, parent, "schemes.global_model", budget,
                   [&] { global = trainer.global_model(); }),
             "s");
  {
    const std::vector<nn::StateDict> states(w.replicas, global.state());
    std::vector<double> weights(w.replicas);
    for (std::size_t r = 0; r < w.replicas; ++r) {
      weights[r] = static_cast<double>(1 + r % 5);
    }
    nn::StateDict folded;
    probes.add("schemes.fedavg_s",
               probe(tracer, parent, "schemes.fedavg", budget,
                     [&] { folded = schemes::fedavg_states(states, weights); }),
               "s");
  }
  nn::Sequential copy = initial;
  probes.add("nn.state_copy_s",
             probe(tracer, parent, "nn.state_copy", budget,
                   [&] { copy.load_state(global.state()); }),
             "s");
  nn::Sgd sgd(1e-6);
  sgd.attach(copy.parameters(), copy.gradients());
  probes.add("nn.optimizer_step_s",
             probe(tracer, parent, "nn.optimizer_step", budget,
                   [&] { sgd.step(); }),
             "s");
  probes.add("common.lane_task_us",
             1e6 * probe(tracer, parent, "common.lane_task", budget, [] {
               common::global_lane().submit([] {}).wait();
             }),
             "us");
  probes.add("metrics.evaluate_s",
             probe(tracer, parent, "metrics.evaluate", budget,
                   [&] { (void)metrics::evaluate(global, world.test(),
                                                 kEvalBatch); }),
             "s");

  // Experiment checkpoint of the trained trainer (no rounds in flight).
  std::vector<metrics::RoundRecord> records;
  for (const auto& row : rep.rows) records.push_back(row.record);
  std::size_t checkpoint_bytes = 0;
  probes.add("core.checkpoint_save_s",
             probe(tracer, parent, "core.checkpoint_save", budget,
                   [&] {
                     std::ostringstream out;
                     core::save_experiment_checkpoint(out, trainer, records,
                                                      0.0);
                     checkpoint_bytes = out.str().size();
                   }),
             "s");
  probes.add("core.checkpoint_bytes", static_cast<double>(checkpoint_bytes),
             "bytes");

  // The greedy controller replayed on the recorded observations.
  const auto costs = schemes::enumerate_split_cut_costs(initial, batch_shape);
  probes.add(
      "schemes.controller_decide_s",
      probe(tracer, parent, "schemes.controller_decide", budget, [&] {
        schemes::AdaptiveController controller(controller_config(w));
        controller.set_candidates(costs);
        for (std::size_t r = 0; r < rep.rows.size(); ++r) {
          (void)controller.decide(schemes::AdaptiveObservation{
              .round = r, .cut = rep.rows[r].cut,
              .latency = rep.rows[r].latency});
        }
      }) / static_cast<double>(std::max<std::size_t>(rep.rows.size(), 1)),
      "s");
  tracer.close(parent);
}

// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

const char* isa_tier() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

std::string fingerprint(std::size_t lanes) {
  std::ostringstream out;
  out << "{\"cpu_model\":" << json_string(cpu_model())
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"lanes\":" << lanes << ",\"gsfl_native\":"
      << json_string(PERFBENCH_ISA) << ",\"isa_tier\":"
      << json_string(isa_tier()) << ",\"build_type\":"
      << json_string(PERFBENCH_BUILD_TYPE) << ",\"compiler\":"
      << json_string(__VERSION__) << "}";
  return out.str();
}

// Reset the process's peak resident set to its current size (Linux 4.0+),
// so each repetition's peak is a sample of its own. Free heap pages are
// returned first: otherwise whichever thread arena happened to keep the
// last repetition's freed memory shifts the baseline by tens of MiB. Where
// the kernel lacks the reset, each sample is the process peak so far.
void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::size_t rounds = 0;  ///< 0 ⇒ the workload's budget
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --name=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::stoull(value);
    } else if (key == "seconds") {
      args.seconds = std::stod(value);
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "out") {
      args.out = value;
    } else if (key == "rounds") {
      args.rounds = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

int run(const Args& args) {
  auto workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::cerr << "unknown workload '" << args.workload
              << "' (want gsfl_paper, sfl_fanout_dense or gsfl_faulty_q8)\n";
    return 2;
  }
  Workload& w = *workload;
  if (args.rounds > 0) w.rounds = args.rounds;
  w.lanes = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                    w.lanes);
  // The global lane sizes itself from GSFL_THREADS on first use.
  setenv("GSFL_THREADS", std::to_string(w.lanes).c_str(), 1);
  common::set_global_threads(w.lanes);

  const std::string stem = args.out + "/" + w.name + "-seed" +
                           std::to_string(args.seed);
  const std::string checkpoint_dir = stem + "-ckpt";
  const std::string print = fingerprint(w.lanes);
  std::cout << "fingerprint: " << print << "\n";

  const Reference ref = reference_run(w, checkpoint_dir);
  std::vector<std::string> why;
  std::size_t attempted = 0, failed = 0;
  std::vector<double> setup_s, run_s, traced_run_s, rounds_per_s,
      samples_per_s, round_s;
  const auto account = [&](const Rep& rep, bool traced) {
    attempted += w.rounds;
    failed += failed_rounds(w, rep, ref, why);
    if (!rep.error.empty()) return;
    (traced ? traced_run_s : run_s).push_back(rep.run_s);
    if (traced) return;
    setup_s.push_back(rep.setup_s);
    rounds_per_s.push_back(static_cast<double>(w.rounds) / rep.run_s);
    std::size_t samples = 0;
    double last = 0.0;
    for (const auto& row : rep.rows) {
      samples += row.samples_folded;
      round_s.push_back(row.done_s - last);
      last = row.done_s;
    }
    samples_per_s.push_back(static_cast<double>(samples) / rep.run_s);
  };

  Tracer off(false);
  Tracer traced(true);
  Rep last_traced;
  std::vector<double> peak_rss_mb;
  const auto start = Clock::now();
  do {
    reset_peak_rss();
    account(run_rep(w, off, checkpoint_dir), false);
    peak_rss_mb.push_back(peak_rss_mib());
    if (args.trace) {
      Tracer tracer(true);
      Rep rep = run_rep(w, tracer, checkpoint_dir);
      account(rep, true);
      traced = std::move(tracer);
      last_traced = std::move(rep);
    }
  } while (since(start) < args.seconds && failed == 0);
  // Set-up is timed per repetition; top it up to a stable sample count.
  while (!args.trace && setup_s.size() < 7 && failed == 0) {
    const auto t = Clock::now();
    World world = build_world(w);
    Built built = build_trainer(w, world);
    setup_s.push_back(since(t));
  }
  std::filesystem::remove_all(checkpoint_dir);

  Probes probes;
  std::vector<std::string> layer_table;
  std::string trace_file;
  if (args.trace && last_traced.error.empty() && failed == 0) {
    const double budget = std::clamp(args.seconds / 200.0, 0.002, 0.05);
    run_probes(w, last_traced, traced, budget, probes, layer_table);
    probes.add("core.world_build_s", median(traced.durations("core.world_build")),
               "s");
    probes.add("schemes.trainer_build_s",
               median(traced.durations("schemes.trainer_build")), "s");
    probes.add("schemes.submit_s", median(traced.durations("schemes.submit")),
               "s");
    probes.add("schemes.collect_wait_s",
               median(traced.durations("schemes.collect_wait")), "s");
    std::size_t folded = 0, scheduled = 0, cut_changes = 0;
    for (const auto& row : last_traced.rows) {
      folded += row.clients_folded;
      scheduled += last_traced.world.clients().size();
      cut_changes += row.cut_changed ? 1 : 0;
    }
    probes.add("schemes.cut_changes", static_cast<double>(cut_changes),
               "count");
    probes.add("schemes.clients_folded", static_cast<double>(folded), "count");
    probes.add("schemes.clients_scheduled", static_cast<double>(scheduled),
               "count");
    probes.add("schemes.fold_ratio",
               static_cast<double>(folded) / static_cast<double>(scheduled),
               "fraction");
    trace_file = stem + ".trace.json";
    traced.write_chrome(trace_file, print);
  }

  const auto& last = ref.records.back();
  std::ostringstream out;
  out << "{\"workload\":" << json_string(w.name) << ",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"fingerprint\":" << print
      << ",\"rounds\":" << w.rounds << ",\"depth\":" << w.depth
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
  for (std::size_t i = 0; i < why.size() && i < 20; ++i) {
    out << (i ? "," : "") << json_string(why[i]);
  }
  out << "],\"samples\":{\"setup_s\":" << json_array(setup_s)
      << ",\"run_s\":" << json_array(run_s)
      << ",\"traced_run_s\":" << json_array(traced_run_s)
      << ",\"rounds_per_s\":" << json_array(rounds_per_s)
      << ",\"samples_per_s\":" << json_array(samples_per_s)
      << ",\"round_s\":" << json_array(round_s) << "}"
      << ",\"final_accuracy\":" << json_number(last.eval_accuracy)
      << ",\"final_loss\":" << json_number(last.train_loss)
      << ",\"sim_s_per_round\":"
      << json_number(last.sim_seconds / static_cast<double>(w.rounds))
      << ",\"peak_rss_mb\":" << json_array(peak_rss_mb)
      << ",\"records\":[";
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    const auto& r = ref.records[i];
    out << (i ? "," : "") << "[" << r.round << ","
        << json_number(r.sim_seconds) << "," << json_number(r.train_loss)
        << "," << json_number(r.eval_accuracy) << "]";
  }
  out << "],\"probes\":{";
  for (std::size_t i = 0; i < probes.values.size(); ++i) {
    const auto& [name, value] = probes.values[i];
    out << (i ? "," : "") << json_string(name) << ":{\"value\":"
        << json_number(value.first) << ",\"unit\":" << json_string(value.second)
        << "}";
  }
  out << "},\"layers\":[";
  for (std::size_t i = 0; i < layer_table.size(); ++i) {
    out << (i ? "," : "") << json_string(layer_table[i]);
  }
  out << "],\"trace_file\":" << json_string(trace_file) << "}";
  std::cout << out.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
