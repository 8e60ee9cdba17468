// caqp_perfbench: the end-to-end benchmark of CAQP.
//
//   caqp_perfbench --workload serve-hot|serve-churn|dist-scan --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE] [--commit SHA]
//
// Drives the library only through its public API, from a closed loop of
// one client thread per hardware thread (one request outstanding each).
// Service workers and coordinator shards also equal the hardware threads.
// Every answer is checked against an oracle; a wrong answer fails the run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice, half the time each: untraced, then traced. The traced half records
// spans around the benchmark's own calls into each layer (plus the spans the
// serve and dist tiers record with enable_tracing), writes them to
// --trace-out at exit, and prints the per-layer metrics. The last stdout
// line is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the line before it stamps the environment.
//
// The three workloads, and the layers each is meant to stress, are
// described in README.md.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/query_signature.h"
#include "data/synthetic_gen.h"
#include "dist/coordinator.h"
#include "dist/merge.h"
#include "exec/batch_executor.h"
#include "exec/batch_masked.h"
#include "exec/exec_profile.h"
#include "exec/executor.h"
#include "exec/result_serde.h"
#include "helpers.h"
#include "obs/span.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/split_points.h"
#include "plan/compiled_plan.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"
#include "serve/query_service.h"

using namespace caqp;
namespace pb = perfbench;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. The serve datasets follow bench_serve (10 binary
// attributes, gamma 4, ~20k tuples, 60/40 split) and dist-scan follows
// bench_dist (96k tuples), so numbers line up with the per-layer benches.

constexpr size_t kServeTuples = 20000;
constexpr double kServeTrainFraction = 0.6;
constexpr size_t kDistTuples = 96000;
constexpr double kDistTrainFraction = 0.4;
constexpr size_t kMaxSplits = 5;

constexpr size_t kHotQueries = 16;
constexpr size_t kHotCache = 1024;
constexpr size_t kChurnQueries = 4096;
constexpr size_t kChurnCache = 256;
constexpr double kChurnZipfS = 0.7;
/// serve-churn refreshes the estimator (InvalidateCache) every this many
/// requests, by global request index.
constexpr uint64_t kChurnInvalidateEvery = 2048;
constexpr size_t kDistQueries = 10;
/// The standing queries are part of a workload's definition, generated once
/// from this seed; --seed varies the data and the traffic, not which
/// queries stand. (Sixteen random queries of arity 3..10 differ in
/// acquisition cost by far more than the run-to-run bound.)
constexpr uint64_t kQueryPoolSeed = 20050405;

/// Request i replays deck entry i % deck size, so a run's request mix, and
/// hence acq_cost_per_tuple, depends only on the seed once every entry has
/// been served once. serve-hot and dist-scan decks hold every query equally
/// often; serve-churn's draws Zipf ranks.
constexpr size_t kServeDeck = 8192;
constexpr size_t kDistDeck = 1000;
/// Throughput and latency are medians over two-second windows of the run,
/// so a short stall of a shared machine moves them less than a sustained
/// change does. Two seconds hold over 2000 serve-churn requests, so each
/// window's p99 keeps at least 10 samples beyond it.
constexpr double kWindowSeconds = 2.0;

/// A window in which the hypervisor took more than this share of the
/// machine's CPU time (/proc/stat "steal") measured the host, not CAQP: it is
/// left out of the medians, and the loop runs on, up to kMaxStretch times
/// --seconds, until --seconds of windows without steal are in. On the
/// reference VM, steal bursts of 20 s and more slowed whole runs 2-4x.
constexpr double kMaxStealShare = 0.05;
constexpr size_t kMaxStretch = 3;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// serve-hot's calibration monitor cadence (caqp_serve's default).
constexpr auto kMonitorInterval = std::chrono::milliseconds(100);

/// Span buffer caps for the traced half, per buffer and per tracer worker.
constexpr size_t kSpanCap = size_t{1} << 16;
constexpr size_t kTracerEventsPerWorker = size_t{1} << 15;

/// Plans per client the traced half keeps for the plan/exec measurements.
constexpr size_t kPlansKept = 16;

uint64_t NowNs() { return obs::MonotonicNowNs(); }

size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n == 0 ? 1 : n, 1, 64);
}

// ---------------------------------------------------------------------------
// Layers and span recording.

enum Layer { kProb, kOpt, kPlan, kExec, kServe, kDist, kObs, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"prob", "opt",  "plan", "exec",
                                                 "serve", "dist", "obs"};

bool StartsWith(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

/// Layer of a span, by name. Names without a layer prefix are the serve
/// tier's own request spans (request, queue, plan, plan.build_leader, ...).
Layer LayerOf(std::string_view name) {
  if (StartsWith(name, "prob.")) return kProb;
  if (StartsWith(name, "opt.") || StartsWith(name, "planner.")) return kOpt;
  if (name == "exec" || StartsWith(name, "exec.") || name == "shard.exec") {
    return kExec;
  }
  if (StartsWith(name, "dist.") || StartsWith(name, "shard.")) return kDist;
  if (StartsWith(name, "obs.")) return kObs;
  return kServe;
}

/// Ids of the benchmark's own spans have the top bit set; spans imported
/// from a TraceRecorder are keyed (trace id, span id) below it.
std::atomic<uint64_t> g_next_span{1};
uint64_t FreshSpanId() {
  return (uint64_t{1} << 63) | g_next_span.fetch_add(1);
}
uint64_t TracerSpanKey(uint64_t trace_id, uint32_t span_id) {
  return span_id == 0 ? 0 : (trace_id << 32) | span_id;
}

/// One thread's spans (a client thread, or one plan builder, which a
/// single worker thread uses at a time). Requests that lose a span to the
/// cap are listed so the self-time accounting can skip them whole.
struct SpanBuffer {
  std::vector<pb::Span> spans;
  std::vector<uint64_t> truncated;
  void Add(const pb::Span& s) {
    if (spans.size() < kSpanCap) {
      spans.push_back(s);
    } else {
      truncated.push_back(s.request);
    }
  }
};

// ---------------------------------------------------------------------------
// prob: a forwarding estimator that times every call into DatasetEstimator.

class TimedEstimator : public CondProbEstimator {
 public:
  TimedEstimator(CondProbEstimator& inner, SpanBuffer& buf)
      : inner_(inner), buf_(buf) {}

  const Schema& schema() const override { return inner_.schema(); }
  Histogram Marginal(const RangeVec& given, AttrId attr) override {
    return Time("prob.marginal", [&] { return inner_.Marginal(given, attr); });
  }
  double ReachProbability(const RangeVec& given) override {
    return Time("prob.reach", [&] { return inner_.ReachProbability(given); });
  }
  MaskDistribution PredicateMasks(
      const RangeVec& given, const std::vector<Predicate>& preds) override {
    return Time("prob.masks",
                [&] { return inner_.PredicateMasks(given, preds); });
  }
  std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) override {
    return Time("prob.per_value_masks", [&] {
      return inner_.PerValuePredicateMasks(given, attr, preds);
    });
  }
  void PushScope(const RangeVec& ranges) override {
    Time("prob.push_scope", [&] {
      inner_.PushScope(ranges);
      return 0;
    });
  }
  void PopScope() override {
    Time("prob.pop_scope", [&] {
      inner_.PopScope();
      return 0;
    });
  }

  /// Parent span and request of the calls that follow (the current build).
  void SetContext(uint64_t parent, uint64_t request) {
    parent_ = parent;
    request_ = request;
  }
  uint64_t calls() const { return calls_; }
  uint64_t busy_ns() const { return busy_ns_; }
  std::vector<double>& call_us() { return call_us_; }

 private:
  template <typename F>
  auto Time(const char* name, F&& f) -> std::invoke_result_t<F&> {
    const uint64_t t0 = NowNs();
    auto out = f();
    const uint64_t t1 = NowNs();
    ++calls_;
    busy_ns_ += t1 - t0;
    call_us_.push_back(static_cast<double>(t1 - t0) * 1e-3);
    buf_.Add(pb::Span{name, t0, t1, FreshSpanId(), parent_, request_});
    return out;
  }

  CondProbEstimator& inner_;
  SpanBuffer& buf_;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  uint64_t calls_ = 0;
  uint64_t busy_ns_ = 0;
  std::vector<double> call_us_;
};

// ---------------------------------------------------------------------------
// opt: the benchmark's PlanBuilder (Greedy, max_splits 5, as bench_serve).

struct PlanningInputs {
  const Dataset* train = nullptr;
  const AcquisitionCostModel* cost_model = nullptr;
  const SplitPointSet* splits = nullptr;
};

class BenchBuilder : public serve::PlanBuilder {
 public:
  BenchBuilder(const PlanningInputs& in, bool traced) : estimator_(*in.train) {
    CondProbEstimator* planning_estimator = &estimator_;
    if (traced) {
      timed_ = std::make_unique<TimedEstimator>(estimator_, spans_);
      planning_estimator = timed_.get();
    }
    GreedyPlanner::Options gopts;
    gopts.split_points = in.splits;
    gopts.seq_solver = &greedyseq_;
    gopts.max_splits = kMaxSplits;
    planner_ = std::make_unique<GreedyPlanner>(*planning_estimator,
                                               *in.cost_model, gopts);
  }

  Plan Build(const Query& query) override {
    if (timed_ == nullptr) return planner_->BuildPlan(query);
    // Inside a traced serve/dist request this span joins the request's
    // trace; its context names the request for the prob spans below.
    obs::ScopedSpan span("opt.build");
    const obs::SpanContext ctx = span.context();
    const uint64_t id = span.active() ? TracerSpanKey(ctx.trace_id, ctx.span_id)
                                      : FreshSpanId();
    timed_->SetContext(id, ctx.trace_id);
    const uint64_t busy0 = timed_->busy_ns();
    const uint64_t t0 = NowNs();
    Plan plan = planner_->BuildPlan(query);
    const uint64_t t1 = NowNs();
    if (!span.active()) {
      spans_.Add(pb::Span{"opt.build", t0, t1, id, 0, ctx.trace_id});
    }
    build_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
    self_ns_ += (t1 - t0) - (timed_->busy_ns() - busy0);
    return plan;
  }
  uint64_t ConfigFingerprint() const override { return 0x7065'7266'6263ULL; }
  CondProbEstimator* CalibrationEstimator() override { return &estimator_; }

  SpanBuffer& spans() { return spans_; }
  TimedEstimator* timed() { return timed_.get(); }
  std::vector<double>& build_ms() { return build_ms_; }
  uint64_t self_ns() const { return self_ns_; }

 private:
  DatasetEstimator estimator_;
  SpanBuffer spans_;
  std::unique_ptr<TimedEstimator> timed_;
  GreedySeqSolver greedyseq_;
  std::unique_ptr<GreedyPlanner> planner_;
  std::vector<double> build_ms_;
  uint64_t self_ns_ = 0;
};

/// Builders handed to a service or coordinator, kept reachable for the
/// traced half's statistics (read only after the traffic has drained).
struct BuilderRegistry {
  std::mutex mu;
  std::vector<BenchBuilder*> builders;
  serve::PlanBuilderFactory Factory(const PlanningInputs& in, bool traced) {
    return [this, in, traced] {
      auto b = std::make_unique<BenchBuilder>(in, traced);
      std::lock_guard<std::mutex> lock(mu);
      builders.push_back(b.get());
      return b;
    };
  }
};

// ---------------------------------------------------------------------------
// Workload worlds: generated inputs plus the system under test.

enum class Workload { kServeHot, kServeChurn, kDistScan };

struct DeckEntry {
  uint32_t query = 0;
  uint32_t tuple = 0;  ///< serve: test-set row; unused by dist-scan
};

/// Everything both the serve and dist worlds generate from the seed.
struct Inputs {
  Dataset data{Schema{}};
  Dataset train{Schema{}};
  Dataset test{Schema{}};
  std::unique_ptr<PerAttributeCostModel> cost_model;
  std::unique_ptr<SplitPointSet> splits;
  std::vector<Query> queries;
  std::vector<DeckEntry> deck;
  /// Requests' predicate orders are shuffled from this seed (per index).
  uint64_t shuffle_seed = 0;
};

std::unique_ptr<Inputs> MakeInputs(Workload w, uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  const bool dist = w == Workload::kDistScan;
  SyntheticDataOptions dopts;
  dopts.n = 10;
  dopts.gamma = 4;
  dopts.sel = 0.6;
  dopts.tuples = dist ? kDistTuples : kServeTuples;
  dopts.seed = pb::MixSeed(seed, 1);
  in->data = GenerateSyntheticData(dopts);
  auto [train, test] =
      in->data.SplitFraction(dist ? kDistTrainFraction : kServeTrainFraction);
  in->train = std::move(train);
  in->test = std::move(test);
  const Schema& schema = in->data.schema();
  in->cost_model = std::make_unique<PerAttributeCostModel>(schema);
  in->splits = std::make_unique<SplitPointSet>(SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes())));
  const size_t num_queries = w == Workload::kServeHot     ? kHotQueries
                             : w == Workload::kServeChurn ? kChurnQueries
                                                          : kDistQueries;
  in->queries = pb::DistinctQueries(schema, kQueryPoolSeed, num_queries);

  std::mt19937_64 rng(pb::MixSeed(seed, 3));
  const size_t deck = dist ? kDistDeck : kServeDeck;
  std::vector<size_t> ranks;
  if (w == Workload::kServeChurn) {
    ranks = pb::ZipfSequence(pb::MixSeed(seed, 4), kChurnQueries, kChurnZipfS,
                             deck);
  }
  in->deck.resize(deck);
  for (size_t i = 0; i < deck; ++i) {
    DeckEntry& e = in->deck[i];
    e.query = static_cast<uint32_t>(ranks.empty() ? i % num_queries
                                                  : ranks[i]);
    e.tuple = static_cast<uint32_t>(rng() % in->test.num_rows());
  }
  std::shuffle(in->deck.begin(), in->deck.end(), rng);
  in->shuffle_seed = pb::MixSeed(seed, 5);
  return in;
}

PlanningInputs Planning(const Inputs& in) {
  return PlanningInputs{&in.train, in.cost_model.get(), in.splits.get()};
}

/// The query of request `index`: its deck entry's query with the
/// predicates in an order drawn from (seed, index).
Query RequestQuery(const Inputs& in, uint64_t index) {
  Conjunct preds = in.queries[in.deck[index % in.deck.size()].query]
                       .predicates();
  uint64_t h = pb::MixSeed(in.shuffle_seed, index);
  for (size_t k = preds.size(); k > 1; --k) {
    h = pb::MixSeed(h, k);
    std::swap(preds[k - 1], preds[h % k]);
  }
  return Query::Conjunction(std::move(preds));
}

struct World {
  Workload workload = Workload::kServeHot;
  bool traced = false;
  size_t threads = 1;
  std::unique_ptr<Inputs> in;
  BuilderRegistry registry;
  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<dist::Coordinator> coord;
  /// dist-scan oracle, per distinct query: ExecuteBatchColumnar verdicts
  /// over all rows (already checked against Query::Matches), match count
  /// and total cost.
  std::vector<std::vector<uint8_t>> oracle_verdicts;
  std::vector<size_t> oracle_matches;
  std::vector<double> oracle_cost;
  /// Plans the run executed, by canonical signature.
  std::map<uint64_t, std::shared_ptr<const CompiledPlan>> plans;
  bool setup_correct = true;
};

/// Builds the world and warms its plans; all of it is set-up time.
std::unique_ptr<World> MakeWorld(Workload w, uint64_t seed, size_t threads,
                                 bool traced, double* setup_seconds) {
  const uint64_t t0 = NowNs();
  auto world = std::make_unique<World>();
  world->workload = w;
  world->traced = traced;
  world->threads = threads;
  world->in = MakeInputs(w, seed);
  const Inputs& in = *world->in;
  const auto factory = world->registry.Factory(Planning(in), traced);

  if (w == Workload::kDistScan) {
    dist::Coordinator::Options o;
    o.partition = dist::PartitionSpec::Hash(threads);
    o.enable_tracing = traced;
    o.max_span_events_per_worker = kTracerEventsPerWorker;
    world->coord = std::make_unique<dist::Coordinator>(in.data, *in.cost_model,
                                                       factory, o);
    for (const Query& q : in.queries) {
      const auto r = world->coord->Execute(q);
      world->setup_correct &= r.ok() && r.plan != nullptr;
      if (r.plan != nullptr) world->plans[r.query_sig] = r.plan;
    }
  } else {
    serve::QueryService::Options o;
    o.num_workers = threads;
    o.cache_capacity = w == Workload::kServeHot ? kHotCache : kChurnCache;
    o.enable_calibration = w == Workload::kServeHot;
    o.enable_tracing = traced;
    o.max_span_events_per_worker = kTracerEventsPerWorker;
    world->service = std::make_unique<serve::QueryService>(
        in.data.schema(), *in.cost_model, factory, o);
    // Warm-up: serve-hot plans every standing query; serve-churn fills the
    // cache with the head of its Zipf distribution.
    const size_t warm =
        std::min(in.queries.size(),
                 w == Workload::kServeHot ? kHotQueries : kChurnCache);
    std::vector<std::future<serve::QueryService::Response>> futures;
    for (size_t k = 0; k < warm; ++k) {
      futures.push_back(
          world->service->Submit(in.queries[k], in.test.GetTuple(0)));
    }
    for (auto& f : futures) world->setup_correct &= f.get().ok();
  }
  *setup_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return world;
}

/// dist-scan's oracle: each standing query's ExecuteBatchColumnar verdicts
/// over all rows, checked once against Query::Matches.
void BuildDistOracle(World& world) {
  const Inputs& in = *world.in;
  std::vector<RowId> all(in.data.num_rows());
  std::iota(all.begin(), all.end(), RowId{0});
  for (const Query& q : in.queries) {
    const auto it = world.plans.find(QuerySignature(q));
    std::vector<uint8_t> verdicts(all.size(), 2);  // matches no answer
    BatchExecutionStats stats;
    if (it == world.plans.end()) {
      world.setup_correct = false;
    } else {
      stats = ExecuteBatchColumnar(*it->second, in.data, all, *in.cost_model,
                                   &verdicts);
    }
    for (RowId r : all) {
      world.setup_correct &=
          (verdicts[r] != 0) == q.Matches(in.data.GetTuple(r));
    }
    world.oracle_verdicts.push_back(std::move(verdicts));
    world.oracle_matches.push_back(stats.matches);
    world.oracle_cost.push_back(stats.total_cost);
  }
}

// ---------------------------------------------------------------------------
// The closed loop.

/// What one client thread saw.
struct ClientLog {
  /// Client-observed latency (ns) per window of the run; the last one
  /// also takes what completes after the last full window.
  std::vector<pb::LatencyHistogram> windows;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  ///< answers that disagree with the oracle
  /// Acquisition cost per tuple of each deck entry, NaN until served.
  std::vector<double> entry_cost;
  uint64_t cost_mismatches = 0;  ///< same entry, different cost
  double acquisitions = 0.0;     ///< summed per-tuple acquisitions
  // Traced half only.
  SpanBuffer spans;
  std::vector<double> queue_wait_us;
  std::vector<double> handle_us;
  std::vector<double> coord_latency_us;  ///< dist: coordinator latency
  std::vector<uint64_t> trace_ids;       ///< dist: one per OK query
  uint64_t cache_hits = 0;  ///< answers served from the plan cache
  uint64_t planned = 0;     ///< answers whose request built the plan
  uint64_t followers = 0;  ///< traced: waited on another request's build
  /// serve: up to kPlansKept of the plans served, by canonical signature.
  std::map<uint64_t, std::shared_ptr<const CompiledPlan>> plans;
};

struct RunResult {
  double elapsed_s = 0.0;
  /// Share of the machine's CPU time stolen by the hypervisor in each
  /// closed window (0 where /proc/stat cannot be read).
  std::vector<double> window_steal;
  std::vector<ClientLog> clients;
  std::vector<double> snapshot_ms;  ///< serve-hot monitor's snapshots
  SpanBuffer monitor_spans;
  serve::ShardedPlanCache::Stats cache_before;
  serve::ShardedPlanCache::Stats cache_after;
  dist::DistReport dist_before;
  dist::DistReport dist_after;

  uint64_t ok() const {
    uint64_t n = 0;
    for (const ClientLog& c : clients) n += c.attempted - c.failed;
    return n;
  }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const ClientLog& c : clients) n += c.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const ClientLog& c : clients) n += c.failed;
    return n;
  }
  /// Window w's latencies over all clients.
  pb::LatencyHistogram Window(size_t w) const {
    pb::LatencyHistogram h;
    for (const ClientLog& c : clients) h.Merge(c.windows[w]);
    return h;
  }
  /// Every latency of the run.
  pb::LatencyHistogram Pooled() const {
    pb::LatencyHistogram h;
    for (const ClientLog& c : clients) {
      for (const pb::LatencyHistogram& w : c.windows) h.Merge(w);
    }
    return h;
  }
  /// Windows whose steal share stayed within kMaxStealShare, or every
  /// closed window when none did.
  std::vector<size_t> CountedWindows() const {
    std::vector<size_t> out;
    for (size_t w = 0; w < window_steal.size(); ++w) {
      if (window_steal[w] <= kMaxStealShare) out.push_back(w);
    }
    if (out.empty()) {
      for (size_t w = 0; w < window_steal.size(); ++w) out.push_back(w);
    }
    return out;
  }
  /// Median over the counted windows of f(window's histogram).
  template <typename F>
  double WindowMedian(F&& f) const {
    std::vector<double> v;
    for (size_t w : CountedWindows()) v.push_back(f(Window(w)));
    std::sort(v.begin(), v.end());
    return pb::SortedQuantile(v, 0.5);
  }
  uint64_t wrong() const {
    uint64_t n = 0;
    for (const ClientLog& c : clients) n += c.wrong;
    return n;
  }
};

void RecordEntryCost(ClientLog& log, size_t entry, double cost_per_tuple) {
  double& slot = log.entry_cost[entry];
  if (std::isnan(slot)) {
    slot = cost_per_tuple;
  } else if (slot != cost_per_tuple) {
    ++log.cost_mismatches;
  }
}

/// The loop's time base: when it started, the width of a window, and the
/// flag that stops the clients.
struct LoopClock {
  uint64_t start_ns = 0;
  uint64_t window_ns = 1;
  std::atomic<bool> stop{false};
};

pb::LatencyHistogram& WindowOf(const LoopClock& clock, uint64_t t,
                               ClientLog& log) {
  const uint64_t w = (t - clock.start_ns) / clock.window_ns;
  return log.windows[std::min<uint64_t>(w, log.windows.size() - 1)];
}

void ServeClient(World& world, std::atomic<uint64_t>& next,
                 const LoopClock& clock, ClientLog& log) {
  const Inputs& in = *world.in;
  serve::QueryService& service = *world.service;
  const bool churn = world.workload == Workload::kServeChurn;
  while (!clock.stop.load(std::memory_order_relaxed)) {
    const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (churn && i > 0 && i % kChurnInvalidateEvery == 0) {
      service.InvalidateCache();
    }
    const size_t entry = i % in.deck.size();
    Query query = RequestQuery(in, i);
    Tuple tuple = in.test.GetTuple(in.deck[entry].tuple);
    const bool expected = query.Matches(tuple);
    const uint64_t t0 = NowNs();
    serve::QueryService::Response r =
        service.Submit(std::move(query), std::move(tuple)).get();
    const uint64_t t1 = NowNs();
    ++log.attempted;
    const bool answered = r.ok() && r.exec.defined() && r.plan != nullptr;
    const bool right = answered && r.exec.verdict == expected;
    if (answered && !right) ++log.wrong;
    if (!right) {
      ++log.failed;
      WindowOf(clock, t1, log).RecordFailure();
      continue;
    }
    const double us = static_cast<double>(t1 - t0) * 1e-3;
    WindowOf(clock, t1, log).Record(t1 - t0);
    RecordEntryCost(log, entry, r.exec.cost);
    log.acquisitions += r.exec.acquisitions;
    log.cache_hits += r.cache_hit;
    log.planned += r.planned;
    if (!world.traced) continue;
    log.spans.Add(pb::Span{"serve.request", t0, t1, FreshSpanId(), 0,
                           r.trace_id});
    log.handle_us.push_back(r.latency_seconds * 1e6);
    log.queue_wait_us.push_back(std::max(0.0, us - r.latency_seconds * 1e6));
    log.followers += !r.cache_hit && !r.planned && !r.fallback;
    if (log.plans.size() < kPlansKept) log.plans.emplace(r.query_sig, r.plan);
  }
}

void DistClient(World& world, std::atomic<uint64_t>& next,
                const LoopClock& clock, ClientLog& log) {
  const Inputs& in = *world.in;
  dist::Coordinator& coord = *world.coord;
  const double rows = static_cast<double>(in.data.num_rows());
  while (!clock.stop.load(std::memory_order_relaxed)) {
    const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
    const size_t entry = i % in.deck.size();
    const size_t qi = in.deck[entry].query;
    const Query query = RequestQuery(in, i);
    const uint64_t t0 = NowNs();
    const dist::Coordinator::Response r = coord.Execute(query);
    const uint64_t t1 = NowNs();
    ++log.attempted;
    const bool answered = r.ok() && !r.degraded() && r.unknown_rows == 0 &&
                          r.row_verdicts.size() == in.data.num_rows();
    const std::vector<uint8_t>& oracle = world.oracle_verdicts[qi];
    static_assert(sizeof(Truth) == 1 && static_cast<uint8_t>(Truth::kTrue) == 1);
    const bool right =
        answered && r.matches == world.oracle_matches[qi] &&
        r.merged.cost == world.oracle_cost[qi] &&
        std::memcmp(r.row_verdicts.data(), oracle.data(), oracle.size()) == 0;
    if (answered && !right) ++log.wrong;
    if (!right) {
      ++log.failed;
      WindowOf(clock, t1, log).RecordFailure();
      continue;
    }
    WindowOf(clock, t1, log).Record(t1 - t0);
    RecordEntryCost(log, entry, r.merged.cost / rows);
    log.acquisitions += static_cast<double>(r.merged.acquisitions) / rows;
    log.cache_hits += r.cache_hit;
    log.planned += r.planned;
    if (!world.traced) continue;
    log.spans.Add(pb::Span{"dist.request", t0, t1, FreshSpanId(), 0,
                           r.trace_id});
    log.coord_latency_us.push_back(r.latency_seconds * 1e6);
    log.trace_ids.push_back(r.trace_id);
  }
}

/// Reads the machine-wide CPU tick counters and reports the share of ticks
/// stolen since the previous call.
class StealCounter {
 public:
  StealCounter() { Read(&steal_, &total_); }
  double ShareSinceLast() {
    uint64_t steal = 0;
    uint64_t total = 0;
    if (!Read(&steal, &total) || total <= total_ || steal < steal_) return 0.0;
    const double share = static_cast<double>(steal - steal_) /
                         static_cast<double>(total - total_);
    steal_ = steal;
    total_ = total;
    return share;
  }

 private:
  static bool Read(uint64_t* steal, uint64_t* total) {
    std::ifstream f("/proc/stat");
    std::string line;
    return std::getline(f, line) && pb::ParseCpuTicks(line, steal, total);
  }
  uint64_t steal_ = 0;
  uint64_t total_ = 0;
};

RunResult RunLoop(World& world, double seconds) {
  if (world.coord != nullptr) BuildDistOracle(world);
  RunResult res;
  res.clients.resize(world.threads);
  for (ClientLog& c : res.clients) {
    c.entry_cost.assign(world.in->deck.size(),
                        std::numeric_limits<double>::quiet_NaN());
  }
  if (world.service) res.cache_before = world.service->cache().stats();
  if (world.coord) res.dist_before = world.coord->Report();

  std::atomic<uint64_t> next{0};
  LoopClock clock;
  clock.window_ns = static_cast<uint64_t>(kWindowSeconds * 1e9);
  const size_t needed = std::max<size_t>(1, seconds / kWindowSeconds);
  const size_t max_windows = needed * kMaxStretch;
  for (ClientLog& c : res.clients) c.windows.resize(max_windows + 1);
  const uint64_t start = NowNs();
  clock.start_ns = start;
  std::atomic<bool>& stop = clock.stop;
  std::thread monitor;
  if (world.workload == Workload::kServeHot) {
    // The calibration monitor an operator leaves running (caqp_serve's
    // drift monitor takes a snapshot every 100 ms).
    monitor = std::thread([&] {
      while (!stop.load()) {
        const uint64_t t0 = NowNs();
        const obs::CalibrationReport rep = world.service->CalibrationSnapshot();
        const uint64_t t1 = NowNs();
        if (world.traced) {
          res.snapshot_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
          const uint64_t id = FreshSpanId();
          res.monitor_spans.Add(
              pb::Span{"obs.calibration_snapshot", t0, t1, id, 0, id});
        }
        std::this_thread::sleep_for(kMonitorInterval);
      }
    });
  }
  std::vector<std::thread> clients;
  for (size_t c = 0; c < world.threads; ++c) {
    clients.emplace_back([&, c] {
      if (world.coord) {
        DistClient(world, next, clock, res.clients[c]);
      } else {
        ServeClient(world, next, clock, res.clients[c]);
      }
    });
  }
  // Close a window every kWindowSeconds and note how much CPU time the
  // hypervisor stole during it; run until `needed` windows saw no steal.
  StealCounter steal;
  size_t clean = 0;
  while (res.window_steal.size() < max_windows && clean < needed) {
    const uint64_t boundary =
        start + (res.window_steal.size() + 1) * clock.window_ns;
    const uint64_t now = NowNs();
    if (boundary > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(boundary - now));
    }
    res.window_steal.push_back(steal.ShareSinceLast());
    clean += res.window_steal.back() <= kMaxStealShare;
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  res.elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (monitor.joinable()) monitor.join();
  if (world.service) res.cache_after = world.service->cache().stats();
  if (world.coord) res.dist_after = world.coord->Report();
  return res;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A number with all its digits. A failed request's latency is infinite
/// (it misses every bound); it prints as 1e300 so the line stays JSON.
std::string Num(double v) {
  if (!std::isfinite(v)) return "1e300";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// acq_cost_per_tuple over the deck: each entry's cost counted once, so the
/// value depends only on the seed once every entry has been served.
double DeckCost(const RunResult& res, size_t deck, size_t* served) {
  double sum = 0.0;
  *served = 0;
  for (size_t e = 0; e < deck; ++e) {
    for (const ClientLog& c : res.clients) {
      if (!std::isnan(c.entry_cost[e])) {
        sum += c.entry_cost[e];
        ++*served;
        break;
      }
    }
  }
  return *served == 0 ? 0.0 : sum / static_cast<double>(*served);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return pb::SortedQuantile(v, 0.5);
}

template <typename T>
std::vector<double> Concat(std::vector<ClientLog>& clients,
                           std::vector<T> ClientLog::*field) {
  std::vector<double> out;
  for (ClientLog& c : clients) {
    out.insert(out.end(), (c.*field).begin(), (c.*field).end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced half: span assembly and per-layer metrics.

/// Median over `reps` samples of the seconds one call of f takes, in the
/// unit given by `scale`. A sample times `inner` back-to-back calls, so
/// sub-microsecond calls are not lost in the clock's own cost.
template <typename F>
double MedianTime(int reps, int inner, double scale, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    for (int k = 0; k < inner; ++k) f();
    t.push_back(static_cast<double>(NowNs() - t0) * 1e-9 * scale / inner);
  }
  return Median(std::move(t));
}

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<pb::Span> spans;  ///< the accounted spans, for --trace-out
  std::vector<uint64_t> self_ns;
};

/// Gathers the benchmark's spans and the tiers' own spans, keeps the
/// requests whose spans all survived the caps, and adds the self-time
/// share of every layer to `out`.
void AccountSpans(World& world, RunResult& res, LayerReport* out) {
  std::vector<pb::Span> spans;
  std::unordered_set<uint64_t> dropped;
  auto take = [&](SpanBuffer& b) {
    spans.insert(spans.end(), b.spans.begin(), b.spans.end());
    dropped.insert(b.truncated.begin(), b.truncated.end());
  };
  for (ClientLog& c : res.clients) take(c.spans);
  take(res.monitor_spans);
  for (BenchBuilder* b : world.registry.builders) take(b->spans());

  // The tier's spans, re-keyed; a tier root hangs under the client span.
  std::unordered_map<uint64_t, uint64_t> client_span;  // request -> span id
  for (const pb::Span& s : spans) {
    const bool own = s.request >> 63;
    if (s.parent == 0 && s.request != 0 && !own) client_span[s.request] = s.id;
  }
  const obs::TraceRecorder& tracer = world.service
                                         ? world.service->trace_recorder()
                                         : world.coord->trace_recorder();
  std::unordered_set<uint64_t> has_root;
  for (const obs::SpanEvent& e : tracer.Events()) {
    // Planner::BuildPlan's own span sits directly inside the builder's
    // opt.build span, which carries the prob children; keep one of the two.
    if (std::string_view(e.name) == "planner.build") continue;
    pb::Span s;
    s.name = e.name;
    s.start_ns = e.start_ns;
    s.end_ns = e.start_ns + e.dur_ns;
    s.id = TracerSpanKey(e.trace_id, e.span_id);
    s.parent = TracerSpanKey(e.trace_id, e.parent_id);
    s.request = e.trace_id;
    if (e.parent_id == 0) {
      has_root.insert(e.trace_id);
      const auto it = client_span.find(e.trace_id);
      s.parent = it == client_span.end() ? 0 : it->second;
    }
    spans.push_back(s);
  }
  // Requests with a client span but no tier root lost their tier spans to
  // the recorder's cap.
  for (const auto& [request, id] : client_span) {
    if (!has_root.count(request)) dropped.insert(request);
  }
  // Only requests of the timed loop count: set-up's warm-up requests have
  // no client span. The monitor's spans are their own requests.
  std::vector<pb::Span> kept;
  for (const pb::Span& s : spans) {
    const bool own = s.request >> 63;
    if (dropped.count(s.request)) continue;
    if (!own && !client_span.count(s.request)) continue;
    kept.push_back(s);
  }
  out->self_ns = pb::SelfTimes(kept);
  std::array<double, kNumLayers> self{};
  double total = 0.0;
  for (size_t i = 0; i < kept.size(); ++i) {
    self[LayerOf(kept[i].name)] += static_cast<double>(out->self_ns[i]);
    total += static_cast<double>(out->self_ns[i]);
  }
  for (int l = 0; l < kNumLayers; ++l) {
    out->metrics.push_back({std::string(kLayerNames[l]) + ".self_share",
                            total > 0 ? self[l] / total : 0.0, "share"});
  }
  out->spans = std::move(kept);
}

/// Slowest shard's handling time per dist query, from the coordinator's
/// shard.handle spans.
std::unordered_map<uint64_t, double> SlowestShardUs(const World& world) {
  std::unordered_map<uint64_t, double> out;
  for (const obs::SpanEvent& e : world.coord->trace_recorder().Events()) {
    if (std::string_view(e.name) != "shard.handle") continue;
    double& v = out[e.trace_id];
    v = std::max(v, static_cast<double>(e.dur_ns) * 1e-3);
  }
  return out;
}

LayerReport PerLayer(World& world, RunResult& res, double untraced_rps) {
  LayerReport rep;
  std::vector<Metric>& m = rep.metrics;
  const Inputs& in = *world.in;
  const Schema& schema = in.data.schema();
  const double requests = static_cast<double>(res.attempted());
  const bool dist = world.coord != nullptr;

  // prob + opt, over every build of the traced half (warm-up included).
  std::vector<double> call_us;
  std::vector<double> build_ms;
  uint64_t calls = 0;
  uint64_t busy_ns = 0;
  uint64_t opt_self_ns = 0;
  for (BenchBuilder* b : world.registry.builders) {
    calls += b->timed()->calls();
    busy_ns += b->timed()->busy_ns();
    opt_self_ns += b->self_ns();
    call_us.insert(call_us.end(), b->timed()->call_us().begin(),
                   b->timed()->call_us().end());
    build_ms.insert(build_ms.end(), b->build_ms().begin(), b->build_ms().end());
  }
  const double builds = static_cast<double>(build_ms.size());
  const pb::Summary call = pb::Summarize(call_us);
  const pb::Summary build = pb::Summarize(build_ms);
  const auto per_build = [&](double v) { return builds > 0 ? v / builds : 0.0; };
  uint64_t loop_builds = 0;
  for (const ClientLog& c : res.clients) loop_builds += c.planned;
  m.push_back({"prob.calls_per_plan", per_build(static_cast<double>(calls)),
               "count"});
  m.push_back({"prob.busy_ms_per_plan",
               per_build(static_cast<double>(busy_ns) * 1e-6), "ms"});
  m.push_back({"prob.call_us_p50", call.p50, "us"});
  m.push_back({"prob.call_us_p99",
               pb::SortedQuantile(call_us, 0.99), "us"});
  m.push_back({"opt.build_ms_p50", build.p50, "ms"});
  m.push_back({"opt.build_ms_p99", pb::SortedQuantile(build_ms, 0.99), "ms"});
  m.push_back({"opt.self_ms_per_plan",
               per_build(static_cast<double>(opt_self_ns) * 1e-6), "ms"});
  m.push_back({"opt.builds_per_request",
               requests > 0 ? static_cast<double>(loop_builds) / requests : 0,
               "count"});

  // plan: compile and wire serde of the plans the run executed.
  std::vector<std::shared_ptr<const CompiledPlan>> plans;
  for (const auto& [sig, p] : world.plans) plans.push_back(p);
  std::vector<double> compile_us;
  std::vector<double> ser_us;
  std::vector<double> de_us;
  double wire_bytes = 0.0;
  for (const auto& p : plans) {
    const Plan tree = p->ToTree();
    compile_us.push_back(MedianTime(21, 100, 1e6, [&] {
      const CompiledPlan c = CompiledPlan::Compile(tree);
      if (c.NumNodes() == 0) std::abort();
    }));
    std::vector<uint8_t> bytes;
    ser_us.push_back(MedianTime(21, 100, 1e6, [&] { bytes = SerializePlan(*p); }));
    wire_bytes += static_cast<double>(bytes.size());
    de_us.push_back(MedianTime(21, 100, 1e6, [&] {
      if (!DeserializeCompiledPlan(bytes, schema).ok()) std::abort();
    }));
  }
  m.push_back({"plan.compile_us_p50", Median(compile_us), "us"});
  m.push_back({"plan.serialize_us_p50", Median(ser_us), "us"});
  m.push_back({"plan.deserialize_us_p50", Median(de_us), "us"});
  m.push_back({"plan.wire_bytes_mean",
               plans.empty() ? 0.0 : wire_bytes / plans.size(), "bytes"});

  // exec: flat executor over test tuples, columnar over one shard's rows.
  std::vector<Tuple> tuples;
  for (size_t r = 0; r < std::min<size_t>(512, in.test.num_rows()); ++r) {
    tuples.push_back(in.test.GetTuple(static_cast<RowId>(r)));
  }
  std::vector<RowId> shard_rows;
  if (dist) {
    shard_rows = world.coord->shard_rows(0);
  } else {
    for (RowId r = 0; r < in.data.num_rows(); r += world.threads) {
      shard_rows.push_back(r);
    }
  }
  std::vector<double> flat_ns;
  std::vector<double> profiled_ns;
  std::vector<double> build_us;
  std::vector<double> row_ns;
  double sink = 0.0;
  for (const auto& p : plans) {
    const double per_tuple = 1e9 / static_cast<double>(tuples.size());
    flat_ns.push_back(MedianTime(5, 1, per_tuple, [&] {
      for (const Tuple& t : tuples) {
        TupleSource src(t);
        sink += ExecutePlan(*p, schema, *in.cost_model, src).cost;
      }
    }));
    ExecutionProfile profile(p->NumNodes());
    profiled_ns.push_back(MedianTime(5, 1, per_tuple, [&] {
      for (const Tuple& t : tuples) {
        TupleSource src(t);
        sink += ExecutePlan(*p, schema, *in.cost_model, src, nullptr, {},
                            &profile)
                    .cost;
      }
    }));
    build_us.push_back(MedianTime(21, 100, 1e6, [&] {
      const ColumnarBatchExecutor exec(*p, in.data, *in.cost_model);
    }));
    ColumnarBatchExecutor exec(*p, in.data, *in.cost_model);
    std::vector<uint8_t> verdicts;
    row_ns.push_back(
        MedianTime(5, 1, 1e9 / static_cast<double>(shard_rows.size()), [&] {
          sink += exec.Execute(shard_rows, &verdicts).total_cost;
        }));
  }
  double acquisitions = 0.0;
  for (const ClientLog& c : res.clients) acquisitions += c.acquisitions;
  const double ok = static_cast<double>(res.ok());
  m.push_back({"exec.flat_ns_per_tuple", Median(flat_ns), "ns"});
  m.push_back({"exec.flat_profiled_ns_per_tuple", Median(profiled_ns), "ns"});
  m.push_back({"exec.columnar_build_us", Median(build_us), "us"});
  m.push_back({"exec.columnar_ns_per_row", Median(row_ns), "ns"});
  m.push_back({"exec.acquisitions_per_tuple", ok > 0 ? acquisitions / ok : 0,
               "count"});

  // serve: client-observed split of the request, and cache behaviour.
  std::vector<double> queue = Concat(res.clients, &ClientLog::queue_wait_us);
  std::vector<double> handle = Concat(res.clients, &ClientLog::handle_us);
  const pb::Summary qs = pb::Summarize(queue);
  const pb::Summary hs = pb::Summarize(handle);
  m.push_back({"serve.queue_wait_us_p50", qs.p50, "us"});
  m.push_back({"serve.queue_wait_us_p99", pb::SortedQuantile(queue, 0.99),
               "us"});
  m.push_back({"serve.handle_us_p50", hs.p50, "us"});
  m.push_back({"serve.handle_us_p99", pb::SortedQuantile(handle, 0.99), "us"});
  uint64_t hits = 0;
  uint64_t followers = 0;
  for (const ClientLog& c : res.clients) {
    hits += c.cache_hits;
    followers += c.followers;
  }
  const double evictions =
      static_cast<double>(res.cache_after.evictions - res.cache_before.evictions);
  m.push_back({"serve.cache_hit_ratio",
               !dist && requests > 0 ? static_cast<double>(hits) / requests : 0,
               "share"});
  m.push_back({"serve.evictions_per_request",
               requests > 0 ? evictions / requests : 0, "count"});
  m.push_back({"serve.single_flight_followers",
               static_cast<double>(followers), "count"});

  // obs: the calibration snapshot (serve-hot's monitor; one-off elsewhere).
  if (res.snapshot_ms.empty()) {
    res.snapshot_ms.push_back(MedianTime(21, 1, 1e3, [&] {
      const obs::CalibrationReport r = world.service
                                           ? world.service->CalibrationSnapshot()
                                           : world.coord->CalibrationSnapshot();
      sink += static_cast<double>(r.plans.size());
    }));
  }
  m.push_back({"obs.calibration_snapshot_ms", Median(res.snapshot_ms), "ms"});

  // dist: shard execution, coordinator overhead, serde and merge.
  double shard_p50 = 0.0, shard_p99 = 0.0, coord_p50 = 0.0, coord_p99 = 0.0;
  double serde_us = 0.0, merge_us = 0.0, rows_per_query = 0.0;
  double shard_hit_ratio = 0.0;
  if (dist) {
    obs::HistogramSnapshot shard_exec;
    uint64_t shard_requests = 0, shard_hits = 0;
    for (size_t s = 0; s < res.dist_after.shards.size(); ++s) {
      const dist::ShardReportRow& a = res.dist_after.shards[s];
      const dist::ShardReportRow& b = res.dist_before.shards[s];
      shard_exec.Merge(a.exec_latency);
      shard_requests += a.requests - b.requests;
      shard_hits += a.cache_hits - b.cache_hits;
    }
    shard_p50 = shard_exec.p50() * 1e6;
    shard_p99 = shard_exec.p99() * 1e6;
    const auto slowest = SlowestShardUs(world);
    std::vector<double> coord_us;
    for (ClientLog& c : res.clients) {
      for (size_t k = 0; k < c.trace_ids.size(); ++k) {
        const auto it = slowest.find(c.trace_ids[k]);
        if (it != slowest.end()) {
          coord_us.push_back(std::max(0.0, c.coord_latency_us[k] - it->second));
        }
      }
    }
    const pb::Summary cs = pb::Summarize(coord_us);
    coord_p50 = cs.p50;
    coord_p99 = pb::SortedQuantile(coord_us, 0.99);
    // One shard's partial, as a shard ships it.
    const auto& p = plans.front();
    const BatchExecutionStats st =
        ExecuteBatchColumnar(*p, in.data, shard_rows, *in.cost_model);
    ExecutionResult partial;
    partial.verdict3 = st.matches > 0 ? Truth::kTrue : Truth::kFalse;
    partial.verdict = st.matches > 0;
    partial.cost = st.total_cost;
    partial.acquisitions = static_cast<int>(st.total_acquisitions);
    partial.acquired = st.acquired;
    serde_us = MedianTime(21, 100, 1e6, [&] {
      const auto bytes = SerializeExecutionResult(partial);
      if (!DeserializeExecutionResult(bytes).ok()) std::abort();
    });
    merge_us = MedianTime(21, 100, 1e6, [&] {
      ExecutionResult acc = dist::MergeIdentity();
      for (size_t s = 0; s < world.threads; ++s) {
        acc = dist::MergeExecutionResults(acc, partial);
      }
      sink += acc.cost;
    });
    rows_per_query = static_cast<double>(in.data.num_rows());
    shard_hit_ratio = shard_requests > 0 ? static_cast<double>(shard_hits) /
                                               static_cast<double>(shard_requests)
                                         : 0.0;
  }
  m.push_back({"dist.shard_exec_us_p50", shard_p50, "us"});
  m.push_back({"dist.shard_exec_us_p99", shard_p99, "us"});
  m.push_back({"dist.coord_us_p50", coord_p50, "us"});
  m.push_back({"dist.coord_us_p99", coord_p99, "us"});
  m.push_back({"dist.result_serde_us", serde_us, "us"});
  m.push_back({"dist.merge_us", merge_us, "us"});
  m.push_back({"dist.rows_returned_per_query", rows_per_query, "count"});
  m.push_back({"dist.shard_cache_hit_ratio", shard_hit_ratio, "share"});

  AccountSpans(world, res, &rep);
  const double traced_rps = ok / res.elapsed_s;
  m.push_back({"trace_overhead_pct",
               untraced_rps > 0 ? (untraced_rps - traced_rps) / untraced_rps * 100
                                : 0.0,
               "%"});
  if (sink < 0) std::printf("%g\n", sink);
  return rep;
}

void WriteSpans(const std::string& path, const LayerReport& rep) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (size_t i = 0; i < rep.spans.size(); ++i) {
    const pb::Span& s = rep.spans[i];
    out << "{\"name\":" << JsonString(s.name) << ",\"layer\":\""
        << kLayerNames[LayerOf(s.name)] << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"self_ns\":" << rep.self_ns[i] << "}\n";
  }
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->seconds > 0 && (a->trace == 0 || a->trace == 1) &&
         (a->workload == "serve-hot" || a->workload == "serve-churn" ||
          a->workload == "dist-scan");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: caqp_perfbench --workload serve-hot|serve-churn|"
                 "dist-scan --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--commit SHA]\n");
    return 2;
  }
  const Workload w = args.workload == "serve-hot"     ? Workload::kServeHot
                     : args.workload == "serve-churn" ? Workload::kServeChurn
                                                      : Workload::kDistScan;
  const size_t threads = HardwareThreads();
  const bool traced = args.trace == 1;

  std::vector<Metric> metrics;
  RunResult res;
  std::unique_ptr<World> world;
  bool correct = true;
  size_t served_entries = 0;
  uint64_t extra_attempted = 0;  // the traced run's untraced half
  uint64_t extra_failed = 0;
  uint64_t cost_mismatches = 0;
  if (!traced) {
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
      world.reset();
      double s = 0.0;
      world = MakeWorld(w, args.seed, threads, /*traced=*/false, &s);
      setups.push_back(s);
    }
    res = RunLoop(*world, args.seconds);
    correct &= world->setup_correct;  // RunLoop builds dist-scan's oracle
    const double acq = DeckCost(res, world->in->deck.size(), &served_entries);
    metrics.push_back({"throughput_rps", res.WindowMedian([](const auto& h) {
                         return static_cast<double>(h.count() - h.failures()) /
                                kWindowSeconds;
                       }),
                       "1/s"});
    metrics.push_back(
        {"latency_p50_ms",
         res.WindowMedian([](const auto& h) { return h.Quantile(0.5); }) * 1e-6,
         "ms"});
    metrics.push_back(
        {"latency_p99_ms",
         res.WindowMedian([](const auto& h) { return h.Quantile(0.99); }) * 1e-6,
         "ms"});
    metrics.push_back(
        {"ok_share",
         res.attempted() > 0
             ? static_cast<double>(res.ok()) / static_cast<double>(res.attempted())
             : 0.0,
         "share"});
    metrics.push_back({"acq_cost_per_tuple", acq, "cost"});
    metrics.push_back({"setup_s", Median(setups), "s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else {
    double s = 0.0;
    auto plain = MakeWorld(w, args.seed, threads, /*traced=*/false, &s);
    RunResult base = RunLoop(*plain, args.seconds / 2);
    correct &= plain->setup_correct && base.wrong() == 0;
    const double untraced_rps =
        static_cast<double>(base.ok()) / base.elapsed_s;
    plain.reset();
    world = MakeWorld(w, args.seed, threads, /*traced=*/true, &s);
    res = RunLoop(*world, args.seconds / 2);
    correct &= world->setup_correct;

    DeckCost(res, world->in->deck.size(), &served_entries);
    for (ClientLog& c : res.clients) {
      world->plans.insert(c.plans.begin(), c.plans.end());
    }
    extra_attempted = base.attempted();
    extra_failed = base.failed();
    LayerReport rep = PerLayer(*world, res, untraced_rps);
    metrics = rep.metrics;
    if (!args.trace_out.empty()) WriteSpans(args.trace_out, rep);
  }
  uint64_t hits = 0;
  uint64_t built = 0;
  for (const ClientLog& c : res.clients) {
    cost_mismatches += c.cost_mismatches;
    hits += c.cache_hits;
    built += c.planned;
  }
  correct &= res.wrong() == 0 && res.attempted() > 0;

  // Environment stamp, and how the latency figures were taken.
  const pb::Summary lat = pb::Summarize(res.Pooled());
  uint64_t min_window = UINT64_MAX;
  for (size_t k : res.CountedWindows()) {
    min_window = std::min(min_window, res.Window(k).count());
  }
  double max_steal = 0.0;
  for (double v : res.window_steal) max_steal = std::max(max_steal, v);
  const bool dist = w == Workload::kDistScan;
  const std::vector<std::pair<const char*, std::string>> env = {
      {"workload", JsonString(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"seconds", Num(args.seconds)},
      {"trace", std::to_string(args.trace)},
      {"build_type", JsonString(PERFBENCH_BUILD_TYPE)},
      {"compiler", JsonString(PERFBENCH_COMPILER)},
      {"nproc", std::to_string(threads)},
      {"avx512_masked", internal::MaskedChunkAvailable() ? "true" : "false"},
      {"commit", JsonString(args.commit)},
      {"clients", std::to_string(threads)},
      {"workers", std::to_string(dist ? 0 : threads)},
      {"shards", std::to_string(dist ? threads : 0)},
      {"latency_samples", std::to_string(lat.count)},
      {"windows_run", std::to_string(res.window_steal.size())},
      {"windows_counted", std::to_string(res.CountedWindows().size())},
      {"max_window_steal", Num(max_steal)},
      {"latency_min_window_samples", std::to_string(min_window)},
      {"latency_tail_pct", Num(lat.tail_pct)},
      {"latency_tail_ms", Num(lat.tail * 1e-6)},
      {"deck_size", std::to_string(world->in->deck.size())},
      {"deck_entries_served", std::to_string(served_entries)},
      {"cost_mismatches", std::to_string(cost_mismatches)},
      {"cache_hits", std::to_string(hits)},
      {"plans_built", std::to_string(built)},
      {"wrong_answers", std::to_string(res.wrong())},
  };
  std::string stamp = "{\"env\": {";
  for (size_t i = 0; i < env.size(); ++i) {
    stamp += (i > 0 ? ", " : "") + JsonString(env[i].first) + ": " +
             env[i].second;
  }
  std::printf("%s}}\n", stamp.c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted() + extra_attempted);
  out += ", \"failed\": " + std::to_string(res.failed() + extra_failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) +
           "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
