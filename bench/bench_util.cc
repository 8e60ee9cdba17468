#include "bench_util.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "plan/plan_serde.h"

namespace caqp {
namespace bench {

namespace {

// Structured-export state for this binary, armed by InitBench. Run
// fragments are serialized eagerly so no Schema/Dataset lifetimes leak
// into FinishBench.
struct RunLog {
  bool enabled = false;
  std::string bench_name;
  std::string json_path;
  std::vector<std::string> run_fragments;
};

RunLog& Log() {
  static RunLog log;
  return log;
}

std::string SerializeRun(const Measurement& m, const obs::PlannerStats& stats,
                         const AttributeProfile& profile,
                         const Schema& schema) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("planner").String(m.planner);
  w.Key("query_index").UInt(m.query_index);
  w.Key("train_cost").Double(m.train_cost);
  w.Key("test_cost").Double(m.test_cost);
  w.Key("plan_splits").UInt(m.plan_splits);
  w.Key("plan_bytes").UInt(m.plan_bytes);
  w.Key("verdict_errors").UInt(m.verdict_errors);
  w.Key("plan_build_seconds").Double(m.plan_build_seconds);
  w.Key("planner_stats");
  obs::WritePlannerStats(w, stats);
  w.Key("test_profile");
  obs::WriteAttributeProfile(w, profile, &schema);
  w.EndObject();
  return w.TakeString();
}

}  // namespace

void InitBench(const std::string& bench_name, int argc, char** argv) {
  RunLog& log = Log();
  log.bench_name = bench_name;
  log.json_path.clear();
  log.run_fragments.clear();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json-out") == 0 && i + 1 < argc) {
      log.json_path = argv[i + 1];
      ++i;
    } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
      log.json_path = arg + 11;
    }
  }
  if (log.json_path.empty()) {
    if (const char* env = std::getenv("CAQP_JSON_OUT")) log.json_path = env;
  }
  log.enabled = !log.json_path.empty();
}

bool JsonExportEnabled() { return Log().enabled; }

void FinishBench() {
  RunLog& log = Log();
  if (!log.enabled) return;
  // Stamp how the numbers were taken: a baseline is only comparable with
  // runs of the same build type on as many hardware threads.
  std::string doc = "{\"bench\":\"" + obs::EscapeJson(log.bench_name) +
                    "\",\"build_type\":\"" + CAQP_BUILD_TYPE +
                    "\",\"hardware_threads\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"runs\":[";
  for (size_t i = 0; i < log.run_fragments.size(); ++i) {
    if (i) doc += ',';
    doc += log.run_fragments[i];
  }
  doc += "],\"metrics\":";
  doc += obs::RegistryToJson(obs::DefaultRegistry());
  doc += "}\n";
  if (obs::WriteFileOrComplain(log.json_path, doc)) {
    std::printf("[wrote %s: %zu runs]\n", log.json_path.c_str(),
                log.run_fragments.size());
  }
  log.enabled = false;
}

std::vector<Measurement> RunWorkload(Planner& planner,
                                     const std::vector<Query>& queries,
                                     const Dataset& train, const Dataset& test,
                                     const AcquisitionCostModel& cost_model) {
  std::vector<Measurement> out;
  out.reserve(queries.size());
  const bool record = JsonExportEnabled();
  for (size_t i = 0; i < queries.size(); ++i) {
    Measurement m;
    m.planner = planner.Name();
    m.query_index = i;
    const auto t0 = std::chrono::steady_clock::now();
    const Plan plan = planner.BuildPlan(queries[i]);
    const auto t1 = std::chrono::steady_clock::now();
    m.plan_build_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    m.plan_splits = plan.NumSplits();
    m.plan_bytes = PlanSizeBytes(plan);
    m.train_cost =
        EmpiricalPlanCost(plan, train, queries[i], cost_model).mean_cost;
    AttributeProfile profile(test.schema().num_attributes());
    const EmpiricalCostResult te = EmpiricalPlanCost(
        plan, test, queries[i], cost_model, record ? &profile : nullptr);
    m.test_cost = te.mean_cost;
    m.verdict_errors = te.verdict_errors;
    if (record) {
      Log().run_fragments.push_back(SerializeRun(
          m, planner.planner_stats(), profile, test.schema()));
    }
    out.push_back(m);
  }
  return out;
}

double MeanTestCost(const std::vector<Measurement>& ms) {
  double total = 0;
  for (const Measurement& m : ms) total += m.test_cost;
  return ms.empty() ? 0.0 : total / ms.size();
}

double MeanTrainCost(const std::vector<Measurement>& ms) {
  double total = 0;
  for (const Measurement& m : ms) total += m.train_cost;
  return ms.empty() ? 0.0 : total / ms.size();
}

std::vector<double> GainsVersus(const std::vector<Measurement>& baseline,
                                const std::vector<Measurement>& alg,
                                bool use_test) {
  std::vector<double> gains;
  const size_t n = std::min(baseline.size(), alg.size());
  for (size_t i = 0; i < n; ++i) {
    const double b = use_test ? baseline[i].test_cost : baseline[i].train_cost;
    const double a = use_test ? alg[i].test_cost : alg[i].train_cost;
    if (a > 0) gains.push_back(b / a);
  }
  return gains;
}

void WriteCsv(const std::string& name, const std::string& header,
              const std::vector<std::string>& rows) {
  std::filesystem::create_directories("results");
  const std::string path = "results/" + name + ".csv";
  std::ofstream out(path);
  out << header << "\n";
  for (const std::string& row : rows) out << row << "\n";
  std::printf("[wrote %s: %zu rows]\n", path.c_str(), rows.size());
}

void Banner(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace caqp
