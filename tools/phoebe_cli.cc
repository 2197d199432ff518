// phoebe_cli — operational command-line front end for the library.
//
// Subcommands:
//   generate   generate a synthetic workload and export per-stage telemetry CSV
//   inspect    print one job's execution graph, metrics, and schedule
//   train      train the pipeline and report held-out accuracy; --out saves
//              the trained state as a versioned PipelineBundle file
//   bundle-info  inspect a saved bundle (version, checksum, model config)
//   decide     make a checkpoint decision for one job and explain it
//   backtest   compare checkpoint-selection approaches on a held-out day
//   fleet      run the day-level fleet driver (parallel decisions + budget);
//              --bundle serves a saved artifact, --shard/--merge split the
//              run across processes with byte-identical merged reports,
//              --metrics exports per-day telemetry JSON lines
//   fleet-ab   differential fleet A/B: N decision arms (saved bundles,
//              --arm config variants, --arm scenario= workload variants)
//              decide the same generated days — scenario arms over their own
//              per-arm workload; emits the paired per-day comparison report,
//              with --shard/--merge splitting the run across processes via
//              per-arm shard-blob sections
//   lifecycle  simulated-production continuous-operation loop: daily
//              telemetry, drift-aware retraining, canary backtest promotion,
//              optional shadow diffing; artifacts (promotion.log, bundles,
//              current.phoebe) land in --out-dir
//   serve      long-running decision daemon over the framed socket protocol;
//              hot bundle reload on SIGHUP or a client reload frame — point
//              --bundle at a lifecycle run's current.phoebe and promotions
//              roll onto the daemon with a SIGHUP
//   serve-client  one-shot client for a running daemon (ping, decide,
//              reload, shutdown)
//
// Every subcommand supports --help; flags parse through common::ArgParser
// (typed values, unknown-flag suggestions). All commands are deterministic
// given --seed.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "common/argparse.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "core/bundle.h"
#include "core/evaluate.h"
#include "core/explain.h"
#include "core/fleet.h"
#include "core/fleet_ab.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "dag/dot_export.h"
#include "dag/graph_metrics.h"
#include "lifecycle/lifecycle.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/repository.h"
#include "workload/generator.h"
#include "workload/trace.h"

using namespace phoebe;

namespace {

/// Parse argv for one subcommand. Returns true to continue; otherwise the
/// command should return *code (2 on a flag error, 0 after printing --help).
bool ParseOrReport(ArgParser& parser, int argc, char** argv, int* code) {
  Status st = parser.Parse(argc, argv, 2);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    *code = 2;
    return false;
  }
  if (parser.help_requested()) {
    std::fputs(parser.Help().c_str(), stdout);
    *code = 0;
    return false;
  }
  return true;
}

void AddWorkloadFlags(ArgParser& p) {
  p.AddInt("templates", 60, "number of job templates in the generator");
  p.AddInt("seed", 7, "workload generator seed");
  p.AddString("scenario", "baseline",
              "hostile-workload scenario: a preset (baseline|zipf|flash-crowd|"
              "failure-storm|drift-sudden|drift-gradual) or a phoebe_scenario "
              "file path");
}

void AddTrainFlags(ArgParser& p) {
  AddWorkloadFlags(p);
  p.AddInt("train-days", 5, "days of history to train on");
  p.AddInt("test-days", 1, "held-out days generated after training");
  p.AddString("bundle", "", "serve from this saved bundle instead of training");
}

workload::WorkloadConfig BaseWorkloadConfig(const ArgParser& p) {
  workload::WorkloadConfig cfg;
  cfg.num_templates = p.GetInt("templates");
  cfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
  return cfg;
}

/// Resolve --scenario (preset name or file path); a bad value is a CLI
/// error, reported like any other flag-parse failure.
scenario::ScenarioSpec ResolveScenarioOrExit(const std::string& value) {
  scenario::ScenarioSpec spec;
  if (Status st = scenario::ResolveScenario(value, &spec); !st.ok()) {
    std::fprintf(stderr, "--scenario: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  return spec;
}

workload::WorkloadGenerator MakeGen(const ArgParser& p) {
  return std::move(*scenario::MakeScenarioGenerator(
      ResolveScenarioOrExit(p.GetString("scenario")), BaseWorkloadConfig(p)));
}

/// Map --objective to the enum; unknown values are a CLI error (status set).
Result<core::Objective> ParseObjective(const std::string& value) {
  if (value == "temp") return core::Objective::kTempStorage;
  if (value == "recovery") return core::Objective::kRecovery;
  return Status::InvalidArgument(
      StrFormat("--objective expects temp|recovery, got '%s'", value.c_str()));
}

int CmdGenerate(int argc, char** argv) {
  ArgParser p("phoebe_cli generate",
              "Generate a synthetic workload and export per-stage telemetry CSV.");
  AddWorkloadFlags(p);
  p.AddInt("days", 3, "number of days to generate");
  p.AddString("out", "", "output CSV path (stdout when empty)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  auto gen = MakeGen(p);
  int days = p.GetInt("days");
  telemetry::WorkloadRepository repo;
  for (int d = 0; d < days; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();

  std::string out = p.GetString("out");
  std::string csv = repo.ToCsv();
  if (out.empty()) {
    std::fputs(csv.c_str(), stdout);
  } else {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", out.c_str());
      return 1;
    }
    f << csv;
    std::fprintf(stderr, "wrote %zu jobs / %zu stage records to %s\n",
                 repo.TotalJobs(), repo.TotalStageRecords(), out.c_str());
  }
  return 0;
}

int CmdInspect(int argc, char** argv) {
  ArgParser p("phoebe_cli inspect",
              "Print one job's execution graph, metrics, and schedule.");
  AddWorkloadFlags(p);
  p.AddInt("day", 0, "workload day to inspect");
  p.AddInt("job", 0, "job index within the day");
  p.AddBool("graph", "dump the raw graph text instead of the stage table");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  auto gen = MakeGen(p);
  int day = p.GetInt("day");
  auto jobs = gen.GenerateDay(day);
  int index = p.GetInt("job");
  if (index < 0 || static_cast<size_t>(index) >= jobs.size()) {
    std::fprintf(stderr, "day %d has %zu jobs; --job out of range\n", day,
                 jobs.size());
    return 1;
  }
  const workload::JobInstance& job = jobs[static_cast<size_t>(index)];

  std::printf("job %lld  template %d  name '%s'  input '%s'\n",
              static_cast<long long>(job.job_id), job.template_id,
              job.job_name.c_str(), job.norm_input_name.c_str());
  auto metrics = dag::ComputeMetrics(job.graph);
  metrics.status().Check();
  std::printf("stages %d  edges %d  tasks %d  critical path %d  components %d\n",
              metrics->num_stages, metrics->num_edges, metrics->num_tasks,
              metrics->critical_path, metrics->num_components);
  std::printf("runtime %s  temp data %s\n\n", HumanDuration(job.JobRuntime()).c_str(),
              HumanBytes(job.TotalTempBytes()).c_str());

  if (p.GetBool("graph")) {
    std::fputs(job.graph.ToText().c_str(), stdout);
    return 0;
  }

  TablePrinter t({"stage", "tasks", "input", "output", "exec s", "start", "ttl"});
  for (size_t i = 0; i < job.graph.num_stages(); ++i) {
    const auto& tr = job.truth[i];
    t.AddRow({job.graph.stage(static_cast<dag::StageId>(i)).name,
              StrFormat("%d", tr.num_tasks), HumanBytes(tr.input_bytes),
              HumanBytes(tr.output_bytes), StrFormat("%.1f", tr.exec_seconds),
              StrFormat("%.1f", tr.start_time), StrFormat("%.1f", tr.ttl)});
  }
  t.Print();
  return 0;
}

struct Trained {
  workload::WorkloadGenerator gen;
  telemetry::WorkloadRepository repo;
  core::PhoebePipeline phoebe;
  int train_days;
};

Trained TrainFromArgs(const ArgParser& p, int extra_days = 0) {
  Trained t{MakeGen(p), {}, core::PhoebePipeline(), p.GetInt("train-days")};
  int test_days = std::max({1, p.GetInt("test-days"), extra_days});
  int total = t.train_days + test_days;
  for (int d = 0; d < total; ++d) t.repo.AddDay(d, t.gen.GenerateDay(d)).Check();
  // --bundle serves from a pre-trained artifact instead of training here —
  // the serve-side half of the train/serve split. Every process loading the
  // same file decides identically (the bundle checksum names the state).
  std::string bundle = p.GetString("bundle");
  if (!bundle.empty()) {
    t.phoebe.LoadBundle(bundle).Check();
  } else {
    t.phoebe.Train(t.repo, 0, t.train_days).Check();
  }
  return t;
}

int CmdTrain(int argc, char** argv) {
  ArgParser p("phoebe_cli train",
              "Train the pipeline and report held-out accuracy.");
  AddTrainFlags(p);
  p.AddString("out", "", "save the trained state as a versioned bundle file");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  Trained t = TrainFromArgs(p);
  const auto& jobs = t.repo.Day(t.train_days);
  auto stats = t.repo.StatsBefore(t.train_days);

  std::vector<double> et, ep, ot, op, tt, tp;
  for (const auto& job : jobs) {
    auto exec = t.phoebe.exec_predictor().PredictJob(job, stats);
    auto out = t.phoebe.size_predictor().PredictJob(job, stats);
    auto costs = t.phoebe.engine().BuildCosts(job, core::CostSource::kMlStacked, stats);
    costs.status().Check();
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      et.push_back(job.truth[i].exec_seconds);
      ep.push_back(exec[i]);
      ot.push_back(job.truth[i].output_bytes);
      op.push_back(out[i]);
      tt.push_back(job.truth[i].ttl);
      tp.push_back(costs->ttl[i]);
    }
  }
  std::printf("trained on days 0..%d (%zu jobs), evaluated on day %d\n",
              t.train_days - 1, t.repo.TotalJobs() - jobs.size(), t.train_days);
  TablePrinter tab({"target", "R^2", "corr"});
  tab.AddRow("exec time", {RSquared(et, ep), PearsonCorrelation(et, ep)});
  tab.AddRow("output size", {RSquared(ot, op), PearsonCorrelation(ot, op)});
  tab.AddRow("TTL (stacked)", {RSquared(tt, tp), PearsonCorrelation(tt, tp)});
  tab.Print();

  std::string out = p.GetString("out");
  if (!out.empty()) {
    t.phoebe.SaveBundle(out).Check();
    std::fprintf(stderr, "wrote bundle (checksum %08x) to %s\n",
                 t.phoebe.bundle()->checksum(), out.c_str());
  }
  return 0;
}

int CmdBundleInfo(int argc, char** argv) {
  ArgParser p("phoebe_cli bundle-info",
              "Inspect a saved bundle (version, checksum, model config).");
  p.AddString("in", "", "bundle file to inspect (required)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  std::string in = p.GetString("in");
  if (in.empty()) {
    std::fprintf(stderr, "bundle-info requires --in <file>\n");
    return 2;
  }
  auto bundle = core::PipelineBundle::LoadFromFile(in);
  if (!bundle.ok()) {
    std::fprintf(stderr, "load error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  const core::PipelineBundle& b = **bundle;
  std::printf("bundle %s\n", in.c_str());
  std::printf("format version %d  checksum %08x\n",
              core::PipelineBundle::kFormatVersion, b.checksum());
  const core::PipelineConfig& cfg = b.config();
  std::printf("exec predictor: kind %d, %d trees\n",
              static_cast<int>(cfg.exec_predictor.kind),
              cfg.exec_predictor.gbdt.num_trees);
  std::printf("size predictor: kind %d, %d trees\n",
              static_cast<int>(cfg.size_predictor.kind),
              cfg.size_predictor.gbdt.num_trees);
  std::printf("ttl stacker: %d trees\n", cfg.ttl.gbdt.num_trees);
  std::printf("delta %g\n", cfg.delta);
  std::printf("historic stats: %lld stage observations\n",
              static_cast<long long>(b.stats().total_observations()));
  return 0;
}

int CmdDecide(int argc, char** argv) {
  ArgParser p("phoebe_cli decide",
              "Make a checkpoint decision for one held-out job and explain it.");
  AddTrainFlags(p);
  p.AddInt("job", 0, "job index within the held-out day");
  p.AddString("objective", "temp", "optimization objective: temp|recovery");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  auto objective = ParseObjective(p.GetString("objective"));
  if (!objective.ok()) {
    std::fprintf(stderr, "%s\n", objective.status().ToString().c_str());
    return 2;
  }
  Trained t = TrainFromArgs(p);
  const auto& jobs = t.repo.Day(t.train_days);
  int index = p.GetInt("job");
  if (index < 0 || static_cast<size_t>(index) >= jobs.size()) {
    std::fprintf(stderr, "day has %zu jobs; --job out of range\n", jobs.size());
    return 1;
  }
  const auto& job = jobs[static_cast<size_t>(index)];
  auto decision =
      t.phoebe.engine().DecideJob(job, t.phoebe.inference_stats(), {*objective});
  decision.status().Check();
  const core::CutResult& cut = decision->combined;

  std::printf("job '%s' (%zu stages, runtime %s)\n", job.job_name.c_str(),
              job.graph.num_stages(), HumanDuration(job.JobRuntime()).c_str());
  if (cut.cut.empty()) {
    std::printf("no profitable checkpoint for this job\n");
    return 0;
  }
  size_t before = 0;
  for (bool b : cut.cut.before_cut) before += b ? 1 : 0;
  std::printf("cut: %zu of %zu stages before the cut; est. global storage %s\n",
              before, job.graph.num_stages(), HumanBytes(cut.global_bytes).c_str());
  std::printf("checkpoint stages:\n");
  for (dag::StageId u : cluster::CheckpointStages(job.graph, cut.cut)) {
    std::printf("  %-28s output %s\n", job.graph.stage(u).name.c_str(),
                HumanBytes(job.truth[static_cast<size_t>(u)].output_bytes).c_str());
  }
  std::printf("realized temp saving (ex-post): %.1f%%\n",
              100.0 * core::RealizedTempSaving(job, cut.cut));
  return 0;
}

int CmdExplain(int argc, char** argv) {
  ArgParser p("phoebe_cli explain", "Explain why one job's cut was chosen.");
  AddTrainFlags(p);
  p.AddInt("job", 0, "job index within the held-out day");
  p.AddBool("json", "emit the machine-readable JSON explanation");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  Trained t = TrainFromArgs(p);
  const auto& jobs = t.repo.Day(t.train_days);
  int index = p.GetInt("job");
  if (index < 0 || static_cast<size_t>(index) >= jobs.size()) {
    std::fprintf(stderr, "day has %zu jobs; --job out of range\n", jobs.size());
    return 1;
  }
  const auto& job = jobs[static_cast<size_t>(index)];
  auto costs = t.phoebe.engine().BuildCosts(job, core::CostSource::kMlStacked);
  costs.status().Check();
  auto cut = core::OptimizeTempStorage(job.graph, *costs);
  cut.status().Check();
  if (p.GetBool("json")) {
    auto json = core::ExplainDecisionJson(job, *costs, *cut);
    json.status().Check();
    std::printf("%s\n", json->c_str());
  } else {
    auto text = core::ExplainDecisionText(job, *costs, *cut);
    text.status().Check();
    std::fputs(text->c_str(), stdout);
  }
  return 0;
}

int CmdDot(int argc, char** argv) {
  ArgParser p("phoebe_cli dot", "Graphviz rendering of one job's graph + cut.");
  AddTrainFlags(p);
  p.AddInt("job", 0, "job index within the held-out day");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  Trained t = TrainFromArgs(p);
  const auto& jobs = t.repo.Day(t.train_days);
  int index = p.GetInt("job");
  if (index < 0 || static_cast<size_t>(index) >= jobs.size()) {
    std::fprintf(stderr, "day has %zu jobs; --job out of range\n", jobs.size());
    return 1;
  }
  const auto& job = jobs[static_cast<size_t>(index)];
  auto decision = t.phoebe.engine().DecideJob(job, t.phoebe.inference_stats(), {});
  decision.status().Check();

  dag::DotOptions opt;
  opt.before_cut = decision->combined.cut.before_cut;
  opt.annotations.resize(job.graph.num_stages());
  for (size_t i = 0; i < job.graph.num_stages(); ++i) {
    opt.annotations[i] = HumanBytes(job.truth[i].output_bytes);
  }
  std::fputs(dag::ToDot(job.graph, opt).c_str(), stdout);
  return 0;
}

int CmdTraceExport(int argc, char** argv) {
  ArgParser p("phoebe_cli trace-export",
              "Serialize generated days into the text trace format.");
  AddWorkloadFlags(p);
  p.AddInt("days", 1, "number of days to export");
  p.AddString("out", "", "output trace path (stdout when empty)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  auto gen = MakeGen(p);
  int days = p.GetInt("days");
  std::vector<workload::JobInstance> jobs;
  for (int d = 0; d < days; ++d) {
    auto day_jobs = gen.GenerateDay(d);
    jobs.insert(jobs.end(), day_jobs.begin(), day_jobs.end());
  }
  std::string out = p.GetString("out");
  std::string text = workload::SerializeTrace(jobs);
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", out.c_str());
      return 1;
    }
    f << text;
    std::fprintf(stderr, "wrote %zu jobs to %s\n", jobs.size(), out.c_str());
  }
  return 0;
}

int CmdTraceInfo(int argc, char** argv) {
  ArgParser p("phoebe_cli trace-info", "Summarize a text trace file.");
  p.AddString("in", "", "trace file to read (required)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  std::string in = p.GetString("in");
  if (in.empty()) {
    std::fprintf(stderr, "trace-info requires --in <file>\n");
    return 2;
  }
  std::ifstream f(in);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", in.c_str());
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  std::vector<workload::JobInstance> jobs;
  Status parsed = workload::ParseTrace(std::string_view(text), &jobs);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.ToString().c_str());
    return 1;
  }
  RunningStats stages, runtime, temp;
  for (const auto& job : jobs) {
    stages.Add(static_cast<double>(job.graph.num_stages()));
    runtime.Add(job.JobRuntime());
    temp.Add(job.TotalTempBytes());
  }
  std::printf("trace: %zu jobs\n", jobs.size());
  std::printf("stages/job: mean %.1f max %.0f\n", stages.mean(), stages.max());
  std::printf("runtime: mean %s max %s\n", HumanDuration(runtime.mean()).c_str(),
              HumanDuration(runtime.max()).c_str());
  std::printf("temp data/job: mean %s\n", HumanBytes(temp.mean()).c_str());
  return 0;
}

/// The FleetConfig flags `fleet`, `fleet-ab` and `lifecycle` share, plus
/// the telemetry export.
void AddFleetConfigFlags(ArgParser& p) {
  p.AddInt("threads", 1, "decision threads (0 = all cores; output is "
           "byte-identical for any value)");
  p.AddInt("num-cuts", 1, "checkpoint cuts per job");
  p.AddString("objective", "temp", "optimization objective: temp|recovery");
  p.AddInt("template-cache", 0, "recurring-template decision cache capacity "
           "(0 = disabled)");
  p.AddInt("cache-bps", 0, "cache input-size drift tolerance in basis points "
           "(0 = exact, byte-neutral)");
  p.AddString("metrics", "", "write per-day telemetry JSON lines (and a final "
              "cumulative 'run' line) to this file");
}

/// The day-loop flags `fleet` and `fleet-ab` add to those: the day count,
/// the storage budget, and the shard/merge split.
void AddFleetFlags(ArgParser& p) {
  p.AddInt("days", 1, "number of fleet days to run");
  AddFleetConfigFlags(p);
  p.AddDouble("budget-gb", 0.0, "global storage budget in GB (0 = unlimited)");
  p.AddString("shard", "", "I/N decide-only mode: decide days d with d%N==I "
              "and write a blob to --out");
  p.AddString("out", "", "output blob path for --shard");
  p.AddString("merge", "", "comma-separated shard blobs to replay into "
              "byte-identical reports");
}

/// The FleetConfig the shared flags describe under a `budget_gb` global
/// storage budget (0 = unlimited); metrics left unset.
Result<core::FleetConfig> FleetConfigFromFlags(const ArgParser& p, double budget_gb) {
  core::FleetConfig cfg;
  PHOEBE_ASSIGN_OR_RETURN(cfg.objective, ParseObjective(p.GetString("objective")));
  cfg.num_cuts = std::max(1, p.GetInt("num-cuts"));
  cfg.num_threads = p.GetInt("threads");
  if (budget_gb > 0.0) cfg.storage_budget_bytes = budget_gb * 1e9;
  // --template-cache N enables the recurring-template decision cache with
  // capacity N; --cache-bps sets the input-size drift tolerance (0 = exact).
  const int cache_capacity = p.GetInt("template-cache");
  if (cache_capacity > 0) {
    cfg.template_cache.enabled = true;
    cfg.template_cache.capacity = static_cast<size_t>(cache_capacity);
    cfg.template_cache.quantize_bps = std::max(0, p.GetInt("cache-bps"));
  }
  if (Status st = cfg.Validate(); !st.ok()) {
    return Status::InvalidArgument("invalid fleet configuration: " + st.message());
  }
  return cfg;
}

/// --metrics: the registry and its output file. Telemetry is opt-in and
/// strictly passive: the registry only exists when the flag names a file,
/// and a null registry compiles the instrumented path down to no-ops.
struct MetricsOutput {
  obs::MetricsConfig config;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::ofstream file;

  /// Open the --metrics file, if any; false after printing the error.
  bool Open(const std::string& path) {
    config.output_path = path;
    config.enabled = !path.empty();
    if (!config.enabled) return true;
    registry = std::make_unique<obs::MetricsRegistry>();
    file.open(path, std::ios::binary);
    if (!file) std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return static_cast<bool>(file);
  }
  /// One per-day line: the telemetry recorded since `before`.
  void DayLine(const obs::MetricsSnapshot& before, int day) {
    if (!registry) return;
    file << obs::TelemetryLineJson(obs::SnapshotDelta(before, registry->Snapshot()),
                                   "day", day)
         << "\n";
  }
  /// The cumulative 'run' line last: whole-run totals including merge and
  /// calibration work that falls outside any single day window.
  void RunLine() {
    if (!registry) return;
    file << obs::TelemetryLineJson(registry->Snapshot(), "run", -1) << "\n";
  }
};

/// `--shard I/N` + `--out`: the slice of the day range this process decides
/// (day d belongs to shard d % N) and where its blob goes. `index` is -1
/// when --shard is absent.
struct ShardTarget {
  int index = -1;
  int count = 0;
  std::string out;
};

Result<ShardTarget> ParseShardTarget(const ArgParser& p) {
  ShardTarget target;
  const std::string shard = p.GetString("shard");
  if (shard.empty()) return target;
  std::vector<std::string> parts = Split(shard, '/');
  int32_t index = -1, count = 0;
  if (parts.size() != 2 || !ParseInt32(parts[0], &index).ok() ||
      !ParseInt32(parts[1], &count).ok() || count < 1 || index < 0 || index >= count) {
    return Status::InvalidArgument(
        StrFormat("--shard expects I/N with 0 <= I < N, got '%s'", shard.c_str()));
  }
  target.index = index;
  target.count = count;
  target.out = p.GetString("out");
  if (target.out.empty()) return Status::InvalidArgument("--shard requires --out <file>");
  return target;
}

/// Write a shard process's blob; returns the exit code.
int WriteShardBlob(const core::FleetShardBlob& blob, const std::string& out) {
  auto text = core::SerializeFleetShard(blob);
  text.status().Check();
  std::ofstream f(out, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", out.c_str());
    return 1;
  }
  f << *text;
  std::fprintf(stderr, "shard %d/%d: wrote %zu of %d day(s) x %zu arm(s) to %s\n",
               blob.header.shard_index, blob.header.shard_count, blob.days.size(),
               blob.header.num_days, blob.header.arm_checksums.size(), out.c_str());
  return 0;
}

/// --merge f1,f2,...: read and parse every blob, check they cover the run's
/// `num_days`, and combine them under the run's per-arm bundle checksums.
/// On failure prints the error, sets *code, and returns false.
bool ReadMergedShards(const std::string& merge, int num_days,
                      const std::vector<uint32_t>& arm_checksums,
                      std::map<int, std::vector<core::ShardArmDay>>* merged,
                      int* code) {
  std::vector<core::FleetShardBlob> blobs;
  for (const std::string& path : Split(merge, ',')) {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
      *code = 1;
      return false;
    }
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    auto blob = core::ParseFleetShard(text);
    if (!blob.ok()) {
      std::fprintf(stderr, "parse error in '%s': %s\n", path.c_str(),
                   blob.status().ToString().c_str());
      *code = 1;
      return false;
    }
    blobs.push_back(std::move(*blob));
  }
  if (blobs.front().header.num_days != num_days) {
    std::fprintf(stderr, "shard blobs cover %d day(s); pass --days %d\n",
                 blobs.front().header.num_days, blobs.front().header.num_days);
    *code = 2;
    return false;
  }
  auto combined = core::CombineFleetShards(blobs, arm_checksums);
  if (!combined.ok()) {
    std::fprintf(stderr, "cannot merge shard blobs: %s\n",
                 combined.status().ToString().c_str());
    *code = 1;
    return false;
  }
  *merged = std::move(*combined);
  return true;
}

int CmdFleet(int argc, char** argv) {
  ArgParser p("phoebe_cli fleet",
              "Day-level fleet driver: parallel decisions, budget admission, "
              "shard/merge, optional telemetry export.");
  AddTrainFlags(p);
  AddFleetFlags(p);
  p.AddString("report", "", "write per-day JSON report lines to this file");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  const double budget_gb = p.GetDouble("budget-gb");
  Result<core::FleetConfig> cfg = FleetConfigFromFlags(p, budget_gb);
  Result<ShardTarget> shard = ParseShardTarget(p);
  for (const Status& st : {cfg.status(), shard.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  MetricsOutput metrics;
  if (!metrics.Open(p.GetString("metrics"))) return 1;
  cfg->metrics = metrics.registry.get();

  const int num_days = std::max(1, p.GetInt("days"));
  Trained t = TrainFromArgs(p, num_days);
  const uint32_t checksum = t.phoebe.bundle()->checksum();

  // With --metrics, decide through a metrics-aware engine view over the same
  // immutable bundle; decisions are identical either way (the engine is a
  // const reader), so reports stay byte-identical with telemetry on.
  std::unique_ptr<core::DecisionEngine> metric_engine;
  const core::DecisionEngine* engine = &t.phoebe.engine();
  if (metrics.registry) {
    metric_engine = std::make_unique<core::DecisionEngine>(t.phoebe.bundle(),
                                                           metrics.registry.get());
    engine = metric_engine.get();
  }
  core::DecisionArm arm(engine, *cfg);
  auto context = [&t](int day, const telemetry::HistoricStats& stats) {
    return core::DayContext(day, t.repo.Day(t.train_days + day), stats);
  };
  // Unbudgeted + cache-off runs have no cross-day state, so each day's
  // report is independent of every other day: a shard can replay its own
  // days and embed the finished reports, and the merge degenerates to
  // report concatenation. Budgeted or cached runs replay at merge time —
  // admission and the cache are serial.
  const bool independent_days = budget_gb <= 0.0 && !cfg->template_cache.enabled;

  // --shard I/N: decide-only mode. Compute raw decisions for the days this
  // shard owns and write a one-arm blob; a later `fleet --merge` run replays
  // all blobs into the canonical report stream.
  if (shard->index >= 0) {
    core::FleetShardBlob blob;
    blob.header = core::FleetShardHeader{shard->index, shard->count, num_days, {checksum}};
    for (int d = 0; d < num_days; ++d) {
      if (!core::ShardOwnsDay(d, shard->index, shard->count)) continue;
      const telemetry::HistoricStats stats = t.repo.StatsBefore(t.train_days + d);
      auto decisions = arm.DecideDay(context(d, stats));
      decisions.status().Check();
      core::ShardArmDay day{std::move(*decisions), std::nullopt};
      if (independent_days) {
        auto report = arm.ReplayDay(context(d, stats), day.decisions);
        report.status().Check();
        day.report = std::move(*report);
      }
      blob.days[d].push_back(std::move(day));
    }
    code = WriteShardBlob(blob, shard->out);
    metrics.RunLine();
    return code;
  }

  // --merge f1,f2,...: replace the decision phase with the shard blobs'
  // precomputed decisions. The admission knapsack and the template cache
  // replay serially here, so the reports are byte-identical to an unsharded
  // run with this same configuration.
  std::map<int, std::vector<core::ShardArmDay>> merged;
  const std::string merge = p.GetString("merge");
  const bool replay = !merge.empty();
  if (replay) {
    obs::ScopedTimer merge_timer(
        metrics.registry ? metrics.registry->histogram("fleet.shard.merge.seconds")
                         : nullptr);
    if (!ReadMergedShards(merge, num_days, {checksum}, &merged, &code)) return code;
  }
  // Embedded reports are only trusted when this merge's configuration is
  // the one they are valid for and every day has one; otherwise fall back
  // to the serial per-day replay.
  const bool concat_reports =
      replay && independent_days &&
      std::all_of(merged.begin(), merged.end(),
                  [](const auto& day) { return day.second[0].report.has_value(); });

  if (budget_gb > 0.0) {
    // Calibrate the admission threshold on the day before the first test day.
    const telemetry::HistoricStats stats = t.repo.StatsBefore(t.train_days - 1);
    arm.Calibrate(core::DayContext(-1, t.repo.Day(t.train_days - 1), stats)).Check();
  }

  std::string report_path = p.GetString("report");
  std::ofstream report_file;
  if (!report_path.empty()) {
    report_file.open(report_path, std::ios::binary);
    if (!report_file) {
      std::fprintf(stderr, "cannot open '%s'\n", report_path.c_str());
      return 1;
    }
  }

  for (int d = 0; d < num_days; ++d) {
    obs::MetricsSnapshot day_before;
    if (metrics.registry) day_before = metrics.registry->Snapshot();
    const telemetry::HistoricStats stats = t.repo.StatsBefore(t.train_days + d);
    const core::DayContext ctx = context(d, stats);
    Result<core::FleetDayReport> report =
        concat_reports ? Result<core::FleetDayReport>(std::move(*merged.at(d)[0].report))
        : replay       ? arm.ReplayDay(ctx, merged.at(d)[0].decisions)
                       : arm.RunDay(ctx);
    report.status().Check();

    std::printf("fleet day %d: %zu jobs, %d threads, %d cut(s)%s%s\n",
                t.train_days + d, ctx.jobs->size(), ThreadPool::Resolve(cfg->num_threads),
                cfg->num_cuts,
                budget_gb > 0.0 ? StrFormat(", budget %.1f GB", budget_gb).c_str() : "",
                concat_reports ? " (concatenated shard reports)"
                : replay       ? " (merged from shards)"
                               : "");
    TablePrinter tab({"metric", "value"});
    tab.AddRow({"jobs considered", StrFormat("%d", report->jobs_considered)});
    tab.AddRow({"jobs with a cut", StrFormat("%d", report->jobs_with_cut)});
    tab.AddRow({"jobs admitted", StrFormat("%d", report->jobs_admitted)});
    tab.AddRow({"storage used", HumanBytes(report->storage_used_bytes)});
    tab.AddRow({"realized saving", StrFormat("%.1f%%", 100.0 * report->SavingFraction())});
    if (report->knapsack_threshold > 0.0) {
      tab.AddRow({"knapsack threshold", StrFormat("%.3g", report->knapsack_threshold)});
    }
    if (cfg->template_cache.enabled) {
      tab.AddRow({"cache hits/misses",
                  StrFormat("%lld/%lld", static_cast<long long>(report->cache_hits),
                            static_cast<long long>(report->cache_misses))});
      if (report->cache_evictions > 0) {
        tab.AddRow({"cache evictions",
                    StrFormat("%lld", static_cast<long long>(report->cache_evictions))});
      }
    }
    tab.Print();
    if (report_file.is_open()) {
      report_file << core::FleetDayReportJson(*report, d) << "\n";
    }
    metrics.DayLine(day_before, d);
  }
  if (report_file.is_open()) {
    report_file.close();
    std::fprintf(stderr, "wrote %d day report(s) to %s\n", num_days,
                 report_path.c_str());
  }
  if (metrics.registry) {
    metrics.RunLine();
    metrics.file.close();
    std::fprintf(stderr, "wrote telemetry to %s\n", metrics.config.output_path.c_str());
  }
  return 0;
}

/// Apply one `--arm` spec ("name=twocut,cuts=2,source=ml_sim,cache=64,bps=50,
/// scenario=flash-crowd") on top of the baseline FleetConfig. Only the listed
/// keys are accepted; a typo is a CLI error, never a silently ignored knob.
/// `scenario` names a preset or phoebe_scenario file the arm's workload is
/// generated under (validated when the arm's generator is built).
Status ApplyArmSpec(const std::string& spec, core::FleetConfig* cfg,
                    std::string* name, std::string* scenario) {
  for (const std::string& kv : Split(spec, ',')) {
    size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument(StrFormat(
          "--arm expects comma-separated key=value pairs, got '%s'", kv.c_str()));
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    Status parsed = Status::OK();
    if (key == "name") {
      *name = value;
    } else if (key == "source") {
      parsed = core::CostSourceFromToken(value, &cfg->source);
    } else if (key == "cuts") {
      int32_t v = 0;
      parsed = ParseInt32(value, &v);
      if (parsed.ok()) cfg->num_cuts = std::max(1, v);
    } else if (key == "cache") {
      int32_t v = 0;
      parsed = ParseInt32(value, &v);
      if (parsed.ok()) {
        cfg->template_cache.enabled = v > 0;
        if (v > 0) cfg->template_cache.capacity = static_cast<size_t>(v);
      }
    } else if (key == "bps") {
      int32_t v = 0;
      parsed = ParseInt32(value, &v);
      if (parsed.ok()) cfg->template_cache.quantize_bps = std::max(0, v);
    } else if (key == "scenario") {
      if (value.empty()) {
        return Status::InvalidArgument("--arm scenario= needs a value");
      }
      *scenario = value;
    } else {
      return Status::InvalidArgument(
          StrFormat("--arm key '%s' is not one of name|source|cuts|cache|bps"
                    "|scenario",
                    key.c_str()));
    }
    if (!parsed.ok()) {
      return Status::InvalidArgument(StrFormat("--arm %s: %s", key.c_str(),
                                               parsed.message().c_str()));
    }
  }
  return Status::OK();
}

int CmdFleetAb(int argc, char** argv) {
  ArgParser p("phoebe_cli fleet-ab",
              "Differential fleet A/B: N decision arms (saved bundles and/or "
              "--arm config variants) decide the same generated days over one "
              "shared context. Arm 0 is the baseline every delta is measured "
              "against; each arm's day report is byte-identical to a "
              "standalone `fleet` run under that arm's engine and config. "
              "Telemetry names carry a per-arm ab.arm<k>. prefix.");
  AddWorkloadFlags(p);
  p.AddInt("train-days", 5, "days of history to train on");
  p.AddInt("test-days", 1, "held-out days generated after training");
  p.AddStringList("bundle", "saved bundle file; each occurrence adds one arm "
                  "serving that bundle (arm 0 trains in-process when absent)");
  p.AddStringList("arm", "config arm over the arm-0 bundle: comma-separated "
                  "key=value of name|source|cuts|cache|bps|scenario "
                  "(e.g. name=twocut,cuts=2 or name=storm,scenario=flash-crowd; "
                  "a scenario arm decides its own workload, so it reports "
                  "cost/saving deltas but no decision flips)");
  AddFleetFlags(p);
  p.AddString("report", "", "write the paired A/B report text to this file");
  p.AddString("arm-reports", "", "write each arm's per-day JSON report lines "
              "to <prefix><k>.jsonl (arm 0's file is byte-identical to a "
              "standalone `fleet --report` under the same config)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  const double budget_gb = p.GetDouble("budget-gb");
  Result<core::FleetConfig> base_cfg = FleetConfigFromFlags(p, budget_gb);
  Result<ShardTarget> shard = ParseShardTarget(p);
  for (const Status& st : {base_cfg.status(), shard.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  MetricsOutput metrics;
  if (!metrics.Open(p.GetString("metrics"))) return 1;
  obs::MetricsRegistry* registry = metrics.registry.get();

  // Workload + history: the arm-independent half of the day loop, generated
  // exactly once no matter how many arms decide it.
  const int num_days = std::max(1, p.GetInt("days"));
  auto gen = MakeGen(p);
  telemetry::WorkloadRepository repo;
  const int train_days = p.GetInt("train-days");
  const int total = train_days + std::max({1, p.GetInt("test-days"), num_days});
  for (int d = 0; d < total; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();

  // Arm plan: one arm per --bundle (arm 0 trains in-process when none are
  // named), then one arm per --arm spec over the arm-0 bundle.
  struct ArmPlan {
    std::string name;
    std::shared_ptr<const core::PipelineBundle> bundle;
    core::FleetConfig cfg;
    std::string scenario;  // empty = the run-level --scenario workload
  };
  std::vector<ArmPlan> plans;
  core::PhoebePipeline trained;
  for (const std::string& path : p.GetStrings("bundle")) {
    auto bundle = core::PipelineBundle::LoadFromFile(path, registry);
    if (!bundle.ok()) {
      std::fprintf(stderr, "cannot load '%s': %s\n", path.c_str(),
                   bundle.status().ToString().c_str());
      return 1;
    }
    plans.push_back(
        {StrFormat("bundle%zu", plans.size()), *bundle, *base_cfg, ""});
  }
  if (plans.empty()) {
    trained.Train(repo, 0, train_days).Check();
    plans.push_back({"base", trained.bundle(), *base_cfg, ""});
  }
  for (const std::string& spec : p.GetStrings("arm")) {
    ArmPlan plan{StrFormat("cfg%zu", plans.size()), plans.front().bundle,
                 *base_cfg, ""};
    if (Status st = ApplyArmSpec(spec, &plan.cfg, &plan.name, &plan.scenario);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    plans.push_back(std::move(plan));
  }
  if (plans.size() < 2) {
    std::fprintf(stderr, "fleet-ab compares >= 2 arms; pass --bundle twice "
                 "and/or add --arm specs\n");
    return 2;
  }

  // Per-arm workloads: arms without a scenario= key decide the run-level
  // repository; each distinct `--arm scenario=` value gets one generator and
  // repository over the same base config (templates, seed), shared by every
  // arm naming it. Sharing a repository object means sharing the day's jobs
  // vector, which is what keeps the flip diff defined for same-workload arms.
  std::map<std::string, std::unique_ptr<telemetry::WorkloadRepository>>
      scenario_repos;
  std::vector<telemetry::WorkloadRepository*> arm_repos(plans.size(), &repo);
  for (size_t k = 0; k < plans.size(); ++k) {
    const std::string& sc = plans[k].scenario;
    if (sc.empty()) continue;
    auto it = scenario_repos.find(sc);
    if (it == scenario_repos.end()) {
      scenario::ScenarioSpec spec;
      if (Status st = scenario::ResolveScenario(sc, &spec); !st.ok()) {
        std::fprintf(stderr, "--arm '%s' scenario: %s\n", plans[k].name.c_str(),
                     st.ToString().c_str());
        return 2;
      }
      auto sgen = scenario::MakeScenarioGenerator(spec, BaseWorkloadConfig(p));
      auto r = std::make_unique<telemetry::WorkloadRepository>();
      for (int d = 0; d < total; ++d) r->AddDay(d, sgen->GenerateDay(d)).Check();
      it = scenario_repos.emplace(sc, std::move(r)).first;
    }
    arm_repos[k] = it->second.get();
  }

  // Each arm decides through its own engine view (cheap: a const reader over
  // the shared immutable bundle) so its engine.* and fleet.* metric names
  // carry the arm's ab.arm<k>. prefix and never collide.
  std::vector<std::unique_ptr<core::DecisionEngine>> engines;
  std::vector<core::FleetArmSpec> specs;
  std::vector<uint32_t> arm_checksums;
  for (size_t k = 0; k < plans.size(); ++k) {
    obs::MetricsRegistry* arm_metrics =
        registry ? registry->Namespaced(StrFormat("ab.arm%zu.", k)) : nullptr;
    plans[k].cfg.metrics = arm_metrics;
    engines.push_back(
        std::make_unique<core::DecisionEngine>(plans[k].bundle, arm_metrics));
    core::FleetArmSpec spec;
    spec.name = plans[k].name;
    spec.engine = engines.back().get();
    spec.config = plans[k].cfg;
    spec.bundle_checksum = plans[k].bundle->checksum();
    arm_checksums.push_back(spec.bundle_checksum);
    specs.push_back(std::move(spec));
  }
  core::FleetAbDriver driver(std::move(specs));

  // One DayContext per arm for a repository day: scenario arms read their
  // own repo, the rest read the run-level one. `stats` owns the per-arm
  // stats views the contexts point into (stable across the struct's move).
  struct DayInputs {
    std::vector<telemetry::HistoricStats> stats;
    std::vector<core::DayContext> ctxs;
  };
  auto MakeArmContexts = [&](int day_index, int repo_day) {
    DayInputs in;
    in.stats.reserve(arm_repos.size());
    for (auto* r : arm_repos) in.stats.push_back(r->StatsBefore(repo_day));
    in.ctxs.reserve(arm_repos.size());
    for (size_t k = 0; k < arm_repos.size(); ++k) {
      in.ctxs.emplace_back(day_index, arm_repos[k]->Day(repo_day), in.stats[k]);
    }
    return in;
  };

  // --shard I/N: decide-only mode. One blob carries every arm's decide
  // phase for the days this shard owns, one section per arm.
  if (shard->index >= 0) {
    core::FleetShardBlob blob;
    blob.header =
        core::FleetShardHeader{shard->index, shard->count, num_days, arm_checksums};
    for (int d = 0; d < num_days; ++d) {
      if (!core::ShardOwnsDay(d, shard->index, shard->count)) continue;
      DayInputs in = MakeArmContexts(d, train_days + d);
      auto decisions = driver.DecideDay(in.ctxs);
      decisions.status().Check();
      for (core::FleetDayDecisions& arm : *decisions) {
        blob.days[d].push_back(core::ShardArmDay{std::move(arm), std::nullopt});
      }
    }
    code = WriteShardBlob(blob, shard->out);
    metrics.RunLine();
    return code;
  }

  // --merge f1,f2,...: replace every arm's decide phase with the blobs'
  // precomputed records; cache + admission replay per arm here, so the paired
  // reports are byte-identical to an unsharded fleet-ab run.
  std::map<int, std::vector<core::ShardArmDay>> merged;
  const std::string merge = p.GetString("merge");
  const bool replay = !merge.empty();
  if (replay && !ReadMergedShards(merge, num_days, arm_checksums, &merged, &code)) {
    return code;
  }

  if (budget_gb > 0.0) {
    DayInputs hist = MakeArmContexts(-1, train_days - 1);
    driver.Calibrate(hist.ctxs).Check();
  }

  std::string report_path = p.GetString("report");
  std::string arm_report_prefix = p.GetString("arm-reports");
  std::vector<std::unique_ptr<std::ofstream>> arm_report_files;
  if (!arm_report_prefix.empty()) {
    for (size_t k = 0; k < driver.num_arms(); ++k) {
      std::string path = StrFormat("%s%zu.jsonl", arm_report_prefix.c_str(), k);
      auto f = std::make_unique<std::ofstream>(path, std::ios::binary);
      if (!*f) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return 1;
      }
      arm_report_files.push_back(std::move(f));
    }
  }

  std::vector<core::AbDayComparison> all_days;
  for (int d = 0; d < num_days; ++d) {
    obs::MetricsSnapshot day_before;
    if (registry) day_before = registry->Snapshot();
    DayInputs in = MakeArmContexts(d, train_days + d);
    auto result = [&]() -> Result<core::FleetAbDriver::AbDayResult> {
      if (!replay) return driver.RunDay(in.ctxs);
      std::vector<core::FleetDayDecisions> pre;
      for (core::ShardArmDay& arm : merged.at(d)) pre.push_back(std::move(arm.decisions));
      return driver.ReplayDay(in.ctxs, pre);
    }();
    result.status().Check();
    const core::AbDayComparison& cmp = result->comparison;

    std::printf("fleet-ab day %d: %d jobs, %zu arms%s%s\n", d, cmp.jobs,
                driver.num_arms(),
                budget_gb > 0.0 ? StrFormat(", budget %.1f GB", budget_gb).c_str() : "",
                replay ? " (merged from shards)" : "");
    TablePrinter tab({"arm", "saving %", "cost", "flips", "admission", "cost delta"});
    for (size_t k = 0; k < cmp.arms.size(); ++k) {
      const core::AbArmDaySummary& a = cmp.arms[k];
      const core::AbArmDelta& delta = cmp.deltas[k];
      tab.AddRow({a.name, StrFormat("%.1f", 100.0 * a.saving_fraction),
                  StrFormat("%.4f", a.cost),
                  k == 0 ? "-" : StrFormat("%d", delta.decision_flips),
                  k == 0 ? "-" : StrFormat("%d", delta.admission_flips),
                  k == 0 ? "-" : StrFormat("%+.4f", delta.cost_delta)});
    }
    tab.Print();

    for (size_t k = 0; k < arm_report_files.size(); ++k) {
      *arm_report_files[k] << core::FleetDayReportJson(result->reports[k], d)
                           << "\n";
    }
    all_days.push_back(std::move(result->comparison));
    metrics.DayLine(day_before, d);
  }
  if (!report_path.empty()) {
    std::ofstream f(report_path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", report_path.c_str());
      return 1;
    }
    f << core::SerializeAbReport(all_days);
    std::fprintf(stderr, "wrote paired report (%d day(s), %zu arms) to %s\n",
                 num_days, driver.num_arms(), report_path.c_str());
  }
  if (!arm_report_files.empty()) {
    std::fprintf(stderr, "wrote per-arm day reports to %s{0..%zu}.jsonl\n",
                 arm_report_prefix.c_str(), driver.num_arms() - 1);
  }
  if (registry) {
    metrics.RunLine();
    metrics.file.close();
    std::fprintf(stderr, "wrote telemetry to %s\n", metrics.config.output_path.c_str());
  }
  return 0;
}

/// Candidate-architecture presets for `lifecycle --candidate-pipeline`.
/// "small" shrinks every GBDT to 8 trees — a cheaper architecture that can
/// still win the canary; "crippled" is one near-zero-learning-rate stump per
/// model, deliberately too weak to beat a trained incumbent (the knob that
/// exercises the rejection path end to end).
core::PipelineConfig SmallPipelineConfig() {
  core::PipelineConfig cfg = core::PhoebePipeline::DefaultConfig();
  cfg.exec_predictor.gbdt.num_trees = 8;
  cfg.size_predictor.gbdt.num_trees = 8;
  cfg.ttl.gbdt.num_trees = 8;
  return cfg;
}

core::PipelineConfig CrippledPipelineConfig() {
  core::PipelineConfig cfg = SmallPipelineConfig();
  for (core::PredictorConfig* pc : {&cfg.exec_predictor, &cfg.size_predictor}) {
    pc->gbdt.num_trees = 1;
    pc->gbdt.num_leaves = 2;
    pc->gbdt.learning_rate = 1e-4;
  }
  cfg.ttl.gbdt.num_trees = 1;
  cfg.ttl.gbdt.num_leaves = 2;
  cfg.ttl.gbdt.learning_rate = 1e-4;
  return cfg;
}

int CmdLifecycle(int argc, char** argv) {
  ArgParser p("phoebe_cli lifecycle",
              "Simulated-production continuous-operation loop: each day "
              "appends telemetry, the retrain policy triggers candidate "
              "training on drift or age, and a candidate replaces the "
              "incumbent only when it wins the trailing-window canary "
              "backtest. Artifacts: promotion.log (CRC-checked, append-only), "
              "day_reports.jsonl, shadow_day_*.diff, versioned bundles, and "
              "current.phoebe (atomic — a serve daemon can reload it on "
              "SIGHUP mid-run).");
  AddWorkloadFlags(p);
  p.AddInt("days", 10, "simulated production days");
  p.AddDouble("policy-min-r2", 0.70, "retrain when the incumbent's held-out "
              "exec R^2 on the day drops below this");
  p.AddInt("policy-max-age", 7, "retrain when the incumbent is at least this "
           "many days old");
  p.AddInt("policy-train-window", 5, "days of history per training run");
  p.AddInt("policy-min-history", 2, "completed days required before the "
           "bootstrap training");
  p.AddInt("backtest-window", 3, "trailing days of the canary backtest");
  AddFleetConfigFlags(p);
  p.AddInt("retention-days", 0, "evict repository days older than this "
           "(0 = keep everything; must cover the deepest window)");
  p.AddBool("shadow", "record the candidate's would-be decisions as shard-blob "
            "job records and byte-diff them against the incumbent's");
  p.AddString("candidate-pipeline", "default", "architecture candidates train "
              "under while the incumbent keeps its own: default|small|crippled "
              "(crippled always loses the canary — the rejection-path demo)");
  p.AddString("out-dir", "", "artifact directory (required)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  const std::string out_dir = p.GetString("out-dir");
  if (out_dir.empty()) {
    std::fprintf(stderr, "lifecycle requires --out-dir <directory>\n");
    return 2;
  }
  // The lifecycle loop serves without a storage budget.
  Result<core::FleetConfig> fleet = FleetConfigFromFlags(p, /*budget_gb=*/0.0);
  if (!fleet.ok()) {
    std::fprintf(stderr, "%s\n", fleet.status().ToString().c_str());
    return 2;
  }
  MetricsOutput metrics;
  if (!metrics.Open(p.GetString("metrics"))) return 1;

  lifecycle::LifecycleConfig cfg;
  cfg.policy.min_exec_r2 = p.GetDouble("policy-min-r2");
  cfg.policy.max_age_days = p.GetInt("policy-max-age");
  cfg.policy.train_window_days = p.GetInt("policy-train-window");
  cfg.policy.min_history_days = p.GetInt("policy-min-history");
  cfg.backtest_window_days = p.GetInt("backtest-window");
  cfg.fleet = *fleet;
  cfg.shadow = p.GetBool("shadow");
  const std::string candidate = p.GetString("candidate-pipeline");
  if (candidate == "small") {
    cfg.candidate_pipeline = SmallPipelineConfig();
  } else if (candidate == "crippled") {
    cfg.candidate_pipeline = CrippledPipelineConfig();
  } else if (candidate != "default") {
    std::fprintf(stderr, "--candidate-pipeline expects default|small|crippled, "
                 "got '%s'\n", candidate.c_str());
    return 2;
  }
  cfg.retention_days = p.GetInt("retention-days");
  cfg.out_dir = out_dir;
  cfg.metrics = metrics.registry.get();
  // The scenario shapes both halves of the loop: MakeGen below generates the
  // shaped workload, and a failure-storm's MTBF spikes reach the canary
  // backtest through the per-day factor (a no-op ×1.0 for other presets).
  const scenario::ScenarioSpec scen =
      ResolveScenarioOrExit(p.GetString("scenario"));
  cfg.mtbf_factor = [scen](int d) { return scen.MtbfFactor(d); };
  if (Status st = cfg.Validate(); !st.ok()) {
    std::fprintf(stderr, "invalid lifecycle configuration: %s\n",
                 st.ToString().c_str());
    return 2;
  }

  lifecycle::LifecycleDriver driver(cfg);
  auto gen = MakeGen(p);
  telemetry::WorkloadRepository repo;
  const int num_days = std::max(1, p.GetInt("days"));
  int promotions = 0, rejections = 0;
  for (int d = 0; d < num_days; ++d) {
    obs::MetricsSnapshot day_before;
    if (metrics.registry) day_before = metrics.registry->Snapshot();
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    auto report = driver.OnDayCompleted(&repo, d);
    if (!report.ok()) {
      std::fprintf(stderr, "lifecycle day %d: %s\n", d,
                   report.status().ToString().c_str());
      return 1;
    }
    if (report->served) {
      std::printf("lifecycle day %d: %d jobs, saving %.1f%%, exec R^2 %.3f, "
                  "model age %d\n",
                  d, report->jobs, 100.0 * report->saving_fraction,
                  report->exec_r2, report->model_age_days);
    } else {
      std::printf("lifecycle day %d: %d jobs, not served (no deployed model)\n",
                  d, report->jobs);
    }
    if (report->retrained) {
      std::printf("  retrain (%s): candidate %08x cost %.4f vs incumbent %08x "
                  "cost %.4f -> %s\n",
                  report->reason.c_str(), report->candidate_checksum,
                  report->candidate_cost, report->incumbent_checksum,
                  report->incumbent_cost, report->verdict.c_str());
      if (report->verdict == "promoted") ++promotions;
      else ++rejections;
    }
    if (cfg.shadow && report->shadow_jobs > 0) {
      std::printf("  shadow: %d of %d job records differ\n",
                  report->shadow_differing, report->shadow_jobs);
    }
    metrics.DayLine(day_before, d);
  }
  std::printf("lifecycle: %d day(s), %zu retrain(s), %d promoted, %d rejected; "
              "serving %08x\n",
              num_days, driver.promotion_records().size(), promotions,
              rejections, driver.incumbent_checksum());
  std::fprintf(stderr, "artifacts in %s/ (promotion.log, day_reports.jsonl, "
               "current.phoebe)\n", out_dir.c_str());
  if (metrics.registry) {
    metrics.RunLine();
    metrics.file.close();
    std::fprintf(stderr, "wrote telemetry to %s\n", metrics.config.output_path.c_str());
  }
  return 0;
}

// SIGHUP = "reload your bundle", the classic daemon convention. The handler
// only flips a flag; the serve loop below does the actual (non-signal-safe)
// reload between WaitForShutdown polls.
volatile std::sig_atomic_t g_sighup_reload = 0;

void OnSighup(int) { g_sighup_reload = 1; }

int CmdServe(int argc, char** argv) {
  ArgParser p("phoebe_cli serve",
              "Long-running decision daemon over the framed socket protocol "
              "(see DESIGN.md 'Serving'). Reloads its bundle on SIGHUP or a "
              "client reload frame; in-flight requests keep the bundle they "
              "started with.");
  p.AddString("bundle", "", "trained bundle file to serve (required)");
  p.AddInt("port", 0, "TCP port on 127.0.0.1 (0 = pick an ephemeral port)");
  p.AddString("port-file", "", "write the bound port number to this file "
              "(how scripts find an ephemeral port)");
  p.AddInt("workers", 2, "decide worker threads");
  p.AddInt("max-batch", 16, "max requests coalesced into one decide batch "
           "(1 = one request per worker wakeup)");
  p.AddInt("queue-capacity", 256, "bounded request queue capacity (producers "
           "block when full; requests are never dropped)");
  p.AddString("metrics", "", "write a cumulative telemetry JSON line to this "
              "file on exit");
  p.AddDouble("max-seconds", 0.0, "exit after this long even without a "
              "shutdown request (0 = run until shutdown; a safety net for "
              "scripted runs)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  const std::string bundle_path = p.GetString("bundle");
  if (bundle_path.empty()) {
    std::fprintf(stderr, "serve requires --bundle <file>\n");
    return 2;
  }

  std::unique_ptr<obs::MetricsRegistry> registry;
  const std::string metrics_path = p.GetString("metrics");
  if (!metrics_path.empty()) registry = std::make_unique<obs::MetricsRegistry>();

  auto bundle = core::PipelineBundle::LoadFromFile(bundle_path, registry.get());
  if (!bundle.ok()) {
    std::fprintf(stderr, "cannot serve '%s': %s\n", bundle_path.c_str(),
                 bundle.status().ToString().c_str());
    return 1;
  }

  serve::ServeConfig cfg;
  cfg.port = p.GetInt("port");
  cfg.num_workers = p.GetInt("workers");
  cfg.max_batch = p.GetInt("max-batch");
  cfg.queue_capacity = p.GetInt("queue-capacity");
  cfg.bundle_path = bundle_path;
  cfg.metrics = registry.get();
  if (Status st = cfg.Validate(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }

  serve::ServeServer server(*bundle, cfg);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "cannot start serve daemon: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "phoebe serve: listening on 127.0.0.1:%d (bundle %s, checksum "
               "%08x, %d worker(s))\n",
               server.port(), bundle_path.c_str(), server.bundle_checksum(),
               cfg.num_workers);

  const std::string port_file = p.GetString("port-file");
  if (!port_file.empty()) {
    std::ofstream f(port_file, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", port_file.c_str());
      server.Stop();
      return 1;
    }
    f << server.port() << "\n";
  }

  std::signal(SIGHUP, OnSighup);
  const double max_seconds = p.GetDouble("max-seconds");
  const auto started = std::chrono::steady_clock::now();
  while (true) {
    if (server.WaitForShutdown(0.25)) break;
    if (g_sighup_reload != 0) {
      g_sighup_reload = 0;
      auto checksum = server.Reload(bundle_path);
      if (!checksum.ok()) {
        // Keep serving the old bundle: a bad artifact on disk must never
        // take the daemon down.
        std::fprintf(stderr, "phoebe serve: SIGHUP reload of '%s' failed: %s\n",
                     bundle_path.c_str(), checksum.status().ToString().c_str());
      }
    }
    if (max_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                .count() >= max_seconds) {
      std::fprintf(stderr, "phoebe serve: --max-seconds %.1f reached, exiting\n",
                   max_seconds);
      break;
    }
  }
  server.Stop();
  std::fprintf(stderr, "phoebe serve: stopped after %lld reload(s)\n",
               static_cast<long long>(server.reload_count()));

  if (registry) {
    std::ofstream f(metrics_path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", metrics_path.c_str());
      return 1;
    }
    f << obs::TelemetryLineJson(registry->Snapshot(), "run", -1) << "\n";
    std::fprintf(stderr, "wrote telemetry to %s\n", metrics_path.c_str());
  }
  return 0;
}

int CmdServeClient(int argc, char** argv) {
  ArgParser p("phoebe_cli serve-client",
              "One-shot client for a running serve daemon.");
  p.AddInt("port", 0, "daemon port on 127.0.0.1 (required)");
  p.AddString("op", "ping", "operation: ping|decide|reload|shutdown");
  AddWorkloadFlags(p);
  p.AddInt("day", 0, "workload day of the job to decide");
  p.AddInt("job", 0, "job index within the day");
  p.AddString("objective", "temp", "optimization objective: temp|recovery");
  p.AddString("source", "ml_stacked",
              "cost source: truth|opt_est|constant|ml_sim|ml_stacked");
  p.AddInt("num-cuts", 1, "checkpoint cuts per job");
  p.AddString("reload-bundle", "", "bundle path for --op reload (empty = the "
              "path the daemon was started with)");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  const int port = p.GetInt("port");
  if (port <= 0) {
    std::fprintf(stderr, "serve-client requires --port <daemon port>\n");
    return 2;
  }
  serve::ServeClient client;
  if (Status st = client.Connect(port); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  const std::string op = p.GetString("op");
  if (op == "ping") {
    if (Status st = client.Ping(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (op == "reload") {
    auto checksum = client.Reload(p.GetString("reload-bundle"));
    if (!checksum.ok()) {
      std::fprintf(stderr, "%s\n", checksum.status().ToString().c_str());
      return 1;
    }
    std::printf("reloaded %08x\n", *checksum);
    return 0;
  }
  if (op == "shutdown") {
    if (Status st = client.RequestShutdown(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("bye\n");
    return 0;
  }
  if (op == "decide") {
    auto objective = ParseObjective(p.GetString("objective"));
    if (!objective.ok()) {
      std::fprintf(stderr, "%s\n", objective.status().ToString().c_str());
      return 2;
    }
    core::DecideOptions options;
    options.objective = *objective;
    options.num_cuts = std::max(1, p.GetInt("num-cuts"));
    if (Status st = core::CostSourceFromToken(p.GetString("source"), &options.source);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    auto gen = MakeGen(p);
    auto jobs = gen.GenerateDay(p.GetInt("day"));
    int index = p.GetInt("job");
    if (index < 0 || static_cast<size_t>(index) >= jobs.size()) {
      std::fprintf(stderr, "day %d has %zu jobs; --job out of range\n",
                   p.GetInt("day"), jobs.size());
      return 1;
    }
    std::string raw_payload;
    auto response =
        client.Decide(jobs[static_cast<size_t>(index)], options, &raw_payload);
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    // The raw payload IS the decision, in the shard-blob job record format
    // prefixed by the answering bundle's checksum — printable and diffable
    // against fleet shard artifacts from the same bundle.
    std::fputs(raw_payload.c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "--op expects ping|decide|reload|shutdown, got '%s'\n",
               op.c_str());
  return 2;
}

int CmdBacktest(int argc, char** argv) {
  ArgParser p("phoebe_cli backtest",
              "Compare checkpoint-selection approaches on a held-out day.");
  AddTrainFlags(p);
  p.AddString("objective", "temp", "optimization objective: temp|recovery");
  int code;
  if (!ParseOrReport(p, argc, argv, &code)) return code;

  auto objective = ParseObjective(p.GetString("objective"));
  if (!objective.ok()) {
    std::fprintf(stderr, "%s\n", objective.status().ToString().c_str());
    return 2;
  }
  Trained t = TrainFromArgs(p);
  // A failure-storm scenario shortens the effective MTBF on the held-out
  // day, so the recovery comparison runs under the storm it describes.
  const scenario::ScenarioSpec scen =
      ResolveScenarioOrExit(p.GetString("scenario"));
  core::BackTester tester(&t.phoebe.engine(),
                          12 * 3600.0 / scen.MtbfFactor(t.train_days));
  const auto& jobs = t.repo.Day(t.train_days);
  auto stats = t.repo.StatsBefore(t.train_days);
  bool recovery = *objective == core::Objective::kRecovery;

  auto result = recovery ? tester.EvaluateRecovery(jobs, stats)
                         : tester.EvaluateTempStorage(jobs, stats);
  result.status().Check();
  std::printf("%s back-test over %zu jobs (day %d)\n",
              recovery ? "recovery" : "temp-storage", jobs.size(), t.train_days);
  TablePrinter tab({"approach", "mean saving %", "stddev"});
  for (core::Approach a : core::AllApproaches()) {
    auto& s = (*result)[a];
    tab.AddRow({core::ApproachName(a), StrFormat("%.1f", 100 * s.mean()),
                StrFormat("%.1f", 100 * s.stddev())});
  }
  tab.Print();
  return 0;
}

void Usage() {
  std::fputs(
      "phoebe_cli <command> [--flag value ...]\n"
      "\n"
      "commands (each supports --help for its full flag list):\n"
      "  generate     synthetic workload -> per-stage telemetry CSV\n"
      "  inspect      one job's graph, metrics, and schedule\n"
      "  train        train the pipeline; --out saves a versioned bundle\n"
      "  bundle-info  inspect a saved bundle (version, checksum, config)\n"
      "  decide       checkpoint decision for one job, explained\n"
      "  backtest     compare checkpoint approaches on a held-out day\n"
      "  fleet        day-level driver: threads, budget, template cache,\n"
      "               --shard/--merge process split, --metrics telemetry\n"
      "  fleet-ab     differential A/B: N arms (bundles, --arm configs, --arm\n"
      "               scenario= workloads), paired comparison reports\n"
      "  lifecycle    continuous-operation loop: drift-aware retraining,\n"
      "               canary backtest promotion, shadow diffing (--out-dir)\n"
      "  serve        long-running decision daemon (framed socket protocol,\n"
      "               hot bundle reload on SIGHUP / reload frame)\n"
      "  serve-client one-shot client: ping, decide, reload, shutdown\n"
      "  dot          Graphviz of the job + cut\n"
      "  explain      why this cut was chosen (--json for machine output)\n"
      "  trace-export / trace-info   text trace round trip\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "inspect") return CmdInspect(argc, argv);
  if (cmd == "train") return CmdTrain(argc, argv);
  if (cmd == "bundle-info") return CmdBundleInfo(argc, argv);
  if (cmd == "decide") return CmdDecide(argc, argv);
  if (cmd == "backtest") return CmdBacktest(argc, argv);
  if (cmd == "fleet") return CmdFleet(argc, argv);
  if (cmd == "fleet-ab") return CmdFleetAb(argc, argv);
  if (cmd == "lifecycle") return CmdLifecycle(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "serve-client") return CmdServeClient(argc, argv);
  if (cmd == "dot") return CmdDot(argc, argv);
  if (cmd == "explain") return CmdExplain(argc, argv);
  if (cmd == "trace-export") return CmdTraceExport(argc, argv);
  if (cmd == "trace-info") return CmdTraceInfo(argc, argv);
  if (cmd == "--help" || cmd == "help") {
    Usage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  Usage();
  return 2;
}
