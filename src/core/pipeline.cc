#include "core/pipeline.h"

#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace phoebe::core {

PipelineConfig PhoebePipeline::DefaultConfig() {
  PipelineConfig cfg;
  cfg.exec_predictor.kind = ModelKind::kGbdtPerStageType;
  cfg.exec_predictor.gbdt.num_trees = 80;
  cfg.exec_predictor.gbdt.num_leaves = 31;
  cfg.exec_predictor.gbdt.min_data_in_leaf = 20;
  cfg.size_predictor = cfg.exec_predictor;
  cfg.size_predictor.gbdt.seed = 1043;
  return cfg;
}

PhoebePipeline::PhoebePipeline(PipelineConfig config)
    : config_(std::move(config)),
      engine_(std::make_shared<const PipelineBundle>(config_)) {}

Status PhoebePipeline::Train(const telemetry::WorkloadRepository& repo, int first_day,
                             int num_days) {
  if (num_days < 1) return Status::InvalidArgument("num_days must be >= 1");

  // Each training day is featurized against the stats available before it
  // (mirrors production retraining; avoids peeking at the day's own runs).
  std::deque<telemetry::HistoricStats> stats_store;
  std::vector<TrainExample> examples;
  for (int d = first_day; d < first_day + num_days; ++d) {
    if (!repo.HasDay(d)) {
      return Status::NotFound(StrFormat("day %d not in repository", d));
    }
    stats_store.push_back(repo.StatsBefore(d));
    const telemetry::HistoricStats* stats = &stats_store.back();
    for (const workload::JobInstance& job : repo.Day(d)) {
      examples.push_back({&job, stats});
    }
  }
  if (examples.empty()) return Status::InvalidArgument("no training jobs");

  auto exec = std::make_unique<StageCostPredictor>(config_.exec_predictor,
                                                   Target::kExecSeconds);
  auto size = std::make_unique<StageCostPredictor>(config_.size_predictor,
                                                   Target::kOutputBytes);
  auto ttl = std::make_unique<TtlEstimator>(config_.ttl);
  PHOEBE_RETURN_NOT_OK(exec->Train(examples));
  PHOEBE_RETURN_NOT_OK(size->Train(examples));
  PHOEBE_RETURN_NOT_OK(ttl->Train(examples, *exec));

  // Freeze: the trained components move into an immutable bundle and the
  // serving engine re-seats on it. From here on, the compiler enforces
  // const-after-Train for every decide-path caller.
  engine_ = DecisionEngine(std::make_shared<const PipelineBundle>(
      config_, std::move(exec), std::move(size), std::move(ttl),
      repo.StatsBefore(first_day + num_days)));
  return Status::OK();
}

namespace {

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) return Status::IoError("cannot open for write: " + path);
  f << content;
  if (!f.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open for read: " + path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

}  // namespace

Status PhoebePipeline::Save(const std::string& dir) const {
  const PipelineBundle& b = engine_.bundle();
  if (!b.trained()) return Status::FailedPrecondition("pipeline not trained");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create directory: " + dir);
  PHOEBE_RETURN_NOT_OK(WriteFile(dir + "/exec.model", b.exec_predictor().ToText()));
  PHOEBE_RETURN_NOT_OK(WriteFile(dir + "/size.model", b.size_predictor().ToText()));
  PHOEBE_RETURN_NOT_OK(WriteFile(dir + "/ttl.model", b.ttl_estimator().ToText()));
  PHOEBE_RETURN_NOT_OK(WriteFile(dir + "/stats.txt", b.stats().ToText()));
  return Status::OK();
}

Status PhoebePipeline::Load(const std::string& dir) {
  PHOEBE_ASSIGN_OR_RETURN(std::string exec_text, ReadFile(dir + "/exec.model"));
  PHOEBE_ASSIGN_OR_RETURN(std::string size_text, ReadFile(dir + "/size.model"));
  PHOEBE_ASSIGN_OR_RETURN(std::string ttl_text, ReadFile(dir + "/ttl.model"));
  PHOEBE_ASSIGN_OR_RETURN(std::string stats_text, ReadFile(dir + "/stats.txt"));
  auto exec = std::make_unique<StageCostPredictor>(config_.exec_predictor,
                                                   Target::kExecSeconds);
  auto size = std::make_unique<StageCostPredictor>(config_.size_predictor,
                                                   Target::kOutputBytes);
  auto ttl = std::make_unique<TtlEstimator>(config_.ttl);
  PHOEBE_RETURN_NOT_OK(exec->LoadFromText(exec_text));
  PHOEBE_RETURN_NOT_OK(size->LoadFromText(size_text));
  PHOEBE_RETURN_NOT_OK(ttl->LoadFromText(ttl_text));
  PHOEBE_ASSIGN_OR_RETURN(telemetry::HistoricStats stats,
                          telemetry::HistoricStats::FromText(stats_text));
  engine_ = DecisionEngine(std::make_shared<const PipelineBundle>(
      config_, std::move(exec), std::move(size), std::move(ttl), std::move(stats)));
  return Status::OK();
}

Status PhoebePipeline::SaveBundle(const std::string& path) const {
  return engine_.bundle().SaveToFile(path);
}

Status PhoebePipeline::LoadBundle(const std::string& path) {
  PHOEBE_ASSIGN_OR_RETURN(std::shared_ptr<const PipelineBundle> bundle,
                          PipelineBundle::LoadFromFile(path));
  config_ = bundle->config();
  engine_ = DecisionEngine(std::move(bundle));
  return Status::OK();
}

}  // namespace phoebe::core
