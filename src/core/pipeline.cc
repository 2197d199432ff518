#include "core/pipeline.h"

#include <deque>
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
