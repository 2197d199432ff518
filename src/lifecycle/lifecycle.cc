#include "lifecycle/lifecycle.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/json.h"
#include "common/stats.h"
#include "common/strings.h"

namespace phoebe::lifecycle {

namespace {

constexpr const char* kPromotionLogFile = "promotion.log";
constexpr const char* kDayReportsFile = "day_reports.jsonl";
constexpr const char* kCurrentBundleFile = "current.phoebe";

std::string HexChecksum(uint32_t crc) { return StrFormat("%08x", crc); }

}  // namespace

Status RetrainPolicy::Validate() const {
  if (min_exec_r2 < -1.0 || min_exec_r2 > 1.0) {
    return Status::InvalidArgument("min_exec_r2 must be in [-1, 1]");
  }
  if (max_age_days < 1) return Status::InvalidArgument("max_age_days must be >= 1");
  if (train_window_days < 1) {
    return Status::InvalidArgument("train_window_days must be >= 1");
  }
  if (min_history_days < 1) {
    return Status::InvalidArgument("min_history_days must be >= 1");
  }
  return Status::OK();
}

double EvaluateExecR2(const core::StageCostPredictor& exec,
                      const telemetry::WorkloadRepository& repo, int day) {
  auto stats = repo.StatsBefore(day);
  std::vector<double> y_true, y_pred;
  for (const workload::JobInstance& job : repo.Day(day)) {
    auto pred = exec.PredictJob(job, stats);
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      y_true.push_back(job.truth[i].exec_seconds);
      y_pred.push_back(pred[i]);
    }
  }
  return RSquared(y_true, y_pred);
}

Status LifecycleConfig::Validate() const {
  PHOEBE_RETURN_NOT_OK(policy.Validate());
  if (backtest_window_days < 1) {
    return Status::InvalidArgument("backtest_window_days must be >= 1");
  }
  if (!(mtbf_seconds > 0.0) || !std::isfinite(mtbf_seconds)) {
    return Status::InvalidArgument("mtbf_seconds must be positive and finite");
  }
  PHOEBE_RETURN_NOT_OK(fleet.Validate());
  if (fleet.storage_budget_bytes != std::numeric_limits<double>::infinity()) {
    return Status::InvalidArgument(
        "lifecycle requires an unlimited fleet storage budget (admission "
        "calibration is not wired into the loop)");
  }
  if (fleet.source != core::CostSource::kMlStacked) {
    return Status::InvalidArgument(
        "lifecycle requires CostSource::kMlStacked (the source the canary "
        "backtest compares)");
  }
  const int deepest =
      std::max(policy.train_window_days, backtest_window_days);
  if (retention_days != 0 && retention_days < deepest) {
    return Status::InvalidArgument(
        StrFormat("retention_days (%d) must be 0 or >= the deepest lookback "
                  "window (%d)",
                  retention_days, deepest));
  }
  return Status::OK();
}

std::string LifecycleDayReportJson(const LifecycleDayReport& report) {
  // No cache hit/miss counters here on purpose: this line is byte-compared
  // across template-cache modes, and cache traffic is the one report field
  // that legitimately differs between them.
  JsonWriter w;
  w.BeginObject();
  w.KV("day", report.day);
  w.KV("jobs", report.jobs);
  w.KV("served", report.served);
  w.KV("jobs_with_cut", report.jobs_with_cut);
  w.KV("jobs_admitted", report.jobs_admitted);
  w.KV("saving_fraction", report.saving_fraction);
  w.KV("exec_r2", report.exec_r2);
  w.KV("model_age_days", report.model_age_days);
  w.KV("retrained", report.retrained);
  w.KV("reason", report.reason);
  w.KV("incumbent", HexChecksum(report.incumbent_checksum));
  w.KV("candidate", HexChecksum(report.candidate_checksum));
  w.KV("incumbent_cost", report.incumbent_cost);
  w.KV("candidate_cost", report.candidate_cost);
  w.KV("verdict", report.verdict);
  w.KV("shadow_jobs", report.shadow_jobs);
  w.KV("shadow_differing", report.shadow_differing);
  w.EndObject();
  return w.str();
}

LifecycleDriver::LifecycleDriver(LifecycleConfig config)
    : config_(std::move(config)), config_status_(config_.Validate()) {
  // The serving stack shares the loop's registry; FleetConfig carries its
  // own pointer so the driver's phase timers land in the same place.
  config_.fleet.metrics = config_.metrics;
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    metrics_.days = m.counter("lifecycle.days");
    metrics_.jobs = m.counter("lifecycle.jobs");
    metrics_.retrains = m.counter("lifecycle.retrains");
    metrics_.promotions = m.counter("lifecycle.promotions");
    metrics_.rejections = m.counter("lifecycle.rejections");
    metrics_.shadow_jobs = m.counter("lifecycle.shadow.jobs");
    metrics_.shadow_diffs = m.counter("lifecycle.shadow.diffs");
    metrics_.evicted_days = m.counter("lifecycle.evicted.days");
    metrics_.day_seconds = m.histogram("lifecycle.day.seconds");
    metrics_.train_seconds = m.histogram("lifecycle.train.seconds");
    metrics_.backtest_seconds = m.histogram("lifecycle.backtest.seconds");
    metrics_.shadow_seconds = m.histogram("lifecycle.shadow.seconds");
    metrics_.exec_r2 = m.gauge("lifecycle.exec_r2");
    metrics_.model_age = m.gauge("lifecycle.model.age_days");
  }
  AdoptIncumbent(
      std::make_shared<const core::PipelineBundle>(config_.pipeline), -1);
}

Status LifecycleDriver::InitArtifacts() {
  if (artifacts_ready_ || config_.out_dir.empty()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(config_.out_dir, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot create out dir '%s': %s",
                                     config_.out_dir.c_str(),
                                     ec.message().c_str()));
  }
  // Fresh run: the promotion log starts at its header and the day-report
  // stream starts empty. Records only ever append afterwards.
  const std::string log_path = config_.out_dir + "/" + kPromotionLogFile;
  {
    std::ofstream out(log_path, std::ios::trunc | std::ios::binary);
    out << StrFormat("%s %d\n", kPromotionLogMagic, kPromotionLogVersion);
    if (!out) return Status::IoError("cannot write " + log_path);
  }
  const std::string reports_path = config_.out_dir + "/" + kDayReportsFile;
  {
    std::ofstream out(reports_path, std::ios::trunc | std::ios::binary);
    if (!out) return Status::IoError("cannot write " + reports_path);
  }
  artifacts_ready_ = true;
  return Status::OK();
}

Status LifecycleDriver::AppendArtifactLine(const std::string& file,
                                           const std::string& line) {
  if (config_.out_dir.empty()) return Status::OK();
  const std::string path = config_.out_dir + "/" + file;
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << line;
  if (!out) return Status::IoError("cannot append to " + path);
  return Status::OK();
}

void LifecycleDriver::AdoptIncumbent(
    std::shared_ptr<const core::PipelineBundle> bundle, int day) {
  incumbent_ = std::move(bundle);
  engine_ = std::make_unique<core::DecisionEngine>(incumbent_, config_.metrics);
  // A fresh arm restarts the template cache empty: cached decisions were
  // made by the previous model and must not serve the new one.
  serving_arm_ = std::make_unique<core::DecisionArm>(engine_.get(), config_.fleet);
  trained_on_day_ = day;
}

Result<std::vector<double>> LifecycleDriver::WindowCosts(
    const std::vector<std::shared_ptr<const core::PipelineBundle>>& bundles,
    const telemetry::WorkloadRepository& repo, int day, int window_first) const {
  std::vector<std::unique_ptr<core::DecisionEngine>> engines;
  std::vector<const core::DecisionEngine*> arms;
  for (const auto& bundle : bundles) {
    engines.push_back(std::make_unique<core::DecisionEngine>(bundle));
    arms.push_back(engines.back().get());
  }
  std::vector<double> sums(bundles.size(), 0.0);
  std::vector<size_t> counts(bundles.size(), 0);
  for (int d = window_first; d <= day; ++d) {
    if (!repo.HasDay(d)) continue;
    // One pass over the day's jobs costs every bundle: the stats view and
    // the per-job generation work are shared across arms.
    const double mtbf =
        config_.mtbf_factor ? config_.mtbf_seconds / config_.mtbf_factor(d)
                            : config_.mtbf_seconds;
    PHOEBE_ASSIGN_OR_RETURN(
        std::vector<RunningStats> day_stats,
        core::EvaluateApproachArms(arms, repo.Day(d), repo.StatsBefore(d),
                                   core::Approach::kMlStacked,
                                   config_.fleet.objective, mtbf));
    for (size_t k = 0; k < bundles.size(); ++k) {
      sums[k] += day_stats[k].sum();
      counts[k] += day_stats[k].count();
    }
  }
  std::vector<double> costs(bundles.size(), 1.0);
  for (size_t k = 0; k < bundles.size(); ++k) {
    if (counts[k] == 0) continue;  // nothing eligible: no saving captured
    const double cost = 1.0 - sums[k] / static_cast<double>(counts[k]);
    costs[k] = std::min(1.0, std::max(0.0, cost));
  }
  return costs;
}

Result<LifecycleDayReport> LifecycleDriver::OnDayCompleted(
    telemetry::WorkloadRepository* repo, int day) {
  PHOEBE_RETURN_NOT_OK(config_status_);
  if (day <= last_day_) {
    return Status::InvalidArgument(StrFormat(
        "days must arrive in increasing order (%d after %d)", day, last_day_));
  }
  if (!repo->HasDay(day)) {
    return Status::NotFound(StrFormat("day %d not in repository", day));
  }
  PHOEBE_RETURN_NOT_OK(InitArtifacts());
  last_day_ = day;

  obs::ScopedTimer day_timer(metrics_.day_seconds);
  const std::vector<workload::JobInstance>& jobs = repo->Day(day);

  LifecycleDayReport report;
  report.day = day;
  report.jobs = static_cast<int>(jobs.size());
  report.model_age_days = trained_on_day_ < 0 ? -1 : day - trained_on_day_;

  // 1. The incumbent serves the day (decide + admit under the fleet config).
  if (incumbent_->trained()) {
    const telemetry::HistoricStats stats = repo->StatsBefore(day);
    PHOEBE_ASSIGN_OR_RETURN(core::FleetDayReport fleet_report,
                            serving_arm_->RunDay(core::DayContext(day, jobs, stats)));
    report.served = true;
    report.jobs_with_cut = fleet_report.jobs_with_cut;
    report.jobs_admitted = fleet_report.jobs_admitted;
    report.saving_fraction = fleet_report.SavingFraction();
    // 2. Measure its accuracy on the day — the Figure 8 drift signal.
    report.exec_r2 = EvaluateExecR2(incumbent_->exec_predictor(), *repo, day);
    obs::Set(metrics_.exec_r2, report.exec_r2);
  }
  obs::Set(metrics_.model_age, static_cast<double>(report.model_age_days));

  // 3. Retrain trigger: bootstrap | accuracy decay | age.
  if (!incumbent_->trained()) {
    if (day + 1 >= config_.policy.min_history_days) report.reason = "bootstrap";
  } else if (report.exec_r2 < config_.policy.min_exec_r2) {
    report.reason = "accuracy";
  } else if (report.model_age_days >= config_.policy.max_age_days) {
    report.reason = "age";
  }

  if (!report.reason.empty()) {
    report.retrained = true;
    obs::Increment(metrics_.retrains);
    const bool bootstrap = !incumbent_->trained();
    report.incumbent_checksum = incumbent_->checksum();

    // 4. Train the candidate on the trailing train window.
    std::shared_ptr<const core::PipelineBundle> candidate;
    {
      obs::ScopedTimer t(metrics_.train_seconds);
      core::PhoebePipeline trainer(config_.candidate_pipeline
                                       ? *config_.candidate_pipeline
                                       : config_.pipeline);
      const int first = std::max(0, day - config_.policy.train_window_days + 1);
      PHOEBE_RETURN_NOT_OK(trainer.Train(*repo, first, day - first + 1));
      candidate = trainer.bundle();
    }
    report.candidate_checksum = candidate->checksum();

    // 5. Canary backtest: both bundles replay the trailing window as two
    // arms of one pass, cost = 1 - mean realized saving. The bootstrap
    // candidate has no incumbent to beat and is promoted unconditionally
    // (cost recorded for the audit trail; the incumbent side keeps the -1
    // "not measured" sentinel).
    const int window_first = std::max(0, day - config_.backtest_window_days + 1);
    {
      obs::ScopedTimer t(metrics_.backtest_seconds);
      std::vector<std::shared_ptr<const core::PipelineBundle>> bundles;
      if (!bootstrap) bundles.push_back(incumbent_);
      bundles.push_back(candidate);
      PHOEBE_ASSIGN_OR_RETURN(std::vector<double> costs,
                              WindowCosts(bundles, *repo, day, window_first));
      if (!bootstrap) report.incumbent_cost = costs.front();
      report.candidate_cost = costs.back();
    }
    const bool promote =
        bootstrap || report.candidate_cost < report.incumbent_cost;
    report.verdict = promote ? "promoted" : "rejected";

    // 6. Shadow the rollover: incumbent and candidate run as two decision
    // arms over one shared DayContext, and the diff consumes the paired
    // decisions. Runs before any swap so both sides decide under their own
    // model.
    if (config_.shadow && !bootstrap) {
      obs::ScopedTimer t(metrics_.shadow_seconds);
      const telemetry::HistoricStats stats = repo->StatsBefore(day);
      const core::DayContext ctx(day, jobs, stats);
      core::DecisionEngine candidate_engine(candidate);
      core::FleetConfig shadow_config = config_.fleet;
      shadow_config.metrics = nullptr;  // shadow traffic must not pollute fleet.*
      core::DecisionArm candidate_arm(&candidate_engine, shadow_config);
      // The serving arm decides the same context (DecideDay is const: no
      // cache interaction, so serving state is untouched).
      PHOEBE_ASSIGN_OR_RETURN(core::FleetDayDecisions incumbent_decisions,
                              serving_arm_->DecideDay(ctx));
      PHOEBE_ASSIGN_OR_RETURN(core::FleetDayDecisions candidate_decisions,
                              candidate_arm.DecideDay(ctx));
      PHOEBE_ASSIGN_OR_RETURN(
          ShadowDayDiff diff,
          DiffShadowDecisions(day, incumbent_->checksum(), candidate->checksum(),
                              incumbent_decisions, candidate_decisions));
      report.shadow_jobs = diff.jobs;
      report.shadow_differing = diff.differing;
      obs::Add(metrics_.shadow_jobs, diff.jobs);
      obs::Add(metrics_.shadow_diffs, diff.differing);
      if (!config_.out_dir.empty()) {
        PHOEBE_RETURN_NOT_OK(
            AppendArtifactLine(StrFormat("shadow_day_%03d.diff", day), diff.text));
      }
      shadow_diffs_.push_back(std::move(diff));
    }

    // 7. One CRC-checked promotion record either way.
    PromotionRecord record;
    record.day = day;
    record.window_first = window_first;
    record.window_last = day;
    record.incumbent_checksum = report.incumbent_checksum;
    record.candidate_checksum = report.candidate_checksum;
    record.incumbent_cost = report.incumbent_cost;
    record.candidate_cost = report.candidate_cost;
    record.reason = report.reason;
    record.verdict = report.verdict;
    PHOEBE_RETURN_NOT_OK(
        AppendArtifactLine(kPromotionLogFile, SerializePromotionRecord(record)));
    promotion_records_.push_back(std::move(record));

    if (promote) {
      obs::Increment(metrics_.promotions);
      if (!config_.out_dir.empty()) {
        // Immutable versioned artifact plus the stable serving path; the
        // atomic save means a racing `phoebe serve` reload of current.phoebe
        // sees old bytes or new bytes, never a torn file.
        PHOEBE_RETURN_NOT_OK(candidate->SaveToFile(
            config_.out_dir + "/" +
            StrFormat("bundle_day_%03d_%s.phoebe", day,
                      HexChecksum(candidate->checksum()).c_str())));
        PHOEBE_RETURN_NOT_OK(
            candidate->SaveToFile(config_.out_dir + "/" + kCurrentBundleFile));
      }
      AdoptIncumbent(std::move(candidate), day);
    } else {
      obs::Increment(metrics_.rejections);
    }
  }

  // 8. Bounded retention: drop repository days the deepest window has
  // outgrown.
  if (config_.retention_days > 0) {
    const size_t evicted = repo->EvictDaysBefore(day - config_.retention_days + 1);
    obs::Add(metrics_.evicted_days, static_cast<int64_t>(evicted));
  }

  obs::Increment(metrics_.days);
  obs::Add(metrics_.jobs, report.jobs);
  PHOEBE_RETURN_NOT_OK(
      AppendArtifactLine(kDayReportsFile, LifecycleDayReportJson(report) + "\n"));
  history_.push_back(report);
  return report;
}

}  // namespace phoebe::lifecycle
