// LifecycleDriver: the simulated-production continuous-operation loop.
//
// The paper's Phoebe runs as a loop, not a batch job (§6.4): telemetry
// accumulates day by day in the workload repository, models are retrained
// as their accuracy decays (Figure 8), and a new model replaces the old one
// only after it proves itself on recent history. This driver is that loop
// over the repo's existing pieces:
//
//   day d completes
//     ├─ the incumbent bundle serves the day's decisions (a DecisionArm,
//     │  threads + template cache, budget-free admission)
//     ├─ the incumbent's exec R^2 on the day is measured (EvaluateExecR2 —
//     │  the Figure 8 accuracy-decay signal)
//     ├─ RetrainPolicy decides: bootstrap | accuracy decay | age → train a
//     │  *candidate* PipelineBundle on the trailing train window
//     ├─ canary backtest: incumbent and candidate decide the trailing
//     │  backtest window as two arms of one pass (EvaluateApproachArms),
//     │  cost = 1 - mean realized saving; the candidate is promoted only on
//     │  a strictly lower cost
//     ├─ shadow mode (optional): incumbent and candidate run as two
//     │  DecisionArms over the day's shared DayContext; their would-be
//     │  decisions are serialized as shard-blob job records and byte-diffed
//     │  (lifecycle/shadow.h — a paired-arm report consumer)
//     └─ one CRC-checked record is appended to the promotion log either way
//
// Determinism contract: every artifact the loop emits — the promotion log,
// the shadow diffs, the per-day report JSON — is byte-identical for any
// FleetConfig::num_threads and for the exact-mode template cache on or off
// (lifecycle_determinism_test pins both axes). Promotion decisions flow only
// from backtests and training, which never touch the cache or the pool.
//
// On promotion with an `out_dir`, the new bundle is saved both as an
// immutable versioned artifact (`bundle_day_<ddd>_<crc8>.phoebe`) and
// atomically over `current.phoebe` — the stable path a `phoebe serve`
// daemon watches; SIGHUP it (or send a reload frame) and it picks the
// promoted bundle up without dropping a request.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluate.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "lifecycle/promotion_log.h"
#include "lifecycle/shadow.h"
#include "obs/metrics.h"
#include "telemetry/repository.h"

namespace phoebe::lifecycle {

/// \brief When to retrain.
struct RetrainPolicy {
  double min_exec_r2 = 0.70;   ///< retrain if held-out exec R^2 drops below
  int max_age_days = 7;        ///< retrain at least this often
  int train_window_days = 5;   ///< days of history per training run
  int min_history_days = 2;    ///< wait for this much history before training

  Status Validate() const;
};

/// Held-out R^2 of `exec` on `day`'s stage runtimes, featurized against the
/// historic stats available strictly before `day` — the accuracy-decay
/// signal of Figure 8 that triggers an accuracy retrain.
double EvaluateExecR2(const core::StageCostPredictor& exec,
                      const telemetry::WorkloadRepository& repo, int day);

/// \brief Knobs for the continuous-operation loop.
struct LifecycleConfig {
  /// When to retrain (accuracy decay / age / bootstrap) and how much history
  /// each training run sees.
  RetrainPolicy policy;
  /// Trailing days (ending at the retrain day) both bundles are backtested
  /// on for the canary comparison.
  int backtest_window_days = 3;
  /// Cluster MTBF for the recovery objective's failure model.
  double mtbf_seconds = 12 * 3600.0;
  /// Optional per-day failure-rate multiplier: day d's canary backtest
  /// divides mtbf_seconds by mtbf_factor(d) (a failure-storm scenario spikes
  /// this over its window). Null means 1.0 everywhere. Must return a finite
  /// positive value for every day it is asked about.
  std::function<double(int)> mtbf_factor;
  /// Day-serving configuration: objective, cuts, threads, template cache.
  /// The storage budget must stay unlimited (admission calibration is not
  /// wired into the loop), and the source must be kMlStacked — the only
  /// source the canary backtest compares.
  core::FleetConfig fleet;
  /// Architecture of the incumbent (and, absent the override below, every
  /// candidate).
  core::PipelineConfig pipeline = core::PhoebePipeline::DefaultConfig();
  /// Canary a *different* architecture: candidates train under this config
  /// while the incumbent keeps its own. The promotion gate then answers
  /// "is the new architecture actually better on our traffic" — and keeps
  /// serving the old one when it is not.
  std::optional<core::PipelineConfig> candidate_pipeline;
  /// Record + byte-diff the candidate's would-be decisions for the retrain
  /// day (lifecycle/shadow.h). Off by default: it costs one extra
  /// decide-phase pass per retrain.
  bool shadow = false;
  /// Evict repository days older than this after each completed day
  /// (0 = keep everything). Must cover the deepest lookback window.
  int retention_days = 0;
  /// Artifact directory: promotion.log, day_reports.jsonl, shadow diffs,
  /// versioned bundles, current.phoebe. Empty = in-memory only (tests).
  std::string out_dir;
  /// Optional observability registry (borrowed; must outlive the driver).
  /// Strictly passive: artifacts are byte-identical with metrics on or off.
  obs::MetricsRegistry* metrics = nullptr;

  Status Validate() const;
};

/// \brief Everything that happened on one simulated day.
struct LifecycleDayReport {
  int day = 0;
  int jobs = 0;
  bool served = false;  ///< incumbent was trained and decided the day
  int jobs_with_cut = 0;
  int jobs_admitted = 0;
  double saving_fraction = 0.0;  ///< realized, fleet-wide (0 when not served)
  double exec_r2 = 0.0;          ///< incumbent accuracy on the day (served only)
  int model_age_days = -1;       ///< -1 until an incumbent exists
  bool retrained = false;
  std::string reason;            ///< "", bootstrap|accuracy|age
  /// Canary outcome, meaningful iff retrained.
  uint32_t incumbent_checksum = 0;
  uint32_t candidate_checksum = 0;
  double incumbent_cost = -1.0;
  double candidate_cost = -1.0;
  std::string verdict;           ///< "", promoted|rejected
  /// Shadow outcome, meaningful iff a shadow diff ran this day.
  int shadow_jobs = 0;
  int shadow_differing = 0;
};

/// Canonical single-line JSON rendering of a day report — the byte-compared
/// unit of the lifecycle determinism contract (key order fixed, doubles as
/// %.17g; template-cache traffic is deliberately absent so exact-cache and
/// uncached runs render identically). Ends without a newline.
std::string LifecycleDayReportJson(const LifecycleDayReport& report);

/// \brief Drives the retrain → canary backtest → promote/reject loop.
class LifecycleDriver {
 public:
  explicit LifecycleDriver(LifecycleConfig config);

  /// Process the freshly completed `day`, which must already be stored in
  /// `*repo` along with the surviving history. Days must arrive in strictly
  /// increasing order. The repository is mutated only by retention eviction
  /// (LifecycleConfig::retention_days).
  Result<LifecycleDayReport> OnDayCompleted(telemetry::WorkloadRepository* repo,
                                            int day);

  bool deployed() const { return incumbent_->trained(); }
  int trained_on_day() const { return trained_on_day_; }
  uint32_t incumbent_checksum() const { return incumbent_->checksum(); }
  std::shared_ptr<const core::PipelineBundle> incumbent() const {
    return incumbent_;
  }

  const std::vector<PromotionRecord>& promotion_records() const {
    return promotion_records_;
  }
  const std::vector<LifecycleDayReport>& history() const { return history_; }
  const std::vector<ShadowDayDiff>& shadow_diffs() const { return shadow_diffs_; }

 private:
  /// Resolved once at construction; all null when metrics are off.
  struct Metrics {
    obs::Counter* days = nullptr;          ///< lifecycle.days
    obs::Counter* jobs = nullptr;          ///< lifecycle.jobs
    obs::Counter* retrains = nullptr;      ///< lifecycle.retrains
    obs::Counter* promotions = nullptr;    ///< lifecycle.promotions
    obs::Counter* rejections = nullptr;    ///< lifecycle.rejections
    obs::Counter* shadow_jobs = nullptr;   ///< lifecycle.shadow.jobs
    obs::Counter* shadow_diffs = nullptr;  ///< lifecycle.shadow.diffs
    obs::Counter* evicted_days = nullptr;  ///< lifecycle.evicted.days
    obs::Histogram* day_seconds = nullptr;       ///< lifecycle.day.seconds
    obs::Histogram* train_seconds = nullptr;     ///< lifecycle.train.seconds
    obs::Histogram* backtest_seconds = nullptr;  ///< lifecycle.backtest.seconds
    obs::Histogram* shadow_seconds = nullptr;    ///< lifecycle.shadow.seconds
    obs::Gauge* exec_r2 = nullptr;         ///< lifecycle.exec_r2
    obs::Gauge* model_age = nullptr;       ///< lifecycle.model.age_days
  };

  /// Lazy out_dir setup: create the directory, truncate promotion.log to its
  /// header and day_reports.jsonl to empty. No-op without an out_dir.
  Status InitArtifacts();
  Status AppendArtifactLine(const std::string& file, const std::string& line);

  /// Re-seat the serving side on `bundle` (fresh engine + decision arm; the
  /// template cache restarts empty — entries decided under the old model
  /// must not serve the new one).
  void AdoptIncumbent(std::shared_ptr<const core::PipelineBundle> bundle, int day);

  /// Mean trailing-window cost (1 - realized saving) of each bundle over the
  /// backtest window ending at `day`, entry k for bundle k. One window pass
  /// evaluates every bundle (core::EvaluateApproachArms), so the canary
  /// costs incumbent and candidate against identical inputs with one
  /// generation pass instead of one per bundle.
  Result<std::vector<double>> WindowCosts(
      const std::vector<std::shared_ptr<const core::PipelineBundle>>& bundles,
      const telemetry::WorkloadRepository& repo, int day, int window_first) const;

  LifecycleConfig config_;
  Status config_status_;
  Metrics metrics_;
  bool artifacts_ready_ = false;

  std::shared_ptr<const core::PipelineBundle> incumbent_;
  std::unique_ptr<core::DecisionEngine> engine_;
  std::unique_ptr<core::DecisionArm> serving_arm_;
  int trained_on_day_ = -1;
  int last_day_ = -1;

  std::vector<PromotionRecord> promotion_records_;
  std::vector<LifecycleDayReport> history_;
  std::vector<ShadowDayDiff> shadow_diffs_;
};

}  // namespace phoebe::lifecycle
