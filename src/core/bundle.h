// PipelineBundle: the versioned, immutable artifact that separates Phoebe's
// train time from its decide time.
//
// Phoebe is a compile-time optimizer (paper Figure 4): once the stage-cost
// models, the TTL stacker, and the optimizer configuration are trained,
// every job decision is a pure function of (frozen artifacts, job DAG,
// features). The bundle is that frozen state as one value: the full
// PipelineConfig (so the exact predictor architecture is reconstructed on
// load), the three trained model stacks, and the inference-time historic
// statistics snapshot. `phoebe train --out` serializes it to a single file;
// `DecisionEngine` serves decisions from a loaded bundle through const
// methods only — the compiler, not a comment, enforces const-after-Train.
//
// File format (text, single file):
//
//   | section   | contents                                                 |
//   |-----------|----------------------------------------------------------|
//   | magic     | `PHOEBEBUNDLE <format-version>`                          |
//   | checksum  | `checksum <crc32 hex>` over every byte after this line   |
//   | config    | `config <nbytes>` + key/value lines for every            |
//   |           | PipelineConfig field (predictor kinds, feature groups,   |
//   |           | GBDT/MLP hyperparameters, TTL stacker, delta)            |
//   | exec      | `section exec <nbytes>` + StageCostPredictor::ToText     |
//   | size      | `section size <nbytes>` + StageCostPredictor::ToText     |
//   | ttl       | `section ttl <nbytes>` + TtlEstimator::ToText            |
//   | stats     | `section stats <nbytes>` + HistoricStats::ToText         |
//   | trailer   | `end_bundle`                                             |
//
// Sections are byte-length framed, every numeric token goes through the
// strict parsers in common/strings.h, and the checksum gates the payload, so
// a truncated or corrupted file surfaces as a clean Status error
// (fuzz_bundle_test pins that contract under ASan/UBSan). Doubles are
// serialized with %.17g, which round-trips bit-exactly — a loaded bundle
// decides bit-identically to the in-memory pipeline that saved it
// (core_bundle_test pins this for every ModelKind).
#pragma once

#include <memory>
#include <string>

#include "core/predictors.h"
#include "core/ttl.h"
#include "obs/metrics.h"
#include "telemetry/repository.h"

namespace phoebe::core {

/// \brief Which cost inputs feed the optimizer — the Figure 12/14 variants.
enum class CostSource {
  kTruth,               ///< Optimal: true outputs/TTL/schedule (offline oracle)
  kOptimizerEstimates,  ///< OP: raw query-optimizer estimates + simulator
  kConstant,            ///< OCC: constant per-stage costs + simulator
  kMlSimulator,         ///< OML: ML cost models + simulator TTL
  kMlStacked,           ///< OMLS: ML cost models + stacking-model TTL
};

/// \brief Checkpoint objective to optimize.
enum class Objective {
  kTempStorage,  ///< free temp data on hotspots (OptCheck1)
  kRecovery,     ///< fast restart of failed jobs (OptCheck2)
};

/// \brief Pipeline configuration.
struct PipelineConfig {
  PredictorConfig exec_predictor;
  PredictorConfig size_predictor;
  TtlConfig ttl;
  /// Per-task failure probability delta ~ E[task runtime] / MTBF (eq. 31).
  double delta = 0.0005;
};

/// \brief Immutable trained state of one Phoebe pipeline.
///
/// A bundle never mutates after construction: every accessor is const and
/// returns const references, so any number of DecisionEngine views (across
/// threads or, via SaveToFile/LoadFromFile, across processes) can serve from
/// one bundle concurrently. An *untrained* bundle (first constructor) exists
/// so the non-ML cost sources (kTruth/kOptimizerEstimates/kConstant) work
/// without training; it cannot be serialized.
class PipelineBundle {
 public:
  static constexpr int kFormatVersion = 1;
  static constexpr const char* kMagic = "PHOEBEBUNDLE";

  /// Untrained bundle: fresh (empty) components under `config`.
  explicit PipelineBundle(PipelineConfig config);

  /// Trained bundle taking ownership of trained components. `checksum()` is
  /// computed eagerly from the serialized form.
  PipelineBundle(PipelineConfig config, std::unique_ptr<StageCostPredictor> exec,
                 std::unique_ptr<StageCostPredictor> size,
                 std::unique_ptr<TtlEstimator> ttl, telemetry::HistoricStats stats);

  PipelineBundle(const PipelineBundle&) = delete;
  PipelineBundle& operator=(const PipelineBundle&) = delete;

  bool trained() const { return trained_; }
  const PipelineConfig& config() const { return config_; }
  const StageCostPredictor& exec_predictor() const { return *exec_; }
  const StageCostPredictor& size_predictor() const { return *size_; }
  const TtlEstimator& ttl_estimator() const { return *ttl_; }
  const telemetry::HistoricStats& stats() const { return stats_; }
  double delta() const { return config_.delta; }

  /// CRC-32 of the serialized payload — the same value the `checksum` line
  /// of a saved file carries. Identifies "the same trained state" across
  /// processes (the shard protocol embeds it in every shard blob). 0 when
  /// untrained.
  uint32_t checksum() const { return checksum_; }

  /// Serialize to the single-file text format. Fails when untrained.
  Result<std::string> ToText() const;
  /// Parse + verify a serialized bundle: magic, format version, checksum,
  /// section framing, then the model/stats payloads. Any malformed input
  /// yields an error Status (never a crash; see fuzz_bundle_test).
  static Result<std::shared_ptr<const PipelineBundle>> FromText(const std::string& text);

  /// Save/load the serialized form. The save is atomic (temp file + rename),
  /// so a reader racing the write — a serve daemon reloading the path a
  /// lifecycle promotion just replaced — sees the old bytes or the new
  /// bytes, never a truncated file. `metrics` (optional, borrowed) records
  /// bundle.save/load.seconds and bundle.file.bytes; null = metrics off.
  Status SaveToFile(const std::string& path,
                    obs::MetricsRegistry* metrics = nullptr) const;
  static Result<std::shared_ptr<const PipelineBundle>> LoadFromFile(
      const std::string& path, obs::MetricsRegistry* metrics = nullptr);

 private:
  PipelineConfig config_;
  std::unique_ptr<StageCostPredictor> exec_;
  std::unique_ptr<StageCostPredictor> size_;
  std::unique_ptr<TtlEstimator> ttl_;
  telemetry::HistoricStats stats_;
  bool trained_ = false;
  uint32_t checksum_ = 0;
};

}  // namespace phoebe::core
