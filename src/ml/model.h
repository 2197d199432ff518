// Common interface for all regressors in the ML substrate.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"

namespace phoebe::ml {

/// \brief Abstract regression model: fit on a Dataset, predict per row.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Train on `data`. Implementations must be deterministic given their seed.
  virtual Status Fit(const Dataset& data) = 0;

  /// Predict one row (length must equal the training feature count).
  virtual double Predict(std::span<const double> features) const = 0;

  /// Predict all rows of a matrix: PredictRowsInto over every row, so it
  /// holds the same bit-equality contract.
  std::vector<double> PredictBatch(const FeatureMatrix& x) const;

  /// Predict an explicit row subset into a caller-owned buffer: `out` is
  /// resized to `rows.size()` and `(*out)[k]` equals `Predict(x.Row(rows[k]))`
  /// bit for bit — same model, same row, same double, whatever the blocking
  /// (the batch-inference property tests pin this for every learner). This
  /// is the one inference kernel and the zero-steady-state-allocation serving
  /// entry point: implementations may only touch caller-owned or per-thread
  /// buffers, so a warm caller reusing `out` triggers no heap traffic.
  virtual void PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                               std::vector<double>* out) const = 0;

  /// True once Fit succeeded.
  virtual bool fitted() const = 0;
};

}  // namespace phoebe::ml
