#include "ml/model.h"

#include <numeric>

namespace phoebe::ml {

std::vector<double> Regressor::PredictBatch(const FeatureMatrix& x) const {
  std::vector<size_t> rows(x.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::vector<double> out;
  PredictRowsInto(x, rows, &out);
  return out;
}

}  // namespace phoebe::ml
