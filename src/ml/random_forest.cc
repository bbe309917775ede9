#include "ml/random_forest.h"

#include <cmath>

#include "util/stats.h"

namespace autofp {

void RandomForestRegressor::Train(const Matrix& features,
                                  const std::vector<double>& targets) {
  // Column ranks and the target order are computed once here and shared
  // by every tree, so no tree node sorts by value.
  RegressionTrainingSet data(features, targets);
  trees_.clear();
  Rng rng(config_.seed);
  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features <= 0) {
    tree_config.max_features = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(features.cols()))));
  }
  const size_t n = features.rows();
  for (int t = 0; t < config_.num_trees; ++t) {
    std::vector<size_t> bootstrap(n);
    for (size_t i = 0; i < n; ++i) bootstrap[i] = rng.UniformIndex(n);
    DecisionTreeRegressor tree(tree_config);
    Rng tree_rng = rng.Fork();
    tree.TrainOnRows(data, bootstrap, &tree_rng);
    trees_.push_back(std::move(tree));
  }
}

double RandomForestRegressor::Predict(const double* row, size_t cols) const {
  return PredictWithUncertainty(row, cols).mean;
}

RandomForestRegressor::Prediction
RandomForestRegressor::PredictWithUncertainty(const double* row,
                                              size_t cols) const {
  AUTOFP_CHECK(trained()) << "Predict before Train";
  std::vector<double> outputs;
  outputs.reserve(trees_.size());
  for (const DecisionTreeRegressor& tree : trees_) {
    outputs.push_back(tree.Predict(row, cols));
  }
  Prediction prediction;
  MeanStd stats = ComputeMeanStd(outputs);
  prediction.mean = stats.mean;
  prediction.stddev = stats.stddev;
  return prediction;
}

}  // namespace autofp
