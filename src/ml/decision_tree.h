#ifndef AUTOFP_ML_DECISION_TREE_H_
#define AUTOFP_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/model.h"
#include "util/random.h"

namespace autofp {

/// Shared CART growth limits.
struct TreeConfig {
  int max_depth = -1;             ///< -1 = unlimited.
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// If > 0, consider only this many randomly chosen features per split
  /// (random-forest mode). Requires an Rng at train time.
  int max_features = -1;
};

/// Binary CART decision tree, gini impurity. Used by the Table 1
/// meta-rule experiment, the landmarking meta-features and tests.
class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(const TreeConfig& config)
      : config_(config) {}
  DecisionTreeClassifier() : DecisionTreeClassifier(TreeConfig{}) {}

  void Train(const Matrix& features, const std::vector<int>& labels,
             int num_classes) override;

  /// Random-forest variant: trains on the given row subset considering
  /// `config.max_features` random features per split.
  void TrainOnRows(const Matrix& features, const std::vector<int>& labels,
                   int num_classes, const std::vector<size_t>& rows,
                   Rng* rng);

  int Predict(const double* row, size_t cols) const override;
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<DecisionTreeClassifier>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  size_t num_nodes() const { return nodes_.size(); }
  int depth() const;

 private:
  struct Node {
    int feature = -1;        ///< -1 for leaves.
    double threshold = 0.0;  ///< go left if value <= threshold.
    int left = -1;
    int right = -1;
    int label = 0;           ///< majority class (leaves).
  };

  int Build(const Matrix& features, const std::vector<int>& labels,
            int num_classes, std::vector<size_t>* rows, int depth, Rng* rng);

  TreeConfig config_;
  std::vector<Node> nodes_;
};

/// A regression training set prepared once for many tree fits: every
/// column's values as dense ranks (values that compare equal, -0.0 and
/// +0.0 included, share a rank) and the row indices stably sorted by
/// target. A forest builds one and fits all its trees on it, so a tree
/// node orders its rows by (value, target) without sorting doubles.
/// Views `features` and `targets`, which must outlive it.
class RegressionTrainingSet {
 public:
  /// CHECK-fails unless every feature and target is finite.
  RegressionTrainingSet(const Matrix& features,
                        const std::vector<double>& targets);

  const Matrix& features() const { return features_; }
  const std::vector<double>& targets() const { return targets_; }
  size_t rows() const { return targets_.size(); }
  size_t cols() const { return levels_.size(); }
  /// Column `col`'s dense ranks, indexed by row, each in [0, levels(col)).
  const uint32_t* ranks(size_t col) const {
    return ranks_.data() + col * rows();
  }
  /// Number of distinct values in column `col`.
  uint32_t levels(size_t col) const { return levels_[col]; }
  /// Row indices in ascending target order (ties in row order).
  const std::vector<uint32_t>& by_target() const { return by_target_; }

 private:
  const Matrix& features_;
  const std::vector<double>& targets_;
  std::vector<uint32_t> ranks_;  ///< column-major, rows() per column.
  std::vector<uint32_t> levels_;
  std::vector<uint32_t> by_target_;
};

/// CART regression tree (variance reduction). The base learner of the
/// random-forest surrogate used by SMAC.
class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(const TreeConfig& config)
      : config_(config) {}
  DecisionTreeRegressor() : DecisionTreeRegressor(TreeConfig{}) {}

  void Train(const Matrix& features, const std::vector<double>& targets);

  /// Random-forest variant: fits the bootstrap sample `rows` (row indices
  /// of `data`, in draw order, repeats allowed) with per-split feature
  /// subsampling drawn from `rng`.
  void TrainOnRows(const RegressionTrainingSet& data,
                   const std::vector<size_t>& rows, Rng* rng);

  double Predict(const double* row, size_t cols) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;  ///< mean target (leaves).
  };
  struct Workspace;

  /// Grows the subtree over entries [begin, end) of the workspace's
  /// `rows` / `by_target` ranges; returns its root's node index.
  int Build(const RegressionTrainingSet& data, Workspace* work, size_t begin,
            size_t end, int depth, Rng* rng);

  TreeConfig config_;
  std::vector<Node> nodes_;
};

}  // namespace autofp

#endif  // AUTOFP_ML_DECISION_TREE_H_
