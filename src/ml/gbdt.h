#ifndef AUTOFP_ML_GBDT_H_
#define AUTOFP_ML_GBDT_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace autofp {

/// Gradient-boosted decision trees in the XGBoost style: second-order
/// (gradient/hessian) boosting of histogram-split regression trees, with
/// L2-regularized leaf weights. Binary problems use a single sigmoid logit
/// per round; multi-class trains one tree per class per round (softmax).
/// Tree-based and therefore largely invariant to monotone feature scaling —
/// the contrast the paper's XGB results rely on.
class GbdtClassifier : public Classifier {
 public:
  explicit GbdtClassifier(const ModelConfig& config) : config_(config) {
    AUTOFP_CHECK(config.kind == ModelKind::kXgboost);
  }

  /// CHECK-fails on a NaN feature: the split search bins it as the lowest
  /// value while Tree::Predict sends it right.
  void Train(const Matrix& features, const std::vector<int>& labels,
             int num_classes) override;
  int Predict(const double* row, size_t cols) const override;
  std::vector<int> PredictBatch(const Matrix& features) const override;
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GbdtClassifier>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  /// Raw additive scores (1 logit for binary, k for multi-class).
  std::vector<double> RawScores(const double* row, size_t cols) const;

  size_t num_trees() const { return trees_.size(); }

 private:
  struct TreeNode {
    int feature = -1;        ///< -1 = leaf.
    double threshold = 0.0;  ///< go left if value <= threshold.
    int left = -1;
    int right = -1;
    double weight = 0.0;     ///< leaf output.
  };
  struct Tree {
    std::vector<TreeNode> nodes;
    double Predict(const double* row) const;
  };

  /// The binned training matrix and the fit's scratch, built once per
  /// Train call and shared by all its trees (defined in gbdt.cc).
  struct FitData;

  /// Grows one regression tree on (grad, hess) over `data`'s binned rows
  /// and adds each training row's leaf weight to scores[row * stride].
  Tree BuildTree(FitData* data, const double* grad, const double* hess,
                 double* scores, size_t stride) const;

  ModelConfig config_;
  int num_classes_ = 0;
  int num_outputs_ = 0;  ///< 1 for binary, num_classes otherwise.
  size_t num_features_ = 0;
  double base_score_ = 0.0;
  /// trees_[round * num_outputs_ + output].
  std::vector<Tree> trees_;
};

}  // namespace autofp

#endif  // AUTOFP_ML_GBDT_H_
