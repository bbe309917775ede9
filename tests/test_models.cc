#include "ml/model.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/run_journal.h"
#include "data/synthetic.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/knn.h"
#include "ml/lda.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "util/random.h"

namespace autofp {
namespace {

/// Linearly separable 2-class blobs.
Dataset Blobs(size_t n, int classes, uint64_t seed, double separation = 4.0) {
  SyntheticSpec spec;
  spec.name = "blobs";
  spec.family = SyntheticFamily::kScaledBlobs;
  spec.rows = n;
  spec.cols = 6;
  spec.num_classes = classes;
  spec.seed = seed;
  spec.separation = separation;
  spec.label_noise = 0.0;
  return GenerateSynthetic(spec);
}

/// Scaled-to-unit version of the same blobs (kind to LR/MLP).
Dataset NormalizedBlobs(size_t n, int classes, uint64_t seed) {
  Dataset d = Blobs(n, classes, seed);
  for (size_t c = 0; c < d.num_cols(); ++c) {
    std::vector<double> column = d.features.Column(c);
    double mean = 0.0, sq = 0.0;
    for (double v : column) mean += v;
    mean /= column.size();
    for (double v : column) sq += (v - mean) * (v - mean);
    double stddev = std::sqrt(sq / column.size());
    if (stddev == 0.0) stddev = 1.0;
    for (double& v : column) v = (v - mean) / stddev;
    d.features.SetColumn(c, column);
  }
  return d;
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1, 1}, {1, 0, 0, 1}), 0.75);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

class DownstreamModels : public ::testing::TestWithParam<ModelKind> {};

TEST_P(DownstreamModels, LearnsSeparableBinary) {
  Dataset train = NormalizedBlobs(300, 2, 21);
  Dataset test = NormalizedBlobs(100, 2, 21);  // same distribution.
  auto model = MakeClassifier(ModelConfig::Defaults(GetParam()));
  model->Train(train.features, train.labels, 2);
  double accuracy = EvaluateAccuracy(*model, test.features, test.labels);
  EXPECT_GT(accuracy, 0.9) << ModelKindName(GetParam());
}

TEST_P(DownstreamModels, LearnsMultiClass) {
  Dataset train = NormalizedBlobs(400, 4, 22);
  auto model = MakeClassifier(ModelConfig::Defaults(GetParam()));
  model->Train(train.features, train.labels, 4);
  double accuracy = EvaluateAccuracy(*model, train.features, train.labels);
  EXPECT_GT(accuracy, 0.85) << ModelKindName(GetParam());
}

TEST_P(DownstreamModels, CloneIsIndependent) {
  Dataset train = NormalizedBlobs(100, 2, 23);
  auto model = MakeClassifier(ModelConfig::Defaults(GetParam()));
  auto clone = model->Clone();
  model->Train(train.features, train.labels, 2);
  // Clone was created before training: it must not be trained.
  clone->Train(train.features, train.labels, 2);
  EXPECT_EQ(clone->PredictBatch(train.features).size(), train.num_rows());
}

TEST_P(DownstreamModels, DeterministicTraining) {
  Dataset train = NormalizedBlobs(150, 3, 24);
  auto a = MakeClassifier(ModelConfig::Defaults(GetParam()));
  auto b = MakeClassifier(ModelConfig::Defaults(GetParam()));
  a->Train(train.features, train.labels, 3);
  b->Train(train.features, train.labels, 3);
  EXPECT_EQ(a->PredictBatch(train.features), b->PredictBatch(train.features));
}

INSTANTIATE_TEST_SUITE_P(Kinds, DownstreamModels,
                         ::testing::Values(ModelKind::kLogisticRegression,
                                           ModelKind::kXgboost,
                                           ModelKind::kMlp),
                         [](const ::testing::TestParamInfo<ModelKind>& info) {
                           return ModelKindName(info.param);
                         });

TEST(LogisticRegression, ScaleSensitivity) {
  // The motivating property of the paper: LR trained on wildly-scaled
  // features underperforms LR trained on standardized features.
  Dataset raw = Blobs(400, 2, 25, 2.0);
  Dataset scaled = NormalizedBlobs(400, 2, 25);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kLogisticRegression);
  auto raw_model = MakeClassifier(config);
  auto scaled_model = MakeClassifier(config);
  raw_model->Train(raw.features, raw.labels, 2);
  scaled_model->Train(scaled.features, scaled.labels, 2);
  double raw_accuracy = EvaluateAccuracy(*raw_model, raw.features, raw.labels);
  double scaled_accuracy =
      EvaluateAccuracy(*scaled_model, scaled.features, scaled.labels);
  EXPECT_GT(scaled_accuracy, raw_accuracy + 0.03);
}

TEST(Gbdt, ScaleInvarianceOfTrees) {
  // Monotone per-feature rescaling should barely change GBDT accuracy.
  Dataset raw = Blobs(400, 2, 26, 2.0);
  Dataset scaled = NormalizedBlobs(400, 2, 26);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  auto raw_model = MakeClassifier(config);
  auto scaled_model = MakeClassifier(config);
  raw_model->Train(raw.features, raw.labels, 2);
  scaled_model->Train(scaled.features, scaled.labels, 2);
  double raw_accuracy = EvaluateAccuracy(*raw_model, raw.features, raw.labels);
  double scaled_accuracy =
      EvaluateAccuracy(*scaled_model, scaled.features, scaled.labels);
  EXPECT_NEAR(raw_accuracy, scaled_accuracy, 0.05);
}

TEST(Gbdt, MoreRoundsFitTighter) {
  Dataset train = NormalizedBlobs(300, 2, 27);
  ModelConfig small = ModelConfig::Defaults(ModelKind::kXgboost);
  small.xgb_rounds = 2;
  ModelConfig large = small;
  large.xgb_rounds = 40;
  auto small_model = MakeClassifier(small);
  auto large_model = MakeClassifier(large);
  small_model->Train(train.features, train.labels, 2);
  large_model->Train(train.features, train.labels, 2);
  EXPECT_GE(EvaluateAccuracy(*large_model, train.features, train.labels),
            EvaluateAccuracy(*small_model, train.features, train.labels));
}

TEST(Gbdt, TreeCountMatchesConfig) {
  Dataset binary = NormalizedBlobs(100, 2, 28);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  config.xgb_rounds = 5;
  GbdtClassifier model(config);
  model.Train(binary.features, binary.labels, 2);
  EXPECT_EQ(model.num_trees(), 5u);  // one tree per round (binary).
  Dataset multi = NormalizedBlobs(100, 3, 29);
  GbdtClassifier multi_model(config);
  multi_model.Train(multi.features, multi.labels, 3);
  EXPECT_EQ(multi_model.num_trees(), 15u);  // rounds * classes.
}

TEST(DecisionTree, PerfectlySplitsAxisAlignedData) {
  Matrix features = {{1.0}, {2.0}, {3.0}, {10.0}, {11.0}, {12.0}};
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  DecisionTreeClassifier tree;
  tree.Train(features, labels, 2);
  EXPECT_EQ(tree.depth(), 1);
  double v0 = 2.0, v1 = 11.5;
  EXPECT_EQ(tree.Predict(&v0, 1), 0);
  EXPECT_EQ(tree.Predict(&v1, 1), 1);
}

TEST(DecisionTree, DepthLimitRespected) {
  Dataset train = NormalizedBlobs(200, 2, 30);
  TreeConfig config;
  config.max_depth = 2;
  DecisionTreeClassifier tree(config);
  tree.Train(train.features, train.labels, 2);
  EXPECT_LE(tree.depth(), 2);
}

TEST(DecisionTree, PureNodeIsLeaf) {
  Matrix features = {{1.0}, {2.0}, {3.0}};
  std::vector<int> labels = {1, 1, 1};
  DecisionTreeClassifier tree;
  tree.Train(features, labels, 2);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(DecisionTreeRegressor, FitsStepFunction) {
  Matrix features = {{0.0}, {1.0}, {2.0}, {10.0}, {11.0}, {12.0}};
  std::vector<double> targets = {5.0, 5.0, 5.0, -3.0, -3.0, -3.0};
  DecisionTreeRegressor tree;
  tree.Train(features, targets);
  double lo = 1.0, hi = 11.0;
  EXPECT_DOUBLE_EQ(tree.Predict(&lo, 1), 5.0);
  EXPECT_DOUBLE_EQ(tree.Predict(&hi, 1), -3.0);
}

TEST(RandomForest, RegressionBeatsMeanBaseline) {
  Rng rng(31);
  Matrix features(200, 3);
  std::vector<double> targets(200);
  for (size_t r = 0; r < 200; ++r) {
    for (size_t c = 0; c < 3; ++c) features(r, c) = rng.Uniform(-1, 1);
    targets[r] = 2.0 * features(r, 0) - features(r, 1) +
                 0.1 * rng.Gaussian();
  }
  RandomForestRegressor forest;
  forest.Train(features, targets);
  double sse = 0.0, sse_mean = 0.0;
  double mean = 0.0;
  for (double t : targets) mean += t;
  mean /= targets.size();
  for (size_t r = 0; r < 200; ++r) {
    double prediction = forest.Predict(features.RowPtr(r), 3);
    sse += (prediction - targets[r]) * (prediction - targets[r]);
    sse_mean += (mean - targets[r]) * (mean - targets[r]);
  }
  EXPECT_LT(sse, 0.3 * sse_mean);
}

TEST(RandomForest, UncertaintyHigherOffDistribution) {
  Rng rng(32);
  Matrix features(150, 1);
  std::vector<double> targets(150);
  for (size_t r = 0; r < 150; ++r) {
    features(r, 0) = rng.Uniform(0.0, 1.0);
    targets[r] = std::sin(6.0 * features(r, 0));
  }
  RandomForestRegressor forest;
  forest.Train(features, targets);
  double inside = 0.5, outside = 5.0;
  auto p_in = forest.PredictWithUncertainty(&inside, 1);
  auto p_out = forest.PredictWithUncertainty(&outside, 1);
  EXPECT_GE(p_out.stddev, 0.0);
  EXPECT_TRUE(std::isfinite(p_in.mean));
}

/// FNV-1a over a double's bytes.
uint64_t HashDouble(uint64_t hash, double value) {
  return Fnv1a64(&value, sizeof(value), hash);
}

/// A seeded surrogate-shaped training set. Column c is, by c % 4:
/// continuous, small-integer, +-0.0-only, or drawn from `levels` values
/// (400: more levels than most nodes have rows). Targets are either
/// multiples of 1/49, as SMAC's errors on a 49-row validation split are,
/// so they tie often, or continuous, so that summing one level's targets
/// in another order would round differently.
void MakeMixedColumns(Rng* rng, size_t rows, size_t cols, size_t levels,
                      bool tied_targets, Matrix* features,
                      std::vector<double>* targets) {
  *features = Matrix(rows, cols);
  targets->assign(rows, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double value = 0.0;
      switch (c % 4) {
        case 0: value = rng->Uniform(-1.0, 1.0); break;
        case 1: value = static_cast<double>(rng->UniformInt(0, 6)); break;
        case 2: value = rng->Bernoulli(0.5) ? -0.0 : 0.0; break;
        default:
          value = static_cast<double>(rng->UniformIndex(levels)) / 7.0 - 20.0;
          break;
      }
      (*features)(r, c) = value;
    }
    (*targets)[r] = tied_targets
                        ? static_cast<double>(rng->UniformIndex(50)) / 49.0
                        : rng->Gaussian();
  }
  // Zeros of both signs next to non-zero levels in one column, so a
  // threshold between a zero and its neighbour is scanned.
  if (cols > 2) {
    for (size_t r = 0; r < rows; r += 3) {
      (*features)(r, 2) = rng->UniformInt(-1, 1);
    }
  }
}

/// A training row with column c moved to the midpoint (a + b) / 2 of two
/// of that column's values: a split threshold when a and b are adjacent
/// in some node, so a threshold one ulp off sends it the other way.
std::vector<double> MidpointQuery(const Matrix& features, Rng* rng) {
  const size_t cols = features.cols();
  const double* row = features.RowPtr(rng->UniformIndex(features.rows()));
  std::vector<double> query(row, row + cols);
  const size_t c = rng->UniformIndex(cols);
  query[c] = (features(rng->UniformIndex(features.rows()), c) +
              features(rng->UniformIndex(features.rows()), c)) /
             2.0;
  return query;
}

// Pins the surrogate SMAC reads to the bit: the mean and stddev of
// PredictWithUncertainty over ~50 seeded forests of mixed column kinds,
// growth limits and feature subsampling, plus one full-feature single
// tree (its predictions and node count), queried at training rows,
// random points and split midpoints. Any change to the tree fit that
// moves a split, a threshold or a leaf mean by one ulp fails here.
TEST(RandomForest, GoldenPredictionsAcrossShapes) {
  uint64_t forest_hash = Fnv1a64(nullptr, 0);
  for (int trial = 0; trial < 48; ++trial) {
    Rng rng(7000 + static_cast<uint64_t>(trial));
    const size_t rows = 20 + rng.UniformIndex(281);
    const size_t cols = 1 + rng.UniformIndex(8);
    Matrix features;
    std::vector<double> targets;
    const size_t levels = rng.Bernoulli(0.5) ? 400 : 24;
    const bool tied_targets = rng.Bernoulli(0.7);
    MakeMixedColumns(&rng, rows, cols, levels, tied_targets, &features,
                     &targets);
    RandomForestRegressor::Config config;
    config.seed = 100 + static_cast<uint64_t>(trial);
    const int kMaxDepths[] = {-1, 3, 6};
    const size_t kMinSamplesLeaf[] = {1, 3, 5};
    config.tree.max_depth = kMaxDepths[trial % 3];
    config.tree.min_samples_leaf = kMinSamplesLeaf[trial / 3 % 3];
    config.tree.max_features = trial % 2 == 0 ? -1 : static_cast<int>(cols);
    RandomForestRegressor forest(config);
    forest.Train(features, targets);
    for (size_t q = 0; q < 48; ++q) {
      std::vector<double> query(cols);
      if (q % 3 == 0) {
        const double* row = features.RowPtr(rng.UniformIndex(rows));
        query.assign(row, row + cols);
      } else if (q % 3 == 1) {
        for (double& v : query) v = rng.Uniform(-21.0, 21.0);
      } else {
        query = MidpointQuery(features, &rng);
      }
      RandomForestRegressor::Prediction prediction =
          forest.PredictWithUncertainty(query.data(), cols);
      forest_hash = HashDouble(forest_hash, prediction.mean);
      forest_hash = HashDouble(forest_hash, prediction.stddev);
    }
  }

  Rng rng(7777);
  Matrix features;
  std::vector<double> targets;
  MakeMixedColumns(&rng, 300, 7, 400, true, &features, &targets);
  DecisionTreeRegressor tree;
  tree.Train(features, targets);
  uint64_t tree_hash = Fnv1a64(nullptr, 0);
  tree_hash = HashCombine(tree_hash, tree.num_nodes());
  for (size_t r = 0; r < features.rows(); ++r) {
    tree_hash = HashDouble(tree_hash, tree.Predict(features.RowPtr(r), 7));
    const std::vector<double> query = MidpointQuery(features, &rng);
    tree_hash = HashDouble(tree_hash, tree.Predict(query.data(), 7));
  }

  EXPECT_EQ(forest_hash, 0x5cd0093fe03eb809ull);
  EXPECT_EQ(tree_hash, 0xba496975bbafd6f4ull);
}

/// A seeded GBDT training set. Column c is, by c % 6: continuous,
/// constant, 2-valued, drawn from 5 tied levels, +-0.0 beside +-1, or a
/// copy of column c / 2, whose gains tie with its source's, so the
/// lower feature must win wherever the two sit in the split scan.
/// Labels follow column 0 with 30% noise.
void MakeGbdtColumns(Rng* rng, size_t rows, size_t cols, int classes,
                     Matrix* features, std::vector<int>* labels) {
  *features = Matrix(rows, cols);
  labels->assign(rows, 0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double value = 0.0;
      switch (c % 6) {
        case 0: value = rng->Uniform(); break;
        case 1: value = 2.5; break;
        case 2: value = rng->Bernoulli(0.4) ? 1.0 : -3.0; break;
        case 3: value = static_cast<double>(rng->UniformInt(0, 4)); break;
        case 4:
          value = rng->Bernoulli(0.5) ? (rng->Bernoulli(0.5) ? -0.0 : 0.0)
                                      : static_cast<double>(
                                            rng->UniformInt(-1, 1));
          break;
        default: value = (*features)(r, c / 2); break;
      }
      (*features)(r, c) = value;
    }
    const int bucket = std::min(
        classes - 1, static_cast<int>((*features)(r, 0) * classes));
    (*labels)[r] = rng->Bernoulli(0.3) ? rng->UniformInt(0, classes - 1)
                                       : bucket;
  }
}

/// FNV-1a over a trained model's SaveState bytes and its RawScores at
/// every training row and at as many rows with one column redrawn.
void HashGbdt(const GbdtClassifier& model, const Matrix& features, Rng* rng,
              uint64_t* state_hash, uint64_t* score_hash) {
  std::ostringstream state;
  model.SaveState(state);
  const std::string bytes = state.str();
  *state_hash = Fnv1a64(bytes.data(), bytes.size(), *state_hash);
  const size_t cols = features.cols();
  for (size_t r = 0; r < features.rows(); ++r) {
    std::vector<double> query(features.RowPtr(r), features.RowPtr(r) + cols);
    for (int pass = 0; pass < 2; ++pass) {
      for (double score : model.RawScores(query.data(), cols)) {
        *score_hash = HashDouble(*score_hash, score);
      }
      query[rng->UniformIndex(cols)] = rng->Uniform(-3.5, 3.5);
    }
  }
}

// Pins the boosted trees to the bit: SaveState and RawScores over seeded
// fits that cover binary, 4- and 10-class labels, constant, 2-valued,
// tied, +-0.0 and duplicated columns, xgb_max_bins {2, 4, 32, 256},
// min_child_weight {0, 1, 10}, depth {1, 4, 8} and a 600-column matrix.
// The hashes were captured before the histogram fit was rewritten; any
// change that moves a split, a threshold or a leaf weight fails here.
// The fit uses no reassociating kernel, so the hashes hold on the SIMD
// and the AUTOFP_DISABLE_SIMD builds alike.
TEST(Gbdt, GoldenTreesAcrossShapes) {
  uint64_t state_hash = Fnv1a64(nullptr, 0);
  uint64_t score_hash = Fnv1a64(nullptr, 0);
  const int kClasses[] = {2, 4, 10};
  const int kMaxBins[] = {2, 4, 32, 256};
  const double kMinChildWeight[] = {0.0, 1.0, 10.0};
  const int kDepth[] = {1, 4, 8};
  for (int trial = 0; trial < 12; ++trial) {
    Rng rng(9100 + static_cast<uint64_t>(trial));
    const size_t rows = 40 + rng.UniformIndex(261);
    const size_t cols = 3 + rng.UniformIndex(12);
    const int classes = kClasses[trial % 3];
    Matrix features;
    std::vector<int> labels;
    MakeGbdtColumns(&rng, rows, cols, classes, &features, &labels);
    ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
    config.xgb_rounds = 4;
    config.xgb_max_bins = kMaxBins[trial % 4];
    config.xgb_min_child_weight = kMinChildWeight[trial / 4 % 3];
    config.xgb_max_depth = kDepth[trial / 3 % 3];
    GbdtClassifier model(config);
    model.Train(features, labels, classes);
    HashGbdt(model, features, &rng, &state_hash, &score_hash);
  }

  Rng rng(9200);
  Matrix wide;
  std::vector<int> labels;
  MakeGbdtColumns(&rng, 150, 600, 4, &wide, &labels);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  config.xgb_rounds = 3;
  GbdtClassifier model(config);
  model.Train(wide, labels, 4);
  HashGbdt(model, wide, &rng, &state_hash, &score_hash);

  EXPECT_EQ(state_hash, 0x9d769582d9f1b51eull);
  EXPECT_EQ(score_hash, 0x19967161c17cbf35ull);
}

TEST(Knn, OneNearestNeighborMemorizes) {
  Dataset train = NormalizedBlobs(100, 2, 33);
  KnnClassifier knn(1);
  knn.Train(train.features, train.labels, 2);
  EXPECT_DOUBLE_EQ(EvaluateAccuracy(knn, train.features, train.labels), 1.0);
}

TEST(Knn, MajorityVote) {
  Matrix features = {{0.0}, {0.1}, {0.2}, {5.0}};
  std::vector<int> labels = {0, 0, 0, 1};
  KnnClassifier knn(3);
  knn.Train(features, labels, 2);
  double query = 0.15;
  EXPECT_EQ(knn.Predict(&query, 1), 0);
}

TEST(NaiveBayes, SeparatesGaussians) {
  Dataset train = NormalizedBlobs(300, 2, 34);
  GaussianNaiveBayes nb;
  nb.Train(train.features, train.labels, 2);
  EXPECT_GT(EvaluateAccuracy(nb, train.features, train.labels), 0.9);
}

TEST(Lda, SeparatesGaussians) {
  Dataset train = NormalizedBlobs(300, 3, 35);
  LdaClassifier lda;
  lda.Train(train.features, train.labels, 3);
  EXPECT_GT(EvaluateAccuracy(lda, train.features, train.labels), 0.85);
}

TEST(Lda, HandlesCollinearFeatures) {
  // Duplicate column: covariance is singular without regularization.
  Rng rng(36);
  Matrix features(100, 2);
  std::vector<int> labels(100);
  for (size_t r = 0; r < 100; ++r) {
    double v = rng.Gaussian(r % 2 == 0 ? -2.0 : 2.0);
    features(r, 0) = v;
    features(r, 1) = v;  // exact copy.
    labels[r] = static_cast<int>(r % 2);
  }
  LdaClassifier lda;
  lda.Train(features, labels, 2);
  EXPECT_GT(EvaluateAccuracy(lda, features, labels), 0.9);
}

TEST(CrossValidation, ReasonableScoreAndDeterminism) {
  Dataset data = NormalizedBlobs(200, 2, 37);
  double a = CrossValidationAccuracy(KnnClassifier(3), data, 5, 1);
  double b = CrossValidationAccuracy(KnnClassifier(3), data, 5, 1);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.8);
  EXPECT_LE(a, 1.0);
}

TEST(ModelConfig, ToStringMentionsKind) {
  EXPECT_NE(ModelConfig::Defaults(ModelKind::kXgboost).ToString().find("XGB"),
            std::string::npos);
}

}  // namespace
}  // namespace autofp
