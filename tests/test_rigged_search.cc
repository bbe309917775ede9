/// Property tests of search-algorithm behaviour on *rigged* reward
/// landscapes: a synthetic EvaluatorInterface whose accuracy is a known
/// deterministic function of the pipeline, so each algorithm's claimed
/// mechanism (hill climbing, exploitation, policy learning, halving
/// fidelity) can be asserted sharply without ML noise.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/search_framework.h"
#include "search/registry.h"
#include "search/reinforce.h"

namespace autofp {
namespace {

/// Deterministic reward landscape over pipelines.
class RiggedEvaluator : public EvaluatorInterface {
 public:
  using ScoreFn = std::function<double(const PipelineSpec&)>;

  explicit RiggedEvaluator(ScoreFn score) : score_(std::move(score)) {}

  using EvaluatorInterface::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    Evaluation evaluation;
    evaluation.pipeline = request.pipeline;
    evaluation.budget_fraction = request.budget_fraction;
    evaluation.accuracy = score_(request.pipeline);
    evaluation.timing.prep_seconds = 1e-6;
    evaluation.timing.train_seconds = 1e-6;
    return evaluation;
  }

  double BaselineAccuracy() override { return score_(PipelineSpec{}); }

 private:
  ScoreFn score_;
};

/// Landscape A ("gradient"): score grows with the number of Binarizer
/// steps and shrinks slightly with pipeline length; the global optimum is
/// the all-Binarizer pipeline of maximum length (clamped to 1.0).
double GradientLandscape(const PipelineSpec& pipeline) {
  double score = 0.3;
  for (const PreprocessorConfig& step : pipeline.steps) {
    if (step.kind == PreprocessorKind::kBinarizer) score += 0.15;
    if (step.kind == PreprocessorKind::kNormalizer) score -= 0.05;
  }
  score -= 0.02 * static_cast<double>(pipeline.size());
  return std::clamp(score, 0.0, 1.0);
}

double BestGradientScore() {
  // 7 Binarizers: 0.3 + 7*0.15 - 0.14 = 1.21 -> clamped 1.0.
  return 1.0;
}

class RiggedAlgorithms : public ::testing::TestWithParam<std::string> {};

TEST_P(RiggedAlgorithms, ClimbsTheGradientLandscape) {
  RiggedEvaluator evaluator(GradientLandscape);
  SearchSpace space = SearchSpace::Default();
  auto algorithm = MakeSearchAlgorithm(GetParam()).value();
  SearchResult result = RunSearch(algorithm.get(), &evaluator, space, {Budget::Evaluations(300), 41});
  // A uniform sample scores ~0.35 in expectation; 300 looks at a smooth
  // landscape must reach at least a 3-Binarizer pipeline (score 0.69 at
  // length 3; pure random best-of-300 lands near 0.65).
  EXPECT_GE(result.best_accuracy, 0.6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(All, RiggedAlgorithms,
                         ::testing::ValuesIn(AllSearchAlgorithmNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(RiggedEvolution, ExploitationBeatsRandomOnSmoothLandscape) {
  RiggedEvaluator tevo_eval(GradientLandscape);
  RiggedEvaluator rs_eval(GradientLandscape);
  SearchSpace space = SearchSpace::Default();
  auto tevo = MakeSearchAlgorithm("TEVO_H").value();
  auto rs = MakeSearchAlgorithm("RS").value();
  const long kBudget = 120;
  double tevo_total = 0.0, rs_total = 0.0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    tevo_total += RunSearch(tevo.get(), &tevo_eval, space, {Budget::Evaluations(kBudget), seed})
                      .best_accuracy;
    rs_total += RunSearch(rs.get(), &rs_eval, space, {Budget::Evaluations(kBudget), seed})
                    .best_accuracy;
  }
  // Mutation-based exploitation compounds Binarizer steps; uniform random
  // sampling of length-7 all-Binarizer pipelines is a 7^-7 event.
  EXPECT_GT(tevo_total, rs_total);
  EXPECT_NEAR(tevo_total / 5.0, BestGradientScore(), 0.08);
}

TEST(RiggedAnneal, NeverLosesItsBestState) {
  RiggedEvaluator evaluator(GradientLandscape);
  SearchSpace space = SearchSpace::Default();
  auto anneal = MakeSearchAlgorithm("Anneal").value();
  SearchResult result = RunSearch(anneal.get(), &evaluator, space, {Budget::Evaluations(200), 43});
  EXPECT_GE(result.best_accuracy, 0.9);
}

TEST(RiggedReinforce, PolicyLearnsTheRewardedOperator) {
  RiggedEvaluator evaluator(GradientLandscape);
  SearchSpace space = SearchSpace::Default();
  Reinforce reinforce;
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(400), 44});
  reinforce.Initialize(&context);
  while (!context.BudgetExhausted()) reinforce.Iterate(&context);
  // Binarizer is operator 0 in the canonical order; position-0 policy
  // mass on it must exceed uniform (1/8 over 7 ops + stop).
  std::vector<double> policy = reinforce.PolicyProbabilities(0);
  EXPECT_GT(policy[0], 2.0 / 8.0);
  EXPECT_EQ(std::max_element(policy.begin(), policy.end()) - policy.begin(),
            0);
}

TEST(RiggedEnas, SampledQualityImproves) {
  RiggedEvaluator evaluator(GradientLandscape);
  SearchSpace space = SearchSpace::Default();
  auto enas = MakeSearchAlgorithm("ENAS").value();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(400), 45});
  enas->Initialize(&context);
  while (!context.BudgetExhausted()) enas->Iterate(&context);
  const std::vector<Evaluation>& history = context.history();
  ASSERT_GE(history.size(), 100u);
  double early = 0.0, late = 0.0;
  const size_t window = 50;
  for (size_t i = 0; i < window; ++i) {
    early += history[i].accuracy;
    late += history[history.size() - 1 - i].accuracy;
  }
  EXPECT_GT(late, early) << "controller failed to improve its samples";
}

TEST(RiggedHyperband, HalvingPromotesTheTrueBest) {
  // Budget-independent landscape: partial scores equal full scores, so
  // successive halving must promote the true rung winner.
  RiggedEvaluator evaluator(GradientLandscape);
  SearchSpace space = SearchSpace::Default();
  auto hyperband = MakeSearchAlgorithm("HYPERBAND").value();
  SearchResult result = RunSearch(hyperband.get(), &evaluator, space, {Budget::Evaluations(120), 46});
  // The final (full-budget) answer can never score below the best
  // partial observation, because scores are budget-independent here.
  EXPECT_GE(result.best_accuracy, 0.6);
}

TEST(RiggedSurrogates, ModelBasedSearchExploitsStructure) {
  for (const char* name : {"SMAC", "TPE"}) {
    RiggedEvaluator evaluator(GradientLandscape);
    SearchSpace space = SearchSpace::Default();
    auto algorithm = MakeSearchAlgorithm(name).value();
    SearchResult result = RunSearch(algorithm.get(), &evaluator, space, {Budget::Evaluations(150), 47});
    EXPECT_GE(result.best_accuracy, 0.85) << name;
  }
}

// A successful evaluation may record a NaN accuracy (best-tracking skips
// it). SMAC must keep such records out of its surrogate: the forest
// CHECK-fails on a non-finite target, so without the filter this search
// aborts at its first refit.
TEST(RiggedSurrogates, SmacSkipsNonFiniteScores) {
  long nan_scores = 0;
  RiggedEvaluator evaluator([&](const PipelineSpec& pipeline) {
    if (pipeline.size() % 3 == 0) {
      ++nan_scores;
      return std::numeric_limits<double>::quiet_NaN();
    }
    return GradientLandscape(pipeline);
  });
  SearchSpace space = SearchSpace::Default();
  auto smac = MakeSearchAlgorithm("SMAC").value();
  SearchResult result = RunSearch(smac.get(), &evaluator, space,
                                  {Budget::Evaluations(120), 51});
  EXPECT_EQ(result.num_evaluations, 120);
  EXPECT_GT(nan_scores, 1);
  EXPECT_TRUE(std::isfinite(result.best_accuracy));
  EXPECT_NE(result.best_pipeline.size() % 3, 0u);
}

/// Landscape B ("deceptive"): good length-1 pipelines but the optimum
/// hides at exact sequence [Normalizer, Binarizer].
double DeceptiveLandscape(const PipelineSpec& pipeline) {
  if (pipeline.size() == 2 &&
      pipeline.steps[0].kind == PreprocessorKind::kNormalizer &&
      pipeline.steps[1].kind == PreprocessorKind::kBinarizer) {
    return 1.0;
  }
  if (pipeline.size() == 1) return 0.6;
  return 0.3;
}

TEST(RiggedDeceptive, RandomSearchFindsNeedleWithEnoughBudget) {
  // P(hit) per uniform sample = P(len=2) * 1/49 = 1/343; 1500 samples
  // hit with probability ~98.7%.
  RiggedEvaluator evaluator(DeceptiveLandscape);
  SearchSpace space = SearchSpace::Default();
  auto rs = MakeSearchAlgorithm("RS").value();
  SearchResult result = RunSearch(rs.get(), &evaluator, space, {Budget::Evaluations(1500), 48});
  EXPECT_DOUBLE_EQ(result.best_accuracy, 1.0);
}

TEST(RiggedDeceptive, BaselineReporting) {
  RiggedEvaluator evaluator(DeceptiveLandscape);
  SearchSpace space = SearchSpace::Default();
  auto rs = MakeSearchAlgorithm("RS").value();
  SearchResult result = RunSearch(rs.get(), &evaluator, space, {Budget::Evaluations(10), 49});
  EXPECT_DOUBLE_EQ(result.baseline_accuracy,
                   DeceptiveLandscape(PipelineSpec{}));
}

TEST(RiggedFramework, HistoryMatchesLandscapeExactly) {
  RiggedEvaluator evaluator(GradientLandscape);
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(50), 50});
  Rng rng(50);
  for (int i = 0; i < 50; ++i) {
    PipelineSpec pipeline = space.SampleUniform(&rng);
    std::optional<double> accuracy = context.Evaluate(pipeline);
    ASSERT_TRUE(accuracy.has_value());
    EXPECT_DOUBLE_EQ(*accuracy, GradientLandscape(pipeline));
  }
  for (const Evaluation& evaluation : context.history()) {
    EXPECT_DOUBLE_EQ(evaluation.accuracy,
                     GradientLandscape(evaluation.pipeline));
  }
}

}  // namespace
}  // namespace autofp
