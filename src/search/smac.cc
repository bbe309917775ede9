#include "search/smac.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace autofp {

namespace {

/// Expected improvement for minimization of error, given incumbent error.
double ExpectedImprovement(double mean, double stddev, double best_error) {
  double improvement = best_error - mean;
  if (stddev <= 1e-12) return std::max(improvement, 0.0);
  double z = improvement / stddev;
  double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  return improvement * NormalCdf(z) + stddev * pdf;
}

}  // namespace

void Smac::Initialize(SearchContext* context) {
  for (size_t i = 0; i < config_.num_initial; ++i) {
    if (!context
             ->Evaluate(context->space().SampleUniform(context->rng()))
             .has_value()) {
      return;
    }
  }
}

void Smac::Iterate(SearchContext* context) {
  const SearchSpace& space = context->space();
  // Gather full-budget observations. Like best-tracking, skip a record
  // whose accuracy is not finite: a NaN error is no forest target. A
  // failed record carries the finite penalty score and stays in.
  std::vector<const Evaluation*> observations;
  for (const Evaluation& evaluation : context->history()) {
    if (evaluation.budget_fraction >= 1.0 && !evaluation.pipeline.empty() &&
        std::isfinite(evaluation.accuracy)) {
      observations.push_back(&evaluation);
    }
  }
  if (observations.size() < 4) {
    context->Evaluate(space.SampleUniform(context->rng()));
    return;
  }

  // Step 2: refit the random forest on (padded encoding -> error).
  const size_t dim = space.max_pipeline_length();
  Matrix inputs(observations.size(), dim);
  std::vector<double> errors(observations.size());
  double best_error = 1.0;
  const Evaluation* incumbent = observations[0];
  for (size_t i = 0; i < observations.size(); ++i) {
    std::vector<double> encoding =
        space.EncodePadded(observations[i]->pipeline);
    for (size_t j = 0; j < dim; ++j) inputs(i, j) = encoding[j];
    errors[i] = 1.0 - observations[i]->accuracy;
    if (errors[i] < best_error) {
      best_error = errors[i];
      incumbent = observations[i];
    }
  }
  RandomForestRegressor forest(config_.forest);
  forest.Train(inputs, errors);

  // Step 3: candidate pool = random pipelines + incumbent neighbours.
  std::vector<PipelineSpec> candidates;
  candidates.reserve(config_.num_random_candidates +
                     config_.num_local_candidates);
  for (size_t i = 0; i < config_.num_random_candidates; ++i) {
    candidates.push_back(space.SampleUniform(context->rng()));
  }
  for (size_t i = 0; i < config_.num_local_candidates; ++i) {
    candidates.push_back(space.Mutate(incumbent->pipeline, context->rng()));
  }
  double best_ei = -1.0;
  const PipelineSpec* chosen = &candidates[0];
  std::vector<double> row(dim);
  for (const PipelineSpec& candidate : candidates) {
    std::vector<double> encoding = space.EncodePadded(candidate);
    RandomForestRegressor::Prediction prediction =
        forest.PredictWithUncertainty(encoding.data(), dim);
    double ei = ExpectedImprovement(prediction.mean, prediction.stddev,
                                    best_error);
    if (ei > best_ei) {
      best_ei = ei;
      chosen = &candidate;
    }
  }
  context->Evaluate(*chosen);
}

}  // namespace autofp
