/// Golden hashes of the transform data plane and the serving path. They
/// pin, to the bit, what the search and serve paths compute from a fixed
/// higgs_syn sample:
///   - the fitted state and the transformed train/valid of
///     FittedPipeline::Fit, FitTransformPair and
///     CheckedFitTransformPairCached, for each preprocessor and for the
///     two pipelines the serve benchmark deploys, at row counts on both
///     sides of 256 (where the data plane once switched storage layout);
///   - Predictor::PredictSharded outputs for those two pipelines at
///     several shard sizes, with an XGB and an MLP model.
/// The preprocessor kernels and the GBDT fit are backend-exact, so those
/// hashes hold on the SIMD and the AUTOFP_DISABLE_SIMD builds alike. The
/// MLP's simd::Dot reassociates its sum, so its hash is keyed by
/// simd::kBackendName.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/run_journal.h"
#include "data/benchmark_suite.h"
#include "preprocess/pipeline.h"
#include "preprocess/pipeline_parse.h"
#include "preprocess/transform_cache.h"
#include "serve/predictor.h"
#include "util/random.h"
#include "util/simd.h"

namespace autofp {
namespace {

const char* const kServePipelines[] = {
    "PowerTransformer -> StandardScaler",
    "QuantileTransformer -> MinMaxScaler",
};

const Dataset& Higgs() {
  static const Dataset* higgs = [] {
    Result<Dataset> data = GetSuiteDataset("higgs_syn");
    AUTOFP_CHECK(data.ok()) << data.status().ToString();
    return new Dataset(std::move(data).value());
  }();
  return *higgs;
}

/// `rows` higgs_syn rows drawn with replacement.
Dataset Sample(size_t rows, Rng* rng) {
  std::vector<size_t> indices(rows);
  for (size_t& index : indices) index = rng->UniformIndex(Higgs().num_rows());
  return Higgs().SelectRows(indices);
}

/// FNV-1a over the shape and every cell's bytes in (row, col) order.
uint64_t HashMatrix(const Matrix& m, uint64_t hash) {
  const uint64_t shape[] = {m.rows(), m.cols()};
  hash = Fnv1a64(shape, sizeof(shape), hash);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      const double value = m(r, c);
      hash = Fnv1a64(&value, sizeof(value), hash);
    }
  }
  return hash;
}

uint64_t HashString(const std::string& text, uint64_t hash) {
  return Fnv1a64(text.data(), text.size(), hash);
}

/// Hash of a checked transform outcome: the pair's cells when it
/// succeeded, the status text when it did not.
uint64_t HashOutcome(const Result<TransformedPair>& outcome) {
  uint64_t hash = Fnv1a64(nullptr, 0);
  if (!outcome.ok()) return HashString(outcome.status().ToString(), hash);
  hash = HashMatrix(outcome.value().train, hash);
  return HashMatrix(outcome.value().valid, hash);
}
uint64_t HashOutcome(const Result<SharedTransformedPair>& outcome) {
  uint64_t hash = Fnv1a64(nullptr, 0);
  if (!outcome.ok()) return HashString(outcome.status().ToString(), hash);
  hash = HashMatrix(*outcome.value().train, hash);
  return HashMatrix(*outcome.value().valid, hash);
}

PipelineSpec Spec(const std::string& text) {
  Result<PipelineSpec> spec = ParsePipelineSpec(text);
  AUTOFP_CHECK(spec.ok()) << spec.status().ToString();
  return spec.value();
}

/// The seven single-step pipelines, then the serve benchmark's two.
std::vector<PipelineSpec> GoldenSpecs() {
  std::vector<PipelineSpec> specs;
  for (int kind = 0; kind < kNumPreprocessorKinds; ++kind) {
    specs.push_back(
        PipelineSpec::FromKinds({static_cast<PreprocessorKind>(kind)}));
  }
  for (const char* text : kServePipelines) specs.push_back(Spec(text));
  return specs;
}

struct FitGolden {
  const char* pipeline;
  uint64_t state_hash;   ///< every fitted step's SaveState bytes.
  uint64_t output_hash;  ///< transformed pair, then checked outcome.
};

// One entry per GoldenSpecs() element, each folded over the row counts
// {255, 256, 544, 3200}. Captured while matrices still had a
// column-major layout, which the data plane used from 256 rows up.
const FitGolden kFitGoldens[] = {
    {"Binarizer", 0xcbf29ce484222325ull, 0x709f2866d0165606ull},
    {"MaxAbsScaler", 0xc959a1bcd45f6d7bull, 0xcc59b52b595f7f8dull},
    {"MinMaxScaler", 0x6a36271664437199ull, 0xbdbcd8d6ed4cfb31ull},
    {"Normalizer", 0xcbf29ce484222325ull, 0xfd62a27564825425ull},
    {"PowerTransformer", 0x3099d99d1a312b0dull, 0xf4669ab2e0396555ull},
    {"QuantileTransformer", 0x3bb71f81b1d2ac57ull, 0x3c0189236d4506c9ull},
    {"StandardScaler", 0x8bc0616f91448228ull, 0x8169bf1a692c1eb9ull},
    {"PowerTransformer -> StandardScaler", 0x5de2aaa9c7b177cbull,
     0x2342db70418019ddull},
    {"QuantileTransformer -> MinMaxScaler", 0x0887419481d5a417ull,
     0x3c0189236d4506c9ull},
};

TEST(DataPlaneGolden, FitTransformPathsAcrossPreprocessorsAndRows) {
  const std::vector<PipelineSpec> specs = GoldenSpecs();
  ASSERT_EQ(specs.size(), std::size(kFitGoldens));
  const size_t kRowCounts[] = {255, 256, 544, 3200};
  for (bool force_scalar : {false, true}) {
    simd::ScopedForceScalar backend(force_scalar);
    for (size_t s = 0; s < specs.size(); ++s) {
      const PipelineSpec& spec = specs[s];
      SCOPED_TRACE(::testing::Message() << spec.ToString()
                                        << " force_scalar=" << force_scalar);
      ASSERT_EQ(spec.ToString(), kFitGoldens[s].pipeline);
      uint64_t state_hash = Fnv1a64(nullptr, 0);
      uint64_t output_hash = Fnv1a64(nullptr, 0);
      for (size_t rows : kRowCounts) {
        SCOPED_TRACE(::testing::Message() << "rows=" << rows);
        Rng rng(7100 + rows);
        const Matrix train = Sample(rows, &rng).features;
        const Matrix valid = Sample(rows / 4 + 1, &rng).features;

        const FittedPipeline fitted = FittedPipeline::Fit(spec, train);
        for (const auto& step : fitted.steps()) {
          std::ostringstream state;
          step->SaveState(state);
          state_hash = HashString(state.str(), state_hash);
        }

        // Every path must produce the same pair; the golden pins it.
        const TransformedPair pair = FitTransformPair(spec, train, valid);
        uint64_t pair_hash = HashMatrix(pair.train, Fnv1a64(nullptr, 0));
        pair_hash = HashMatrix(pair.valid, pair_hash);
        uint64_t refit_hash =
            HashMatrix(fitted.Transform(train), Fnv1a64(nullptr, 0));
        refit_hash = HashMatrix(fitted.Transform(valid), refit_hash);
        EXPECT_EQ(refit_hash, pair_hash) << "FittedPipeline::Transform";

        // The checked paths agree with CheckedFitTransformPair, outcome
        // and all (a collapsed Binarizer output is an error on each).
        const uint64_t checked_hash =
            HashOutcome(CheckedFitTransformPair(spec, train, valid));
        TransformScratch scratch;
        EXPECT_EQ(HashOutcome(CheckedFitTransformPairCached(
                      spec, train, valid, nullptr, "golden", &scratch)),
                  checked_hash)
            << "uncached, scratch";
        EXPECT_EQ(HashOutcome(CheckedFitTransformPairCached(
                      spec, train, valid, nullptr, "golden")),
                  checked_hash)
            << "uncached, no scratch";
        TransformCache cache(size_t{1} << 26);
        for (int pass = 0; pass < 2; ++pass) {
          EXPECT_EQ(HashOutcome(CheckedFitTransformPairCached(
                        spec, train, valid, &cache, "golden")),
                    checked_hash)
              << "cached, pass " << pass;
        }
        output_hash = Fnv1a64(&pair_hash, sizeof(pair_hash), output_hash);
        output_hash =
            Fnv1a64(&checked_hash, sizeof(checked_hash), output_hash);
      }
      EXPECT_EQ(state_hash, kFitGoldens[s].state_hash);
      EXPECT_EQ(output_hash, kFitGoldens[s].output_hash);
    }
  }
}

struct PredictGolden {
  const char* backend;  ///< simd::kBackendName; "" when backend-exact.
  ModelKind model;
  const char* pipeline;
  uint64_t hash;
};

// XGB predictions are backend-exact; MLP predictions depend on the
// backend's simd::Dot summation order and are keyed by it. A backend
// with no recorded MLP hash still checks that every shard size agrees.
const PredictGolden kPredictGoldens[] = {
    {"", ModelKind::kXgboost, kServePipelines[0], 0x785a17cac9fd90f5ull},
    {"", ModelKind::kXgboost, kServePipelines[1], 0x785a17cac9fd90f5ull},
    {"avx2", ModelKind::kMlp, kServePipelines[0], 0xeb862dd51d46e3a5ull},
    {"avx2", ModelKind::kMlp, kServePipelines[1], 0xae6879efc701d775ull},
    {"scalar", ModelKind::kMlp, kServePipelines[0], 0xeb862dd51d46e3a5ull},
    {"scalar", ModelKind::kMlp, kServePipelines[1], 0xae6879efc701d775ull},
};

TEST(DataPlaneGolden, PredictShardedAcrossShardSizes) {
  Rng rng(7200);
  const Dataset train = Sample(800, &rng);
  const Matrix queries = Sample(3000, &rng).features;
  const size_t kShardRows[] = {16, 255, 256, 544, 2048};
  for (ModelKind model : {ModelKind::kXgboost, ModelKind::kMlp}) {
    for (const char* pipeline : kServePipelines) {
      SCOPED_TRACE(::testing::Message() << ModelKindName(model) << " "
                                        << pipeline);
      const std::string path = ::testing::TempDir() + "/golden_" +
                               ModelKindName(model) + ".afpa";
      Result<ArtifactSchema> exported = ExportArtifact(
          path, train, Spec(pipeline), ModelConfig::Defaults(model));
      ASSERT_TRUE(exported.ok()) << exported.status().ToString();
      Predictor::Options options;
      options.num_threads = 2;
      Predictor::LoadResult loaded = Predictor::Load(path, options);
      std::remove(path.c_str());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

      std::vector<int> first;
      for (size_t shard_rows : kShardRows) {
        Result<std::vector<int>> predicted =
            loaded.predictor().PredictSharded(queries, shard_rows);
        ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
        if (first.empty()) first = predicted.value();
        EXPECT_EQ(predicted.value(), first) << "shard_rows=" << shard_rows;
      }
      const uint64_t hash =
          Fnv1a64(first.data(), first.size() * sizeof(int));
      for (const PredictGolden& golden : kPredictGoldens) {
        if (golden.model != model ||
            std::strcmp(golden.pipeline, pipeline) != 0) {
          continue;
        }
        if (golden.backend[0] == '\0' ||
            std::strcmp(golden.backend, simd::kBackendName) == 0) {
          EXPECT_EQ(hash, golden.hash) << "backend " << golden.backend;
        }
      }
    }
  }
}

}  // namespace
}  // namespace autofp
