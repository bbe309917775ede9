/// Micro-benchmarks (google-benchmark): training throughput of the three
/// downstream models — the "Train" component of the paper's Section 5.3
/// decomposition, which the paper identifies as the dominant bottleneck.
///
/// `--json [path]` switches to the model-kernel roofline report instead:
/// the SIMD primitives the model inner loops ride (Dot, Axpy, the
/// branchless histogram binning, streaming moments accumulation) timed
/// scalar vs vectorized, with element throughput and speedups, and one
/// SMAC-shaped surrogate fit (ns per 20-tree forest fit), and one XGB
/// fit at the TEVO_H x XGB workload's train shape (ns per Train), under a
/// host stamp (nproc, SIMD backend, compiler, build type, commit).
/// scripts/bench_snapshot.sh commits it as BENCH_model_kernels.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_host.h"
#include "core/auto_fp.h"
#include "core/search_space.h"
#include "data/benchmark_suite.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "stream/moments.h"
#include "util/simd.h"

namespace {

using namespace autofp;

Dataset MakeDataset(size_t rows, int classes) {
  SyntheticSpec spec;
  spec.name = "micro";
  spec.family = SyntheticFamily::kScaledBlobs;
  spec.rows = rows;
  spec.cols = 16;
  spec.num_classes = classes;
  spec.seed = 11;
  return GenerateSynthetic(spec);
}

void BM_ModelTrain(benchmark::State& state) {
  auto kind = static_cast<ModelKind>(state.range(0));
  size_t rows = static_cast<size_t>(state.range(1));
  int classes = static_cast<int>(state.range(2));
  Dataset data = MakeDataset(rows, classes);
  ModelConfig config = ModelConfig::Defaults(kind);
  for (auto _ : state) {
    auto model = MakeClassifier(config);
    model->Train(data.features, data.labels, classes);
    benchmark::DoNotOptimize(model);
  }
  state.SetLabel(ModelKindName(kind) + "/" + std::to_string(classes) +
                 "cls");
}

void ModelArgs(benchmark::internal::Benchmark* bench) {
  for (int64_t kind : {0, 1, 2}) {
    for (int64_t rows : {256, 1024}) {
      for (int64_t classes : {2, 5}) {
        bench->Args({kind, rows, classes});
      }
    }
  }
}
BENCHMARK(BM_ModelTrain)->Apply(ModelArgs)->Unit(benchmark::kMillisecond);

void BM_ModelPredictBatch(benchmark::State& state) {
  // Inference throughput: the base-class per-row loop
  // (`Classifier::PredictBatch`, called non-virtually) vs the real batch
  // override GBDT/MLP provide — the path the serving runtime
  // (src/serve/) rides.
  auto kind = static_cast<ModelKind>(state.range(0));
  const bool batch_path = state.range(1) != 0;
  Dataset data = MakeDataset(2048, 2);
  auto model = MakeClassifier(ModelConfig::Defaults(kind));
  model->Train(data.features, data.labels, 2);
  for (auto _ : state) {
    std::vector<int> predictions =
        batch_path ? model->PredictBatch(data.features)
                   : model->Classifier::PredictBatch(data.features);
    benchmark::DoNotOptimize(predictions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.features.rows()));
  state.SetLabel(ModelKindName(kind) + (batch_path ? "/batch" : "/per-row"));
}
BENCHMARK(BM_ModelPredictBatch)
    ->Args({1, 0})->Args({1, 1})->Args({2, 0})->Args({2, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_FullEvaluation(benchmark::State& state) {
  // One complete pipeline evaluation: prep + train + score, the unit the
  // search budgets count.
  Dataset data = MakeDataset(512, 2);
  Rng rng(12);
  TrainValidSplit split = SplitTrainValid(data, 0.8, &rng);
  auto kind = static_cast<ModelKind>(state.range(0));
  PipelineEvaluator evaluator(split.train, split.valid,
                              ModelConfig::Defaults(kind));
  EvalRequest request;
  request.pipeline = PipelineSpec::FromKinds(
      {PreprocessorKind::kPowerTransformer, PreprocessorKind::kMinMaxScaler});
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(request));
  }
  state.SetLabel(ModelKindName(kind));
}
BENCHMARK(BM_FullEvaluation)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- Model-kernel roofline report (--json) ----------------------------------

/// Best-of-N nanoseconds for `body()` run over the same inputs.
template <typename Fn>
double BestOfNs(Fn body) {
  constexpr int kReps = 9;  // 1 warmup + best of 8
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    if (rep == 0) continue;
    if (best == 0.0 || ns < best) best = ns;
  }
  return best;
}

void PrintKernelLine(std::FILE* out, const char* name, double scalar_ns,
                     double simd_ns, double elements, bool last) {
  std::fprintf(out,
               "    {\"kernel\": \"%s\", \"scalar_ns\": %.0f, "
               "\"simd_ns\": %.0f, \"elements_per_s\": %.0f, "
               "\"speedup\": %.2f}%s\n",
               name, scalar_ns, simd_ns, elements * 1e9 / simd_ns,
               scalar_ns / simd_ns, last ? "" : ",");
}

int RunModelRooflineReport(const char* path) {
  constexpr size_t kN = 1024;        // one GEMM row / LR feature vector
  constexpr size_t kBatch = 4096;    // rows per pass
  Rng rng(23);
  std::vector<double> a(kN), b(kN);
  for (size_t i = 0; i < kN; ++i) {
    a[i] = rng.Uniform(-1.0, 1.0);
    b[i] = rng.Uniform(-1.0, 1.0);
  }

  std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::PrintHostStamp(out);
  std::fprintf(out, "  \"backend\": \"%s\",\n", simd::kBackendName);
  std::fprintf(out, "  \"double_lanes\": %zu,\n", simd::kDoubleLanes);
  std::fprintf(out, "  \"kernels\": [\n");

  // Dot: the MLP/LSTM GEMM and LR logit primitive. kBatch dots of kN.
  double acc = 0.0;
  const double dot_scalar = BestOfNs([&] {
    for (size_t i = 0; i < kBatch; ++i) {
      acc += simd::DotScalar(a.data(), b.data(), kN);
    }
  });
  const double dot_simd = BestOfNs([&] {
    for (size_t i = 0; i < kBatch; ++i) {
      acc += simd::Dot(a.data(), b.data(), kN);
    }
  });
  benchmark::DoNotOptimize(acc);
  PrintKernelLine(out, "dot_1024", dot_scalar, dot_simd,
                  static_cast<double>(kBatch * kN), false);

  // Axpy: the backward-pass gradient accumulation primitive.
  std::vector<double> y(kN, 0.0);
  const double axpy_scalar = BestOfNs([&] {
    simd::ScopedForceScalar forced(true);
    for (size_t i = 0; i < kBatch; ++i) {
      simd::Axpy(1e-9, a.data(), y.data(), kN);
    }
  });
  const double axpy_simd = BestOfNs([&] {
    for (size_t i = 0; i < kBatch; ++i) {
      simd::Axpy(1e-9, a.data(), y.data(), kN);
    }
  });
  benchmark::DoNotOptimize(y);
  PrintKernelLine(out, "axpy_1024", axpy_scalar, axpy_simd,
                  static_cast<double>(kBatch * kN), false);

  // GBDT histogram binning: branchless lower-bound vs std::lower_bound
  // over a 256-edge table (the tree builder's per-row hot path).
  std::vector<double> edges(256);
  for (double& e : edges) e = rng.Uniform(-3.0, 3.0);
  std::sort(edges.begin(), edges.end());
  std::vector<double> values(kBatch);
  for (double& v : values) v = rng.Uniform(-4.0, 4.0);
  size_t bins = 0;
  const double bin_scalar = BestOfNs([&] {
    for (double v : values) {
      bins += static_cast<size_t>(
          std::lower_bound(edges.begin(), edges.end(), v) - edges.begin());
    }
  });
  const double bin_branchless = BestOfNs([&] {
    for (double v : values) {
      bins += simd::LowerBoundIndex(edges.data(), edges.size(), v);
    }
  });
  benchmark::DoNotOptimize(bins);
  PrintKernelLine(out, "histogram_binning_256", bin_scalar, bin_branchless,
                  static_cast<double>(kBatch), false);

  // Streaming moments: Welford accumulate across 16 columns per row.
  Dataset stream_data = MakeDataset(kBatch, 2);
  const double moments_scalar = BestOfNs([&] {
    simd::ScopedForceScalar forced(true);
    RunningMoments moments(stream_data.features.cols());
    moments.Observe(stream_data.features);
    benchmark::DoNotOptimize(moments);
  });
  const double moments_simd = BestOfNs([&] {
    RunningMoments moments(stream_data.features.cols());
    moments.Observe(stream_data.features);
    benchmark::DoNotOptimize(moments);
  });
  PrintKernelLine(out, "running_moments_16col", moments_scalar, moments_simd,
                  static_cast<double>(stream_data.features.size()), true);
  std::fprintf(out, "  ],\n");

  // SMAC's surrogate refit at its largest: the default 20-tree forest on
  // 300 padded encodings of SearchSpace::Default(7), with errors that are
  // multiples of 1/49 (a 49-row validation split's accuracies tie often).
  constexpr size_t kObservations = 300;
  SearchSpace space = SearchSpace::Default(7);
  const size_t dim = space.max_pipeline_length();
  Matrix encodings(kObservations, dim);
  std::vector<double> errors(kObservations);
  for (size_t r = 0; r < kObservations; ++r) {
    const std::vector<double> encoding =
        space.EncodePadded(space.SampleUniform(&rng));
    for (size_t c = 0; c < dim; ++c) encodings(r, c) = encoding[c];
    errors[r] = static_cast<double>(rng.UniformIndex(50)) / 49.0;
  }
  RandomForestRegressor::Config forest_config;
  const double forest_ns = BestOfNs([&] {
    RandomForestRegressor forest(forest_config);
    forest.Train(encodings, errors);
    benchmark::DoNotOptimize(forest);
  });
  std::fprintf(out,
               "  \"surrogate_fit\": {\"trees\": %d, \"rows\": %zu, "
               "\"cols\": %zu, \"ns_per_fit\": %.0f},\n",
               forest_config.num_trees, kObservations, dim, forest_ns);

  // One XGB fit at the train shape of the end-to-end TEVO_H x XGB
  // workload: 800 of jannis_syn's rows (54 columns, 4 classes), default
  // config.
  Result<Dataset> jannis = GetSuiteDataset("jannis_syn");
  AUTOFP_CHECK(jannis.ok()) << jannis.status().ToString();
  Rng subsample_rng(29);
  const Dataset gbdt_data = SubsampleRows(
      jannis.value(), 800.0 / static_cast<double>(jannis.value().num_rows()),
      &subsample_rng);
  const ModelConfig gbdt_config = ModelConfig::Defaults(ModelKind::kXgboost);
  const double gbdt_ns = BestOfNs([&] {
    GbdtClassifier model(gbdt_config);
    model.Train(gbdt_data.features, gbdt_data.labels,
                gbdt_data.num_classes);
    benchmark::DoNotOptimize(model);
  });
  std::fprintf(out,
               "  \"gbdt_train\": {\"rows\": %zu, \"cols\": %zu, "
               "\"classes\": %d, \"ns_per_train\": %.0f}\n}\n",
               gbdt_data.num_rows(), gbdt_data.num_cols(),
               gbdt_data.num_classes, gbdt_ns);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--json") {
    return RunModelRooflineReport(argc >= 3 ? argv[2] : nullptr);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
