// The three search workloads: one RunSearch at a fixed evaluation budget
// is the unit of work, repeated with cold caches until the run's time is
// used up. Layers are measured from outside the library through the
// decorators in trace.h.

#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/run_journal.h"
#include "data/benchmark_suite.h"
#include "data/splits.h"
#include "search/registry.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace autofp;

struct SearchWorkload {
  const char* name;
  const char* algorithm;
  ModelKind model;
  const char* dataset;  ///< suite dataset (data/benchmark_suite.h).
  size_t rows;          ///< rows drawn from it (0 = all).
  long evaluations;     ///< fixed evaluation budget of one search.
  int threads;
  size_t cache_bytes;   ///< result + prefix cache budget; 0 = no caches.
  bool journal;
  int cases;            ///< row draws and search seeds a run averages.
};

/// First search seed of every workload: case k searches with seed
/// kSearchSeed + k on the k-th row draw and split of --seed.
constexpr uint64_t kSearchSeed = 1000;

// Why each workload exists is written up in perfbench/README.md.
constexpr SearchWorkload kWorkloads[] = {
    {"search_rs_prep", "RS", ModelKind::kLogisticRegression, "higgs_syn",
     4000, 40, 1, 0, false, 4},
    {"search_smac_pick", "SMAC", ModelKind::kLogisticRegression,
     "heart_syn", 0, 300, 1, 0, false, 9},
    {"search_tevo_parallel", "TEVO_H", ModelKind::kXgboost, "jannis_syn",
     1000, 30, 2, size_t{512} << 20, true, 12},
};

const SearchWorkload* FindWorkload(const std::string& name) {
  for (const SearchWorkload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

/// Everything set-up builds: the split and the evaluator over it.
struct Prepared {
  TrainValidSplit split;
  std::unique_ptr<PipelineEvaluator> evaluator;
};

/// Generates the workload's suite dataset, draws case `k`'s rows and
/// 80:20 split from `seed`, and builds the evaluator (including its no-FP
/// baseline, which RunSearch needs).
Prepared Setup(const SearchWorkload& workload, uint64_t seed, int k,
               double* load_seconds) {
  const double begin = Now();
  Result<Dataset> generated = GetSuiteDataset(workload.dataset);
  AUTOFP_CHECK(generated.ok()) << generated.status().ToString();
  *load_seconds = Now() - begin;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(k));
  Dataset data = std::move(generated.value());
  if (workload.rows > 0) {
    data = SubsampleRows(data,
                         static_cast<double>(workload.rows) /
                             static_cast<double>(data.num_rows()),
                         &rng);
  }
  Prepared prepared;
  prepared.split = SplitTrainValid(data, 0.8, &rng);
  prepared.evaluator = std::make_unique<PipelineEvaluator>(
      prepared.split.train, prepared.split.valid,
      ModelConfig::Defaults(workload.model));
  prepared.evaluator->BaselineAccuracy();
  return prepared;
}

/// Everything one search run leaves for the metrics and the checks.
struct SearchRun {
  size_t index = 0;  ///< which of the round's searches this is.
  bool traced = false;
  double wall = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak while the search ran.
  SearchResult result;
  uint64_t digest = 0;
  long records = 0;
  long iterations = 0;
  Evaluation best;
  TracingEvaluator::Record evaluations;
  std::vector<Span> algorithm_spans;
  TransformCache::Stats prefix;
  long journal_appends = 0;
  uintmax_t journal_bytes = 0;
};

SearchRun RunOnce(const SearchWorkload& workload, uint64_t seed,
                  PipelineEvaluator* evaluator, TracingEvaluator* tracer,
                  const std::string& work_dir, bool traced) {
  SearchRun run;
  run.traced = traced;
  SearchOptions options;
  options.budget = Budget::Evaluations(workload.evaluations);
  options.seed = seed;
  options.num_threads = workload.threads;
  options.cache_bytes = workload.cache_bytes;

  // The tracer hides the PipelineEvaluator from SearchContext, which
  // would otherwise attach a prefix cache of cache_bytes itself: attach
  // an equal, cold one here in traced and untraced runs alike.
  std::shared_ptr<TransformCache> prefix_cache;
  if (workload.cache_bytes > 0) {
    prefix_cache = std::make_shared<TransformCache>(workload.cache_bytes);
  }
  evaluator->AttachTransformCache(prefix_cache);

  std::unique_ptr<RunJournalWriter> journal;
  const std::string journal_path = work_dir + "/search.journal";
  if (workload.journal) {
    auto created = RunJournalWriter::Create(
        journal_path, SearchOptionsFingerprint(options),
        DatasetFingerprint(evaluator->train()));
    AUTOFP_CHECK(created.ok()) << created.status().ToString();
    journal = std::move(created.value());
    options.journal = journal.get();
  }

  auto made = MakeSearchAlgorithm(workload.algorithm);
  AUTOFP_CHECK(made.ok()) << made.status().ToString();
  TracingAlgorithm algorithm(std::move(made.value()), traced);
  tracer->Reset(traced);

  // Free heap the previous search left behind, so the peak is this
  // search's own and not the allocator's history.
  malloc_trim(0);
  ResetPeakRss();
  const double begin = Now();
  run.result = RunSearch(&algorithm, tracer, SearchSpace::Default(), options);
  run.wall = Now() - begin;
  run.peak_rss_mb = PeakRssMb();

  run.digest = algorithm.digest();
  run.records = algorithm.records();
  run.iterations = algorithm.iterations();
  run.best = algorithm.best();
  run.evaluations = tracer->record();
  run.algorithm_spans = algorithm.spans();
  if (prefix_cache != nullptr) run.prefix = prefix_cache->stats();
  evaluator->AttachTransformCache(nullptr);
  if (journal != nullptr) {
    run.journal_appends = journal->num_appends();
    journal.reset();
    run.journal_bytes = std::filesystem::file_size(journal_path);
    std::filesystem::remove(journal_path);
  }
  return run;
}

bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool SameHistory(const SearchRun& a, const SearchRun& b) {
  return a.digest == b.digest && a.records == b.records &&
         SameBits(a.result.best_accuracy, b.result.best_accuracy);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer metrics of one traced run. Returns false when the layer
/// parts do not add up to the measured wall time.
bool LayerMetrics(const SearchWorkload& workload, const SearchRun& run,
                  std::map<std::string, double>* out) {
  const TracingEvaluator::Record& evals = run.evaluations;
  double busy = 0.0;
  std::vector<double> ms;
  for (const Span& span : evals.spans) {
    busy += span.end - span.begin;
    ms.push_back((span.end - span.begin) * 1e3);
  }
  const double covered = UnionLength(evals.spans);
  const double pick = UncoveredLength(run.algorithm_spans, evals.spans);
  const double unaccounted = run.wall - pick - covered;
  const double work = pick + busy;
  const long live = static_cast<long>(evals.spans.size());
  const SearchResult& result = run.result;
  auto& m = *out;
  m["search.pick_s"] = pick;
  m["search.pick_share"] = Ratio(pick, work);
  m["search.iterations"] = static_cast<double>(run.iterations);
  m["search.unaccounted_s"] = unaccounted;
  m["core.evals"] = static_cast<double>(live);
  m["core.eval_busy_s"] = busy;
  m["core.eval_covered_s"] = covered;
  m["core.eval_p50_ms"] = Percentile(ms, 0.50);
  m["core.eval_p99_ms"] = Percentile(ms, 0.99);
  m["core.pool_utilization"] = Ratio(busy, workload.threads * run.wall);
  m["core.result_cache_hit_ratio"] =
      Ratio(static_cast<double>(result.result_cache_hits),
            static_cast<double>(result.result_cache_hits +
                                result.result_cache_misses));
  m["core.eval_failed_ratio"] =
      Ratio(static_cast<double>(evals.failed), static_cast<double>(live));
  m["core.journal_bytes_per_eval"] =
      Ratio(static_cast<double>(run.journal_bytes),
            static_cast<double>(run.journal_appends));
  m["core.reported_over_measured"] =
      Ratio(result.prep_seconds + result.train_seconds, busy);
  m["preprocess.prep_s"] = evals.prep_seconds;
  m["preprocess.prep_share"] = Ratio(evals.prep_seconds, work);
  m["preprocess.prefix_hit_ratio"] = run.prefix.HitRate();
  m["preprocess.prefix_evictions"] = static_cast<double>(run.prefix.evictions);
  m["ml.train_s"] = evals.train_seconds;
  m["ml.train_share"] = Ratio(evals.train_seconds, work);
  // Pick + evaluator-covered time + remainder is the wall time by
  // construction; the remainder (context set-up and tear-down, result
  // assembly) must stay small or the spans miss a layer.
  const double tolerance = std::max(0.02 * run.wall, 0.005);
  return unaccounted >= -1e-6 && unaccounted <= tolerance;
}

}  // namespace

bool IsSearchWorkload(const std::string& name) {
  return FindWorkload(name) != nullptr;
}

RunResult RunSearchWorkload(const RunArgs& args) {
  const SearchWorkload& workload = *FindWorkload(args.workload);
  RunResult out;

  // Every case is set up once up front, and set-up is repeated until it
  // has been timed at least three times and for at least 0.5 s, so its
  // median does not hinge on the process's first moments or on a short
  // stall. A repeated set-up is identical to the kept one.
  const int cases = workload.cases;
  std::vector<double> setup_s, load_s;
  auto timed_setup = [&](int k) {
    const double begin = Now();
    double load = 0.0;
    Prepared prepared = Setup(workload, args.seed, k, &load);
    setup_s.push_back(Now() - begin);
    load_s.push_back(load);
    return prepared;
  };
  const double setup_begin = Now();
  std::vector<Prepared> prepared;
  std::vector<std::unique_ptr<TracingEvaluator>> tracers;
  for (int k = 0; k < cases; ++k) {
    prepared.push_back(timed_setup(k));
    tracers.push_back(
        std::make_unique<TracingEvaluator>(prepared.back().evaluator.get()));
  }
  for (int k = 0; setup_s.size() < 3 ||
                  (setup_s.size() < 1000 && Now() - setup_begin < 0.5);
       k = (k + 1) % cases) {
    timed_setup(k);
  }

  // The run cycles through the workload's cases, so each run averages
  // over as many row draws as it has cases; every case runs at least
  // once, and a further copy of a case starts only if it fits the
  // remaining time, judged by that case's last copy. Untraced searches
  // give the end-to-end figures; in a traced run each is followed by a
  // traced search of the same case, so the overhead compares like with
  // like and both histories must agree.
  const double budget_end = Now() + args.seconds;
  std::vector<SearchRun> runs;
  std::vector<size_t> first_of(cases);
  std::vector<double> case_length(cases, 0.0);
  for (int i = 0;; ++i) {
    const int k = i % cases;
    const double case_begin = Now();
    if (i >= cases && case_begin + case_length[k] > budget_end) break;
    const uint64_t search_seed = kSearchSeed + static_cast<uint64_t>(k);
    PipelineEvaluator* evaluator = prepared[k].evaluator.get();
    runs.push_back(RunOnce(workload, search_seed, evaluator,
                           tracers[k].get(), args.work_dir, false));
    runs.back().index = static_cast<size_t>(k);
    if (i < cases) first_of[k] = runs.size() - 1;
    const SearchRun& run = runs.back();
    const SearchRun& first = runs[first_of[k]];
    // A repeated search must reproduce its history, and the winner must
    // re-score bit for bit on a fresh 1-thread uncached evaluator.
    bool rescored = false;
    if (run.result.num_successes > 0) {
      PipelineEvaluator fresh(prepared[k].split.train,
                              prepared[k].split.valid,
                              ModelConfig::Defaults(workload.model));
      EvalRequest request;
      request.pipeline = run.best.pipeline;
      request.budget_fraction = run.best.budget_fraction;
      request.seed = EvalRequest::DeriveSeed(
          search_seed, request.pipeline, request.budget_fraction,
          std::max(1, run.best.attempts));
      rescored = SameBits(fresh.Evaluate(request).accuracy,
                          run.result.best_accuracy);
    }
    out.Check(rescored && !run.result.interrupted && SameHistory(run, first),
              "search " + std::to_string(i) +
                  ": history differs from its first copy, or the best "
                  "pipeline does not re-score to best_accuracy");
    if (args.trace) {
      runs.push_back(RunOnce(workload, search_seed, evaluator,
                             tracers[k].get(), args.work_dir, true));
      runs.back().index = static_cast<size_t>(k);
      out.Check(SameHistory(runs.back(), runs[first_of[k]]),
                "search " + std::to_string(i) +
                    ": traced history differs from the untraced one");
    }
    case_length[k] = Now() - case_begin;
  }

  // The first search's digest identifies the run: it must be identical
  // in every run of this workload and seed.
  const SearchRun& first = runs.front();
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s seed=%llu digest=%016llx records=%ld best=%.17g "
                "baseline=%.6f pipeline=[%s]",
                workload.name, static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(first.digest), first.records,
                first.result.best_accuracy,
                prepared.front().evaluator->BaselineAccuracy(),
                first.result.best_pipeline.ToString().c_str());
  out.Note(line);

  // Every figure is a median over the copies of one case, averaged over
  // the cases: a median across different cases would jump between their
  // distinct wall times.
  const size_t count = first_of.size();
  std::vector<std::vector<double>> walls(count), traced_walls(count),
      peaks(count);
  std::vector<std::map<std::string, std::vector<double>>> layers(count);
  for (const SearchRun& run : runs) {
    if (!run.traced) {
      walls[run.index].push_back(run.wall);
      peaks[run.index].push_back(run.peak_rss_mb);
      continue;
    }
    traced_walls[run.index].push_back(run.wall);
    std::map<std::string, double> metrics;
    out.Check(LayerMetrics(workload, run, &metrics),
              "traced layer parts do not add up to the search wall time");
    for (const auto& [name, value] : metrics) {
      layers[run.index][name].push_back(value);
    }
  }
  auto mean_of_medians = [&](const auto& get) {
    double sum = 0.0;
    for (size_t k = 0; k < count; ++k) sum += Median(get(k));
    return sum / static_cast<double>(count);
  };
  const double wall =
      mean_of_medians([&](size_t k) { return walls[k]; });
  double evaluations = 0.0, accuracy = 0.0;
  for (size_t index : first_of) {
    evaluations += static_cast<double>(runs[index].result.num_evaluations);
    accuracy += runs[index].result.best_accuracy;
  }
  std::snprintf(line, sizeof(line),
                "%zu cases, %zu untraced searches, %zu set-ups",
                count,
                static_cast<size_t>(std::count_if(
                    runs.begin(), runs.end(),
                    [](const SearchRun& run) { return !run.traced; })),
                setup_s.size());
  out.Note(line);
  std::string wall_line = "search walls (s):";
  for (const SearchRun& run : runs) {
    wall_line += (run.traced ? " t" : " ") + std::to_string(run.wall);
  }
  out.Note(wall_line);

  if (!args.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("wall_s", wall, "s");
    out.Set("throughput_per_s", evaluations / static_cast<double>(count) / wall,
            "1/s");
    out.Set("accuracy", accuracy / static_cast<double>(count), "ratio");
    out.Set("peak_rss_mb",
            mean_of_medians([&](size_t k) { return peaks[k]; }), "MiB");
    return out;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) out.Set(name, 0.0, unit);
  for (const auto& [name, values] : layers.front()) {
    out.metrics[name].value =
        mean_of_medians([&](size_t k) { return layers[k].at(name); });
  }
  out.metrics["data.load_s"].value = Median(load_s);
  const double traced_wall =
      mean_of_medians([&](size_t k) { return traced_walls[k]; });
  out.metrics["trace_overhead_ratio"].value =
      Ratio(traced_wall - wall, wall);
  ProbePreprocessors(prepared.front().split.train.features, &out);
  return out;
}

}  // namespace perfbench
