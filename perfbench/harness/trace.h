#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

// Measurement plumbing shared by the benchmark's workloads: a monotonic
// clock, in-memory spans, decorators that time the library's layer
// boundaries from the outside, and the metric/result record the harness
// prints. Nothing here changes what the library computes; every decorator
// forwards its calls unchanged.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/search_framework.h"
#include "serve/server.h"

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
double Now();

/// A [begin, end) interval on the Now() clock.
struct Span {
  double begin = 0.0;
  double end = 0.0;
};

/// Total length covered by the union of `spans`.
double UnionLength(std::vector<Span> spans);
/// Length of the part of `outer`'s union that `inner`'s union does not
/// cover.
double UncoveredLength(const std::vector<Span>& outer,
                       const std::vector<Span>& inner);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty.
double Percentile(std::vector<double> values, double p);
double Median(const std::vector<double>& values);

/// Timing-free fingerprint of a search history: per record the pipeline
/// key, budget fraction, accuracy bits and failure type — the fields
/// `autofp --dump-journal` prints apart from the request seed, which is
/// itself a function of the pipeline and fraction.
class HistoryDigest {
 public:
  void Add(const autofp::Evaluation& evaluation);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// SearchAlgorithm decorator. Always folds every new history record into
/// a digest and remembers the context's best record; with tracing on it
/// also keeps one span per Initialize/Iterate call.
class TracingAlgorithm : public autofp::SearchAlgorithm {
 public:
  TracingAlgorithm(std::unique_ptr<autofp::SearchAlgorithm> inner,
                   bool tracing)
      : inner_(std::move(inner)), tracing_(tracing) {}

  std::string name() const override { return inner_->name(); }
  void Initialize(autofp::SearchContext* context) override;
  void Iterate(autofp::SearchContext* context) override;

  uint64_t digest() const { return digest_.value(); }
  long records() const { return records_; }
  long iterations() const { return iterations_; }
  /// The context's best record when the search ended (failed() with no
  /// pipeline when nothing succeeded).
  const autofp::Evaluation& best() const { return best_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void AfterCall(autofp::SearchContext* context, double begin);

  std::unique_ptr<autofp::SearchAlgorithm> inner_;
  const bool tracing_;
  HistoryDigest digest_;
  long records_ = 0;
  long iterations_ = 0;
  autofp::Evaluation best_;
  std::vector<Span> spans_;
};

/// EvaluatorInterface decorator placed directly over the
/// PipelineEvaluator, below the result cache and the thread pool, so it
/// sees exactly the live evaluations. Both Evaluate overloads are
/// forwarded, the scratch buffer included. With tracing on it records
/// each live evaluation's span and its prep/train split from
/// Evaluation::timing; with tracing off it only forwards.
class TracingEvaluator : public autofp::EvaluatorInterface {
 public:
  explicit TracingEvaluator(autofp::EvaluatorInterface* inner)
      : inner_(inner) {}

  autofp::Evaluation Evaluate(const autofp::EvalRequest& request) override {
    return Timed(request, nullptr);
  }
  autofp::Evaluation Evaluate(const autofp::EvalRequest& request,
                              autofp::TransformScratch* scratch) override {
    return Timed(request, scratch);
  }
  double BaselineAccuracy() override { return inner_->BaselineAccuracy(); }

  /// Starts a new search run: clears the per-run record and sets whether
  /// spans are kept.
  void Reset(bool tracing);

  struct Record {
    std::vector<Span> spans;  ///< one per live evaluation.
    double prep_seconds = 0.0;
    double train_seconds = 0.0;
    long failed = 0;
  };
  /// The run's record; call only after RunSearch returned.
  const Record& record() const { return record_; }

 private:
  autofp::Evaluation Timed(const autofp::EvalRequest& request,
                           autofp::TransformScratch* scratch);

  autofp::EvaluatorInterface* inner_;
  bool tracing_ = false;
  std::mutex mutex_;  ///< guards record_ (pool workers call concurrently).
  Record record_;
};

/// ServeBatchObserver decorator around the stream controller: forwards
/// every scored micro-batch and, when enabled, times the controller's
/// share of the batch thread.
class TimingBatchObserver : public autofp::ServeBatchObserver {
 public:
  explicit TimingBatchObserver(autofp::ServeBatchObserver* inner)
      : inner_(inner) {}

  void OnBatchScored(const autofp::Matrix& rows,
                     const std::vector<int>& predictions,
                     const autofp::Predictor& predictor) override;

  void set_tracing(bool tracing) { tracing_.store(tracing); }
  long rows() const { return rows_.load(); }
  double seconds() const { return nanos_.load() * 1e-9; }

 private:
  autofp::ServeBatchObserver* inner_;
  std::atomic<bool> tracing_{false};
  std::atomic<long> rows_{0};
  std::atomic<long> nanos_{0};
};

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: pass/fail accounting plus metrics.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines (sample counts, check outcomes) printed before
  /// the result object.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked operation, failed unless `ok`.
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Peak resident set of this process in MiB since the last
/// ResetPeakRss() (since start where the kernel cannot reset it).
double PeakRssMb();
void ResetPeakRss();

/// Arguments shared by every workload.
struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the benchmark's build tree (journals,
  /// artifacts); created by the caller, removed afterwards.
  std::string work_dir;
};

/// Per-layer metrics every workload reports in a traced run, with their
/// units; a workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

bool IsSearchWorkload(const std::string& name);
RunResult RunSearchWorkload(const RunArgs& args);
RunResult RunServeWorkload(const RunArgs& args);

/// Times fit and transform of every preprocessor kind on `train` and sets
/// preprocess.fit_ms.<Kind> / preprocess.transform_ms.<Kind>.
void ProbePreprocessors(const autofp::Matrix& train, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
