#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/run_journal.h"
#include "preprocess/preprocessor.h"

namespace perfbench {

using autofp::EvalRequest;
using autofp::Evaluation;
using autofp::SearchContext;

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double UnionLength(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  double total = 0.0;
  double begin = 0.0, end = -1.0;
  for (const Span& span : spans) {
    if (span.begin > end) {
      if (end > begin) total += end - begin;
      begin = span.begin;
      end = span.end;
    } else {
      end = std::max(end, span.end);
    }
  }
  if (end > begin) total += end - begin;
  return total;
}

double UncoveredLength(const std::vector<Span>& outer,
                       const std::vector<Span>& inner) {
  // |outer| - |outer ∩ inner| = |outer ∪ inner| - |inner|.
  std::vector<Span> both = outer;
  both.insert(both.end(), inner.begin(), inner.end());
  return UnionLength(both) - UnionLength(inner);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

void HistoryDigest::Add(const Evaluation& evaluation) {
  const std::string key = evaluation.pipeline.Key();
  uint64_t fraction_bits = 0, accuracy_bits = 0;
  std::memcpy(&fraction_bits, &evaluation.budget_fraction,
              sizeof(fraction_bits));
  std::memcpy(&accuracy_bits, &evaluation.accuracy, sizeof(accuracy_bits));
  hash_ = autofp::HashCombine(hash_,
                              autofp::Fnv1a64(key.data(), key.size()));
  hash_ = autofp::HashCombine(hash_, fraction_bits);
  hash_ = autofp::HashCombine(hash_, accuracy_bits);
  hash_ = autofp::HashCombine(
      hash_, static_cast<uint64_t>(static_cast<int>(evaluation.failure)));
}

void TracingAlgorithm::Initialize(SearchContext* context) {
  const double begin = tracing_ ? Now() : 0.0;
  inner_->Initialize(context);
  AfterCall(context, begin);
}

void TracingAlgorithm::Iterate(SearchContext* context) {
  const double begin = tracing_ ? Now() : 0.0;
  inner_->Iterate(context);
  ++iterations_;
  AfterCall(context, begin);
}

void TracingAlgorithm::AfterCall(SearchContext* context, double begin) {
  if (tracing_) spans_.push_back(Span{begin, Now()});
  const std::vector<Evaluation>& history = context->history();
  for (size_t i = static_cast<size_t>(records_); i < history.size(); ++i) {
    digest_.Add(history[i]);
  }
  records_ = static_cast<long>(history.size());
  if (context->has_best()) best_ = context->best();
}

void TracingEvaluator::Reset(bool tracing) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracing_ = tracing;
  record_ = Record{};
}

Evaluation TracingEvaluator::Timed(const EvalRequest& request,
                                   autofp::TransformScratch* scratch) {
  // Set by Reset() before the run hands work to any pool thread.
  if (!tracing_) return inner_->Evaluate(request, scratch);
  const double begin = Now();
  Evaluation evaluation = inner_->Evaluate(request, scratch);
  const double end = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  record_.spans.push_back(Span{begin, end});
  record_.prep_seconds += evaluation.timing.prep_seconds;
  record_.train_seconds += evaluation.timing.train_seconds;
  if (evaluation.failed()) ++record_.failed;
  return evaluation;
}

void TimingBatchObserver::OnBatchScored(const autofp::Matrix& rows,
                                        const std::vector<int>& predictions,
                                        const autofp::Predictor& predictor) {
  if (!tracing_.load(std::memory_order_relaxed)) {
    inner_->OnBatchScored(rows, predictions, predictor);
    return;
  }
  const auto begin = std::chrono::steady_clock::now();
  inner_->OnBatchScored(rows, predictions, predictor);
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - begin)
                         .count();
  nanos_.fetch_add(static_cast<long>(nanos));
  rows_.fetch_add(static_cast<long>(rows.rows()));
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    Note("CHECK FAILED: " + what);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void ResetPeakRss() {
  // "5" resets the peak resident set size (Linux 4.0 and later).
  std::ofstream("/proc/self/clear_refs") << "5";
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics = [] {
    auto* list = new std::vector<std::pair<std::string, std::string>>{
        {"trace_overhead_ratio", "ratio"},
        {"data.load_s", "s"},
        {"search.pick_s", "s"},
        {"search.pick_share", "ratio"},
        {"search.iterations", "count"},
        {"search.unaccounted_s", "s"},
        {"core.evals", "count"},
        {"core.eval_busy_s", "s"},
        {"core.eval_covered_s", "s"},
        {"core.eval_p50_ms", "ms"},
        {"core.eval_p99_ms", "ms"},
        {"core.pool_utilization", "ratio"},
        {"core.result_cache_hit_ratio", "ratio"},
        {"core.eval_failed_ratio", "ratio"},
        {"core.journal_bytes_per_eval", "B"},
        {"core.reported_over_measured", "ratio"},
        {"preprocess.prep_s", "s"},
        {"preprocess.prep_share", "ratio"},
        {"preprocess.prefix_hit_ratio", "ratio"},
        {"preprocess.prefix_evictions", "count"},
        {"ml.train_s", "s"},
        {"ml.train_share", "ratio"},
        {"serve.predict_busy_s", "s"},
        {"serve.predict_batch_p99_ms", "ms"},
        {"serve.rows_per_batch", "count"},
        {"serve.coalesced_ratio", "ratio"},
        {"serve.busy_shed_ratio", "ratio"},
        {"serve.swap_ms", "ms"},
        {"serve.gen_late_p99_ms", "ms"},
        {"serve.open_p50_ms", "ms"},
        {"serve.open_p99_ms", "ms"},
        {"stream.observe_ns_per_row", "ns"},
        {"stream.windows_compared", "count"},
        {"stream.research_started", "count"},
    };
    for (autofp::PreprocessorKind kind : autofp::AllPreprocessorKinds()) {
      list->push_back({"preprocess.fit_ms." + autofp::KindName(kind), "ms"});
      list->push_back(
          {"preprocess.transform_ms." + autofp::KindName(kind), "ms"});
    }
    return list;
  }();
  return *metrics;
}

void ProbePreprocessors(const autofp::Matrix& train, RunResult* result) {
  constexpr int kRepeats = 5;
  for (autofp::PreprocessorKind kind : autofp::AllPreprocessorKinds()) {
    std::vector<double> fit_ms, transform_ms;
    for (int r = 0; r < kRepeats; ++r) {
      std::unique_ptr<autofp::Preprocessor> step =
          autofp::MakePreprocessor(kind);
      autofp::Matrix data = train;
      double begin = Now();
      step->Fit(data);
      fit_ms.push_back((Now() - begin) * 1e3);
      begin = Now();
      step->TransformInPlace(data);
      transform_ms.push_back((Now() - begin) * 1e3);
    }
    const std::string name = autofp::KindName(kind);
    result->Set("preprocess.fit_ms." + name, Median(fit_ms), "ms");
    result->Set("preprocess.transform_ms." + name, Median(transform_ms),
                "ms");
  }
}

}  // namespace perfbench
