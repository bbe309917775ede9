#include "ml/decision_tree.h"

#include "util/serialize.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

namespace autofp {

namespace {

/// Candidate feature columns for a split: all of them, or a random subset
/// of size max_features when in random-forest mode.
std::vector<size_t> CandidateFeatures(size_t num_cols, int max_features,
                                      Rng* rng) {
  if (max_features <= 0 ||
      static_cast<size_t>(max_features) >= num_cols || rng == nullptr) {
    std::vector<size_t> all(num_cols);
    std::iota(all.begin(), all.end(), size_t{0});
    return all;
  }
  return rng->SampleWithoutReplacement(num_cols,
                                       static_cast<size_t>(max_features));
}

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double score = -std::numeric_limits<double>::infinity();
  bool valid() const { return feature >= 0; }
};

}  // namespace

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

void DecisionTreeClassifier::Train(const Matrix& features,
                                   const std::vector<int>& labels,
                                   int num_classes) {
  AUTOFP_CHECK_EQ(features.rows(), labels.size());
  AUTOFP_CHECK_GT(features.rows(), 0u);
  nodes_.clear();
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Build(features, labels, num_classes, &rows, 0, nullptr);
}

void DecisionTreeClassifier::TrainOnRows(const Matrix& features,
                                         const std::vector<int>& labels,
                                         int num_classes,
                                         const std::vector<size_t>& rows,
                                         Rng* rng) {
  AUTOFP_CHECK(!rows.empty());
  nodes_.clear();
  std::vector<size_t> mutable_rows = rows;
  Build(features, labels, num_classes, &mutable_rows, 0, rng);
}

int DecisionTreeClassifier::Build(const Matrix& features,
                                  const std::vector<int>& labels,
                                  int num_classes, std::vector<size_t>* rows,
                                  int depth, Rng* rng) {
  const size_t n = rows->size();
  std::vector<double> counts(num_classes, 0.0);
  for (size_t row : *rows) counts[labels[row]] += 1.0;
  int majority = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());

  auto make_leaf = [&]() {
    Node leaf;
    leaf.label = majority;
    nodes_.push_back(leaf);
    return static_cast<int>(nodes_.size() - 1);
  };

  bool pure = counts[majority] == static_cast<double>(n);
  if (pure || n < config_.min_samples_split ||
      (config_.max_depth >= 0 && depth >= config_.max_depth)) {
    return make_leaf();
  }

  // Parent gini (unnormalized weighted form is enough for comparing gains).
  auto gini_sum = [&](const std::vector<double>& c, double total) {
    if (total <= 0.0) return 0.0;
    double sum_sq = 0.0;
    for (double v : c) sum_sq += v * v;
    return total - sum_sq / total;  // total * gini.
  };
  double parent_impurity = gini_sum(counts, static_cast<double>(n));

  SplitCandidate best;
  std::vector<std::pair<double, int>> sorted(n);
  std::vector<double> left_counts(num_classes);
  for (size_t feature : CandidateFeatures(features.cols(),
                                          config_.max_features, rng)) {
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = {features((*rows)[i], feature), labels[(*rows)[i]]};
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;
    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_total = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_counts[sorted[i].second] += 1.0;
      left_total += 1.0;
      if (sorted[i].first == sorted[i + 1].first) continue;
      if (left_total < config_.min_samples_leaf ||
          n - left_total < config_.min_samples_leaf) {
        continue;
      }
      std::vector<double> right_counts(num_classes);
      for (int k = 0; k < num_classes; ++k) {
        right_counts[k] = counts[k] - left_counts[k];
      }
      double impurity = gini_sum(left_counts, left_total) +
                        gini_sum(right_counts,
                                 static_cast<double>(n) - left_total);
      double gain = parent_impurity - impurity;
      if (gain > best.score) {
        best.score = gain;
        best.feature = static_cast<int>(feature);
        best.threshold = (sorted[i].first + sorted[i + 1].first) / 2.0;
      }
    }
  }

  if (!best.valid() || best.score <= 1e-12) return make_leaf();

  std::vector<size_t> left_rows, right_rows;
  for (size_t row : *rows) {
    if (features(row, best.feature) <= best.threshold) {
      left_rows.push_back(row);
    } else {
      right_rows.push_back(row);
    }
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();
  rows->clear();
  rows->shrink_to_fit();

  Node node;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.label = majority;
  nodes_.push_back(node);
  int index = static_cast<int>(nodes_.size() - 1);
  int left = Build(features, labels, num_classes, &left_rows, depth + 1, rng);
  int right =
      Build(features, labels, num_classes, &right_rows, depth + 1, rng);
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

int DecisionTreeClassifier::Predict(const double* row, size_t cols) const {
  AUTOFP_CHECK(!nodes_.empty()) << "Predict before Train";
  // Root is always node 0 (Build pushes parents before children only for
  // leaves; the first node created by the outer call is the root when the
  // tree is a single leaf, otherwise the root split node is created first).
  int index = 0;
  while (nodes_[index].feature >= 0) {
    size_t feature = static_cast<size_t>(nodes_[index].feature);
    AUTOFP_CHECK_LT(feature, cols);
    index = row[feature] <= nodes_[index].threshold ? nodes_[index].left
                                                    : nodes_[index].right;
  }
  return nodes_[index].label;
}

int DecisionTreeClassifier::depth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> walk = [&](int index) -> int {
    if (nodes_[index].feature < 0) return 0;
    return 1 + std::max(walk(nodes_[index].left), walk(nodes_[index].right));
  };
  return walk(0);
}

// ---------------------------------------------------------------------------
// Regressor
// ---------------------------------------------------------------------------

RegressionTrainingSet::RegressionTrainingSet(
    const Matrix& features, const std::vector<double>& targets)
    : features_(features), targets_(targets) {
  const size_t rows = features.rows();
  const size_t cols = features.cols();
  AUTOFP_CHECK_EQ(rows, targets.size());
  AUTOFP_CHECK_GT(rows, 0u);
  AUTOFP_CHECK_LE(rows, std::numeric_limits<uint32_t>::max());
  for (size_t r = 0; r < rows; ++r) {
    AUTOFP_CHECK(std::isfinite(targets[r])) << "non-finite target, row " << r;
    for (size_t c = 0; c < cols; ++c) {
      AUTOFP_CHECK(std::isfinite(features(r, c)))
          << "non-finite feature, row " << r << " column " << c;
    }
  }

  // Dense ranks: sort each column's rows by value and start a new level
  // wherever the value changes (so -0.0 and +0.0 share a level).
  ranks_.resize(rows * cols);
  levels_.resize(cols);
  std::vector<uint32_t> order(rows);
  for (size_t c = 0; c < cols; ++c) {
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return features(a, c) < features(b, c);
    });
    uint32_t* column = ranks_.data() + c * rows;
    uint32_t level = 0;
    for (size_t i = 0; i < rows; ++i) {
      if (i > 0 && features(order[i - 1], c) < features(order[i], c)) {
        ++level;
      }
      column[order[i]] = level;
    }
    levels_[c] = level + 1;
  }

  by_target_.resize(rows);
  std::iota(by_target_.begin(), by_target_.end(), uint32_t{0});
  std::stable_sort(by_target_.begin(), by_target_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return targets[a] < targets[b];
                   });
}

/// One tree fit's buffers, sized once so that no node allocates. A node
/// owns entries [begin, end) of `rows` and `by_target`; a split stably
/// partitions both ranges into its children's.
struct DecisionTreeRegressor::Workspace {
  std::vector<uint32_t> rows;       ///< bootstrap draw order.
  std::vector<uint32_t> by_target;  ///< ascending target order.
  std::vector<uint32_t> order;      ///< scan order; partition scratch.
  std::vector<uint32_t> counts;     ///< counting-sort buckets, one a level.
  std::vector<uint64_t> keys;       ///< (rank, position) sort keys.
  std::vector<size_t> candidates;   ///< the node's feature draw.
};

namespace {

/// Writes the node entries `by_target[0, n)` (ascending target) to
/// `order` sorted by their rank in `ranks`, ties kept in target order:
/// the (value, target) order of sorting the node's pairs. A column with
/// at most n levels is counting-sorted; a column with more (continuous
/// or deep nodes) sorts (rank, position) keys instead, which are
/// distinct, so any sort of them yields that same order.
void OrderByValue(const uint32_t* ranks, uint32_t levels,
                  const uint32_t* by_target, size_t n, uint32_t* order,
                  uint32_t* counts, uint64_t* keys) {
  if (levels <= n) {
    std::fill(counts, counts + levels, 0u);
    for (size_t i = 0; i < n; ++i) ++counts[ranks[by_target[i]]];
    uint32_t start = 0;
    for (uint32_t level = 0; level < levels; ++level) {
      const uint32_t count = counts[level];
      counts[level] = start;
      start += count;
    }
    for (size_t i = 0; i < n; ++i) {
      order[counts[ranks[by_target[i]]]++] = by_target[i];
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    keys[i] = uint64_t{ranks[by_target[i]]} << 32 | i;
  }
  std::sort(keys, keys + n);
  for (size_t i = 0; i < n; ++i) order[i] = by_target[keys[i] & 0xFFFFFFFFu];
}

/// Stable in-place partition of `values[0, n)` by `goes_left`, using
/// `scratch` (n entries) for the right side. Returns the left count.
template <typename Predicate>
size_t StablePartition(uint32_t* values, size_t n, uint32_t* scratch,
                       Predicate goes_left) {
  size_t left = 0, right = 0;
  for (size_t i = 0; i < n; ++i) {
    if (goes_left(values[i])) {
      values[left++] = values[i];
    } else {
      scratch[right++] = values[i];
    }
  }
  std::copy(scratch, scratch + right, values + left);
  return left;
}

}  // namespace

void DecisionTreeRegressor::Train(const Matrix& features,
                                  const std::vector<double>& targets) {
  RegressionTrainingSet data(features, targets);
  std::vector<size_t> rows(data.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  TrainOnRows(data, rows, nullptr);
}

void DecisionTreeRegressor::TrainOnRows(const RegressionTrainingSet& data,
                                        const std::vector<size_t>& rows,
                                        Rng* rng) {
  const size_t n = rows.size();
  AUTOFP_CHECK_GT(n, 0u);
  AUTOFP_CHECK_LE(n, std::numeric_limits<uint32_t>::max());
  nodes_.clear();
  Workspace work;
  // counts first holds each row's bootstrap multiplicity, which expands
  // the shared target order into this sample's.
  work.counts.assign(data.rows(), 0u);
  work.rows.reserve(n);
  for (size_t row : rows) {
    AUTOFP_CHECK_LT(row, data.rows());
    work.rows.push_back(static_cast<uint32_t>(row));
    ++work.counts[row];
  }
  work.by_target.reserve(n);
  for (uint32_t row : data.by_target()) {
    work.by_target.insert(work.by_target.end(), work.counts[row], row);
  }
  work.order.resize(n);
  work.keys.resize(n);
  work.candidates.resize(data.cols());
  Build(data, &work, 0, n, 0, rng);
}

int DecisionTreeRegressor::Build(const RegressionTrainingSet& data,
                                 Workspace* work, size_t begin, size_t end,
                                 int depth, Rng* rng) {
  const std::vector<double>& targets = data.targets();
  const size_t n = end - begin;
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double target = targets[work->rows[i]];
    sum += target;
    sum_sq += target * target;
  }
  double mean = sum / static_cast<double>(n);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.value = mean;
    nodes_.push_back(leaf);
    return static_cast<int>(nodes_.size() - 1);
  };

  double sse = sum_sq - sum * sum / static_cast<double>(n);
  if (sse <= 1e-12 || n < config_.min_samples_split ||
      (config_.max_depth >= 0 && depth >= config_.max_depth)) {
    return make_leaf();
  }

  // Candidate features: all of them, or the first max_features of a
  // partial Fisher-Yates shuffle, drawing from rng exactly as
  // Rng::SampleWithoutReplacement does.
  const size_t cols = data.cols();
  std::vector<size_t>& candidates = work->candidates;
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  size_t num_candidates = cols;
  if (config_.max_features > 0 &&
      static_cast<size_t>(config_.max_features) < cols && rng != nullptr) {
    num_candidates = static_cast<size_t>(config_.max_features);
    for (size_t i = 0; i < num_candidates; ++i) {
      std::swap(candidates[i], candidates[i + rng->UniformIndex(cols - i)]);
    }
  }

  const Matrix& features = data.features();
  const uint32_t* by_target = work->by_target.data() + begin;
  uint32_t* order = work->order.data();
  SplitCandidate best;
  for (size_t c = 0; c < num_candidates; ++c) {
    const size_t feature = candidates[c];
    const uint32_t* ranks = data.ranks(feature);
    OrderByValue(ranks, data.levels(feature), by_target, n, order,
                 work->counts.data(), work->keys.data());
    if (ranks[order[0]] == ranks[order[n - 1]]) continue;
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_sum += targets[order[i]];
      if (ranks[order[i]] == ranks[order[i + 1]]) continue;
      double left_n = static_cast<double>(i + 1);
      double right_n = static_cast<double>(n) - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf) {
        continue;
      }
      double right_sum = sum - left_sum;
      // Maximizing sum of squared child means weighted by size minimizes
      // total SSE.
      double score =
          left_sum * left_sum / left_n + right_sum * right_sum / right_n;
      if (score > best.score) {
        best.score = score;
        best.feature = static_cast<int>(feature);
        best.threshold =
            (features(order[i], feature) + features(order[i + 1], feature)) /
            2.0;
      }
    }
  }

  if (!best.valid()) return make_leaf();
  double gain = best.score - sum * sum / static_cast<double>(n);
  if (gain <= 1e-12) return make_leaf();

  auto goes_left = [&](uint32_t row) {
    return features(row, best.feature) <= best.threshold;
  };
  const size_t left_n =
      StablePartition(work->rows.data() + begin, n, order, goes_left);
  if (left_n == 0 || left_n == n) return make_leaf();
  StablePartition(work->by_target.data() + begin, n, order, goes_left);

  Node node;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.value = mean;
  nodes_.push_back(node);
  int index = static_cast<int>(nodes_.size() - 1);
  int left = Build(data, work, begin, begin + left_n, depth + 1, rng);
  int right = Build(data, work, begin + left_n, end, depth + 1, rng);
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

double DecisionTreeRegressor::Predict(const double* row, size_t cols) const {
  AUTOFP_CHECK(!nodes_.empty()) << "Predict before Train";
  int index = 0;
  while (nodes_[index].feature >= 0) {
    size_t feature = static_cast<size_t>(nodes_[index].feature);
    AUTOFP_CHECK_LT(feature, cols);
    index = row[feature] <= nodes_[index].threshold ? nodes_[index].left
                                                    : nodes_[index].right;
  }
  return nodes_[index].value;
}

void DecisionTreeClassifier::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(!nodes_.empty()) << "SaveState before Train";
  WritePod<uint64_t>(out, nodes_.size());
  for (const Node& node : nodes_) {
    WritePod<int32_t>(out, node.feature);
    WritePod<double>(out, node.threshold);
    WritePod<int32_t>(out, node.left);
    WritePod<int32_t>(out, node.right);
    WritePod<int32_t>(out, node.label);
  }
}

Status DecisionTreeClassifier::LoadState(std::istream& in) {
  uint64_t num_nodes = 0;
  if (!ReadPod(in, &num_nodes) || num_nodes == 0 ||
      num_nodes > kMaxSerializedElements) {
    return Status::InvalidArgument(
        "DecisionTreeClassifier: malformed state blob");
  }
  std::vector<Node> nodes(num_nodes);
  for (Node& node : nodes) {
    if (!ReadPod(in, &node.feature) || !ReadPod(in, &node.threshold) ||
        !ReadPod(in, &node.left) || !ReadPod(in, &node.right) ||
        !ReadPod(in, &node.label)) {
      return Status::InvalidArgument(
          "DecisionTreeClassifier: malformed state blob");
    }
  }
  nodes_ = std::move(nodes);
  return Status::OK();
}

}  // namespace autofp
