#include "ml/gbdt.h"

#include "util/serialize.h"
#include "util/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace autofp {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

double GbdtClassifier::Tree::Predict(const double* row) const {
  int index = 0;
  while (nodes[index].feature >= 0) {
    index = row[nodes[index].feature] <= nodes[index].threshold
                ? nodes[index].left
                : nodes[index].right;
  }
  return nodes[index].weight;
}

struct GbdtClassifier::FitData {
  /// A split: active feature `feature` goes left at bins <= `bin`.
  struct Split {
    int feature = -1;
    int bin = -1;
  };

  /// The columns with at least 2 bins ("active features"), ascending.
  /// Histogram lane j belongs to columns[j].
  std::vector<size_t> columns;
  /// edges[j] = ascending bin upper edges of columns[j]. A value's bin
  /// is the count of edges strictly below it, so "bin <= b" is exactly
  /// "value <= edges[b]", the test Tree::Predict applies.
  std::vector<std::vector<double>> edges;
  /// Active features rounded up to whole SIMD vectors.
  size_t width = 0;
  /// Most bins of any active feature: the histograms' row count.
  size_t max_bins = 0;
  /// [row][j] = bin * width + j, the histogram cell of row's feature j.
  std::vector<uint32_t> cells;
  /// [j] = bins of feature j minus 1, the bins a split may end at (0 in
  /// the padding lanes), as doubles for the lane compare.
  std::vector<double> split_bins;
  /// Training rows in tree order: each node owns a [begin, end) range,
  /// ascending by row, which a split stably partitions in place.
  std::vector<uint32_t> order;
  std::vector<uint32_t> right_rows;
  /// Gradient and hessian histograms, [bin][width].
  std::vector<double> hist_g, hist_h;

  /// Sums each row's (g, h) into its cell of every active feature, in
  /// one pass over the node's rows. Each cell adds its rows in
  /// ascending row order, as a per-feature pass would.
  void FillHistograms(uint32_t begin, uint32_t end, const double* grad,
                      const double* hess);

  /// The first (feature, bin), in ascending order, of the largest gain
  /// above 1e-10 whose children both keep !(h < min_child_weight). Lanes
  /// scan adjacent features and keep their own first strict best, which
  /// are merged in ascending feature order with the same strict test:
  /// the split a sequential scan picks.
  Split FindSplit(double g_total, double h_total, double lambda,
                  double min_child_weight) const;

  /// Stably moves the rows of [begin, end) that go left to the front of
  /// the range; returns the end of the left part.
  uint32_t Partition(uint32_t begin, uint32_t end, Split split);
};

void GbdtClassifier::FitData::FillHistograms(uint32_t begin, uint32_t end,
                                             const double* grad,
                                             const double* hess) {
  const size_t cells_per_plane = max_bins * width;
  simd::Fill(hist_g.data(), 0.0, cells_per_plane);
  simd::Fill(hist_h.data(), 0.0, cells_per_plane);
  const size_t active = columns.size();
  double* sum_g = hist_g.data();
  double* sum_h = hist_h.data();
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = order[i];
    const double g = grad[row];
    const double h = hess[row];
    const uint32_t* row_cells = cells.data() + size_t{row} * active;
    for (size_t j = 0; j < active; ++j) {
      sum_g[row_cells[j]] += g;
      sum_h[row_cells[j]] += h;
    }
  }
}

GbdtClassifier::FitData::Split GbdtClassifier::FitData::FindSplit(
    double g_total, double h_total, double lambda,
    double min_child_weight) const {
  using simd::VecD;
  constexpr size_t kLanes = VecD::kLanes;
  constexpr double kMinGain = 1e-10;
  const VecD g_all = VecD::Set1(g_total);
  const VecD h_all = VecD::Set1(h_total);
  const VecD lambdas = VecD::Set1(lambda);
  const VecD min_weight = VecD::Set1(min_child_weight);
  const VecD parent_score = VecD::Set1(g_total * g_total / (h_total + lambda));
  double best_gain = kMinGain;
  Split best;
  for (size_t j0 = 0; j0 < width; j0 += kLanes) {
    const VecD lane_split_bins = VecD::Load(split_bins.data() + j0);
    const size_t block_bins = static_cast<size_t>(*std::max_element(
        split_bins.begin() + j0, split_bins.begin() + j0 + kLanes));
    VecD g_left = VecD::Zero(), h_left = VecD::Zero();
    VecD lane_gain = VecD::Set1(kMinGain), lane_bin = VecD::Zero();
    for (size_t b = 0; b < block_bins; ++b) {
      g_left = g_left + VecD::Load(hist_g.data() + b * width + j0);
      h_left = h_left + VecD::Load(hist_h.data() + b * width + j0);
      const VecD h_right = h_all - h_left;
      const VecD g_right = g_all - g_left;
      const VecD gain = g_left * g_left / (h_left + lambdas) +
                        g_right * g_right / (h_right + lambdas) -
                        parent_score;
      const VecD bin = VecD::Set1(static_cast<double>(b));
      const auto children_ok = VecD::And(VecD::NotLt(h_left, min_weight),
                                         VecD::NotLt(h_right, min_weight));
      const auto better =
          VecD::And(VecD::And(VecD::Gt(lane_split_bins, bin), children_ok),
                    VecD::Gt(gain, lane_gain));
      lane_gain = VecD::Select(better, gain, lane_gain);
      lane_bin = VecD::Select(better, bin, lane_bin);
    }
    double gains[kLanes], bins[kLanes];
    lane_gain.Store(gains);
    lane_bin.Store(bins);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      if (gains[lane] > best_gain) {
        best_gain = gains[lane];
        best.feature = static_cast<int>(j0 + lane);
        best.bin = static_cast<int>(bins[lane]);
      }
    }
  }
  return best;
}

uint32_t GbdtClassifier::FitData::Partition(uint32_t begin, uint32_t end,
                                            Split split) {
  const size_t active = columns.size();
  const size_t feature = static_cast<size_t>(split.feature);
  const uint32_t last_left_cell =
      static_cast<uint32_t>(static_cast<size_t>(split.bin) * width + feature);
  uint32_t left_end = begin;
  size_t right_count = 0;
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = order[i];
    if (cells[size_t{row} * active + feature] <= last_left_cell) {
      order[left_end++] = row;
    } else {
      right_rows[right_count++] = row;
    }
  }
  std::copy(right_rows.begin(), right_rows.begin() + right_count,
            order.begin() + left_end);
  return left_end;
}

GbdtClassifier::Tree GbdtClassifier::BuildTree(FitData* data,
                                               const double* grad,
                                               const double* hess,
                                               double* scores,
                                               size_t stride) const {
  Tree tree;
  const double lambda = config_.xgb_lambda;
  const double eta = config_.xgb_eta;
  const uint32_t num_rows = static_cast<uint32_t>(data->order.size());

  struct WorkItem {
    uint32_t begin;
    uint32_t end;
    int depth;
    int node_index;
  };

  auto leaf_weight = [&](double g, double h) {
    return -eta * g / (h + lambda);
  };

  // Root: every row, ascending. Children keep their parent's row order.
  std::iota(data->order.begin(), data->order.end(), uint32_t{0});
  tree.nodes.emplace_back();
  std::vector<WorkItem> stack;
  stack.push_back({0, num_rows, 0, 0});

  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    const uint32_t* rows = data->order.data();
    double g_total = 0.0, h_total = 0.0;
    for (uint32_t i = item.begin; i < item.end; ++i) {
      g_total += grad[rows[i]];
      h_total += hess[rows[i]];
    }
    const double weight = leaf_weight(g_total, h_total);
    tree.nodes[item.node_index].weight = weight;

    FitData::Split split;
    if (item.depth < config_.xgb_max_depth && item.end - item.begin >= 2 &&
        !data->columns.empty()) {
      data->FillHistograms(item.begin, item.end, grad, hess);
      split = data->FindSplit(g_total, h_total, lambda,
                              config_.xgb_min_child_weight);
    }
    if (split.feature < 0) {
      // A leaf. Its rows are exactly the training rows Tree::Predict
      // routes here (NaN features are rejected by Train).
      for (uint32_t i = item.begin; i < item.end; ++i) {
        scores[size_t{rows[i]} * stride] += weight;
      }
      continue;
    }

    const uint32_t mid = data->Partition(item.begin, item.end, split);
    TreeNode& node = tree.nodes[item.node_index];
    node.feature = static_cast<int>(data->columns[split.feature]);
    node.threshold = data->edges[split.feature][split.bin];
    const int left_index = static_cast<int>(tree.nodes.size());
    node.left = left_index;
    node.right = left_index + 1;
    tree.nodes.resize(tree.nodes.size() + 2);
    stack.push_back({item.begin, mid, item.depth + 1, left_index});
    stack.push_back({mid, item.end, item.depth + 1, left_index + 1});
  }
  return tree;
}

void GbdtClassifier::Train(const Matrix& features,
                           const std::vector<int>& labels, int num_classes) {
  AUTOFP_CHECK_EQ(features.rows(), labels.size());
  AUTOFP_CHECK_GE(num_classes, 2);
  num_classes_ = num_classes;
  num_outputs_ = num_classes == 2 ? 1 : num_classes;
  num_features_ = features.cols();
  trees_.clear();
  const size_t n = features.rows();
  AUTOFP_CHECK_LE(n, std::numeric_limits<uint32_t>::max());

  // Quantile histogram bins per feature (computed once on training data).
  // Features with a single bin can never split and get no histogram.
  FitData data;
  const int max_bins = std::max(config_.xgb_max_bins, 2);
  for (size_t f = 0; f < num_features_; ++f) {
    std::vector<double> sorted = features.Column(f);
    for (size_t r = 0; r < n; ++r) {
      AUTOFP_CHECK(!std::isnan(sorted[r]))
          << "GbdtClassifier: NaN feature, row " << r << ", column " << f;
    }
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<double> edges;
    if (static_cast<int>(sorted.size()) <= max_bins) {
      // One bin per distinct value; edge = value (left-inclusive).
      edges.assign(sorted.begin(), sorted.end() - (sorted.empty() ? 0 : 1));
    } else {
      for (int b = 1; b < max_bins; ++b) {
        size_t pos = sorted.size() * static_cast<size_t>(b) /
                     static_cast<size_t>(max_bins);
        edges.push_back(sorted[pos]);
      }
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
    if (edges.empty()) continue;
    data.max_bins = std::max(data.max_bins, edges.size() + 1);
    data.columns.push_back(f);
    data.edges.push_back(std::move(edges));
  }
  const size_t active = data.columns.size();
  constexpr size_t kLanes = simd::kDoubleLanes;
  data.width = (active + kLanes - 1) / kLanes * kLanes;
  // 32-bit cells: a plane too large for them (8 bytes per cell) could
  // not be allocated either.
  AUTOFP_CHECK_LE(data.max_bins * data.width,
                  std::numeric_limits<uint32_t>::max());
  data.split_bins.assign(data.width, 0.0);
  for (size_t j = 0; j < active; ++j) {
    data.split_bins[j] = static_cast<double>(data.edges[j].size());
  }
  data.cells.resize(n * active);
  for (size_t r = 0; r < n; ++r) {
    const double* row = features.RowPtr(r);
    uint32_t* row_cells = data.cells.data() + r * active;
    for (size_t j = 0; j < active; ++j) {
      const std::vector<double>& edges = data.edges[j];
      const size_t bin = simd::LowerBoundIndex(edges.data(), edges.size(),
                                               row[data.columns[j]]);
      row_cells[j] = static_cast<uint32_t>(bin * data.width + j);
    }
  }
  data.order.resize(n);
  data.right_rows.resize(n);
  data.hist_g.resize(data.max_bins * data.width);
  data.hist_h.resize(data.max_bins * data.width);

  std::vector<double> scores(n * num_outputs_, 0.0);
  std::vector<double> grad(n), hess(n);
  for (int round = 0; round < config_.xgb_rounds; ++round) {
    if (num_outputs_ == 1) {
      for (size_t i = 0; i < n; ++i) {
        double p = Sigmoid(scores[i]);
        grad[i] = p - (labels[i] == 1 ? 1.0 : 0.0);
        hess[i] = std::max(p * (1.0 - p), 1e-6);
      }
      trees_.push_back(
          BuildTree(&data, grad.data(), hess.data(), scores.data(), 1));
    } else {
      // Softmax probabilities for this round.
      std::vector<double> probs(n * num_outputs_);
      for (size_t i = 0; i < n; ++i) {
        const double* s = scores.data() + i * num_outputs_;
        double max_score = *std::max_element(s, s + num_outputs_);
        double denom = 0.0;
        for (int k = 0; k < num_outputs_; ++k) {
          probs[i * num_outputs_ + k] =
              std::exp(std::clamp(s[k] - max_score, -500.0, 0.0));
          denom += probs[i * num_outputs_ + k];
        }
        for (int k = 0; k < num_outputs_; ++k) {
          probs[i * num_outputs_ + k] /= denom;
        }
      }
      for (int k = 0; k < num_outputs_; ++k) {
        for (size_t i = 0; i < n; ++i) {
          double p = probs[i * num_outputs_ + k];
          grad[i] = p - (labels[i] == k ? 1.0 : 0.0);
          hess[i] = std::max(p * (1.0 - p), 1e-6);
        }
        trees_.push_back(BuildTree(&data, grad.data(), hess.data(),
                                   scores.data() + k, num_outputs_));
      }
    }
  }
}

std::vector<double> GbdtClassifier::RawScores(const double* row,
                                              size_t cols) const {
  AUTOFP_CHECK_EQ(cols, num_features_);
  std::vector<double> scores(num_outputs_, 0.0);
  for (size_t t = 0; t < trees_.size(); ++t) {
    scores[t % num_outputs_] += trees_[t].Predict(row);
  }
  return scores;
}

int GbdtClassifier::Predict(const double* row, size_t cols) const {
  AUTOFP_CHECK(!trees_.empty()) << "Predict before Train";
  std::vector<double> scores = RawScores(row, cols);
  if (num_outputs_ == 1) return scores[0] > 0.0 ? 1 : 0;
  return static_cast<int>(std::max_element(scores.begin(), scores.end()) -
                          scores.begin());
}

std::vector<int> GbdtClassifier::PredictBatch(const Matrix& features) const {
  AUTOFP_CHECK(!trees_.empty()) << "Predict before Train";
  AUTOFP_CHECK_EQ(features.cols(), num_features_);
  // Batch path: one scores buffer reused across every row instead of the
  // per-row vector the default Predict loop would allocate (the delta is
  // measured by bench_micro_models' BM_ModelPredictBatch).
  std::vector<int> predictions(features.rows());
  std::vector<double> scores(num_outputs_);
  for (size_t r = 0; r < features.rows(); ++r) {
    const double* row = features.RowPtr(r);
    std::fill(scores.begin(), scores.end(), 0.0);
    for (size_t t = 0; t < trees_.size(); ++t) {
      scores[t % num_outputs_] += trees_[t].Predict(row);
    }
    predictions[r] =
        num_outputs_ == 1
            ? (scores[0] > 0.0 ? 1 : 0)
            : static_cast<int>(
                  std::max_element(scores.begin(), scores.end()) -
                  scores.begin());
  }
  return predictions;
}

void GbdtClassifier::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(!trees_.empty()) << "SaveState before Train";
  WritePod<int32_t>(out, num_classes_);
  WritePod<int32_t>(out, num_outputs_);
  WritePod<uint64_t>(out, num_features_);
  WritePod<double>(out, base_score_);
  WritePod<uint64_t>(out, trees_.size());
  // Nodes are written field-by-field: raw struct bytes would leak
  // indeterminate padding into the artifact's CRC-stable byte stream.
  for (const Tree& tree : trees_) {
    WritePod<uint64_t>(out, tree.nodes.size());
    for (const TreeNode& node : tree.nodes) {
      WritePod<int32_t>(out, node.feature);
      WritePod<double>(out, node.threshold);
      WritePod<int32_t>(out, node.left);
      WritePod<int32_t>(out, node.right);
      WritePod<double>(out, node.weight);
    }
  }
}

Status GbdtClassifier::LoadState(std::istream& in) {
  const Status malformed =
      Status::InvalidArgument("GbdtClassifier: malformed state blob");
  int32_t classes = 0, outputs = 0;
  uint64_t features = 0, num_trees = 0;
  double base_score = 0.0;
  if (!ReadPod(in, &classes) || classes < 2 || !ReadPod(in, &outputs) ||
      outputs < 1 || !ReadPod(in, &features) || !ReadPod(in, &base_score) ||
      !ReadPod(in, &num_trees) || num_trees == 0 ||
      num_trees > kMaxSerializedElements) {
    return malformed;
  }
  std::vector<Tree> trees(num_trees);
  for (Tree& tree : trees) {
    uint64_t num_nodes = 0;
    if (!ReadPod(in, &num_nodes) || num_nodes > kMaxSerializedElements) {
      return malformed;
    }
    tree.nodes.resize(num_nodes);
    for (TreeNode& node : tree.nodes) {
      if (!ReadPod(in, &node.feature) || !ReadPod(in, &node.threshold) ||
          !ReadPod(in, &node.left) || !ReadPod(in, &node.right) ||
          !ReadPod(in, &node.weight)) {
        return malformed;
      }
    }
  }
  num_classes_ = classes;
  num_outputs_ = outputs;
  num_features_ = features;
  base_score_ = base_score;
  trees_ = std::move(trees);
  return Status::OK();
}

}  // namespace autofp
