#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/csv.h"

namespace autofp {

std::vector<double> Dataset::ClassCounts() const {
  std::vector<double> counts(num_classes, 0.0);
  for (int label : labels) {
    AUTOFP_CHECK_GE(label, 0);
    AUTOFP_CHECK_LT(label, num_classes);
    counts[label] += 1.0;
  }
  return counts;
}

Dataset Dataset::SelectRows(const std::vector<size_t>& indices) const {
  Dataset out;
  out.name = name;
  out.num_classes = num_classes;
  out.features = features.SelectRows(indices);
  out.labels.reserve(indices.size());
  for (size_t idx : indices) {
    AUTOFP_CHECK_LT(idx, labels.size());
    out.labels.push_back(labels[idx]);
  }
  return out;
}

Status Dataset::Validate() const {
  if (features.rows() != labels.size()) {
    return Status::InvalidArgument("row count " +
                                   std::to_string(features.rows()) +
                                   " != label count " +
                                   std::to_string(labels.size()));
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes, got " +
                                   std::to_string(num_classes));
  }
  for (int label : labels) {
    if (label < 0 || label >= num_classes) {
      return Status::InvalidArgument("label " + std::to_string(label) +
                                     " out of range [0, " +
                                     std::to_string(num_classes) + ")");
    }
  }
  return Status::OK();
}

Result<Dataset> DatasetFromMatrix(const Matrix& table,
                                  const std::string& name) {
  if (table.cols() < 2) {
    return Status::InvalidArgument(
        "need at least one feature column plus a label column");
  }
  Dataset out;
  out.name = name;
  size_t feature_cols = table.cols() - 1;
  out.features = Matrix(table.rows(), feature_cols);
  // Densify labels: arbitrary numeric values -> 0..k-1 in sorted order.
  std::map<double, int> label_ids;
  std::vector<double> raw_labels(table.rows());
  for (size_t r = 0; r < table.rows(); ++r) {
    for (size_t c = 0; c < feature_cols; ++c) {
      // A NaN or infinite feature poisons every fit that reads its
      // column; the CSV reader parses "nan", "inf" and out-of-range
      // literals such as 1e400, so reject them here with a location.
      if (!std::isfinite(table(r, c))) {
        return Status::InvalidArgument("non-finite feature at row " +
                                       std::to_string(r) + ", column " +
                                       std::to_string(c));
      }
      out.features(r, c) = table(r, c);
    }
    raw_labels[r] = table(r, feature_cols);
    // A NaN key would break the map's ordering (UB), and an infinite
    // label is no class either.
    if (!std::isfinite(raw_labels[r])) {
      return Status::InvalidArgument("non-finite label at row " +
                                     std::to_string(r));
    }
    label_ids[raw_labels[r]] = 0;
  }
  int next_id = 0;
  for (auto& [value, id] : label_ids) id = next_id++;
  out.labels.reserve(table.rows());
  for (double raw : raw_labels) out.labels.push_back(label_ids[raw]);
  out.num_classes = next_id;
  Status status = out.Validate();
  if (!status.ok()) return status;
  return out;
}

Result<Dataset> LoadCsvDataset(const std::string& path, bool has_header,
                               const std::string& name) {
  Result<CsvTable> table = ReadCsv(path, has_header);
  if (!table.ok()) return table.status();
  return DatasetFromMatrix(table.value().values, name);
}

}  // namespace autofp
