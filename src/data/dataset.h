#ifndef AUTOFP_DATA_DATASET_H_
#define AUTOFP_DATA_DATASET_H_

#include <string>
#include <vector>

#include "util/matrix.h"
#include "util/status.h"

namespace autofp {

/// A tabular classification dataset: a dense numeric feature matrix plus
/// integer class labels in [0, num_classes).
struct Dataset {
  std::string name;
  Matrix features;          ///< rows = samples, cols = features.
  std::vector<int> labels;  ///< one label per row.
  int num_classes = 0;

  size_t num_rows() const { return features.rows(); }
  size_t num_cols() const { return features.cols(); }

  /// Approximate in-memory size in MB (8 bytes per cell), the size metric
  /// used by the paper's Figure 5 / Table 5 bucketing.
  double SizeMb() const {
    return static_cast<double>(num_rows() * num_cols() * 8) / 1e6;
  }

  /// Per-class sample counts (length num_classes).
  std::vector<double> ClassCounts() const;

  /// Returns the dataset restricted to the given row indices.
  Dataset SelectRows(const std::vector<size_t>& indices) const;

  /// Validates internal consistency (label range, row counts).
  Status Validate() const;
};

/// Loads a dataset from CSV where the last column is the class label
/// (arbitrary numeric labels are densified to 0..k-1).
Result<Dataset> LoadCsvDataset(const std::string& path, bool has_header,
                               const std::string& name);

/// Builds a dataset from a parsed matrix whose last column is the label.
/// A non-finite label is an InvalidArgument naming its (0-based) row; a
/// non-finite feature is one naming its (0-based) row and column.
Result<Dataset> DatasetFromMatrix(const Matrix& table, const std::string& name);

}  // namespace autofp

#endif  // AUTOFP_DATA_DATASET_H_
