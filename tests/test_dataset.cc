#include "data/dataset.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "data/splits.h"

namespace autofp {
namespace {

Dataset TinyDataset() {
  Dataset d;
  d.name = "tiny";
  d.features = {{0.0, 1.0}, {1.0, 1.0}, {2.0, 0.0}, {3.0, 0.0},
                {4.0, 1.0}, {5.0, 0.0}, {6.0, 1.0}, {7.0, 0.0}};
  d.labels = {0, 0, 1, 1, 0, 1, 0, 1};
  d.num_classes = 2;
  return d;
}

TEST(Dataset, ClassCounts) {
  Dataset d = TinyDataset();
  std::vector<double> counts = d.ClassCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_DOUBLE_EQ(counts[0], 4.0);
  EXPECT_DOUBLE_EQ(counts[1], 4.0);
}

TEST(Dataset, SelectRowsKeepsLabels) {
  Dataset d = TinyDataset();
  Dataset s = d.SelectRows({2, 0});
  ASSERT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.labels[0], 1);
  EXPECT_EQ(s.labels[1], 0);
  EXPECT_DOUBLE_EQ(s.features(0, 0), 2.0);
}

TEST(Dataset, ValidateCatchesBadLabels) {
  Dataset d = TinyDataset();
  EXPECT_TRUE(d.Validate().ok());
  d.labels[0] = 7;
  EXPECT_FALSE(d.Validate().ok());
  d.labels[0] = -1;
  EXPECT_FALSE(d.Validate().ok());
}

TEST(Dataset, ValidateCatchesRowMismatch) {
  Dataset d = TinyDataset();
  d.labels.pop_back();
  EXPECT_FALSE(d.Validate().ok());
}

TEST(Dataset, SizeMb) {
  Dataset d = TinyDataset();
  EXPECT_NEAR(d.SizeMb(), 8 * 2 * 8 / 1e6, 1e-12);
}

TEST(Dataset, FromMatrixDensifiesLabels) {
  Matrix table = {{1.0, 10.0}, {2.0, 30.0}, {3.0, 10.0}, {4.0, 20.0}};
  Result<Dataset> d = DatasetFromMatrix(table, "t");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().num_classes, 3);
  // Labels 10, 30, 10, 20 -> 0, 2, 0, 1 (sorted order).
  EXPECT_EQ(d.value().labels[0], 0);
  EXPECT_EQ(d.value().labels[1], 2);
  EXPECT_EQ(d.value().labels[3], 1);
  EXPECT_EQ(d.value().num_cols(), 1u);
}

TEST(Dataset, FromMatrixRejectsSingleColumn) {
  Matrix table = {{1.0}, {2.0}};
  EXPECT_FALSE(DatasetFromMatrix(table, "t").ok());
}

TEST(Dataset, FromMatrixRejectsNonFiniteLabels) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix table = {{1.0, 0.0}, {2.0, 1.0}, {3.0, bad}, {4.0, 0.0}};
    Result<Dataset> d = DatasetFromMatrix(table, "t");
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(d.status().message().find("label at row 2"), std::string::npos)
        << d.status().ToString();
  }
}

TEST(Dataset, LoadCsvRejectsNaNLabel) {
  // The CSV reader accepts "nan"; the label check must catch it.
  const std::string path = ::testing::TempDir() + "/autofp_nan_label.csv";
  {
    std::ofstream out(path);
    out << "a,b,label\n1,2,0\n3,4,1\n5,6,nan\n7,8,1\n";
  }
  Result<Dataset> d = LoadCsvDataset(path, /*has_header=*/true, "nan");
  std::remove(path.c_str());
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(d.status().message().find("label at row 2"), std::string::npos)
      << d.status().ToString();
}

TEST(Dataset, LoadCsvRejectsNonFiniteFeature) {
  // The CSV reader parses these cells (1e400 overflows to inf); the
  // feature check must reject each one with its row and column.
  const std::string path = ::testing::TempDir() + "/autofp_nan_feature.csv";
  for (const char* bad : {"nan", "inf", "-inf", "1e400"}) {
    SCOPED_TRACE(bad);
    {
      std::ofstream out(path);
      out << "a,b,label\n1,2,0\n3,4,1\n5," << bad << ",0\n7,8,1\n";
    }
    Result<Dataset> d = LoadCsvDataset(path, /*has_header=*/true, "bad");
    std::remove(path.c_str());
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(d.status().message().find("feature at row 2, column 1"),
              std::string::npos)
        << d.status().ToString();
  }
}

TEST(Splits, TrainValidProportions) {
  Dataset d = TinyDataset();
  Rng rng(5);
  TrainValidSplit split = SplitTrainValid(d, 0.75, &rng);
  EXPECT_EQ(split.train.num_rows(), 6u);
  EXPECT_EQ(split.valid.num_rows(), 2u);
  EXPECT_EQ(split.train.num_classes, 2);
}

TEST(Splits, TrainValidCoversAllRows) {
  Dataset d = TinyDataset();
  Rng rng(6);
  TrainValidSplit split = SplitTrainValid(d, 0.5, &rng);
  // Feature column 0 is unique per row: union of both sides = all rows.
  std::vector<bool> seen(8, false);
  for (size_t r = 0; r < split.train.num_rows(); ++r) {
    seen[static_cast<size_t>(split.train.features(r, 0))] = true;
  }
  for (size_t r = 0; r < split.valid.num_rows(); ++r) {
    seen[static_cast<size_t>(split.valid.features(r, 0))] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Splits, KFoldPartition) {
  Rng rng(7);
  std::vector<std::vector<size_t>> folds = KFoldIndices(10, 3, &rng);
  ASSERT_EQ(folds.size(), 3u);
  std::vector<int> hit(10, 0);
  for (const auto& fold : folds) {
    for (size_t index : fold) hit[index]++;
  }
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(Splits, SubsampleRowsFraction) {
  Dataset d = TinyDataset();
  Rng rng(8);
  Dataset half = SubsampleRows(d, 0.5, &rng);
  EXPECT_EQ(half.num_rows(), 4u);
  Dataset full = SubsampleRows(d, 1.0, &rng);
  EXPECT_EQ(full.num_rows(), 8u);
}

TEST(Splits, SubsampleAtLeastOneRow) {
  Dataset d = TinyDataset();
  Rng rng(9);
  Dataset tiny = SubsampleRows(d, 0.01, &rng);
  EXPECT_GE(tiny.num_rows(), 1u);
}

}  // namespace
}  // namespace autofp
