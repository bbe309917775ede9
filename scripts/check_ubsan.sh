#!/usr/bin/env bash
# Builds with -fsanitize=undefined and runs the kernel-layer suites:
# the SIMD wrapper primitives, the row-major preprocessor kernels,
# the matrix storage/view machinery, and the pipeline data plane built
# on them, including the PowerTransformer and QuantileTransformer unit
# suites (the fit's hoisted-logarithm lambda search and the quantile
# lookup tables), the regression-tree fit behind SMAC's surrogate
# (dense column ranks, counting-sort offsets, packed sort keys), the GBDT
# fit (32-bit bin cells, lane-across-features split scan), dataset
# construction from parsed tables, and the data-plane golden hashes
# (every fit/transform path and sharded serving). UBSan is the check
# that the vectorized remainder handling, the branchless table lookups
# (index arithmetic, gathers), the tree fits' index arithmetic and the
# borrowed-view aliasing never rely on undefined behavior — misaligned
# casts, signed overflow, out-of-range shifts.
#
# Usage: scripts/check_ubsan.sh [ctest-regex]
#   ctest-regex  optional test-name filter; defaults to the kernel
#                suites. Pass '.' to run everything under UBSan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-ubsan"
filter="${1:-Simd|Kernels|Matrix|InPlace|Pipeline|Preprocessor|PowerTransformer|QuantileTransformer|DecisionTree|RandomForest|Smac|Gbdt|GbdtDetails|Dataset|DataPlaneGolden}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=undefined
cmake --build "${build_dir}" -j \
  --target test_simd test_kernels test_matrix test_inplace test_pipeline \
  test_preprocessors test_models test_surrogates test_gbdt_details \
  test_dataset test_data_plane_golden

cd "${build_dir}"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --output-on-failure -R "${filter}"
echo "UBSan check passed."
