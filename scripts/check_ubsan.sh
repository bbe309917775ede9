#!/usr/bin/env bash
# Builds with -fsanitize=undefined and runs the kernel-layer suites:
# the SIMD wrapper primitives, the layout-aware preprocessor kernels,
# the matrix layout/view machinery, and the pipeline data plane built
# on them, including the PowerTransformer and QuantileTransformer unit
# suites (the fit's hoisted-logarithm lambda search and the quantile
# lookup tables), the regression-tree fit behind SMAC's surrogate
# (dense column ranks, counting-sort offsets, packed sort keys), the GBDT
# fit (32-bit bin cells, lane-across-features split scan) and dataset
# construction from parsed tables. UBSan is the check that the
# vectorized remainder handling, the branchless table lookups (index
# arithmetic, gathers), the tree fits' index arithmetic and the
# borrowed-view aliasing never rely on undefined behavior — misaligned
# casts, signed overflow, out-of-range shifts.
#
# Usage: scripts/check_ubsan.sh [ctest-regex]
#   ctest-regex  optional test-name filter; defaults to the kernel
#                suites. Pass '.' to run everything under UBSan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-ubsan"
filter="${1:-Simd|Kernels|Matrix|InPlace|Pipeline|Preprocessor|PowerTransformer|QuantileTransformer|DecisionTree|RandomForest|Smac|Gbdt|GbdtDetails|Dataset}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=undefined
cmake --build "${build_dir}" -j \
  --target test_simd test_kernels test_matrix test_inplace test_pipeline \
  test_preprocessors test_models test_surrogates test_gbdt_details \
  test_dataset

cd "${build_dir}"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --output-on-failure -R "${filter}"
echo "UBSan check passed."
