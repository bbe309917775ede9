#!/usr/bin/env bash
# Builds with -fsanitize=address and runs the data-plane-heavy suites:
# the in-place kernel / scratch-buffer property tests, the matrix
# storage primitives they rest on, the pipeline fit/transform paths,
# the parallel + serving consumers of shared cache entries, the
# preprocessor state loaders that must reject malformed artifact blobs
# before a transform reads past them, the regression-tree fit behind
# SMAC's surrogate (dense column ranks, counting-sort offsets, in-place
# stable partitions), the GBDT fit (bin-cell table, histogram planes,
# node row ranges), dataset construction from parsed tables, and the
# data-plane golden hashes (every fit/transform path and sharded
# serving at row and shard counts around 256). ASan is
# the check that the zero-copy refactor's aliasing rules (in-place
# kernels, non-owning views, adopted move storage) and the tree fits'
# index arithmetic never read or write freed or out-of-bounds memory.
#
# Usage: scripts/check_asan.sh [ctest-regex]
#   ctest-regex  optional test-name filter; defaults to the data-plane
#                suites. Pass '.' to run everything under ASan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-asan"
filter="${1:-Matrix|InPlace|Pipeline|TransformCache|ScratchEval|ParallelEvaluator|EvaluateBatch|Predictor|PreprocessorState|DecisionTree|RandomForest|Smac|Gbdt|GbdtDetails|Dataset|DataPlaneGolden}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=address
cmake --build "${build_dir}" -j \
  --target test_matrix test_inplace test_pipeline test_parallel_eval \
  test_predictor test_artifact test_models test_surrogates \
  test_gbdt_details test_dataset test_data_plane_golden

cd "${build_dir}"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ctest --output-on-failure -R "${filter}"
echo "ASan check passed."
