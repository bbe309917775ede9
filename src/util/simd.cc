#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace autofp {
namespace simd {

namespace internal {
constinit std::atomic<bool> force_scalar{false};
}  // namespace internal

namespace {

/// Applies AUTOFP_FORCE_SCALAR (any value but "0") once, before main.
[[maybe_unused]] const bool kForceScalarFromEnvironment = [] {
  const char* env = std::getenv("AUTOFP_FORCE_SCALAR");
  if (env != nullptr && std::strcmp(env, "0") != 0) SetForceScalar(true);
  return true;
}();

}  // namespace

}  // namespace simd
}  // namespace autofp
