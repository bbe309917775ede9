#include "preprocess/normalizer.h"

#include "preprocess/kernels.h"

namespace autofp {

void Normalizer::TransformInPlace(Matrix& data) const {
  // Row-wise by definition: the norm is a per-sample reduction, summed
  // in column order on every backend, so the output is bit-identical.
  kernels::NormalizeRows(data, config_.norm);
}

}  // namespace autofp
