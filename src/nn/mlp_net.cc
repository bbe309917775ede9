#include "nn/mlp_net.h"

#include "util/serialize.h"
#include "util/simd.h"

#include <algorithm>

namespace autofp {

MlpNet::MlpNet(const MlpNetConfig& config, Rng* rng) : config_(config) {
  AUTOFP_CHECK_GT(config.input_dim, 0u);
  AUTOFP_CHECK_GT(config.output_dim, 0u);
  std::vector<size_t> dims;
  dims.push_back(config.input_dim);
  for (size_t h : config.hidden_dims) dims.push_back(h);
  dims.push_back(config.output_dim);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    Layer layer;
    layer.in_dim = dims[i];
    layer.out_dim = dims[i + 1];
    layer.weights.Resize(layer.in_dim * layer.out_dim);
    layer.weights.InitGlorot(layer.in_dim, layer.out_dim, rng);
    layer.bias.Resize(layer.out_dim);
    layers_.push_back(std::move(layer));
  }
}

Matrix MlpNet::Forward(const Matrix& inputs) {
  AUTOFP_CHECK_EQ(inputs.cols(), config_.input_dim);
  activations_.clear();
  activations_.push_back(inputs);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const Matrix& in = activations_.back();
    Matrix out(in.rows(), layer.out_dim);
    const bool is_last = (l + 1 == layers_.size());
    for (size_t r = 0; r < in.rows(); ++r) {
      const double* in_row = in.RowPtr(r);
      double* out_row = out.RowPtr(r);
      for (size_t o = 0; o < layer.out_dim; ++o) {
        const double* w = layer.weights.value.data() + o * layer.in_dim;
        const double sum =
            layer.bias.value[o] + simd::Dot(w, in_row, layer.in_dim);
        out_row[o] = is_last ? sum : std::max(sum, 0.0);
      }
    }
    activations_.push_back(std::move(out));
  }
  return activations_.back();
}

Matrix MlpNet::Infer(const Matrix& inputs) const {
  AUTOFP_CHECK_EQ(inputs.cols(), config_.input_dim);
  // The first layer reads the caller's batch directly, without a copy.
  Matrix current;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const Matrix& in = l == 0 ? inputs : current;
    Matrix out(in.rows(), layer.out_dim);
    const bool is_last = (l + 1 == layers_.size());
    for (size_t r = 0; r < in.rows(); ++r) {
      const double* in_row = in.RowPtr(r);
      double* out_row = out.RowPtr(r);
      for (size_t o = 0; o < layer.out_dim; ++o) {
        const double* w = layer.weights.value.data() + o * layer.in_dim;
        const double sum =
            layer.bias.value[o] + simd::Dot(w, in_row, layer.in_dim);
        out_row[o] = is_last ? sum : std::max(sum, 0.0);
      }
    }
    current = std::move(out);
  }
  return current;
}

void MlpNet::Backward(const Matrix& grad_outputs) {
  AUTOFP_CHECK_EQ(activations_.size(), layers_.size() + 1)
      << "Backward without matching Forward";
  AUTOFP_CHECK_EQ(grad_outputs.rows(), activations_.back().rows());
  AUTOFP_CHECK_EQ(grad_outputs.cols(), config_.output_dim);
  Matrix grad = grad_outputs;
  for (size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const Matrix& in = activations_[l];
    const Matrix& out = activations_[l + 1];
    const bool is_last = (l + 1 == layers_.size());
    // ReLU gate: zero gradient where the activation was clipped.
    if (!is_last) {
      for (size_t r = 0; r < grad.rows(); ++r) {
        double* g = grad.RowPtr(r);
        const double* a = out.RowPtr(r);
        for (size_t o = 0; o < layer.out_dim; ++o) {
          if (a[o] <= 0.0) g[o] = 0.0;
        }
      }
    }
    // Parameter gradients.
    for (size_t r = 0; r < grad.rows(); ++r) {
      const double* g = grad.RowPtr(r);
      const double* in_row = in.RowPtr(r);
      for (size_t o = 0; o < layer.out_dim; ++o) {
        if (g[o] == 0.0) continue;
        double* wg = layer.weights.grad.data() + o * layer.in_dim;
        simd::Axpy(g[o], in_row, wg, layer.in_dim);
        layer.bias.grad[o] += g[o];
      }
    }
    // Input gradient for the next (earlier) layer.
    if (l > 0) {
      Matrix grad_in(grad.rows(), layer.in_dim, 0.0);
      for (size_t r = 0; r < grad.rows(); ++r) {
        const double* g = grad.RowPtr(r);
        double* gi = grad_in.RowPtr(r);
        for (size_t o = 0; o < layer.out_dim; ++o) {
          if (g[o] == 0.0) continue;
          const double* w = layer.weights.value.data() + o * layer.in_dim;
          simd::Axpy(g[o], w, gi, layer.in_dim);
        }
      }
      grad = std::move(grad_in);
    }
  }
}

void MlpNet::ZeroGrads() {
  for (Layer& layer : layers_) {
    layer.weights.ZeroGrad();
    layer.bias.ZeroGrad();
  }
}

void MlpNet::Step(const AdamConfig& adam) {
  ++adam_step_;
  for (Layer& layer : layers_) {
    layer.weights.AdamStep(adam, adam_step_);
    layer.bias.AdamStep(adam, adam_step_);
  }
}

size_t MlpNet::num_parameters() const {
  size_t total = 0;
  for (const Layer& layer : layers_) {
    total += layer.weights.size() + layer.bias.size();
  }
  return total;
}

void MlpNet::SaveState(std::ostream& out) const {
  WritePod<uint64_t>(out, layers_.size());
  for (const Layer& layer : layers_) {
    WriteVec(out, layer.weights.value);
    WriteVec(out, layer.bias.value);
  }
}

Status MlpNet::LoadState(std::istream& in) {
  const Status malformed =
      Status::InvalidArgument("MlpNet: malformed state blob");
  uint64_t num_layers = 0;
  if (!ReadPod(in, &num_layers) || num_layers != layers_.size()) {
    return malformed;
  }
  for (Layer& layer : layers_) {
    std::vector<double> weights, bias;
    if (!ReadVec(in, &weights) || weights.size() != layer.weights.size() ||
        !ReadVec(in, &bias) || bias.size() != layer.bias.size()) {
      return malformed;
    }
    layer.weights.value = std::move(weights);
    layer.bias.value = std::move(bias);
    layer.weights.ZeroGrad();
    layer.bias.ZeroGrad();
  }
  adam_step_ = 0;
  return Status::OK();
}

}  // namespace autofp
