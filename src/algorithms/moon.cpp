#include "algorithms/moon.h"

#include <cmath>
#include <vector>

#include "nn/loss.h"
#include "nn/parameter_vector.h"

namespace fedtrip::algorithms {

namespace {

/// Gradient of cos(z, a) w.r.t. z for one row:
///   d cos / dz = a / (|z||a|) - cos * z / |z|^2
/// Accumulates `weight * dcos/dz` into `out`.
void add_cosine_grad(const float* z, const float* a, std::size_t dim,
                     float weight, float* out) {
  double nz = 0.0, na = 0.0, dot = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    nz += static_cast<double>(z[i]) * z[i];
    na += static_cast<double>(a[i]) * a[i];
    dot += static_cast<double>(z[i]) * a[i];
  }
  nz = std::sqrt(nz);
  na = std::sqrt(na);
  if (nz < 1e-12 || na < 1e-12) return;
  const double cos = dot / (nz * na);
  const double inv_za = 1.0 / (nz * na);
  const double c_over_z2 = cos / (nz * nz);
  for (std::size_t i = 0; i < dim; ++i) {
    out[i] += weight * static_cast<float>(a[i] * inv_za - c_over_z2 * z[i]);
  }
}

double cosine(const float* x, const float* y, std::size_t dim) {
  double nx = 0.0, ny = 0.0, dot = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    nx += static_cast<double>(x[i]) * x[i];
    ny += static_cast<double>(y[i]) * y[i];
    dot += static_cast<double>(x[i]) * y[i];
  }
  if (nx <= 0.0 || ny <= 0.0) return 0.0;
  return dot / (std::sqrt(nx) * std::sqrt(ny));
}

}  // namespace

fl::ClientUpdate Moon::train_client(fl::ClientContext& ctx) {
  fl::Workspace& ws = *ctx.workspace;
  nn::Sequential& model = ws.model();
  nn::load_parameters(model, *ctx.global_params);
  ws.optimizer().reset();

  // Frozen representation models: global, and the client's previous local
  // model (falls back to the global model before first participation, which
  // makes l_con constant and gradient-free, i.e. plain FedAvg behaviour).
  nn::Sequential& glob = ws.aux_model(0);
  nn::Sequential& hist = ws.aux_model(1);
  nn::load_parameters(glob, *ctx.global_params);
  nn::load_parameters(hist, ctx.history != nullptr ? ctx.history->params
                                                   : *ctx.global_params);

  nn::SoftmaxCrossEntropy ce;
  double loss_sum = 0.0;
  double flops = 0.0;
  std::size_t steps = 0;

  for (std::size_t epoch = 0; epoch < ctx.local_epochs; ++epoch) {
    for (auto& batch : ctx.loader->epoch(ctx.rng)) {
      const std::size_t batch_n = batch.labels.size();

      Tensor z = model.forward_features(batch.inputs, /*train=*/true);
      Tensor logits = model.forward_head(z, /*train=*/true);
      const float ce_loss = ce.forward(logits, batch.labels);

      Tensor z_glob = glob.forward_features(batch.inputs, /*train=*/false);
      Tensor z_hist = hist.forward_features(batch.inputs, /*train=*/false);

      model.zero_grad();
      Tensor g_feat = model.backward_head(ce.backward());

      // Contrastive term, per sample.
      const std::size_t dim = static_cast<std::size_t>(z.shape()[1]);
      double con_loss = 0.0;
      const float w_scale = mu_ / static_cast<float>(batch_n);
      for (std::size_t s = 0; s < batch_n; ++s) {
        const float* zs = z.data() + s * dim;
        const float* zg = z_glob.data() + s * dim;
        const float* zh = z_hist.data() + s * dim;
        const double sg = cosine(zs, zg, dim) / tau_;
        const double sh = cosine(zs, zh, dim) / tau_;
        // l = log(1 + exp(sh - sg)); sigma = sigmoid(sh - sg)
        const double d = sh - sg;
        con_loss += d > 30.0 ? d : std::log1p(std::exp(d));
        const double sigma = 1.0 / (1.0 + std::exp(-d));
        float* gf = g_feat.data() + s * dim;
        const float w_g =
            w_scale * static_cast<float>(-sigma / tau_);
        const float w_h = w_scale * static_cast<float>(sigma / tau_);
        add_cosine_grad(zs, zg, dim, w_g, gf);
        add_cosine_grad(zs, zh, dim, w_h, gf);
      }
      model.backward_from_features(g_feat);

      const double fp = model.forward_flops_per_sample();
      const double bp = model.backward_flops_per_sample();
      // Base training pass + 2 extra frozen feedforwards (1 + p, p = 1).
      flops += static_cast<double>(batch_n) * (fp + bp + 2.0 * fp);

      ws.optimizer().step(model);
      loss_sum += ce_loss +
                  mu_ * con_loss / static_cast<double>(batch_n);
      ++steps;
    }
  }

  fl::ClientUpdate update;
  update.client_id = ctx.client_id;
  update.params = nn::flatten_parameters(model);
  update.num_samples = ctx.loader->size();
  update.train_loss = steps > 0 ? loss_sum / static_cast<double>(steps) : 0.0;
  update.flops = flops;
  return update;
}

}  // namespace fedtrip::algorithms
