/**
 * @file
 * Minimal training machinery for the transformer substrate: trainable
 * parameters with gradients and the Adam optimizer. Backpropagation is
 * implemented manually inside each layer (src/nn/layers.*), so this file
 * only owns parameter state and the update rule.
 */
#ifndef SPATTEN_NN_AUTOGRAD_HPP
#define SPATTEN_NN_AUTOGRAD_HPP

#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace spatten {

/** A trainable tensor with gradient and Adam moment buffers. */
struct Param
{
    std::string name;
    Tensor value;
    Tensor grad;
    Tensor m; ///< Adam first moment.
    Tensor v; ///< Adam second moment.

    Param() = default;
    Param(std::string n, Tensor init);

    void zeroGrad();
    std::size_t numel() const { return value.numel(); }
};

/** Adam optimizer (Kingma & Ba) over a set of registered parameters. */
class AdamOptimizer
{
  public:
    struct Config
    {
        double lr = 1e-3;
        double beta1 = 0.9;
        double beta2 = 0.999;
        double eps = 1e-8;
        double grad_clip = 1.0; ///< Global-norm clip; <=0 disables.
    };

    AdamOptimizer() : AdamOptimizer(Config{}) {}
    explicit AdamOptimizer(Config cfg) : cfg_(cfg) {}

    /** Apply one update step to @p params and zero their gradients. */
    void step(std::vector<Param*>& params);

    const Config& config() const { return cfg_; }

  private:
    Config cfg_;
    std::size_t t_ = 0;
};

/** Total parameter count of a parameter set. */
std::size_t totalParams(const std::vector<Param*>& params);

} // namespace spatten

#endif // SPATTEN_NN_AUTOGRAD_HPP
