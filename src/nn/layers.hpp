/**
 * @file
 * Transformer building blocks with manual forward/backward passes:
 * Linear, LayerNorm, Embedding, ReLU and the softmax cross-entropy loss.
 * Each forward returns (or fills) a cache that backward consumes; batch
 * handling is by looping over sequences (batch sizes here are small).
 */
#ifndef SPATTEN_NN_LAYERS_HPP
#define SPATTEN_NN_LAYERS_HPP

#include <vector>

#include "nn/autograd.hpp"
#include "tensor/tensor.hpp"

namespace spatten {

/** Fully-connected layer y = xW + b with manual backprop. */
class Linear
{
  public:
    /** Xavier-initialized layer. */
    Linear(std::string name, std::size_t in, std::size_t out, Prng& prng);

    /** y [N,out] from x [N,in]. */
    Tensor forward(const Tensor& x) const;

    /**
     * Backward: given x from forward and upstream dy, accumulate dW/db
     * and return dx.
     */
    Tensor backward(const Tensor& x, const Tensor& dy);


    Param& weight() { return w_; }
    Param& bias() { return b_; }
    void collectParams(std::vector<Param*>& out);

  private:
    std::size_t in_, out_;
    Param w_; ///< [in, out]
    Param b_; ///< [out]
};

/** Row-wise layer normalization with learnable gain/bias. */
class LayerNorm
{
  public:
    LayerNorm(std::string name, std::size_t dim);

    struct Cache
    {
        Tensor xhat;        ///< Normalized input.
        std::vector<float> inv_std; ///< Per-row 1/sqrt(var+eps).
    };

    Tensor forward(const Tensor& x, Cache& cache) const;
    Tensor backward(const Cache& cache, const Tensor& dy);

    void collectParams(std::vector<Param*>& out);

  private:
    std::size_t dim_;
    float eps_ = 1e-5f;
    Param gamma_, beta_;
};

/** Token embedding table with learned additive position embeddings. */
class Embedding
{
  public:
    Embedding(std::string name, std::size_t vocab, std::size_t dim,
              std::size_t max_len, Prng& prng);

    /** [L, dim] = tok[ids] + pos[0..L). */
    Tensor forward(const std::vector<std::size_t>& ids) const;

    /** [1, dim] embedding of one token at absolute position @p pos
     *  (generation-stage stepping with a KV cache). */
    Tensor forwardOne(std::size_t id, std::size_t pos) const;

    /** Accumulate gradients for the used rows. */
    void backward(const std::vector<std::size_t>& ids, const Tensor& dy);

    std::size_t vocab() const { return vocab_; }
    std::size_t dim() const { return dim_; }
    void collectParams(std::vector<Param*>& out);

  private:
    std::size_t vocab_, dim_, max_len_;
    Param tok_; ///< [vocab, dim]
    Param pos_; ///< [max_len, dim]
};

/** ReLU with backward. */
Tensor reluForward(const Tensor& x);
Tensor reluBackward(const Tensor& x, const Tensor& dy);

/**
 * Softmax cross-entropy over logits [N, C] with integer labels.
 * @param d_logits filled with the gradient (softmax - onehot) / N.
 * @return mean loss.
 */
double softmaxCrossEntropy(const Tensor& logits,
                           const std::vector<std::size_t>& labels,
                           Tensor& d_logits);

/** Row-wise softmax backward: ds = p * (dp - sum(dp * p)). */
Tensor softmaxBackwardRows(const Tensor& prob, const Tensor& dprob);

} // namespace spatten

#endif // SPATTEN_NN_LAYERS_HPP
