/**
 * @file
 * Minimal dense row-major float tensor used as the numeric substrate for
 * the transformer models and the attention reference implementations.
 *
 * The tensor is deliberately simple: contiguous fp32 storage, up to 4
 * dimensions, value semantics. All shape errors are hard failures
 * (SPATTEN_ASSERT) because shapes are static properties of the models.
 */
#ifndef SPATTEN_TENSOR_TENSOR_HPP
#define SPATTEN_TENSOR_TENSOR_HPP

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/prng.hpp"

namespace spatten {

/** Shape of a tensor: a small vector of dimension sizes. */
using Shape = std::vector<std::size_t>;

/** Dense row-major fp32 tensor with value semantics. */
class Tensor
{
  public:
    /** Empty 0-element tensor. */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Tensor of the given shape filled with @p fill. */
    Tensor(Shape shape, float fill);

    /** Tensor wrapping a copy of the given data. @pre data.size()==numel. */
    Tensor(Shape shape, std::vector<float> data);

    /** A 1-D tensor from an initializer list (convenience for tests). */
    static Tensor fromList(std::initializer_list<float> values);

    /** Tensor with i.i.d. N(mean, stddev) entries. */
    static Tensor randn(Shape shape, Prng& prng, float mean = 0.0f,
                        float stddev = 1.0f);

    /** Tensor with i.i.d. U[lo, hi) entries. */
    static Tensor uniform(Shape shape, Prng& prng, float lo, float hi);

    const Shape& shape() const { return shape_; }
    std::size_t ndim() const { return shape_.size(); }
    std::size_t numel() const { return data_.size(); }

    /** Size of dimension @p i (negative indices count from the back). */
    std::size_t dim(int i) const;

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    std::vector<float>& vec() { return data_; }
    const std::vector<float>& vec() const { return data_; }

    /** Flat element access. */
    float operator[](std::size_t i) const { return data_[i]; }
    float& operator[](std::size_t i) { return data_[i]; }

    /** 2-D element access. @pre ndim()==2. */
    float at(std::size_t r, std::size_t c) const;
    float& at(std::size_t r, std::size_t c);

    /** 3-D element access. @pre ndim()==3. */
    float at(std::size_t i, std::size_t j, std::size_t k) const;
    float& at(std::size_t i, std::size_t j, std::size_t k);

    /** Reshape in place; the element count must be preserved. */
    Tensor& reshape(Shape new_shape);

    /** Row @p r of a 2-D tensor as a fresh 1-D tensor. */
    Tensor row(std::size_t r) const;

    /** Fill all elements with @p value. */
    void fill(float value);

    /** Sum of all elements. */
    double sum() const;

    /** Mean absolute value of all elements (0 for empty). */
    double meanAbs() const;

    /** Maximum element. @pre numel() > 0. */
    float maxElem() const;

    /** Human-readable shape like "[2, 3, 4]". */
    std::string shapeStr() const;

    /** True if shapes match exactly. */
    bool sameShape(const Tensor& other) const { return shape_ == other.shape_; }

  private:
    Shape shape_;
    std::vector<float> data_;
};

/** Number of elements implied by a shape (1 for rank-0). */
std::size_t shapeNumel(const Shape& shape);

} // namespace spatten

#endif // SPATTEN_TENSOR_TENSOR_HPP
