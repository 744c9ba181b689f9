#include "tensor/tensor.hpp"

#include <cmath>
#include <numeric>

namespace spatten {

std::size_t
shapeNumel(const Shape& shape)
{
    std::size_t n = 1;
    for (std::size_t d : shape)
        n *= d;
    return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), 0.0f)
{
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), fill)
{
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    SPATTEN_ASSERT(data_.size() == shapeNumel(shape_),
                   "data size %zu does not match shape %s", data_.size(),
                   shapeStr().c_str());
}

Tensor
Tensor::fromList(std::initializer_list<float> values)
{
    return Tensor({values.size()}, std::vector<float>(values));
}

Tensor
Tensor::randn(Shape shape, Prng& prng, float mean, float stddev)
{
    Tensor t(std::move(shape));
    for (auto& x : t.data_)
        x = static_cast<float>(prng.gaussian(mean, stddev));
    return t;
}

Tensor
Tensor::uniform(Shape shape, Prng& prng, float lo, float hi)
{
    Tensor t(std::move(shape));
    for (auto& x : t.data_)
        x = static_cast<float>(prng.uniform(lo, hi));
    return t;
}

std::size_t
Tensor::dim(int i) const
{
    const int n = static_cast<int>(shape_.size());
    if (i < 0)
        i += n;
    SPATTEN_ASSERT(i >= 0 && i < n, "dim %d out of range for %s", i,
                   shapeStr().c_str());
    return shape_[static_cast<std::size_t>(i)];
}

float
Tensor::at(std::size_t r, std::size_t c) const
{
    SPATTEN_ASSERT(ndim() == 2, "2-D access on %s", shapeStr().c_str());
    return data_[r * shape_[1] + c];
}

float&
Tensor::at(std::size_t r, std::size_t c)
{
    SPATTEN_ASSERT(ndim() == 2, "2-D access on %s", shapeStr().c_str());
    return data_[r * shape_[1] + c];
}

float
Tensor::at(std::size_t i, std::size_t j, std::size_t k) const
{
    SPATTEN_ASSERT(ndim() == 3, "3-D access on %s", shapeStr().c_str());
    return data_[(i * shape_[1] + j) * shape_[2] + k];
}

float&
Tensor::at(std::size_t i, std::size_t j, std::size_t k)
{
    SPATTEN_ASSERT(ndim() == 3, "3-D access on %s", shapeStr().c_str());
    return data_[(i * shape_[1] + j) * shape_[2] + k];
}

Tensor&
Tensor::reshape(Shape new_shape)
{
    SPATTEN_ASSERT(shapeNumel(new_shape) == data_.size(),
                   "reshape %s -> invalid element count", shapeStr().c_str());
    shape_ = std::move(new_shape);
    return *this;
}

Tensor
Tensor::row(std::size_t r) const
{
    SPATTEN_ASSERT(ndim() == 2 && r < shape_[0], "row %zu of %s", r,
                   shapeStr().c_str());
    const std::size_t cols = shape_[1];
    std::vector<float> out(data_.begin() + static_cast<long>(r * cols),
                           data_.begin() + static_cast<long>((r + 1) * cols));
    return Tensor({cols}, std::move(out));
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

double
Tensor::sum() const
{
    return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double
Tensor::meanAbs() const
{
    if (data_.empty())
        return 0.0;
    double s = 0.0;
    for (float x : data_)
        s += std::fabs(x);
    return s / static_cast<double>(data_.size());
}

float
Tensor::maxElem() const
{
    SPATTEN_ASSERT(!data_.empty(), "maxElem of empty tensor");
    float m = data_[0];
    for (float x : data_)
        m = std::max(m, x);
    return m;
}

std::string
Tensor::shapeStr() const
{
    std::string s = "[";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        if (i)
            s += ", ";
        s += std::to_string(shape_[i]);
    }
    return s + "]";
}

} // namespace spatten
