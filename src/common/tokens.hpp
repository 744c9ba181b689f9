/**
 * @file
 * Token-id sequences: a borrowed span for readers, and the shared,
 * immutable prompt a traced request carries.
 *
 * A multi-turn conversation re-sends its whole history every turn, so
 * each turn's prompt is a prefix of the conversation's final token
 * sequence. PromptTokens stores that sequence once per conversation and
 * gives every turn a view of its own prefix; TokenSpan lets a reader
 * (the KV pool's prefix lookup) take either a view or a plain vector
 * without copying.
 */
#ifndef SPATTEN_COMMON_TOKENS_HPP
#define SPATTEN_COMMON_TOKENS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hpp"

namespace spatten {

/** A non-owning, read-only run of token ids: pointer plus length.
 *  Valid only while the tokens it points at are alive and unchanged. */
class TokenSpan
{
  public:
    TokenSpan(const std::uint64_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    /// Implicit: every vector of token ids reads as a span.
    TokenSpan(const std::vector<std::uint64_t>& tokens)
        : data_(tokens.data()), size_(tokens.size())
    {
    }

    const std::uint64_t* data() const { return data_; }
    std::size_t size() const { return size_; }
    const std::uint64_t* begin() const { return data_; }
    const std::uint64_t* end() const { return data_ + size_; }

  private:
    const std::uint64_t* data_;
    std::size_t size_;
};

/**
 * A request's prompt content: the first size() tokens of a shared,
 * immutable buffer that holds its whole conversation. Copies share the
 * buffer, which lives as long as any view of it. Empty by default (a
 * trace without prompt content).
 */
class PromptTokens
{
  public:
    using Buffer = std::vector<std::uint64_t>;
    using value_type = std::uint64_t;
    using const_iterator = const std::uint64_t*;
    using iterator = const_iterator;

    PromptTokens() = default;
    PromptTokens(std::shared_ptr<const Buffer> buffer, std::size_t size)
        : buffer_(std::move(buffer)), size_(size)
    {
        SPATTEN_ASSERT(size_ == 0 || (buffer_ && size_ <= buffer_->size()),
                       "prompt view of %zu tokens past its buffer", size_);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const std::uint64_t* data() const
    {
        return buffer_ ? buffer_->data() : nullptr;
    }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }
    std::uint64_t front() const { return data()[0]; }
    std::uint64_t back() const { return data()[size_ - 1]; }
    /// The whole shared conversation buffer (may extend past size()).
    const std::shared_ptr<const Buffer>& buffer() const { return buffer_; }

    operator TokenSpan() const { return TokenSpan(data(), size_); }

    friend bool operator==(const PromptTokens& a, const PromptTokens& b)
    {
        return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    std::shared_ptr<const Buffer> buffer_;
    std::size_t size_ = 0;
};

} // namespace spatten

#endif // SPATTEN_COMMON_TOKENS_HPP
