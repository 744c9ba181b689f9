/**
 * @file
 * Token-id sequences: a borrowed span for readers, and the shared,
 * immutable prompt a traced request carries.
 *
 * A multi-turn conversation re-sends its whole history every turn, so
 * each turn's prompt is a prefix of the conversation's final token
 * sequence. Synthetic content is a pure function of position within a
 * few content streams (system prompt, each reply, each user turn), so
 * PromptTokens stores a conversation once as its (start, seed) runs and
 * gives every turn a view of its own prefix; ids are computed when
 * read. A reader that needs contiguous ids (the KV pool's prefix
 * lookup takes a TokenSpan) copies a view into its own scratch vector.
 */
#ifndef SPATTEN_COMMON_TOKENS_HPP
#define SPATTEN_COMMON_TOKENS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "common/prng.hpp"

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
 * A request's prompt content: the first size() tokens of its
 * conversation, stored as runs rather than token ids. A run is one
 * content stream: the token at absolute position p of the run holding
 * it is mix64(seed ^ p), so a run needs only its start and seed, and a
 * whole conversation is a few dozen bytes however long it grows. The
 * run list is shared and immutable; copies share it, and it lives as
 * long as any view of it. Empty by default (a trace without prompt
 * content).
 */
class PromptTokens
{
  public:
    /// One content stream, from @p start to the next run's start.
    struct Run
    {
        std::size_t start;
        std::uint64_t seed;
    };
    /// Sorted by strictly increasing start, beginning at 0 (no run is
    /// empty).
    using Runs = std::vector<Run>;
    using value_type = std::uint64_t;

    /** Forward iterator computing each id as it is read; moving to the
     *  next position steps the run at most once. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::uint64_t;
        using difference_type = std::ptrdiff_t;
        using pointer = const std::uint64_t*;
        using reference = std::uint64_t;

        const_iterator() = default;
        const_iterator(const Run* run, const Run* runs_end, std::size_t pos)
            : run_(run), runs_end_(runs_end), pos_(pos)
        {
        }

        std::uint64_t operator*() const { return mix64(run_->seed ^ pos_); }
        const_iterator& operator++()
        {
            ++pos_;
            if (run_ + 1 != runs_end_ && run_[1].start == pos_)
                ++run_;
            return *this;
        }
        const_iterator operator++(int)
        {
            const const_iterator old = *this;
            ++*this;
            return old;
        }
        friend bool operator==(const const_iterator& a,
                               const const_iterator& b)
        {
            return a.pos_ == b.pos_;
        }
        friend bool operator!=(const const_iterator& a,
                               const const_iterator& b)
        {
            return a.pos_ != b.pos_;
        }

      private:
        const Run* run_ = nullptr; ///< The run holding pos_.
        const Run* runs_end_ = nullptr;
        std::size_t pos_ = 0;
    };
    using iterator = const_iterator;

    PromptTokens() = default;
    PromptTokens(std::shared_ptr<const Runs> runs, std::size_t size)
        : runs_(std::move(runs)), size_(size)
    {
        SPATTEN_ASSERT(size_ == 0 || (runs_ && !runs_->empty() &&
                                      runs_->front().start == 0),
                       "prompt view of %zu tokens has no run at 0", size_);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const_iterator begin() const
    {
        return runs_ ? const_iterator(runs_->data(),
                                      runs_->data() + runs_->size(), 0)
                     : const_iterator();
    }
    const_iterator end() const
    {
        return const_iterator(nullptr, nullptr, size_);
    }
    /// The token at position @p p (< size()).
    std::uint64_t at(std::size_t p) const
    {
        SPATTEN_ASSERT(p < size_, "token %zu of a %zu-token prompt view", p,
                       size_);
        const auto after = std::upper_bound(
            runs_->begin(), runs_->end(), p,
            [](std::size_t q, const Run& r) { return q < r.start; });
        return mix64(std::prev(after)->seed ^ p);
    }
    std::uint64_t front() const
    {
        SPATTEN_ASSERT(size_ > 0, "front() of an empty prompt view");
        return at(0);
    }
    std::uint64_t back() const
    {
        SPATTEN_ASSERT(size_ > 0, "back() of an empty prompt view");
        return at(size_ - 1);
    }
    /// The whole shared conversation's runs (may extend past size()).
    const std::shared_ptr<const Runs>& runs() const { return runs_; }

    /** Replace @p out's contents with the view's size() token ids,
     *  reusing its capacity. */
    void copyTo(std::vector<std::uint64_t>& out) const
    {
        out.resize(size_);
        if (size_ == 0)
            return;
        const Runs& runs = *runs_;
        for (std::size_t r = 0; r < runs.size() && runs[r].start < size_;
             ++r) {
            const std::size_t stop =
                r + 1 < runs.size() ? std::min(runs[r + 1].start, size_)
                                    : size_;
            for (std::size_t p = runs[r].start; p < stop; ++p)
                out[p] = mix64(runs[r].seed ^ p);
        }
    }

    friend bool operator==(const PromptTokens& a, const PromptTokens& b)
    {
        return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    std::shared_ptr<const Runs> runs_;
    std::size_t size_ = 0;
};

} // namespace spatten

#endif // SPATTEN_COMMON_TOKENS_HPP
