/**
 * @file
 * Named statistics registry used by the hardware models to expose
 * counters (DRAM reads, row activations, top-k iterations, ...) to the
 * benchmark harness in a uniform way.
 *
 * Storage. A StatSet is a layout pointer plus a pointer to one
 * reference-counted block of doubles. The layout is an interned,
 * immutable key list — {interned name, gauge} pairs sorted by name —
 * and the values sit in the same order. Sets that hold the same keys
 * share one layout, so a finalized SpAtten request keeps only its ~37
 * doubles (296 B) in a single allocation; the names and kinds are
 * stored once per process.
 *
 * Sharing (copy-on-write). Copying a set shares its value block: the
 * copy bumps a count and allocates nothing. Every mutator — add(),
 * set(), merge(), reserve(), clear() — first makes the block its own,
 * copying it when another set still refers to it, so a write to one
 * copy never shows in another. Readers (get, has, isGauge, all(),
 * toString) never copy. Sets whose values are bit-equal can therefore
 * be folded onto one block by assignment (sameValues()/valueHash()
 * find them): the serving scheduler does so for every finished
 * request, so a report's records keep one block per distinct result.
 *
 * Interning. Names, layouts and layout transitions live in one
 * process-wide, append-only registry behind a mutex. Equal names
 * always share one pointer; an interned name or layout never moves,
 * changes or dies. Adding a key, or changing a key's kind (add() on a
 * gauge, set() on a counter), moves the set to the cached successor
 * layout of that step, so every set built along the same path — every
 * finalized result — lands on the same layout. Layouts are deduplicated
 * by content; the registry's total key count is capped at
 * kLayoutKeyBudget, so an unbounded name vocabulary (which would grow
 * O(n^2) layout keys) fails loudly instead of eating memory. StatName
 * interns once up front, so hot writers (HbmModel, StageGraph,
 * DecodeSession::finalize) never rebuild a name string.
 *
 * Thread safety. Interning a name — constructing a StatName, or add() /
 * set() of a string name the set does not hold yet — and every layout
 * step (a new key or a kind change) that the layout's hint does not
 * cover take the registry's lock. Value writes to existing keys,
 * get/has/isGauge, copying, all(), merging two sets of one layout and
 * hinted steps read only immutable interned data without locking.
 * A value block's count is atomic, and a shared block is never written:
 * copies of one set may be read, written and destroyed on different
 * threads at once, each thread through its own copy. Distinct StatSets
 * may therefore be built on any number of threads at once; one StatSet
 * object is not itself synchronized, like any standard container.
 *
 * Name order. all() and toString() walk entries in ascending
 * std::string order of their names — the same order the former
 * std::map-backed registry exposed — independent of insertion order,
 * thread count or interning order.
 */
#ifndef SPATTEN_SIM_STATS_HPP
#define SPATTEN_SIM_STATS_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace spatten {

/**
 * An interned stat name: a stable pointer into the process-wide intern
 * table. Construct once (e.g. as a function-local static, or when a
 * stage registers) and write through it without further string work.
 */
class StatName
{
  public:
    explicit StatName(std::string_view name);

  private:
    friend class StatSet;
    const std::string* name_;
};

/**
 * A name -> double statistics map with formatting helpers.
 *
 * Entries carry counter-or-gauge semantics: add() creates counters
 * (accumulating deltas, summed by merge()); set() creates gauges
 * (point-in-time values like utilizations or config echoes, overwritten
 * by merge() — last writer wins, never summed). Merging a result's
 * stats into an aggregate therefore never corrupts gauge entries.
 *
 * A set is a value type with shared storage: a copy shares the value
 * block (copy-on-write) and allocates nothing, and the first mutator
 * called on either side gives that side a private copy. Copies may
 * live on different threads and be written there; one set object is
 * not synchronized (see the file comment).
 */
class StatSet
{
  public:
    /** One key of a layout: an interned name and its kind. */
    struct Key
    {
        const std::string* name; ///< Interned: equal names, equal
                                 ///< pointers.
        bool gauge;              ///< Last written via set().
    };
    /** A step taken from a layout: its key, and where it lands. */
    struct Transition;
    /**
     * An interned, immutable key list, sorted by *name, with a
     * write-once hint: the first step ever taken from it, published
     * with release ordering and read lock-free (acquire). Sets built
     * along one fixed path — every finalized result — step through the
     * hints without the registry lock.
     */
    struct Layout
    {
        Layout() = default;
        explicit Layout(std::vector<Key> k) : keys(std::move(k)) {}

        std::vector<Key> keys;
        mutable std::atomic<const Transition*> hint{nullptr};
    };

    /** Budget on the keys of all interned layouts together. */
    static constexpr std::size_t kLayoutKeyBudget = std::size_t{1} << 20;

    /** Read-only iterator yielding (name, value) pairs in name order. */
    class Iterator
    {
      public:
        using value_type = std::pair<const std::string&, double>;
        using reference = value_type;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::input_iterator_tag;

        /** operator-> target: the pair lives inside the proxy. */
        struct Arrow
        {
            value_type pair;
            const value_type* operator->() const { return &pair; }
        };
        using pointer = Arrow;

        Iterator(const Key* key, const double* value)
            : key_(key), value_(value)
        {
        }

        value_type operator*() const { return {*key_->name, *value_}; }
        Arrow operator->() const { return {**this}; }
        Iterator& operator++()
        {
            ++key_;
            ++value_;
            return *this;
        }
        bool operator==(const Iterator& o) const { return key_ == o.key_; }
        bool operator!=(const Iterator& o) const { return key_ != o.key_; }

      private:
        const Key* key_;
        const double* value_;
    };

    /** Non-owning view over the entries; valid while the set is
     *  unmodified. */
    class View
    {
      public:
        View(const Key* keys, const double* values, std::size_t n)
            : keys_(keys), values_(values), n_(n)
        {
        }
        std::size_t size() const { return n_; }
        Iterator begin() const { return Iterator(keys_, values_); }
        Iterator end() const { return Iterator(keys_ + n_, values_ + n_); }

      private:
        const Key* keys_;
        const double* values_;
        std::size_t n_;
    };

    StatSet() = default;
    /** Shares @p o's value block; allocates nothing. */
    StatSet(const StatSet& o) noexcept : layout_(o.layout_), block_(o.block_)
    {
        if (block_ != nullptr)
            block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    StatSet(StatSet&& o) noexcept
        : layout_(std::exchange(o.layout_, &kEmptyLayout)),
          block_(std::exchange(o.block_, nullptr))
    {
    }
    StatSet& operator=(const StatSet& o) noexcept
    {
        StatSet copy(o);
        swap(copy);
        return *this;
    }
    StatSet& operator=(StatSet&& o) noexcept
    {
        StatSet taken(std::move(o));
        swap(taken);
        return *this;
    }
    ~StatSet() { release(); }

    /** Add @p delta to the named counter (creating it at 0). */
    void add(const std::string& name, double delta);
    void add(StatName name, double delta);

    /** Set the named gauge to @p value (marks the entry as a gauge). */
    void set(const std::string& name, double value);
    void set(StatName name, double value);

    /** Value of the counter, 0 when absent. */
    double get(const std::string& name) const;

    bool has(const std::string& name) const;

    /** True when the entry was last written via set(). */
    bool isGauge(const std::string& name) const;

    /**
     * Merge another stat set into this one: counters sum, gauges
     * overwrite (adopting the other side's latest value).
     */
    void merge(const StatSet& other);

    /** All (name, value) pairs in name order. */
    View all() const { return View(layout_->keys.data(), values(), size()); }

    /** Reserve room for @p n values (one allocation up front). */
    void reserve(std::size_t n) { own(n); }

    /** Multi-line "name = value" dump, for harness output. */
    std::string toString() const;

    void clear();

    /**
     * True when @p o holds the same keys, kinds and value bits: equal
     * layouts and a bytewise-equal value array, so -0.0 never matches
     * +0.0 and a NaN matches only the same NaN bits.
     */
    bool sameValues(const StatSet& o) const;

    /** Hash of (layout, value bits), consistent with sameValues(). */
    std::uint64_t valueHash() const;

    /** True when both sets hold values and read them from one block. */
    bool sharesValuesWith(const StatSet& o) const
    {
        return block_ != nullptr && block_ == o.block_;
    }

  private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /**
     * A value block: a header, then @c capacity doubles, in one
     * allocation. Values [0, size()) are live. @c refs counts the sets
     * that hold the block (a 32-bit count: 2^32 copies would need 64 GiB
     * of StatSets).
     */
    struct Block
    {
        std::atomic<std::uint32_t> refs;
        std::uint32_t capacity;

        double* values() { return reinterpret_cast<double*>(this + 1); }
    };
    static_assert(sizeof(Block) % alignof(double) == 0,
                  "values must start aligned after the header");

    /** Number of values: one per key of the layout. */
    std::size_t size() const { return layout_->keys.size(); }
    const double* values() const
    {
        return block_ != nullptr ? block_->values() : nullptr;
    }
    void swap(StatSet& o) noexcept
    {
        std::swap(layout_, o.layout_);
        std::swap(block_, o.block_);
    }
    /** Drop this set's reference, freeing the block with the last one. */
    void release() noexcept;
    /**
     * The one path to writable values: makes the block this set's own
     * with room for at least @p capacity values, copying the live
     * values into a fresh block of exactly max(capacity, size())
     * when the block is shared or too small. Null when both are 0.
     */
    double* own(std::size_t capacity);

    /** Index of @p name in the layout, npos when absent. */
    std::size_t indexOf(std::string_view name) const;
    /**
     * The value slot of interned @p name with kind @p gauge: moves the
     * set to the layout's successor when the key is new (inserting a 0
     * value) or its kind changes. @p at is indexOf(*name).
     */
    double& slot(const std::string* name, bool gauge, std::size_t at);
    double& slot(StatName name, bool gauge);
    double& slot(const std::string& name, bool gauge);

    static const Layout kEmptyLayout;

    const Layout* layout_ = &kEmptyLayout; ///< Interned.
    Block* block_ = nullptr; ///< Shared, copy-on-write; null when empty.
};

// A finished request's record holds its result's StatSet, so the set
// stays two pointers: an interned layout and a shared value block.
static_assert(sizeof(StatSet) == 2 * sizeof(void*),
              "StatSet must stay a {layout, block} pair");

/**
 * Where a type-7 quantile falls among n >= 1 ascending samples: rank =
 * q * (n - 1) with q clamped to [0, 1], so the quantile lies @c frac of
 * the way from the @c lo -th to the @c hi -th smallest sample (0-based,
 * hi = min(lo + 1, n - 1)). sortedQuantile() and selectQuantiles() both
 * go through it, so the formula lives once.
 */
struct QuantileRanks
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0;

    /** The quantile, given the lo-th and hi-th smallest samples. */
    double interpolate(double lo_value, double hi_value) const
    {
        return lo_value + frac * (hi_value - lo_value);
    }
};

/** The type-7 ranks of quantile @p q over @p n >= 1 samples. */
QuantileRanks quantileRanks(std::size_t n, double q);

/**
 * Quantile of an ascending-sorted sample vector with linear
 * interpolation between adjacent ranks (the "linear"/type-7 definition:
 * rank = q * (n - 1), interpolating between floor and ceil). The single
 * definition behind every p50/p99 the serving layer reports — nearest
 * rank would return ~p98.4 for "p99" over 64 samples and p89 over 10.
 * Returns 0 for an empty sample.
 */
double sortedQuantile(const std::vector<double>& sorted, double q);

/** Order-preserving unsigned image of a double's bits: a < b implies
 *  orderedBits(a) < orderedBits(b), and -0.0 maps just below +0.0. */
inline std::uint64_t
orderedBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/** Inverse of orderedBits(). */
inline double
fromOrderedBits(std::uint64_t key)
{
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    const std::uint64_t bits = (key & kSign) != 0 ? key ^ kSign : ~key;
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

/**
 * Type-7 quantiles @p qs of @p n samples that are never stored: the
 * samples are whatever @c forEach(visit) passes to @c visit(double),
 * and every call must pass the same @p n values. Each result equals
 * sortedQuantile() over the sorted samples bit for bit (a -0.0 and a
 * +0.0 in one sample are the one exception: std::sort may leave them
 * in either order, selection puts -0.0 first).
 *
 * This is SpAtten's top-k idea applied to the report: find the k-th
 * element by selection rather than by sorting a copy. It is an exact
 * radix select over orderedBits(). Each pass histograms one 13-bit
 * digit of the samples whose higher digits match a wanted rank's
 * prefix, so five passes over the samples pin both ranks of every
 * quantile. The only storage is 2M + 1 histograms of 8192 32-bit
 * counts (160 KiB for two quantiles), whatever @p n is: one per
 * distinct prefix, and one for the samples that match none.
 * Returns 0 for every quantile when @p n is 0.
 */
template <std::size_t M, class ForEach>
std::array<double, M>
selectQuantiles(std::size_t n, const std::array<double, M>& qs,
                const ForEach& forEach)
{
    std::array<double, M> out{};
    if (n == 0)
        return out;
    SPATTEN_ASSERT(n <= std::numeric_limits<std::uint32_t>::max(),
                   "selectQuantiles: %zu samples overflow a 32-bit count",
                   n);
    constexpr int kDigitBits = 13;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    constexpr std::size_t kRanks = 2 * M; // lo and hi of each quantile.
    std::array<QuantileRanks, M> at;
    std::array<std::size_t, kRanks> rank{}; // Among its prefix's samples.
    std::array<std::uint64_t, kRanks> prefix{};
    for (std::size_t m = 0; m < M; ++m) {
        at[m] = quantileRanks(n, qs[m]);
        rank[2 * m] = at[m].lo;
        rank[2 * m + 1] = at[m].hi;
    }
    std::vector<std::uint32_t> hist((kRanks + 1) * kBuckets);
    for (int top = 64; top > 0;) {
        const int width = std::min(kDigitBits, top);
        const int shift = top - width;
        const std::uint64_t fixed =
            top == 64 ? 0 : ~std::uint64_t{0} << top; // Digits above.
        const std::uint64_t digit = (std::uint64_t{1} << width) - 1;
        // Ranks whose digits so far agree share one histogram. An
        // unused slot holds ~fixed, which no (key & fixed) equals.
        std::array<std::uint64_t, kRanks> wanted;
        wanted.fill(~fixed);
        std::array<std::size_t, kRanks> group{};
        std::size_t groups = 0;
        for (std::size_t r = 0; r < kRanks; ++r) {
            std::size_t g = 0;
            while (g < groups && wanted[g] != prefix[r])
                ++g;
            if (g == groups)
                wanted[groups++] = prefix[r];
            group[r] = g;
        }
        std::fill(hist.begin(), hist.end(), 0);
        // Branch-free: every sample bumps exactly one bucket, the last
        // histogram's when it matches no prefix. The captures are
        // copies, so the stores through h cannot alias them.
        std::uint32_t* const h = hist.data();
        forEach([h, fixed, shift, digit, wanted](double v) {
            const std::uint64_t key = orderedBits(v);
            const std::uint64_t d = (key >> shift) & digit;
            std::size_t slot = kRanks * kBuckets + d;
            for (std::size_t g = 0; g < kRanks; ++g)
                slot = (key & fixed) == wanted[g] ? g * kBuckets + d : slot;
            ++h[slot];
        });
        for (std::size_t r = 0; r < kRanks; ++r) {
            const std::uint32_t* const counts = &hist[group[r] * kBuckets];
            std::size_t b = 0;
            for (; b <= digit && rank[r] >= counts[b]; ++b)
                rank[r] -= counts[b];
            SPATTEN_ASSERT(b <= digit,
                           "selectQuantiles: forEach visited fewer than "
                           "the %zu samples declared",
                           n);
            prefix[r] |= std::uint64_t{b} << shift;
        }
        top = shift;
    }
    for (std::size_t m = 0; m < M; ++m)
        out[m] = at[m].interpolate(fromOrderedBits(prefix[2 * m]),
                                   fromOrderedBits(prefix[2 * m + 1]));
    return out;
}

/**
 * Maximum number of half-open intervals [start, end) that overlap at
 * any instant. An interval ending at t and one starting at t do not
 * overlap, and an empty interval (end == start) never counts. Sorts
 * @p intervals in place, then sweeps them in start order with a
 * min-heap of the open intervals' ends, so the only extra storage is
 * the heap, bounded by the answer. Requires start <= end throughout.
 */
std::size_t maxOverlap(std::vector<std::pair<double, double>>& intervals);

} // namespace spatten

#endif // SPATTEN_SIM_STATS_HPP
