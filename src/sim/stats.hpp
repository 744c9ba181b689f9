/**
 * @file
 * Named statistics registry used by the hardware models to expose
 * counters (DRAM reads, row activations, top-k iterations, ...) to the
 * benchmark harness in a uniform way.
 *
 * Storage. A StatSet is a layout pointer plus one std::vector of
 * doubles. The layout is an interned, immutable key list — {interned
 * name, gauge} pairs sorted by name — and the values sit in the same
 * order. Sets that hold the same keys share one layout, so a
 * finalized SpAtten request keeps only its ~37 doubles (296 B) in a
 * single allocation; the names and kinds are stored once per process.
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
 * AttentionGraph::finalize) never rebuild a name string.
 *
 * Thread safety. Interning a name — constructing a StatName, or add() /
 * set() of a string name the set does not hold yet — and every layout
 * step (a new key or a kind change) that the layout's hint does not
 * cover take the registry's lock. Value writes to existing keys,
 * get/has/isGauge, copying, all(), merging two sets of one layout and
 * hinted steps read only immutable interned data without locking.
 * Distinct StatSets may therefore be built on any number of threads at
 * once; one StatSet is not itself synchronized, like any standard
 * container.
 *
 * Name order. all() and toString() walk entries in ascending
 * std::string order of their names — the same order the former
 * std::map-backed registry exposed — independent of insertion order,
 * thread count or interning order.
 */
#ifndef SPATTEN_SIM_STATS_HPP
#define SPATTEN_SIM_STATS_HPP

#include <atomic>
#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
    View all() const
    {
        return View(layout_->keys.data(), values_.data(), values_.size());
    }

    /** Reserve room for @p n values (one allocation up front). */
    void reserve(std::size_t n) { values_.reserve(n); }

    /** Multi-line "name = value" dump, for harness output. */
    std::string toString() const;

    void clear()
    {
        layout_ = &kEmptyLayout;
        values_.clear();
    }

  private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

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
    std::vector<double> values_; ///< One per layout key, in order.
};

/**
 * Quantile of an ascending-sorted sample vector with linear
 * interpolation between adjacent ranks (the "linear"/type-7 definition:
 * rank = q * (n - 1), interpolating between floor and ceil). The single
 * definition behind every p50/p99 the serving layer reports — nearest
 * rank would return ~p98.4 for "p99" over 64 samples and p89 over 10.
 * Returns 0 for an empty sample.
 */
double sortedQuantile(const std::vector<double>& sorted, double q);

} // namespace spatten

#endif // SPATTEN_SIM_STATS_HPP
