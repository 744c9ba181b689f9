/**
 * @file
 * Named statistics registry used by the hardware models to expose
 * counters (DRAM reads, row activations, top-k iterations, ...) to the
 * benchmark harness in a uniform way.
 *
 * Storage. A StatSet is one flat std::vector of {name, value, gauge}
 * entries kept sorted by name — a finalized SpAtten request carries its
 * ~37 stats in a single allocation instead of a tree node per name.
 *
 * Interning. Entry names point into a process-wide, append-only intern
 * table (a node-stable std::set behind a mutex). Equal names always
 * share one pointer, and an interned string never moves, changes or
 * dies. StatName interns once up front, so hot writers (HbmModel,
 * StageGraph, AttentionGraph::finalize) never rebuild or look up a name
 * string.
 *
 * Thread safety. Interning a name — constructing a StatName, or add() /
 * set() of a name this set does not hold yet — takes the table's lock.
 * Everything else (get/has/isGauge, ordered insertion, merge, copying,
 * all()) reads the immutable interned strings without locking. Distinct
 * StatSets may therefore be built on any number of threads at once; one
 * StatSet is not itself synchronized, like any standard container.
 *
 * Name order. all() and toString() walk entries in ascending
 * std::string order of their names — the same order the former
 * std::map-backed registry exposed — independent of insertion order,
 * thread count or interning order.
 */
#ifndef SPATTEN_SIM_STATS_HPP
#define SPATTEN_SIM_STATS_HPP

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
 * A flat name -> double statistics map with formatting helpers.
 *
 * Entries carry counter-or-gauge semantics: add() creates counters
 * (accumulating deltas, summed by merge()); set() creates gauges
 * (point-in-time values like utilizations or config echoes, overwritten
 * by merge() — last writer wins, never summed). Merging a result's
 * stats into an aggregate therefore never corrupts gauge entries.
 */
class StatSet
{
    struct Entry
    {
        const std::string* name = nullptr; ///< Interned: equal names,
                                           ///< equal pointers.
        double value = 0;
        bool gauge = false; ///< Last written via set().
    };

  public:
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

        explicit Iterator(std::vector<Entry>::const_iterator it) : it_(it)
        {
        }

        value_type operator*() const { return {*it_->name, it_->value}; }
        Arrow operator->() const { return {**this}; }
        Iterator& operator++()
        {
            ++it_;
            return *this;
        }
        bool operator==(const Iterator& o) const { return it_ == o.it_; }
        bool operator!=(const Iterator& o) const { return it_ != o.it_; }

      private:
        std::vector<Entry>::const_iterator it_;
    };

    /** Non-owning view over the entries; valid while the set is
     *  unmodified. */
    class View
    {
      public:
        explicit View(const std::vector<Entry>& entries)
            : entries_(&entries)
        {
        }
        std::size_t size() const { return entries_->size(); }
        Iterator begin() const { return Iterator(entries_->begin()); }
        Iterator end() const { return Iterator(entries_->end()); }

      private:
        const std::vector<Entry>* entries_;
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
    View all() const { return View(entries_); }

    /** Reserve room for @p n entries (one allocation up front). */
    void reserve(std::size_t n) { entries_.reserve(n); }

    /** Multi-line "name = value" dump, for harness output. */
    std::string toString() const;

    void clear() { entries_.clear(); }

  private:
    /** Index of the first entry whose name is not less than @p name. */
    std::size_t lowerBound(std::string_view name) const;
    /** The entry for an interned name, inserted at 0 when absent. */
    Entry& slot(const std::string* name);
    /** The entry for @p name, interning it only when absent. */
    Entry& slot(const std::string& name);
    const Entry* find(const std::string& name) const;

    std::vector<Entry> entries_; ///< Sorted by *name, names unique.
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
