#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <mutex>
#include <new>
#include <queue>
#include <set>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/prng.hpp"

namespace spatten {

namespace {

/** Layout keys compare by (name pointer, kind): a content identity. */
struct LayoutLess
{
    bool operator()(const StatSet::Layout& lhs,
                    const StatSet::Layout& rhs) const
    {
        const auto& a = lhs.keys;
        const auto& b = rhs.keys;
        return std::lexicographical_compare(
            a.begin(), a.end(), b.begin(), b.end(),
            [](const StatSet::Key& x, const StatSet::Key& y) {
                return std::less<const std::string*>()(x.name, y.name) ||
                       (x.name == y.name && x.gauge < y.gauge);
            });
    }
};

/** One layout step: from a layout, write a name with a kind. */
struct Step
{
    const StatSet::Layout* from;
    const std::string* name;
    bool gauge;
    bool operator==(const Step& o) const
    {
        return from == o.from && name == o.name && gauge == o.gauge;
    }
};

struct StepHash
{
    std::size_t operator()(const Step& s) const
    {
        const std::hash<const void*> ptr;
        return mix64(ptr(s.from) ^ mix64(ptr(s.name) ^ (s.gauge ? 1u : 0u)));
    }
};

/** Where a step lands: the successor layout and the name's index. */
struct Successor
{
    const StatSet::Layout* layout;
    std::size_t index;
};

} // namespace

struct StatSet::Transition
{
    const std::string* name;
    bool gauge;
    Successor next;
};

namespace {

/**
 * The process-wide registry: interned names, interned layouts and the
 * transition table between them. Append-only and node-stable; every
 * member is guarded by mu.
 */
struct Registry
{
    std::mutex mu;
    std::set<std::string, std::less<>> names;
    std::set<StatSet::Layout, LayoutLess> layouts;
    std::unordered_map<Step, Successor, StepHash> steps;
    std::deque<StatSet::Transition> hints; ///< Targets of Layout::hint.
    std::size_t layout_keys = 0;

    static Registry& get()
    {
        static Registry r;
        return r;
    }
};

/** Index of the first key whose name is not less than @p name. */
std::size_t
lowerBound(const StatSet::Key* keys, std::size_t n, std::string_view name)
{
    const StatSet::Key* it = std::lower_bound(
        keys, keys + n, name,
        [](const StatSet::Key& k, std::string_view v) { return *k.name < v; });
    return static_cast<std::size_t>(it - keys);
}

/** The process-wide intern table entry for @p name. */
const std::string*
intern(std::string_view name)
{
    Registry& reg = Registry::get();
    const std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.names.find(name);
    if (it == reg.names.end())
        it = reg.names.emplace(name).first;
    return &*it;
}

/** successor() under the registry lock: the cached or new step. */
Successor
successorLocked(Registry& reg, const StatSet::Layout* from,
                const std::string* name, bool gauge)
{
    const Step key{from, name, gauge};
    if (const auto it = reg.steps.find(key); it != reg.steps.end())
        return it->second;

    StatSet::Layout probe(from->keys);
    auto& keys = probe.keys;
    const std::size_t i = lowerBound(keys.data(), keys.size(), *name);
    if (i < keys.size() && keys[i].name == name)
        keys[i].gauge = gauge;
    else
        keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(i),
                    {name, gauge});
    auto layout = reg.layouts.find(probe);
    if (layout == reg.layouts.end()) {
        SPATTEN_ASSERT(reg.layout_keys + keys.size() <=
                           StatSet::kLayoutKeyBudget,
                       "stat layouts would hold %zu keys, over the budget "
                       "of %zu: is a stat name built from unbounded data?",
                       reg.layout_keys + keys.size(),
                       StatSet::kLayoutKeyBudget);
        reg.layout_keys += keys.size();
        layout = reg.layouts.emplace(std::move(keys)).first;
    }
    const Successor next{&*layout, i};
    reg.steps.emplace(key, next);
    return next;
}

/** The layout reached from @p from by writing @p name as @p gauge. */
Successor
successor(const StatSet::Layout* from, const std::string* name, bool gauge)
{
    // Lock-free fast path: a hint is fully built before its release
    // store and never changes afterwards.
    if (const StatSet::Transition* t =
            from->hint.load(std::memory_order_acquire);
        t != nullptr && t->name == name && t->gauge == gauge)
        return t->next;

    Registry& reg = Registry::get();
    const std::lock_guard<std::mutex> lock(reg.mu);
    const Successor next = successorLocked(reg, from, name, gauge);
    if (from->hint.load(std::memory_order_relaxed) == nullptr) {
        reg.hints.push_back({name, gauge, next});
        from->hint.store(&reg.hints.back(), std::memory_order_release);
    }
    return next;
}

} // namespace

StatName::StatName(std::string_view name) : name_(intern(name)) {}

const StatSet::Layout StatSet::kEmptyLayout;

void
StatSet::release() noexcept
{
    // acq_rel: the last owner's free happens after every other owner's
    // reads of the block.
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        ::operator delete(block_);
    block_ = nullptr;
}

double*
StatSet::own(std::size_t capacity)
{
    const std::size_t n = size();
    // acquire: a count of 1 means every former co-owner has released
    // the block, and their reads happen before this set's writes.
    if (block_ != nullptr && capacity <= block_->capacity &&
        block_->refs.load(std::memory_order_acquire) == 1)
        return block_->values();
    const std::size_t cap = std::max(capacity, n);
    if (cap == 0) {
        release();
        return nullptr;
    }
    SPATTEN_ASSERT(cap <= std::numeric_limits<std::uint32_t>::max(),
                   "stat block of %zu values overflows its 32-bit capacity",
                   cap);
    void* mem = ::operator new(sizeof(Block) + cap * sizeof(double));
    Block* fresh = new (mem) Block{{1}, static_cast<std::uint32_t>(cap)};
    if (n != 0)
        std::memcpy(fresh->values(), block_->values(), n * sizeof(double));
    release();
    block_ = fresh;
    return fresh->values();
}

// With no values left to keep, own() leaves a block this set holds
// alone in place (its room stays, like a cleared vector's) and drops a
// shared one to its other owners.
void
StatSet::clear()
{
    layout_ = &kEmptyLayout;
    own(0);
}

std::size_t
StatSet::indexOf(std::string_view name) const
{
    const std::size_t n = size();
    const std::size_t i = lowerBound(layout_->keys.data(), n, name);
    return i < n && *layout_->keys[i].name == name ? i : npos;
}

double&
StatSet::slot(const std::string* name, bool gauge, std::size_t at)
{
    const std::size_t n = size();
    if (at != npos && layout_->keys[at].gauge == gauge)
        return own(n)[at];
    const Successor next = successor(layout_, name, gauge);
    if (at != npos) { // A kind change keeps the key's index.
        layout_ = next.layout;
        return own(n)[next.index];
    }
    // A new key: grow like a vector (doubling) when out of room.
    const std::size_t room = block_ != nullptr ? block_->capacity : 0;
    double* const v = own(n < room ? n + 1 : std::max(n + 1, 2 * n));
    std::memmove(v + next.index + 1, v + next.index,
                 (n - next.index) * sizeof(double));
    v[next.index] = 0.0;
    layout_ = next.layout;
    return v[next.index];
}

double&
StatSet::slot(StatName name, bool gauge)
{
    return slot(name.name_, gauge, indexOf(*name.name_));
}

double&
StatSet::slot(const std::string& name, bool gauge)
{
    const std::size_t at = indexOf(name);
    return slot(at == npos ? intern(name) : layout_->keys[at].name, gauge,
                at);
}

// Accumulating into an entry makes it a counter, whatever it was: the
// kind follows the latest write style, exactly like the value.
void
StatSet::add(const std::string& name, double delta)
{
    slot(name, false) += delta;
}

void
StatSet::add(StatName name, double delta)
{
    slot(name, false) += delta;
}

void
StatSet::set(const std::string& name, double value)
{
    slot(name, true) = value;
}

void
StatSet::set(StatName name, double value)
{
    slot(name, true) = value;
}

double
StatSet::get(const std::string& name) const
{
    const std::size_t i = indexOf(name);
    return i == npos ? 0.0 : values()[i];
}

bool
StatSet::has(const std::string& name) const
{
    return indexOf(name) != npos;
}

bool
StatSet::isGauge(const std::string& name) const
{
    const std::size_t i = indexOf(name);
    return i != npos && layout_->keys[i].gauge;
}

void
StatSet::merge(const StatSet& other)
{
    // Self-merge is safe: every key is already present with its kind,
    // so slot() never moves the layout, and once slot() has made the
    // block this set's own, other (this set) reads that same block.
    // Another set sharing the block keeps reading its original.
    const auto& ok = other.layout_->keys;
    for (std::size_t j = 0; j < ok.size(); ++j) {
        double& v = slot(ok[j].name, ok[j].gauge, indexOf(*ok[j].name));
        if (ok[j].gauge)
            v = other.values()[j];
        else
            v += other.values()[j]; // Also reclassifies a stale gauge mark.
    }
}

bool
StatSet::sameValues(const StatSet& o) const
{
    return layout_ == o.layout_ &&
           (size() == 0 || block_ == o.block_ ||
            std::memcmp(values(), o.values(), size() * sizeof(double)) == 0);
}

std::uint64_t
StatSet::valueHash() const
{
    std::uint64_t h = mix64(std::hash<const void*>()(layout_));
    const double* const v = values();
    for (std::size_t i = 0; i < size(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v[i], sizeof bits);
        h = mix64(h ^ bits);
    }
    return h;
}

std::string
StatSet::toString() const
{
    std::string out;
    for (const auto& [name, value] : all())
        out += strfmt("%-40s = %.6g\n", name.c_str(), value);
    return out;
}

QuantileRanks
quantileRanks(std::size_t n, double q)
{
    SPATTEN_ASSERT(n > 0, "quantileRanks needs at least one sample");
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
    QuantileRanks r;
    r.lo = static_cast<std::size_t>(rank);
    r.hi = std::min(r.lo + 1, n - 1);
    r.frac = rank - static_cast<double>(r.lo);
    return r;
}

double
sortedQuantile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const QuantileRanks r = quantileRanks(sorted.size(), q);
    return r.interpolate(sorted[r.lo], sorted[r.hi]);
}

std::size_t
maxOverlap(std::vector<std::pair<double, double>>& intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::priority_queue<double, std::vector<double>, std::greater<>> ends;
    std::size_t peak = 0;
    for (const auto& [start, end] : intervals) {
        while (!ends.empty() && ends.top() <= start)
            ends.pop();
        if (end > start) {
            ends.push(end);
            peak = std::max(peak, ends.size());
        }
    }
    return peak;
}

} // namespace spatten
