#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <set>

#include "common/logging.hpp"

namespace spatten {

namespace {

/** The process-wide intern table: append-only, node-stable. */
const std::string*
intern(std::string_view name)
{
    static std::mutex mu;
    static std::set<std::string, std::less<>> table;
    const std::lock_guard<std::mutex> lock(mu);
    auto it = table.find(name);
    if (it == table.end())
        it = table.emplace(name).first;
    return &*it;
}

} // namespace

StatName::StatName(std::string_view name) : name_(intern(name)) {}

std::size_t
StatSet::lowerBound(std::string_view name) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry& e, std::string_view n) { return *e.name < n; });
    return static_cast<std::size_t>(it - entries_.begin());
}

StatSet::Entry&
StatSet::slot(const std::string* name)
{
    // Writers mostly arrive in name order: try the append slot first.
    if (entries_.empty() || *entries_.back().name < *name) {
        entries_.push_back({name, 0.0, false});
        return entries_.back();
    }
    const std::size_t i = lowerBound(*name);
    if (i < entries_.size() && entries_[i].name == name)
        return entries_[i];
    return *entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                            {name, 0.0, false});
}

StatSet::Entry&
StatSet::slot(const std::string& name)
{
    const std::size_t i = lowerBound(name);
    if (i < entries_.size() && *entries_[i].name == name)
        return entries_[i];
    return slot(intern(name));
}

const StatSet::Entry*
StatSet::find(const std::string& name) const
{
    const std::size_t i = lowerBound(name);
    return i < entries_.size() && *entries_[i].name == name ? &entries_[i]
                                                           : nullptr;
}

// Accumulating into an entry makes it a counter, whatever it was: the
// kind follows the latest write style, exactly like the value.
void
StatSet::add(const std::string& name, double delta)
{
    Entry& e = slot(name);
    e.value += delta;
    e.gauge = false;
}

void
StatSet::add(StatName name, double delta)
{
    Entry& e = slot(name.name_);
    e.value += delta;
    e.gauge = false;
}

void
StatSet::set(const std::string& name, double value)
{
    Entry& e = slot(name);
    e.value = value;
    e.gauge = true;
}

void
StatSet::set(StatName name, double value)
{
    Entry& e = slot(name.name_);
    e.value = value;
    e.gauge = true;
}

double
StatSet::get(const std::string& name) const
{
    const Entry* e = find(name);
    return e == nullptr ? 0.0 : e->value;
}

bool
StatSet::has(const std::string& name) const
{
    return find(name) != nullptr;
}

bool
StatSet::isGauge(const std::string& name) const
{
    const Entry* e = find(name);
    return e != nullptr && e->gauge;
}

void
StatSet::merge(const StatSet& other)
{
    // Self-merge is safe: every name is already present, so slot()
    // never inserts and the loop's references stay valid.
    for (const Entry& o : other.entries_) {
        Entry& e = slot(o.name);
        if (o.gauge)
            e.value = o.value;
        else
            e.value += o.value; // Also reclassifies a stale gauge mark.
        e.gauge = o.gauge;
    }
}

std::string
StatSet::toString() const
{
    std::string out;
    for (const Entry& e : entries_)
        out += strfmt("%-40s = %.6g\n", e.name->c_str(), e.value);
    return out;
}

double
sortedQuantile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

} // namespace spatten
