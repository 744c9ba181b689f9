#include "common/prng.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace spatten {

void
Prng::reseed(std::uint64_t seed)
{
    // splitmix64: the i-th output is mix64 of the seed advanced i steps.
    std::uint64_t sm = seed;
    for (auto& s : state_) {
        s = mix64(sm);
        sm += 0x9e3779b97f4a7c15ULL;
    }
    has_spare_ = false;
}

double
Prng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

Prng::Bound::Bound(std::uint64_t n) : n_(n)
{
    SPATTEN_ASSERT(n > 0, "below(0) is ill-defined");
    limit_ = max() - max() % n;
}

std::int64_t
Prng::range(std::int64_t lo, std::int64_t hi)
{
    SPATTEN_ASSERT(lo <= hi, "range(%lld, %lld) is empty",
                   static_cast<long long>(lo), static_cast<long long>(hi));
    // Unsigned: hi - lo overflows int64 for spans past INT64_MAX, and
    // the full range's span of 2^64 wraps to 0.
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0)
        return static_cast<std::int64_t>(next());
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     below(span));
}

double
Prng::gaussian()
{
    if (has_spare_) {
        has_spare_ = false;
        return spare_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return r * std::cos(theta);
}

double
Prng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

} // namespace spatten
