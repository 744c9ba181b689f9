#include "sim/clock.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace spatten {

ClockDomain::ClockDomain(double freq_ghz, std::string name)
    : freq_ghz_(freq_ghz), name_(std::move(name))
{
    SPATTEN_ASSERT(freq_ghz > 0.0, "clock '%s' frequency %f must be > 0",
                   name_.c_str(), freq_ghz);
}

Cycles
ClockDomain::fromNs(double ns) const
{
    SPATTEN_ASSERT(ns >= 0.0, "negative duration %f ns", ns);
    return static_cast<Cycles>(std::ceil(ns * freq_ghz_));
}

} // namespace spatten
