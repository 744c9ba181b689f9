#include "accel/crossbar.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/math_util.hpp"

namespace spatten {

Crossbar::Crossbar(CrossbarConfig cfg) : cfg_(cfg)
{
    SPATTEN_ASSERT(cfg_.masters > 0 && cfg_.slaves > 0, "bad crossbar size");
}

CrossbarRouteResult
Crossbar::route(const std::vector<std::size_t>& channel_ids)
{
    CrossbarRouteResult res;
    if (channel_ids.empty())
        return res;
    // Per-channel demand; each channel grants one request per cycle.
    std::vector<std::size_t> demand(cfg_.slaves, 0);
    for (std::size_t ch : channel_ids) {
        SPATTEN_ASSERT(ch < cfg_.slaves, "channel %zu out of %zu", ch,
                       cfg_.slaves);
        ++demand[ch];
    }
    std::size_t max_demand = 0;
    for (std::size_t d : demand)
        max_demand = std::max(max_demand, d);

    // The batch also cannot be presented faster than `masters` per cycle.
    const Cycles present =
        ceilDiv(channel_ids.size(), cfg_.masters);
    res.cycles = std::max<Cycles>(max_demand, present);
    res.routed = channel_ids.size();
    // Requests beyond one-per-channel-per-cycle wait: count them.
    for (std::size_t d : demand)
        res.conflicts += d > 0 ? d - 1 : 0;

    total_conflicts_ += res.conflicts;
    return res;
}

void
Crossbar::resetStats()
{
    total_conflicts_ = 0;
}

} // namespace spatten
