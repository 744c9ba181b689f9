/**
 * @file
 * Address/data crossbars of the Q-K-V fetcher (§IV-D, Fig. 8 modules 4/5).
 *
 * A 32x16 crossbar routes up to 32 outstanding address requests to 16 HBM
 * channels (at most one grant per channel per cycle); a 16x32 crossbar
 * routes data back preserving order. Because the fetcher generates at
 * most one request per channel at a time there are no conflicts in steady
 * state, but the model still arbitrates so mis-balanced address streams
 * show up as stalls.
 */
#ifndef SPATTEN_ACCEL_CROSSBAR_HPP
#define SPATTEN_ACCEL_CROSSBAR_HPP

#include <cstddef>
#include <vector>

#include "sim/clock.hpp"

namespace spatten {

/** Outcome of routing a batch of requests through the crossbar. */
struct CrossbarRouteResult
{
    Cycles cycles = 0;          ///< Cycles to drain the batch.
    std::size_t conflicts = 0;  ///< Requests delayed by channel contention.
    std::size_t routed = 0;     ///< Total requests routed.
};

/** Config for the crossbar pair. */
struct CrossbarConfig
{
    std::size_t masters = 32; ///< Requesters (FIFO ports).
    std::size_t slaves = 16;  ///< HBM channels.
};

/**
 * Cycle model of the address crossbar. Requests are given as target
 * channel ids; each cycle every channel can accept one request and at
 * most `masters` requests are considered.
 */
class Crossbar
{
  public:
    explicit Crossbar(CrossbarConfig cfg = CrossbarConfig{});

    /** Route a batch of channel-targeted requests. */
    CrossbarRouteResult route(const std::vector<std::size_t>& channel_ids);

    const CrossbarConfig& config() const { return cfg_; }

    std::size_t totalConflicts() const { return total_conflicts_; }

    void resetStats();

  private:
    CrossbarConfig cfg_;
    std::size_t total_conflicts_ = 0;
};

} // namespace spatten

#endif // SPATTEN_ACCEL_CROSSBAR_HPP
