/**
 * @file
 * Cycle bookkeeping for the SpAtten hardware model: the Cycles type
 * every stage and the HBM model count in, and the clock domains that
 * convert cycles to time. The per-stage occupancy itself lives in the
 * stage graph (sim/stage_graph.hpp).
 */
#ifndef SPATTEN_SIM_CLOCK_HPP
#define SPATTEN_SIM_CLOCK_HPP

#include <cstdint>
#include <string>

namespace spatten {

/** Simulation time in cycles. */
using Cycles = std::uint64_t;

/** A clock domain: frequency plus helpers to convert to wall time. */
class ClockDomain
{
  public:
    /** @param freq_ghz clock frequency in GHz (SpAtten core: 1.0). */
    explicit ClockDomain(double freq_ghz = 1.0, std::string name = "core");

    const std::string& name() const { return name_; }

    /** Convert cycles of this domain to nanoseconds. */
    double toNs(Cycles c) const
    {
        return static_cast<double>(c) / freq_ghz_;
    }

    /** Convert cycles to seconds. */
    double toSeconds(Cycles c) const { return toNs(c) * 1e-9; }

    /** Cycles needed to cover @p ns nanoseconds (rounded up). */
    Cycles fromNs(double ns) const;

  private:
    double freq_ghz_;
    std::string name_;
};

} // namespace spatten

#endif // SPATTEN_SIM_CLOCK_HPP
