/**
 * @file
 * HBM2 memory model (the paper uses Ramulator with HBM2 settings;
 * Table I: 16 x 128-bit channels @ 2 GHz, 2 x 64-bit pseudo-channels per
 * channel, 32 GB/s per channel = 512 GB/s aggregate).
 *
 * The model is built from scratch: requests are interleaved across
 * channels at a fixed granularity; each channel has banks with a row
 * buffer, FR-FCFS-lite timing (row hit = CAS only, miss = PRE+ACT+CAS),
 * and a data bus that moves a fixed number of bytes per DRAM cycle.
 * Energy is counted per activation and per bit moved, using the
 * fine-grained-DRAM numbers the paper cites (O'Connor et al., MICRO'17).
 */
#ifndef SPATTEN_HBM_HBM_HPP
#define SPATTEN_HBM_HBM_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/clock.hpp"
#include "sim/stats.hpp"

namespace spatten {

/**
 * @p gib GiB in bytes. The whole-GiB part converts by exact integer
 * shift and the sub-GiB remainder rounds to the nearest byte — a single
 * double-multiply-and-cast would truncate fractional capacities toward
 * zero (0.7 GiB would lose its last byte) and has no defined behavior
 * once the product leaves uint64 range. Supports 0 <= @p gib < 2^34
 * (16 EiB).
 */
inline std::uint64_t
gibToBytes(double gib)
{
    const auto whole = static_cast<std::uint64_t>(gib);
    const double frac = gib - static_cast<double>(whole);
    return (whole << 30) + static_cast<std::uint64_t>(
                               frac * static_cast<double>(1ull << 30) + 0.5);
}

/** Static configuration of the HBM stack. */
struct HbmConfig
{
    int channels = 16;            ///< 128-bit channels.
    double freq_ghz = 2.0;        ///< Effective data-rate clock (2 GHz).
    int bytes_per_cycle = 16;     ///< 128-bit bus -> 16 B per data cycle.
    int banks_per_channel = 16;
    std::uint64_t row_bytes = 1024;        ///< Row-buffer size per bank.
    std::uint64_t interleave_bytes = 256;  ///< Channel interleave stride.

    // Core timing in DRAM cycles (~7 ns each at 2 GHz => 14 cycles).
    Cycles t_rcd = 28; ///< ACT -> CAS.
    Cycles t_rp = 28;  ///< PRE -> ACT.
    Cycles t_cl = 28;  ///< CAS -> first data.

    /// Sustained fraction of peak bandwidth (refresh, turnaround, bank
    /// conflicts). Ramulator-style models land at ~0.7 for streaming
    /// gathers of this kind.
    double bus_efficiency = 0.72;

    /// Total stack capacity in GiB (HBM2: 8 GiB across the 16 channels).
    /// The serving layer's KV pool derives its byte budget from this.
    double capacity_gb = 8.0;

    /** Total stack capacity in bytes (gibToBytes(capacity_gb)). */
    std::uint64_t capacityBytes() const { return gibToBytes(capacity_gb); }

    // Energy constants (pJ), after O'Connor et al. fine-grained DRAM.
    double act_energy_pj = 909.0;    ///< Per row activation.
    double bit_energy_pj = 3.9;      ///< Per bit moved (array+IO).

    /** Aggregate peak bandwidth in GB/s. */
    double peakBandwidthGBs() const
    {
        return channels * bytes_per_cycle * freq_ghz;
    }
};

/**
 * Far-memory (commodity DRAM behind the HBM stack) parameters for the
 * tiered KV pool, after Hybrid2 (HPCA'20): the HBM stack is the hot
 * tier, and cold KV blocks migrate to a larger, slower DRAM pool over a
 * dedicated link instead of being dropped. The struct models only what
 * the serving layer needs — a capacity, a latency + bandwidth cost for
 * each migration burst, and the energy of every migrated bit.
 */
struct FarMemoryConfig
{
    /// Cold-tier capacity in GiB. 0 (the default) disables tiering
    /// entirely: the KV pool keeps its single-budget PR-5 semantics
    /// bit for bit.
    double capacity_gb = 0.0;
    /// Sustained migration-link bandwidth in GB/s (DDR4-class channel
    /// pair; far below the HBM stack's 512 GB/s by construction).
    double bandwidth_gbs = 64.0;
    /// Fixed per-burst access latency in microseconds (queue + far
    /// DRAM access + link turnaround).
    double latency_us = 0.5;
    /// Energy per migrated bit in picojoules. Commodity DDR4 array + IO
    /// + link PHY lands near 20 pJ/bit — roughly 5x the on-stack HBM
    /// bit energy, which is what makes migration traffic worth metering.
    double bit_energy_pj = 20.0;

    bool enabled() const { return capacity_gb > 0.0; }

    /** Die unless the link can price a migration: bandwidth_gbs > 0,
     *  latency_us >= 0 and bit_energy_pj >= 0 (NaN fails all three). A
     *  bad link would otherwise surface as inf/NaN promotion stalls or
     *  negative energy deep inside a run. */
    void validate() const;

    /** Cold-tier capacity in bytes (gibToBytes(capacity_gb)). */
    std::uint64_t capacityBytes() const { return gibToBytes(capacity_gb); }

    /** Seconds one migration burst of @p bytes occupies the link:
     *  latency + bytes / bandwidth. 0 bytes cost nothing (no burst). */
    double transferSeconds(std::uint64_t bytes) const
    {
        if (bytes == 0)
            return 0.0;
        return latency_us * 1e-6 +
               static_cast<double>(bytes) / (bandwidth_gbs * 1e9);
    }

    /** Joules of migrating @p bytes over the link. */
    double transferJoules(std::uint64_t bytes) const
    {
        return static_cast<double>(bytes) * 8.0 * bit_energy_pj * 1e-12;
    }
};

/** A single read or write request. */
struct HbmRequest
{
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
    bool write = false;
};

/**
 * The HBM stack model. Time is kept in DRAM cycles of the config's
 * frequency; the accelerator converts with its own ClockDomain.
 */
class HbmModel
{
  public:
    explicit HbmModel(HbmConfig cfg = HbmConfig{});

    const HbmConfig& config() const { return cfg_; }

    /**
     * Issue one request at DRAM-cycle @p ready.
     * The request is split across channels by the interleave mapping;
     * completion is when the last channel finishes.
     * @return completion cycle.
     */
    Cycles access(const HbmRequest& req, Cycles ready);

    /**
     * Select the serving implementation. The default fast path serves
     * whole per-channel streams with shift/mask address mapping and a
     * row-segment closed form; the reference path is the original
     * per-chunk loop. Both produce bit-identical completion cycles,
     * byte/activation counters, and bank/bus state (pinned by
     * test_hbm_fast_path); the reference path exists as the oracle for
     * that property test and for A/B perf measurements.
     */
    void setReferenceServing(bool on) { reference_serving_ = on; }
    bool referenceServing() const { return reference_serving_; }

    /**
     * Issue a batch of independent requests (e.g. the gather of surviving
     * K rows) that may proceed in parallel across channels.
     * @return completion cycle of the last request.
     */
    Cycles accessBatch(const std::vector<HbmRequest>& reqs, Cycles ready);

    /**
     * Idealized streaming time: cycles to move @p bytes at peak bandwidth
     * (used for roofline checks, not for simulation).
     */
    Cycles streamCycles(std::uint64_t bytes) const;

    /** Total energy consumed so far, in pJ. */
    double energyPj() const;

    /** Total bytes moved (reads + writes). */
    std::uint64_t totalBytes() const { return bytes_read_ + bytes_written_; }
    std::uint64_t bytesRead() const { return bytes_read_; }
    std::uint64_t bytesWritten() const { return bytes_written_; }
    std::uint64_t rowActivations() const { return activations_; }
    std::uint64_t requestsIssued() const { return requests_; }

    /** Cycle at which every channel is drained. */
    Cycles drainCycle() const;

    /** Export counters into a StatSet under the "hbm." prefix. */
    void exportStats(StatSet& stats) const;
    /** Number of entries exportStats() writes. */
    static constexpr std::size_t kExportedStats = 5;

    void reset();

    /**
     * Snapshot of the timing-relevant channel/bank state, relative to a
     * caller-chosen base cycle with base >= every busy_until (true
     * whenever base is the owner's DRAM-clock cursor: the cursor is the
     * max over completion cycles, which dominate bus-busy cycles). The
     * model's timing math is translation-invariant in absolute time, and
     * any channel whose bus frees at or before base behaves identically
     * no matter how long it has been idle (every subsequent request's
     * ready is >= base, so max(ready, busy_until) = ready) — its
     * relative busy is therefore clamped to 0, making the snapshot a
     * canonical representative of the behavioral equivalence class.
     * Two moments with equal snapshots serve any request sequence with
     * identical relative results — the property the decode-step replay
     * memo (DecodeSession) is built on: capture before a recorded pass,
     * compare before a candidate replay, restore after.
     */
    struct TimingState
    {
        /// max(busy_until - base, 0): 0 for idle-at-base channels,
        /// positive for channels the in-flight pass touched.
        std::vector<std::int64_t> rel_busy;
        std::vector<std::int64_t> open_rows; ///< Per (channel, bank).
    };

    TimingState captureTimingState(Cycles base) const;
    bool timingStateEquals(const TimingState& s, Cycles base) const;
    /** Install @p s shifted to @p base: open rows always; bus cursors
     *  only for channels the recorded pass touched (rel_busy > 0) —
     *  idle channels keep their exact historical busy_until, matching
     *  live execution bit for bit. */
    void restoreTimingState(const TimingState& s, Cycles base);
    /** Advance traffic counters by a replayed pass's deltas. */
    void addReplayedTraffic(std::uint64_t bytes_read,
                            std::uint64_t bytes_written,
                            std::uint64_t activations,
                            std::uint64_t requests);

  private:
    struct Bank
    {
        std::int64_t open_row = -1;
    };
    struct Channel
    {
        Cycles busy_until = 0;
        std::vector<Bank> banks;
    };

    /** Map an address to (channel, bank, row). */
    void mapAddress(std::uint64_t addr, int& channel, int& bank,
                    std::int64_t& row) const;

    /** Serve @p bytes at @p addr on its home channel; returns done cycle. */
    Cycles serveChunk(std::uint64_t addr, std::uint64_t bytes, bool write,
                      Cycles ready);

    /** Reference serving: the original per-chunk loop. */
    Cycles accessReference(const HbmRequest& req, Cycles ready);

    /** Fast serving: shift/mask chunk loop + row-segment closed form. */
    Cycles accessFast(const HbmRequest& req, Cycles ready);

    /** Burst cycles for a (possibly partial) chunk of @p bytes: table
     *  lookup (chunks never exceed the interleave granule; the table is
     *  filled with the reference ceil expression at construction). */
    Cycles burstCycles(std::uint64_t bytes) const
    {
        return burst_table_[bytes];
    }

    /** The reference burst expression (used to fill the table). */
    Cycles burstCyclesRef(std::uint64_t bytes) const
    {
        return std::max<Cycles>(
            1, static_cast<Cycles>(std::ceil(
                   static_cast<double>(bytes) / eff_bytes_per_cycle_)));
    }

    HbmConfig cfg_;
    std::vector<Channel> channels_;
    std::uint64_t bytes_read_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t activations_ = 0;
    std::uint64_t requests_ = 0;
    bool reference_serving_ = false;

    // Derived constants for the fast path (interleave/row sizes are
    // asserted powers of two at construction).
    int ilv_shift_ = 0;            ///< log2(interleave_bytes).
    std::uint64_t ilv_mask_ = 0;   ///< interleave_bytes - 1.
    int row_shift_ = 0;            ///< log2(row_bytes).
    double eff_bytes_per_cycle_ = 0;
    Cycles burst_full_ = 0;        ///< burstCycles(interleave_bytes).
    std::vector<Cycles> burst_table_; ///< [0..interleave_bytes] cycles.
    // Shift/mask shortcuts when the channel/bank counts happen to be
    // powers of two (they are in the default HBM2 geometry): a 64-bit
    // divide per chunk is the dominant cost of the small-stream loop.
    bool ch_pow2_ = false;
    int ch_shift_ = 0;
    std::uint64_t ch_mask_ = 0;
    bool bank_pow2_ = false;
    std::uint64_t bank_mask_ = 0;

    std::uint64_t chanOf(std::uint64_t block) const
    {
        return ch_pow2_ ? (block & ch_mask_)
                        : (block % static_cast<std::uint64_t>(
                                       cfg_.channels));
    }
    std::uint64_t blockInChannel(std::uint64_t block) const
    {
        return ch_pow2_ ? (block >> ch_shift_)
                        : (block / static_cast<std::uint64_t>(
                                       cfg_.channels));
    }
    std::uint64_t bankOf(std::uint64_t row) const
    {
        return bank_pow2_ ? (row & bank_mask_)
                          : (row % static_cast<std::uint64_t>(
                                       cfg_.banks_per_channel));
    }
};

} // namespace spatten

#endif // SPATTEN_HBM_HBM_HPP
