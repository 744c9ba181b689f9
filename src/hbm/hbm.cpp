#include "hbm/hbm.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/math_util.hpp"

namespace spatten {

HbmModel::HbmModel(HbmConfig cfg) : cfg_(cfg)
{
    SPATTEN_ASSERT(cfg_.channels > 0 && cfg_.banks_per_channel > 0,
                   "bad HBM geometry");
    SPATTEN_ASSERT(isPow2(cfg_.interleave_bytes) && isPow2(cfg_.row_bytes),
                   "interleave/row sizes must be powers of two");
    // Burst lengths divide by the effective bus width; a zero or NaN
    // width would cast inf/NaN to Cycles.
    SPATTEN_ASSERT(cfg_.bytes_per_cycle > 0,
                   "HBM bytes_per_cycle %d must be positive",
                   cfg_.bytes_per_cycle);
    SPATTEN_ASSERT(cfg_.bus_efficiency > 0 && cfg_.bus_efficiency <= 1,
                   "HBM bus_efficiency %g outside (0, 1]",
                   cfg_.bus_efficiency);
    channels_.resize(static_cast<std::size_t>(cfg_.channels));
    for (auto& ch : channels_)
        ch.banks.resize(static_cast<std::size_t>(cfg_.banks_per_channel));

    // Fast-path constants. The efficiency product and the ceil below use
    // the exact expressions serveChunk evaluates per chunk, so the
    // precomputed values are bit-identical to the reference math.
    while ((1ull << ilv_shift_) < cfg_.interleave_bytes)
        ++ilv_shift_;
    ilv_mask_ = cfg_.interleave_bytes - 1;
    while ((1ull << row_shift_) < cfg_.row_bytes)
        ++row_shift_;
    eff_bytes_per_cycle_ = cfg_.bytes_per_cycle * cfg_.bus_efficiency;
    burst_table_.resize(cfg_.interleave_bytes + 1);
    for (std::uint64_t b = 0; b <= cfg_.interleave_bytes; ++b)
        burst_table_[b] = burstCyclesRef(b);
    burst_full_ = burstCycles(cfg_.interleave_bytes);
    ch_pow2_ = isPow2(static_cast<std::uint64_t>(cfg_.channels));
    if (ch_pow2_) {
        while ((1 << ch_shift_) < cfg_.channels)
            ++ch_shift_;
        ch_mask_ = static_cast<std::uint64_t>(cfg_.channels) - 1;
    }
    bank_pow2_ = isPow2(static_cast<std::uint64_t>(cfg_.banks_per_channel));
    if (bank_pow2_)
        bank_mask_ =
            static_cast<std::uint64_t>(cfg_.banks_per_channel) - 1;
}

void
HbmModel::mapAddress(std::uint64_t addr, int& channel, int& bank,
                     std::int64_t& row) const
{
    const std::uint64_t block = addr / cfg_.interleave_bytes;
    channel = static_cast<int>(block % static_cast<std::uint64_t>(
                                           cfg_.channels));
    // Address within the channel after removing the interleave bits.
    const std::uint64_t in_channel =
        (block / static_cast<std::uint64_t>(cfg_.channels)) *
            cfg_.interleave_bytes +
        addr % cfg_.interleave_bytes;
    row = static_cast<std::int64_t>(in_channel / cfg_.row_bytes);
    bank = static_cast<int>(static_cast<std::uint64_t>(row) %
                            static_cast<std::uint64_t>(
                                cfg_.banks_per_channel));
}

Cycles
HbmModel::serveChunk(std::uint64_t addr, std::uint64_t bytes, bool write,
                     Cycles ready)
{
    int ch_idx = 0, bank_idx = 0;
    std::int64_t row = 0;
    mapAddress(addr, ch_idx, bank_idx, row);
    Channel& ch = channels_[static_cast<std::size_t>(ch_idx)];
    Bank& bank = ch.banks[static_cast<std::size_t>(bank_idx)];

    Cycles start = std::max(ready, ch.busy_until);
    Cycles access_lat = cfg_.t_cl;
    if (bank.open_row != row) {
        access_lat += (bank.open_row >= 0 ? cfg_.t_rp : 0) + cfg_.t_rcd;
        bank.open_row = row;
        ++activations_;
    }
    const double eff_bytes_per_cycle =
        cfg_.bytes_per_cycle * cfg_.bus_efficiency;
    const Cycles burst = std::max<Cycles>(
        1, static_cast<Cycles>(std::ceil(
               static_cast<double>(bytes) / eff_bytes_per_cycle)));
    // The channel data bus is occupied for the burst; CAS latency
    // overlaps with other banks' work and extends only the completion.
    ch.busy_until = start + burst;
    if (write)
        bytes_written_ += bytes;
    else
        bytes_read_ += bytes;
    return start + access_lat + burst;
}

Cycles
HbmModel::access(const HbmRequest& req, Cycles ready)
{
    SPATTEN_ASSERT(req.bytes > 0, "zero-byte HBM request");
    ++requests_;
    return reference_serving_ ? accessReference(req, ready)
                              : accessFast(req, ready);
}

Cycles
HbmModel::accessReference(const HbmRequest& req, Cycles ready)
{
    Cycles done = ready;
    std::uint64_t addr = req.addr;
    std::uint64_t remaining = req.bytes;
    while (remaining > 0) {
        const std::uint64_t in_block = addr % cfg_.interleave_bytes;
        const std::uint64_t chunk =
            std::min(remaining, cfg_.interleave_bytes - in_block);
        done = std::max(done, serveChunk(addr, chunk, req.write, ready));
        addr += chunk;
        remaining -= chunk;
    }
    return done;
}

Cycles
HbmModel::accessFast(const HbmRequest& req, Cycles ready)
{
    const std::uint64_t channels = static_cast<std::uint64_t>(cfg_.channels);
    const std::uint64_t first_block = req.addr >> ilv_shift_;
    const std::uint64_t last_addr = req.addr + req.bytes - 1;
    const std::uint64_t last_block = last_addr >> ilv_shift_;
    const std::uint64_t nblocks = last_block - first_block + 1;
    const std::uint64_t head_off = req.addr & ilv_mask_;

    if (req.write)
        bytes_written_ += req.bytes;
    else
        bytes_read_ += req.bytes;

    Cycles done = ready;

    if (nblocks <= channels || row_shift_ < ilv_shift_) {
        // Small stream (at most one chunk per channel — the common case
        // for decode-step KV gathers): serve blocks in address order
        // like the reference loop, with the mapping reduced to
        // shifts/masks and the full-chunk burst precomputed.
        for (std::uint64_t b = first_block; b <= last_block; ++b) {
            const std::uint64_t off = (b == first_block) ? head_off : 0;
            const std::uint64_t end =
                (b == last_block) ? (last_addr & ilv_mask_) : ilv_mask_;
            const std::uint64_t bytes = end - off + 1;
            const std::uint64_t in_channel =
                (blockInChannel(b) << ilv_shift_) + off;
            const std::int64_t row =
                static_cast<std::int64_t>(in_channel >> row_shift_);
            Channel& ch = channels_[chanOf(b)];
            Bank& bank =
                ch.banks[bankOf(static_cast<std::uint64_t>(row))];
            const Cycles start = std::max(ready, ch.busy_until);
            Cycles lat = cfg_.t_cl;
            if (bank.open_row != row) {
                lat += (bank.open_row >= 0 ? cfg_.t_rp : 0) + cfg_.t_rcd;
                bank.open_row = row;
                ++activations_;
            }
            const Cycles burst = (bytes == cfg_.interleave_bytes)
                                     ? burst_full_
                                     : burstCycles(bytes);
            ch.busy_until = start + burst;
            done = std::max(done, start + lat + burst);
        }
        return done;
    }

    // Long stream: channels are independent (each chunk touches only its
    // home channel's bus/bank state and the result is a max), so serve
    // each channel's chunk subsequence in one go, walking row segments
    // instead of chunks. Within a channel, chunk k+1 starts exactly when
    // chunk k's burst ends (busy_until >= ready after the first chunk),
    // and within a row segment only the first chunk can pay a row miss —
    // the completion max reduces to the segment's first and last chunks.
    const int seg_shift = row_shift_ - ilv_shift_; ///< chunks per row.
    const std::uint64_t seg_mask = (1ull << seg_shift) - 1;
    const std::uint64_t first_ch = first_block % channels;
    for (std::uint64_t c = 0; c < channels; ++c) {
        const std::uint64_t b0 =
            first_block + ((c + channels - first_ch) % channels);
        if (b0 > last_block)
            continue;
        const std::uint64_t nb = (last_block - b0) / channels + 1;
        const std::uint64_t j0 = b0 / channels; ///< in-channel block idx.
        const bool has_head = (b0 == first_block && head_off != 0);
        const bool has_tail = (b0 + (nb - 1) * channels == last_block &&
                               (last_addr & ilv_mask_) != ilv_mask_);
        const Cycles head_burst =
            has_head ? burstCycles(cfg_.interleave_bytes - head_off)
                     : burst_full_;
        const Cycles tail_burst =
            has_tail ? burstCycles((last_addr & ilv_mask_) + 1)
                     : burst_full_;
        // Burst of this channel's chunk @p i. Only the stream's global
        // first/last chunk can be partial, and a single chunk can never
        // be both here (that would require nblocks == 1, excluded by
        // the long-stream condition).
        const auto chunk_burst = [&](std::uint64_t i) {
            if (i == 0 && has_head)
                return head_burst;
            if (i + 1 == nb)
                return tail_burst;
            return burst_full_;
        };
        Channel& ch = channels_[c];
        Cycles start = std::max(ready, ch.busy_until);
        std::uint64_t k = 0;
        while (k < nb) {
            const std::uint64_t j = j0 + k;
            const std::int64_t row =
                static_cast<std::int64_t>(j >> seg_shift);
            const std::uint64_t seg_len =
                std::min<std::uint64_t>(nb - k, (seg_mask + 1) -
                                                    (j & seg_mask));
            Bank& bank =
                ch.banks[bankOf(static_cast<std::uint64_t>(row))];
            Cycles lat_first = cfg_.t_cl;
            if (bank.open_row != row) {
                lat_first +=
                    (bank.open_row >= 0 ? cfg_.t_rp : 0) + cfg_.t_rcd;
                bank.open_row = row;
                ++activations_;
            }
            const Cycles burst_first = chunk_burst(k);
            done = std::max(done, start + lat_first + burst_first);
            if (seg_len == 1) {
                start += burst_first;
            } else {
                // Chunks between first and last are always full chunks,
                // and their completions are dominated by the last one.
                const Cycles burst_last = chunk_burst(k + seg_len - 1);
                const Cycles start_last =
                    start + burst_first +
                    (seg_len - 2) * burst_full_;
                done = std::max(done, start_last + cfg_.t_cl + burst_last);
                start = start_last + burst_last;
            }
            k += seg_len;
        }
        ch.busy_until = start;
    }
    return done;
}

Cycles
HbmModel::accessBatch(const std::vector<HbmRequest>& reqs, Cycles ready)
{
    Cycles done = ready;
    for (const auto& r : reqs)
        done = std::max(done, access(r, ready));
    return done;
}

Cycles
HbmModel::streamCycles(std::uint64_t bytes) const
{
    const std::uint64_t per_cycle =
        static_cast<std::uint64_t>(cfg_.channels) *
        static_cast<std::uint64_t>(cfg_.bytes_per_cycle);
    return std::max<Cycles>(1, ceilDiv(bytes, per_cycle));
}

double
HbmModel::energyPj() const
{
    return static_cast<double>(activations_) * cfg_.act_energy_pj +
           static_cast<double>(totalBytes()) * 8.0 * cfg_.bit_energy_pj;
}

Cycles
HbmModel::drainCycle() const
{
    Cycles m = 0;
    for (const auto& ch : channels_)
        m = std::max(m, ch.busy_until);
    return m;
}

void
FarMemoryConfig::validate() const
{
    SPATTEN_ASSERT(bandwidth_gbs > 0,
                   "far-memory bandwidth_gbs must be > 0, got %g",
                   bandwidth_gbs);
    SPATTEN_ASSERT(latency_us >= 0,
                   "far-memory latency_us must be >= 0, got %g", latency_us);
    SPATTEN_ASSERT(bit_energy_pj >= 0,
                   "far-memory bit_energy_pj must be >= 0, got %g",
                   bit_energy_pj);
}

void
HbmModel::exportStats(StatSet& stats) const
{
    static const StatName kBytesRead("hbm.bytes_read");
    static const StatName kBytesWritten("hbm.bytes_written");
    static const StatName kActivations("hbm.row_activations");
    static const StatName kRequests("hbm.requests");
    static const StatName kEnergy("hbm.energy_pj");
    stats.add(kBytesRead, static_cast<double>(bytes_read_));
    stats.add(kBytesWritten, static_cast<double>(bytes_written_));
    stats.add(kActivations, static_cast<double>(activations_));
    stats.add(kRequests, static_cast<double>(requests_));
    stats.add(kEnergy, energyPj());
}

HbmModel::TimingState
HbmModel::captureTimingState(Cycles base) const
{
    TimingState s;
    s.rel_busy.reserve(channels_.size());
    s.open_rows.reserve(channels_.size() *
                        static_cast<std::size_t>(cfg_.banks_per_channel));
    for (const auto& ch : channels_) {
        const std::int64_t rel = static_cast<std::int64_t>(ch.busy_until) -
                                 static_cast<std::int64_t>(base);
        s.rel_busy.push_back(std::max<std::int64_t>(rel, 0));
        for (const auto& b : ch.banks)
            s.open_rows.push_back(b.open_row);
    }
    return s;
}

bool
HbmModel::timingStateEquals(const TimingState& s, Cycles base) const
{
    if (s.rel_busy.size() != channels_.size())
        return false;
    std::size_t r = 0;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const auto& ch = channels_[c];
        const std::int64_t rel = static_cast<std::int64_t>(ch.busy_until) -
                                 static_cast<std::int64_t>(base);
        if (std::max<std::int64_t>(rel, 0) != s.rel_busy[c])
            return false;
        for (const auto& b : ch.banks)
            if (b.open_row != s.open_rows[r++])
                return false;
    }
    return true;
}

void
HbmModel::restoreTimingState(const TimingState& s, Cycles base)
{
    SPATTEN_ASSERT(s.rel_busy.size() == channels_.size(),
                   "timing-state geometry mismatch");
    std::size_t r = 0;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        auto& ch = channels_[c];
        if (s.rel_busy[c] > 0)
            ch.busy_until = static_cast<Cycles>(
                static_cast<std::int64_t>(base) + s.rel_busy[c]);
        for (auto& b : ch.banks)
            b.open_row = s.open_rows[r++];
    }
}

void
HbmModel::addReplayedTraffic(std::uint64_t bytes_read,
                             std::uint64_t bytes_written,
                             std::uint64_t activations,
                             std::uint64_t requests)
{
    bytes_read_ += bytes_read;
    bytes_written_ += bytes_written;
    activations_ += activations;
    requests_ += requests;
}

void
HbmModel::reset()
{
    for (auto& ch : channels_) {
        ch.busy_until = 0;
        for (auto& b : ch.banks)
            b.open_row = -1;
    }
    bytes_read_ = bytes_written_ = activations_ = requests_ = 0;
}

} // namespace spatten
