/**
 * @file
 * The common stage abstraction of the accelerator model.
 *
 * Every hardware unit on the attention critical path (fetcher, Q x K,
 * softmax, top-k, zero eliminator, prob x V) implements StageModel: given
 * the per-request ExecutionContext it reports its timing contribution,
 * its energy-relevant activity, and the data traffic it generates. The
 * StageGraph composes the stages into one layer pass and lands each
 * stage's occupancy/energy/traffic in a StatSet automatically, so the
 * breakdown benches no longer re-derive pipeline internals by hand.
 */
#ifndef SPATTEN_SIM_STAGE_MODEL_HPP
#define SPATTEN_SIM_STAGE_MODEL_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "energy/energy_model.hpp"
#include "sim/clock.hpp"
#include "sim/survivor_index.hpp"

namespace spatten {

/**
 * Number of tokens/heads/rows surviving one pruning round: keep
 * ceil(alive * (1 - ratio)), ratio clamped to [_, 1], never below one
 * survivor. The single definition of this rounding rule — cascade
 * token/head pruning (ExecutionContext::endLayer) and local value
 * pruning both call it.
 */
inline std::size_t
pruneSurvivors(std::size_t alive, double ratio)
{
    if (ratio <= 0.0)
        return alive;
    const auto k = static_cast<std::size_t>(std::ceil(
        static_cast<double>(alive) * (1.0 - std::min(ratio, 1.0))));
    return std::max<std::size_t>(k, 1);
}

/**
 * Per-request execution state threaded through the stage graph.
 *
 * The context carries four kinds of state: the static request shape
 * (model dims, sequence lengths), the quantization plane state (MSB/LSB
 * widths and the active LSB refetch fraction for the current pass), the
 * pruning policy (per-layer cascade ratios, local value ratio), and the
 * dynamic cascade state (alive tokens/heads, the current layer, SRAM
 * tiling). The policy is applied here, one layer at a time:
 * beginLayer() publishes the layer's ratios and the pass's plane widths
 * to the stages, endLayer() applies the cascade shrink. Stages read but
 * never write the context.
 */
struct ExecutionContext
{
    // ---- Static request description ----
    std::size_t d_head = 64;
    std::size_t num_layers = 12;
    std::size_t num_heads_total = 12;
    std::size_t max_context = 1024;

    // ---- Quantization plane state ----
    int total_bits = 32;         ///< Static on-DRAM width.
    int msb_bits = 32;           ///< Eagerly fetched MSB plane width.
    int lsb_bits = 0;            ///< On-demand LSB plane width.
    double lsb_fraction = 0.0;   ///< Queries needing the LSB refetch.
    /// Plane width fetched eagerly in the current pass (progressive
    /// quantization, §III-D: summarization is compute-bound and fetches
    /// the full static width once, generation the MSB plane only).
    int fetch_bits = 32;
    /// LSB refetch fraction active in the current pass (0 outside the
    /// generation stage).
    double active_lsb_fraction = 0.0;

    // ---- Pruning policy ----
    /// Per-layer cascade token ratios (§III-A): the fraction of the
    /// alive tokens pruned after layer l. Empty when token pruning is
    /// off, which reads as ratio 0 on every layer.
    std::vector<double> token_ratios;
    /// Per-layer cascade head ratios (§III-B), same convention.
    std::vector<double> head_ratios;
    bool local_value_pruning = false;
    double local_v_ratio = 0.0;

    // ---- SRAM tiling state ----
    /// Tokens per SRAM buffer; contexts larger than one buffer stream in
    /// K tiles (Q re-fetched per tile).
    std::size_t sram_tokens = 0;

    // ---- Dynamic cascade state (mutated between layers) ----
    std::size_t layer = 0;
    bool generation = false;
    std::size_t pass_queries = 0; ///< Query rows the pass was given.
    std::size_t queries = 0;      ///< Effective query rows per (layer, head).
    std::size_t alive_tokens = 0; ///< Context length entering the layer.
    std::size_t alive_heads = 0;
    std::size_t kept_values = 0;  ///< V rows after local value pruning.
    double token_prune_ratio = 0; ///< This layer's cascade token ratio.
    double head_prune_ratio = 0;  ///< This layer's cascade head ratio.
    /// CSR survivor index of the current pass: beginLayer() appends one
    /// compact row per layer (the zero-eliminator packs survivors into
    /// contiguous slots, so ids are implicitly [0, count)), and
    /// endLayer()'s shrink of alive_tokens lands in the next layer's
    /// row. Stages read their survivor count through survivorTokens()
    /// instead of re-deriving it.
    SurvivorIndex survivors;

    /**
     * Reset the per-pass dynamic state in place so one context instance
     * is reused across every summarization/decode step of a request
     * (rather than rebuilt per step): the pass enters with
     * @p context_len alive tokens, the full head complement, and layer 0.
     * Static shape, plane state, and policy are untouched, so a decode
     * step can re-enter the graph with the cascade-pruned KV length its
     * predecessor left behind.
     */
    void beginPass(std::size_t pass_q, std::size_t context_len,
                   bool generation_pass)
    {
        pass_queries = pass_q;
        alive_tokens = context_len;
        alive_heads = num_heads_total;
        generation = generation_pass;
        layer = 0;
        survivors.reset(num_layers);
    }

    /**
     * Enter the current layer: publish its cascade ratios and the
     * pass's quantization plane widths (generation fetches the MSB
     * plane eagerly and refetches LSBs for lsb_fraction of the
     * queries), cap the effective query rows at the surviving context,
     * and pick the V rows local value pruning keeps.
     */
    void beginLayer()
    {
        token_prune_ratio = ratioAt(token_ratios);
        head_prune_ratio = ratioAt(head_ratios);
        fetch_bits = generation ? msb_bits : total_bits;
        active_lsb_fraction = generation ? lsb_fraction : 0.0;
        survivors.appendCompactLayer(alive_tokens);
        queries = std::min(pass_queries, survivorTokens());
        kept_values = local_value_pruning
                          ? pruneSurvivors(survivorTokens(), local_v_ratio)
                          : survivorTokens();
    }

    /**
     * Leave the current layer: the layer's top-k keeps
     * pruneSurvivors(alive, ratio) tokens and heads, pruned ones stay
     * pruned in every later layer (cascade), and the next layer begins.
     * The token shrink lands in the next beginLayer()'s CSR row.
     */
    void endLayer()
    {
        alive_tokens = pruneSurvivors(alive_tokens, token_prune_ratio);
        alive_heads = pruneSurvivors(alive_heads, head_prune_ratio);
        ++layer;
    }

    /**
     * Survivors entering the current layer, read through the CSR
     * index's most recent row (appended by beginLayer, shrunk between
     * layers by endLayer). Falls back to alive_tokens for a hand-built
     * context that never entered a layer.
     */
    std::size_t survivorTokens() const
    {
        return survivors.layers() > 0 ? survivors.back() : alive_tokens;
    }

    /** DRAM bytes of one d_head-dim row at @p bits element width. */
    std::size_t bytesPerRow(int bits) const
    {
        return ceilDiv<std::size_t>(
            d_head * static_cast<std::size_t>(bits), 8);
    }

    /** K tiles the current context needs at the current SRAM capacity. */
    std::size_t tiles() const
    {
        if (generation || sram_tokens == 0)
            return 1;
        return std::max<std::size_t>(
            1, ceilDiv(survivorTokens(), sram_tokens));
    }

    /** Query rows across all alive heads. */
    double queryRows() const
    {
        return static_cast<double>(queries) *
               static_cast<double>(alive_heads);
    }

    /**
     * Synthetic, layer/head-distinct DRAM base address of tensor plane
     * @p plane for the current (layer, head). The per-layer slot stride
     * is derived from the model's head count (floored at 64 to keep the
     * historical generous slot spacing), so layer regions never alias —
     * the seed's fixed `layer * 64 + head` stride silently collided
     * layer regions for models with more than 64 heads. The per-plane
     * region is 256 MB but grows when a large model's layer x head
     * slots would spill into the next plane (sized by the widest plane,
     * the static total_bits width, which bounds every plane's slots).
     */
    std::uint64_t planeBase(int plane, std::size_t head,
                            std::size_t bytes_per_row) const
    {
        const std::uint64_t stride =
            std::max<std::uint64_t>(num_heads_total, 64);
        const std::uint64_t max_slot_bytes = roundUp<std::uint64_t>(
            max_context * bytesPerRow(total_bits), 4096);
        const std::uint64_t region =
            std::max<std::uint64_t>(0x10000000ULL, // 256 MB per plane.
                                    num_layers * stride * max_slot_bytes);
        const std::uint64_t slot =
            (layer * stride + head) *
            roundUp<std::uint64_t>(max_context * bytes_per_row, 4096);
        return static_cast<std::uint64_t>(plane) * region + slot;
    }

  private:
    /** The current layer's entry of a per-layer ratio list (0 when the
     *  list is empty: that pruning is off). */
    double ratioAt(const std::vector<double>& ratios) const
    {
        return layer < ratios.size() ? ratios[layer] : 0.0;
    }
};

/** Timing contribution of one stage to one layer pass. */
struct StageTiming
{
    /// Occupancy per query row. The layer's initiation interval is the
    /// max over the per-query stages (the pipeline is fully pipelined,
    /// Fig. 8), so the slowest stage bounds throughput.
    Cycles ii_cycles = 0;
    /// Serial per-layer cycles outside the query pipeline (e.g. the
    /// cascade-pruning top-k pass between layers).
    Cycles layer_cycles = 0;
};

/** Data traffic one stage generates in one layer pass. */
struct StageTraffic
{
    double dram_bytes = 0;       ///< DRAM bytes fetched (estimate).
    double fetch_requests = 0;   ///< Fetcher/crossbar request count.
    double sram_read_elems = 0;  ///< Element reads from the stage's SRAM.
    double sram_write_elems = 0; ///< Element writes (buffer fills).
};

/**
 * A hardware stage of the attention dataflow.
 *
 * Implementations are pure observers of the ExecutionContext: the graph
 * asks each stage for its timing / energy activity / traffic for the
 * current layer and does all accumulation itself.
 */
class StageModel
{
  public:
    virtual ~StageModel() = default;

    /** Stable stage name, used as the StatSet key prefix. */
    virtual std::string stageName() const = 0;

    /** Timing contribution for the current layer. */
    virtual StageTiming timing(const ExecutionContext& ctx) const = 0;

    /**
     * Energy-relevant activity for the current layer (MACs, softmax
     * element ops, comparator ops, ...). The graph feeds the merged
     * counts to the EnergyModel; per-stage energy is also priced
     * individually for the StatSet breakdown.
     */
    virtual ActivityCounts energy(const ExecutionContext& ctx) const = 0;

    /** Traffic contribution for the current layer. */
    virtual StageTraffic traffic(const ExecutionContext& ctx) const = 0;
};

/**
 * Extension for stages that realize their DRAM traffic against a
 * stateful memory system (HBM + crossbar): the graph calls issue() once
 * per layer with the DRAM-clock cursor and uses the returned completion
 * cycle as the layer's memory time.
 */
class MemoryStage : public StageModel
{
  public:
    /**
     * Issue the layer's DRAM traffic starting at DRAM cycle @p start.
     * @return the DRAM cycle at which the last beat lands.
     */
    virtual Cycles issue(const ExecutionContext& ctx, Cycles start) = 0;
};

} // namespace spatten

#endif // SPATTEN_SIM_STAGE_MODEL_HPP
