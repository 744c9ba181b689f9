/**
 * @file
 * Composable stage graph: the execution engine of the accelerator model.
 *
 * A StageGraph is an ordered set of StageModels. One runLayer() call
 * enters the layer on the per-request ExecutionContext (which publishes
 * the layer's pruning ratios and plane widths), evaluates every stage
 * against it, combines their occupancies into the layer's initiation
 * interval (fully pipelined critical path), realizes DRAM traffic
 * through the registered MemoryStages, accumulates each stage's
 * occupancy / energy / traffic — exported into a StatSet under
 * `stage.<name>.*` by exportStats() — and leaves the layer, applying
 * the cascade shrink to the context.
 */
#ifndef SPATTEN_SIM_STAGE_GRAPH_HPP
#define SPATTEN_SIM_STAGE_GRAPH_HPP

#include <functional>
#include <string>
#include <vector>

#include "energy/energy_model.hpp"
#include "sim/stage_model.hpp"
#include "sim/stats.hpp"

namespace spatten {

/** Cost outcome of one layer pass. */
struct LayerCost
{
    Cycles ii = 0;              ///< Initiation interval (max over stages).
    Cycles compute_cycles = 0;  ///< queries x ii x heads + serial extras.
    double compute_ns = 0;
    double memory_ns = 0;
    double layer_ns = 0;        ///< max(compute, memory) under overlap.
    double qk_macs = 0;         ///< Executed Q x K MACs (no LSB recompute).
    double pv_macs = 0;         ///< Executed prob x V MACs.
};

/** The stage graph. Stages are registered once per request. */
class StageGraph
{
  public:
    /// Optional per-stage traffic hook (e.g. routing SRAM element counts
    /// into the owning SramModel).
    using TrafficSink = std::function<void(const StageTraffic&)>;

    StageGraph(double core_freq_ghz, double dram_freq_ghz,
               EnergyConfig energy_cfg = EnergyConfig{});

    /** Register a pipelined stage; @p sink observes its per-layer traffic. */
    void addStage(const StageModel* stage, TrafficSink sink = nullptr);

    /** Register a stage that also realizes DRAM traffic. */
    void addMemoryStage(MemoryStage* stage, TrafficSink sink = nullptr);

    /**
     * Per-stage observable effects of one layer evaluation, captured so
     * a bit-identical layer (same context, same relative memory state)
     * can be replayed without re-walking the stages. Records hold the
     * exact doubles the live evaluation accumulated; replayLayer()
     * re-applies them in the same order, so the floating-point addition
     * sequence — and therefore every total — is unchanged.
     */
    struct StageReplay
    {
        double busy = 0;
        double energy_pj = 0;
        ActivityCounts act;
        StageTraffic traffic;
    };
    struct LayerReplayRecord
    {
        LayerCost cost;
        double window_busy = 0; ///< Memory-stage busy share (core cycles).
        Cycles dram_delta = 0;  ///< DRAM-clock advance of the layer.
        std::vector<StageReplay> stages;
    };

    /**
     * Evaluate one layer: ctx.beginLayer(), price every stage, realize
     * memory traffic, account time/energy/stats, then ctx.endLayer().
     * When @p record is non-null, the layer's accounting effects are
     * captured for replay.
     */
    LayerCost runLayer(ExecutionContext& ctx,
                       LayerReplayRecord* record = nullptr);

    /**
     * Re-apply a recorded layer's accounting (time, bounds, DRAM clock,
     * activity, per-stage counters, traffic sinks) without evaluating
     * stages or touching a context. The caller owns the validity
     * argument: the record must have been captured at an identical
     * context and identical relative memory-system state
     * (DecodeSession's decode-step memo checks both).
     */
    LayerCost replayLayer(const LayerReplayRecord& rec);

    /** DRAM-domain cursor (base for relative memory-state snapshots). */
    Cycles dramClock() const { return dram_clock_; }

    /** Elapsed core time across all layers so far (ns). */
    double elapsedNs() const { return elapsed_ns_; }
    double computeBoundNs() const { return compute_bound_ns_; }
    double memoryBoundNs() const { return memory_bound_ns_; }

    /** Merged energy-relevant activity across all layers. */
    const ActivityCounts& activity() const { return activity_; }

    /**
     * Export the per-stage occupancy/energy/traffic counters into
     * @p stats as `stage.<name>.{busy_cycles,energy_pj,dram_bytes}`
     * counters. The hot path accumulates into plain per-stage doubles
     * (same per-key addition order as the historical map-backed
     * counters, so the totals are bit-identical); the names are
     * resolved when a stage is registered, so exporting builds no
     * strings.
     */
    void exportStats(StatSet& stats) const;
    /** Number of entries exportStats() writes. */
    std::size_t exportedStats() const { return 3 * stages_.size(); }

  private:
    /** The interned `stage.<name>.*` counter names of one stage. */
    struct StageStatNames
    {
        StatName busy;   ///< stage.<name>.busy_cycles
        StatName energy; ///< stage.<name>.energy_pj
        StatName dram;   ///< stage.<name>.dram_bytes
    };

    /**
     * Stat names for stage @p stage. A graph is built per serving
     * session, so the few distinct stage names are cached per thread:
     * registering a stage neither concatenates strings nor takes the
     * intern lock.
     */
    static StageStatNames statNamesFor(const std::string& stage);

    struct Entry
    {
        const StageModel* stage = nullptr;
        MemoryStage* memory = nullptr; ///< Non-null for memory stages.
        TrafficSink sink;
        std::string name; ///< Cached stageName(): no virtual-call +
                          ///< string construction in the layer loop.
        StageStatNames stat_names; ///< Interned once at registration.
        // Hot-path accumulators (exported by exportStats()).
        double busy_cycles = 0;
        double energy_pj = 0;
        double dram_bytes = 0;

        Entry(const StageModel* s, MemoryStage* m, TrafficSink t);
    };

    /** Energy (pJ) of one stage's activity under the graph's constants. */
    double priceActivityPj(const ActivityCounts& act) const;

    std::vector<Entry> stages_;
    double core_freq_ghz_;
    double dram_freq_ghz_;
    EnergyConfig energy_cfg_;

    Cycles dram_clock_ = 0; ///< DRAM-domain cursor across layers.
    double elapsed_ns_ = 0;
    double compute_bound_ns_ = 0;
    double memory_bound_ns_ = 0;
    ActivityCounts activity_;
    std::vector<StageTiming> timings_; ///< Scratch, reused across layers.
};

} // namespace spatten

#endif // SPATTEN_SIM_STAGE_GRAPH_HPP
