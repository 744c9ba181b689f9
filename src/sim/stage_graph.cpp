#include "sim/stage_graph.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace spatten {

StageGraph::StageGraph(double core_freq_ghz, double dram_freq_ghz,
                       EnergyConfig energy_cfg)
    : core_freq_ghz_(core_freq_ghz), dram_freq_ghz_(dram_freq_ghz),
      energy_cfg_(energy_cfg)
{
    SPATTEN_ASSERT(core_freq_ghz_ > 0 && dram_freq_ghz_ > 0,
                   "bad clock config (%f core, %f dram)", core_freq_ghz_,
                   dram_freq_ghz_);
}

StageGraph::Entry::Entry(const StageModel* s, MemoryStage* m,
                         TrafficSink t)
    : stage(s), memory(m), sink(std::move(t)), name(s->stageName()),
      stat_names(statNamesFor(name))
{
}

StageGraph::StageStatNames
StageGraph::statNamesFor(const std::string& stage)
{
    thread_local std::vector<std::pair<std::string, StageStatNames>> cache;
    for (const auto& [name, names] : cache)
        if (name == stage)
            return names;
    const std::string prefix = "stage." + stage;
    cache.emplace_back(stage,
                       StageStatNames{StatName(prefix + ".busy_cycles"),
                                      StatName(prefix + ".energy_pj"),
                                      StatName(prefix + ".dram_bytes")});
    return cache.back().second;
}

void
StageGraph::addStage(const StageModel* stage, TrafficSink sink)
{
    SPATTEN_ASSERT(stage != nullptr, "null stage");
    stages_.emplace_back(stage, nullptr, std::move(sink));
}

void
StageGraph::addMemoryStage(MemoryStage* stage, TrafficSink sink)
{
    SPATTEN_ASSERT(stage != nullptr, "null memory stage");
    stages_.emplace_back(stage, stage, std::move(sink));
}

void
StageGraph::exportStats(StatSet& stats) const
{
    for (const auto& e : stages_) {
        stats.add(e.stat_names.busy, e.busy_cycles);
        stats.add(e.stat_names.energy, e.energy_pj);
        stats.add(e.stat_names.dram, e.dram_bytes);
    }
}

double
StageGraph::priceActivityPj(const ActivityCounts& act) const
{
    // Logic-event pricing only: SRAM/DRAM movement energy is accounted
    // globally (SramModel byte counters, HbmModel energy) because the
    // byte width belongs to those models, not to the producing stage.
    return (act.qk_macs + act.pv_macs) * energy_cfg_.mac_pj +
           act.softmax_elems * energy_cfg_.softmax_elem_pj +
           act.topk_comparisons * energy_cfg_.topk_cmp_pj +
           act.fetch_requests * energy_cfg_.fetch_req_pj;
}

LayerCost
StageGraph::runLayer(ExecutionContext& ctx, LayerReplayRecord* record)
{
    SPATTEN_ASSERT(!stages_.empty(), "stage graph has no stages");
    ctx.beginLayer();

    LayerCost cost;
    const double q_heads = static_cast<double>(ctx.queries) *
                           static_cast<double>(ctx.alive_heads);

    // ---- Compute time: fully-pipelined II + serial layer extras ----
    Cycles layer_extra = 0;
    timings_.clear();
    timings_.reserve(stages_.size());
    for (const auto& e : stages_) {
        const StageTiming t = e.stage->timing(ctx);
        cost.ii = std::max(cost.ii, t.ii_cycles);
        layer_extra += t.layer_cycles;
        timings_.push_back(t);
    }
    cost.compute_cycles =
        ctx.queries * cost.ii * ctx.alive_heads + layer_extra;
    cost.compute_ns =
        static_cast<double>(cost.compute_cycles) / core_freq_ghz_;

    // ---- Memory time: realize traffic through the memory stages ----
    const Cycles dram_start = dram_clock_;
    Cycles dram_done = dram_start;
    for (auto& e : stages_) {
        if (e.memory != nullptr)
            dram_done =
                std::max(dram_done, e.memory->issue(ctx, dram_start));
    }
    cost.memory_ns =
        static_cast<double>(dram_done - dram_start) / dram_freq_ghz_;
    dram_clock_ = dram_done;

    // Memory stages have no core-pipeline occupancy (their streams
    // overlap compute); their busy share is the realized DRAM window,
    // attributed in core-domain cycles so the breakdown stays
    // commensurable with the compute stages. The window is shared: with
    // several memory stages each would be charged the whole layer
    // window, so per-stage apportioning must be added before a second
    // MemoryStage is registered.
    const double window_busy = cost.memory_ns * core_freq_ghz_;
    for (auto& e : stages_) {
        if (e.memory != nullptr)
            e.busy_cycles += window_busy;
    }

    if (record != nullptr) {
        record->window_busy = window_busy;
        record->dram_delta = dram_done - dram_start;
        record->stages.resize(stages_.size());
    }

    // ---- Coarse-grained overlap ----
    cost.layer_ns = std::max(cost.compute_ns, cost.memory_ns);
    elapsed_ns_ += cost.layer_ns;
    if (cost.compute_ns >= cost.memory_ns)
        compute_bound_ns_ += cost.layer_ns;
    else
        memory_bound_ns_ += cost.layer_ns;

    // ---- Per-stage accounting: occupancy, energy, traffic ----
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        auto& e = stages_[i];
        // Memory stages were already charged their realized DRAM window
        // above; charging their pipeline occupancy too would double-count.
        const Cycles busy =
            e.memory != nullptr
                ? 0
                : static_cast<Cycles>(
                      q_heads * static_cast<double>(timings_[i].ii_cycles) +
                      static_cast<double>(timings_[i].layer_cycles));
        const ActivityCounts act = e.stage->energy(ctx);
        const StageTraffic traffic = e.stage->traffic(ctx);
        // Requests are a traffic quantity: a stage reporting them via
        // energy() as well would double-price them here and in the
        // global activity merge.
        SPATTEN_ASSERT(act.fetch_requests == 0,
                       "stage %s must report fetch_requests via traffic()",
                       e.name.c_str());
        activity_.add(act);
        activity_.fetch_requests += traffic.fetch_requests;
        if (e.sink)
            e.sink(traffic);
        e.busy_cycles += static_cast<double>(busy);
        // Price the stage's compute activity and its request traffic
        // through the single pricing path so fetch requests can never be
        // double-counted if a stage ever reports them via energy() too.
        ActivityCounts priced = act;
        priced.fetch_requests += traffic.fetch_requests;
        const double priced_pj = priceActivityPj(priced);
        e.energy_pj += priced_pj;
        e.dram_bytes += traffic.dram_bytes;
        if (record != nullptr) {
            StageReplay& r = record->stages[i];
            r.busy = static_cast<double>(busy);
            r.energy_pj = priced_pj;
            r.act = act;
            r.traffic = traffic;
        }
    }

    // Executed attention work (FLOPs = 2 x MACs); the LSB recompute
    // share counts toward energy but not toward useful FLOPs.
    cost.qk_macs = q_heads * static_cast<double>(ctx.alive_tokens) *
                   static_cast<double>(ctx.d_head);
    cost.pv_macs = q_heads * static_cast<double>(ctx.kept_values) *
                   static_cast<double>(ctx.d_head);

    ctx.endLayer();
    if (record != nullptr)
        record->cost = cost;
    return cost;
}

LayerCost
StageGraph::replayLayer(const LayerReplayRecord& rec)
{
    // Mirror runLayer's accumulation sequence exactly — every += below
    // re-applies the double the live evaluation added, in the same
    // order, so all running totals stay bit-identical.
    for (auto& e : stages_) {
        if (e.memory != nullptr)
            e.busy_cycles += rec.window_busy;
    }
    dram_clock_ += rec.dram_delta;

    elapsed_ns_ += rec.cost.layer_ns;
    if (rec.cost.compute_ns >= rec.cost.memory_ns)
        compute_bound_ns_ += rec.cost.layer_ns;
    else
        memory_bound_ns_ += rec.cost.layer_ns;

    for (std::size_t i = 0; i < stages_.size(); ++i) {
        auto& e = stages_[i];
        const StageReplay& r = rec.stages[i];
        activity_.add(r.act);
        activity_.fetch_requests += r.traffic.fetch_requests;
        if (e.sink)
            e.sink(r.traffic);
        e.busy_cycles += r.busy;
        e.energy_pj += r.energy_pj;
        e.dram_bytes += r.traffic.dram_bytes;
    }
    return rec.cost;
}

} // namespace spatten
