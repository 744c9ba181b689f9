#include "accel/decode_session.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "core/execution_context.hpp"

namespace spatten {

DecodeSession::DecodeSession(const SpAttenConfig& cfg,
                             const WorkloadSpec& workload,
                             const PruningPolicy& policy,
                             std::uint64_t request_seed, CarryRule rule)
    : ProtocolSession(workload),
      key_sram_({cfg.key_sram_kb, 768, true, 12.0}, "key_sram"),
      value_sram_({cfg.value_sram_kb, 768, true, 12.0}, "value_sram"),
      hbm_(cfg.hbm),
      xbar_({32, static_cast<std::size_t>(cfg.hbm.channels)}),
      fetcher_(hbm_, xbar_),
      qk_(cfg.qk),
      softmax_(cfg.softmax),
      topk_({cfg.topk_parallelism, 1024, 0x70ccULL ^ request_seed}),
      pv_(cfg.pv),
      graph_(cfg.core_freq_ghz, cfg.hbm.freq_ghz, cfg.energy),
      ctx_(makeExecutionContext(workload, policy)),
      core_freq_ghz_(cfg.core_freq_ghz),
      energy_cfg_(cfg.energy),
      rule_(rule)
{
    ctx_.max_context = cfg.max_context;
    // Contexts larger than one SRAM buffer are processed in K tiles:
    // each tile is loaded once and all queries stream against it, so K/V
    // are fetched once but Q is re-streamed per tile. The tile size
    // honors the smaller of the two SRAMs so an asymmetric config can
    // never be filled past a buffer's capacity.
    ctx_.sram_tokens = std::min(key_sram_.maxTokens(ctx_.d_head),
                                value_sram_.maxTokens(ctx_.d_head));
    SPATTEN_ASSERT(ctx_.sram_tokens >= 1,
                   "SRAMs cannot hold a single %zu-dim token",
                   ctx_.d_head);

    graph_.addMemoryStage(&fetcher_, [this](const StageTraffic& t) {
        if (t.sram_write_elems > 0) {
            key_sram_.recordWrites(t.sram_write_elems);
            value_sram_.recordWrites(t.sram_write_elems);
        }
    });
    graph_.addStage(&qk_, [this](const StageTraffic& t) {
        key_sram_.recordReads(t.sram_read_elems);
    });
    graph_.addStage(&softmax_);
    graph_.addStage(&topk_);
    graph_.addStage(&zero_eliminator_);
    graph_.addStage(&pv_, [this](const StageTraffic& t) {
        value_sram_.recordReads(t.sram_read_elems);
    });
    // The unpruned trajectory peaks at summarize + generate tokens; the
    // pruned one only shrinks from there, so this bound covers both.
    SPATTEN_ASSERT(workload.summarize_len + workload.generate_len <=
                       cfg.max_context,
                   "context %zu exceeds SRAM-backed max %zu",
                   workload.summarize_len + workload.generate_len,
                   cfg.max_context);
}

double
DecodeSession::chunkPass(std::size_t offset, std::size_t len)
{
    const double before = elapsedSeconds();
    runPass(len, offset + len, false);
    // Cumulative: nothing but prefill chunks has run on the session
    // yet, so its elapsed time *is* the prefill share — and it is
    // already correct at a mid-prefill eviction's finalize().
    prefill_seconds_ = elapsedSeconds();
    return elapsedSeconds() - before;
}

double
DecodeSession::decodePass(std::size_t ctx)
{
    const double before = elapsedSeconds();
    runPass(1, ctx, true);
    return elapsedSeconds() - before;
}

void
DecodeSession::runPass(std::size_t queries, std::size_t context_len,
                       bool generation)
{
    // The step memo covers generation: a steady-state step (repeated
    // entering context, unchanged relative HBM state) replays the
    // recorded pass; any other step records itself.
    if (generation && memo_enabled_ && memo_.valid &&
        memo_.context_len == context_len &&
        hbm_.timingStateEquals(memo_.pre, graph_.dramClock())) {
        replayPass();
        return;
    }
    const bool record = generation && memo_enabled_;
    // Pre AND post states are relative to the pre-pass DRAM clock;
    // replay translates both by the replay-time clock.
    const Cycles base = graph_.dramClock();
    const std::uint64_t bytes_read = hbm_.bytesRead();
    const std::uint64_t bytes_written = hbm_.bytesWritten();
    const std::uint64_t activations = hbm_.rowActivations();
    const std::uint64_t requests = hbm_.requestsIssued();
    const std::size_t fetch_requests = fetcher_.totalRequests();
    if (record) {
        memo_.valid = false;
        memo_.context_len = context_len;
        memo_.pre = hbm_.captureTimingState(base);
        memo_.layers.resize(ctx_.num_layers);
        memo_.flops_added.resize(ctx_.num_layers);
    }
    ctx_.beginPass(queries, context_len, generation);
    for (std::size_t l = 0; l < ctx_.num_layers; ++l) {
        const LayerCost cost =
            graph_.runLayer(ctx_, record ? &memo_.layers[l] : nullptr);
        const double added = 2.0 * (cost.qk_macs + cost.pv_macs);
        if (record)
            memo_.flops_added[l] = added;
        attention_flops_ += added;
    }
    if (!record)
        return;
    memo_.post = hbm_.captureTimingState(base);
    memo_.d_bytes_read = hbm_.bytesRead() - bytes_read;
    memo_.d_bytes_written = hbm_.bytesWritten() - bytes_written;
    memo_.d_activations = hbm_.rowActivations() - activations;
    memo_.d_requests = hbm_.requestsIssued() - requests;
    memo_.d_fetch_requests = fetcher_.totalRequests() - fetch_requests;
    memo_.ctx_after = ctx_;
    memo_.valid = true;
}

void
DecodeSession::replayPass()
{
    const Cycles base = graph_.dramClock();
    for (std::size_t l = 0; l < memo_.layers.size(); ++l) {
        graph_.replayLayer(memo_.layers[l]);
        attention_flops_ += memo_.flops_added[l];
    }
    hbm_.restoreTimingState(memo_.post, base);
    hbm_.addReplayedTraffic(memo_.d_bytes_read, memo_.d_bytes_written,
                            memo_.d_activations, memo_.d_requests);
    fetcher_.addReplayedRequests(memo_.d_fetch_requests);
    ctx_ = memo_.ctx_after;
    ++memo_replays_;
}

RunResult
DecodeSession::finalize() const
{
    // No prefilled() assert: a session evicted mid-prefill (between
    // chunks) finalizes too, accounting the wasted partial pass.
    RunResult res;
    res.workload = workload().name;
    res.summarize_seconds = prefill_seconds_;
    res.generate_seconds = elapsedSeconds() - prefill_seconds_;
    res.attention_flops = attention_flops_;

    // ---- Dense (unpruned fp32) reference for reduction factors ----
    const WorkloadSpec& w = workload();
    const double d = static_cast<double>(w.model.d_head);
    const double h_total = static_cast<double>(w.model.num_heads);
    const double layers = static_cast<double>(w.model.num_layers);
    const double fp32_row = d * 4.0;
    const auto densePass = [&](double queries, double ctx) {
        res.attention_flops_dense +=
            2.0 * (queries * ctx * d + queries * ctx * d) * h_total *
            layers;
        res.dram_bytes_dense +=
            (ctx * fp32_row * 2.0 + queries * fp32_row) * h_total * layers;
    };
    if (!w.skip_summarization)
        densePass(static_cast<double>(w.summarize_len),
                  static_cast<double>(w.summarize_len));
    for (std::size_t t = 0; t < w.generate_len; ++t)
        densePass(1.0, static_cast<double>(w.summarize_len + t + 1));

    // ---- Totals and energy ----
    const double core_ns = graph_.elapsedNs();
    res.cycles = static_cast<Cycles>(std::ceil(core_ns * core_freq_ghz_));
    res.seconds = core_ns * 1e-9;
    res.dram_bytes = static_cast<double>(hbm_.totalBytes());

    ActivityCounts act = graph_.activity();
    act.freq_ghz = core_freq_ghz_;
    act.cycles = static_cast<double>(res.cycles);
    act.sram_read_bytes = key_sram_.bytesRead() + value_sram_.bytesRead();
    act.sram_write_bytes =
        key_sram_.bytesWritten() + value_sram_.bytesWritten();
    act.dram_energy_pj = hbm_.energyPj();
    res.energy = EnergyModel(energy_cfg_).compute(act);

    // ---- Stat registry: aggregates + automatic per-stage breakdown ----
    static const StatName kComputeBound("pipeline.compute_bound_ns");
    static const StatName kMemoryBound("pipeline.memory_bound_ns");
    static const StatName kSummarize("pipeline.summarize_seconds");
    static const StatName kGenerate("pipeline.generate_seconds");
    static const StatName kTflops("pipeline.effective_tflops");
    static const StatName kDramReduction("pipeline.dram_reduction");
    static const StatName kComputeReduction("pipeline.compute_reduction");
    static const StatName kQkMacs("activity.qk_macs");
    static const StatName kPvMacs("activity.pv_macs");
    static const StatName kSoftmax("activity.softmax_elems");
    static const StatName kTopk("activity.topk_comparisons");
    static const StatName kConflicts("crossbar.conflicts");
    static const StatName kKeyRead("sram.key_bytes_read");
    static const StatName kValueRead("sram.value_bytes_read");
    constexpr std::size_t kFinalizeGauges = 14; // The set() calls below.
    res.stats.reserve(res.stats.all().size() + HbmModel::kExportedStats +
                      kFinalizeGauges + graph_.exportedStats());
    hbm_.exportStats(res.stats);
    res.stats.set(kComputeBound, graph_.computeBoundNs());
    res.stats.set(kMemoryBound, graph_.memoryBoundNs());
    res.stats.set(kSummarize, res.summarize_seconds);
    res.stats.set(kGenerate, res.generate_seconds);
    res.stats.set(kTflops, res.effectiveTflops());
    res.stats.set(kDramReduction, res.dramReduction());
    res.stats.set(kComputeReduction, res.computeReduction());
    res.stats.set(kQkMacs, act.qk_macs);
    res.stats.set(kPvMacs, act.pv_macs);
    res.stats.set(kSoftmax, act.softmax_elems);
    res.stats.set(kTopk, act.topk_comparisons);
    res.stats.set(kConflicts, static_cast<double>(xbar_.totalConflicts()));
    res.stats.set(kKeyRead, key_sram_.bytesRead());
    res.stats.set(kValueRead, value_sram_.bytesRead());
    graph_.exportStats(res.stats);
    return res;
}

} // namespace spatten
