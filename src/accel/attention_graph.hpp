/**
 * @file
 * The SpAtten attention dataflow assembled as a stage graph.
 *
 * AttentionGraph instantiates the hardware units (fetcher, Q x K,
 * softmax, top-k, zero eliminator, prob x V), the SRAM/HBM/crossbar
 * substrate, and the policy transforms (cascade pruning, progressive
 * quantization), wires them into a StageGraph, and exposes the per-pass
 * driver the pipeline facade iterates: one runPass() per summarization
 * or generation step, then finalize() to land results and stats.
 */
#ifndef SPATTEN_ACCEL_ATTENTION_GRAPH_HPP
#define SPATTEN_ACCEL_ATTENTION_GRAPH_HPP

#include "accel/crossbar.hpp"
#include "accel/fetcher.hpp"
#include "accel/pv_module.hpp"
#include "accel/qk_module.hpp"
#include "accel/softmax_module.hpp"
#include "accel/sram.hpp"
#include "accel/topk_engine.hpp"
#include "accel/zero_eliminator.hpp"
#include "core/model_spec.hpp"
#include "hbm/hbm.hpp"
#include "sim/stage_graph.hpp"

namespace spatten {

struct SpAttenConfig;
struct RunResult;

/** One workload execution assembled as hardware stages + transforms. */
class AttentionGraph
{
  public:
    AttentionGraph(const SpAttenConfig& cfg, const WorkloadSpec& workload,
                   const PruningPolicy& policy, std::uint64_t request_seed);

    /**
     * Run one attention pass over the whole model: @p queries query rows
     * per (layer, head) against an entering context of @p context_len
     * tokens. Generation passes fetch the MSB plane eagerly and keep a
     * single query row. This is the only pass driver: a decode step is
     * runPass(1, ctx, true), whether a session steps it alone or inside
     * a backend's decode batch.
     *
     * Single-query generation passes are transparently memoized: under
     * cascade pruning the carried KV collapses to a fixed point within a
     * few decode steps, after which every step is exactly periodic — the
     * same entering context against the same relative HBM state. The
     * first such pass is recorded (per-layer accounting deltas + memory
     * state); subsequent passes whose entering context AND relative
     * HBM channel/bank state match bit-for-bit are replayed by
     * re-applying the recorded deltas in the original accumulation
     * order. Replay is exact, not approximate: the simulator's memory
     * timing is translation-invariant in absolute time and every
     * floating-point addition sequence is preserved (pinned by
     * tests/test_decode_step_memo.cpp and the golden suites). Disable
     * with setStepMemo(false) for A/B measurement.
     */
    void runPass(std::size_t queries, std::size_t context_len,
                 bool generation);

    /** Enable/disable the decode-step replay memo (default on). */
    void setStepMemo(bool on) { memo_enabled_ = on; }
    /** Decode steps served from the replay memo so far. */
    std::size_t memoReplays() const { return memo_replays_; }
    /** Route HBM requests through the pre-fast-path reference model
     *  (bit-identical results, reference host cost). A/B perf
     *  measurement only — bench_sim uses it to measure the pre-PR
     *  baseline live on the same machine. */
    void setReferenceServing(bool on) { hbm_.setReferenceServing(on); }

    /** Elapsed simulated seconds across all passes so far. */
    double elapsedSeconds() const;

    /**
     * Land cycles/seconds/energy/traffic, the dense fp32 reference for
     * reduction factors, and the stat registry (pipeline aggregates plus
     * the per-stage breakdown) into @p res.
     */
    void finalize(RunResult& res) const;

    /** The stage graph (per-stage stats, activity). */
    const StageGraph& graph() const { return graph_; }

    /**
     * The live execution context. After runPass() returns,
     * `context().alive_tokens` is the cascade-pruned survivor count the
     * pass left behind — the KV length a DecodeSession carries into the
     * next decode step.
     */
    const ExecutionContext& context() const { return ctx_; }

  private:
    /** Recorded effects of one steady-state decode step. */
    struct PassMemo
    {
        bool valid = false;
        std::size_t context_len = 0;
        HbmModel::TimingState pre;  ///< Relative state at record time.
        HbmModel::TimingState post; ///< Relative state after the pass.
        std::uint64_t d_bytes_read = 0;
        std::uint64_t d_bytes_written = 0;
        std::uint64_t d_activations = 0;
        std::uint64_t d_requests = 0;
        std::size_t d_fetch_requests = 0; ///< Fetcher request delta.
        std::vector<StageGraph::LayerReplayRecord> layers;
        std::vector<double> flops_added; ///< Per-layer FLOP increments.
        ExecutionContext ctx_after;      ///< Context at pass exit.
    };

    void replayPass();

    WorkloadSpec workload_; ///< By value: the graph may outlive the caller's spec.
    SramModel key_sram_;
    SramModel value_sram_;
    HbmModel hbm_;
    Crossbar xbar_;
    QkvFetcher fetcher_;
    QkModule qk_;
    SoftmaxModule softmax_;
    TopkEngine topk_;
    ZeroEliminator zero_eliminator_;
    PvModule pv_;
    StageGraph graph_;
    ExecutionContext ctx_;
    double core_freq_ghz_;
    EnergyConfig energy_cfg_;
    double attention_flops_ = 0;
    bool memo_enabled_ = true;
    std::size_t memo_replays_ = 0;
    PassMemo memo_;
};

} // namespace spatten

#endif // SPATTEN_ACCEL_ATTENTION_GRAPH_HPP
