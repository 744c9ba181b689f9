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
     * single query row.
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

    /**
     * Layer-stepped variant of a single-query generation pass, the
     * substrate of batched lane-interleaved decode
     * (AcceleratorBackend::stepDecodeBatch): the caller advances the
     * pass one layer at a time so several sessions' passes interleave
     * layer-major. Exactly equivalent to runPass(1, context_len, true)
     * — a matching steady-state memo short-circuits the whole pass at
     * begin. @return the number of stepDecodeLayer() calls the caller
     * owes (0 when the pass was replayed whole); finishDecodePass()
     * seals the pass (and the memo record) afterwards.
     */
    std::size_t beginDecodePass(std::size_t context_len);
    /** Advance the layer-stepped pass by one layer. */
    void stepDecodeLayer();
    /** Seal the layer-stepped pass (records the memo when armed). */
    void finishDecodePass();

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

    /** Counter snapshot taken when a memo recording begins. */
    struct RecordBaseline
    {
        Cycles base = 0; ///< Pre-pass DRAM clock; pre AND post states
                         ///< are relative to it (replay translates both
                         ///< by the replay-time clock).
        std::uint64_t bytes_read = 0;
        std::uint64_t bytes_written = 0;
        std::uint64_t activations = 0;
        std::uint64_t requests = 0;
        std::size_t fetch_requests = 0;
    };

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
    // ---- Layer-stepped pass state ----
    bool step_active_ = false;    ///< begin..finish window open.
    bool step_recording_ = false; ///< This stepped pass records the memo.
    std::size_t step_layer_ = 0;  ///< Next layer to run.
    RecordBaseline rec_base_;
};

} // namespace spatten

#endif // SPATTEN_ACCEL_ATTENTION_GRAPH_HPP
