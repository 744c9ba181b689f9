/**
 * @file
 * Token-by-token generative decode on the stage graph: the one
 * generation loop of the SpAtten model.
 *
 * DecodeSession is the per-request unit of both SpAtten entry points.
 * It instantiates the hardware units (fetcher, Q x K, softmax, top-k,
 * zero eliminator, prob x V) over the SRAM/HBM/crossbar substrate,
 * wires them into a StageGraph, and runs one attention pass per prompt
 * chunk and one single-query generation pass per decodeStep(); the
 * per-request ExecutionContext applies the pruning/quantization policy
 * layer by layer. The paper model (SpAttenAccelerator::run()) and the
 * serving model (runDecode() and makeSession(), which the
 * continuous-batching scheduler drives) differ only in the CarryRule
 * the session is built with — what context a decode step enters with:
 *   - GrownContext: step t enters with the grown context L + t + 1, so
 *     the pruning schedule is re-applied to the full context each step;
 *   - Survivors: step t enters with `kv + 1` tokens, where `kv` is the
 *     survivor count the previous pass left behind. Under cascade
 *     pruning the KV working set therefore shrinks as decode proceeds
 *     (pinned by tests/test_continuous_scheduler.cpp), compounding the
 *     schedule across steps.
 * Without token pruning every pass keeps every token, so both rules
 * grow the context by exactly one token per step and agree bit for bit
 * (tests/test_pipeline.cpp). ROADMAP item 2 replaces both rules with one
 * per-layer rule in survivors().
 *
 * A session is a pure function of (config, workload, policy, seed,
 * rule): its step costs, KV trajectory, and finalized RunResult are
 * bit-identical regardless of which scheduler thread or accelerator
 * shard drives it.
 *
 * DecodeSession implements the serving layer's BackendSession contract
 * (serve/accelerator_backend.hpp), so a SpAtten device slots into the
 * same heterogeneous scheduler fleet as the baseline adapter sessions.
 */
#ifndef SPATTEN_ACCEL_DECODE_SESSION_HPP
#define SPATTEN_ACCEL_DECODE_SESSION_HPP

#include <cstdint>
#include <vector>

#include "accel/crossbar.hpp"
#include "accel/fetcher.hpp"
#include "accel/pipeline.hpp"
#include "accel/pv_module.hpp"
#include "accel/qk_module.hpp"
#include "accel/softmax_module.hpp"
#include "accel/sram.hpp"
#include "accel/topk_engine.hpp"
#include "accel/zero_eliminator.hpp"
#include "hbm/hbm.hpp"
#include "serve/accelerator_backend.hpp"
#include "sim/stage_graph.hpp"

namespace spatten {

/** Outcome of a full prefill + decode loop (SpAttenAccelerator::runDecode). */
struct DecodeResult
{
    RunResult result;             ///< Aggregate per-request simulation result.
    double prefill_seconds = 0;   ///< Prompt-processing (TTFT) share.
    std::vector<double> step_seconds;      ///< One entry per generated token.
    std::vector<std::size_t> kv_lengths;   ///< KV survivors after prefill
                                           ///< and after each decode step.
    std::size_t peak_kv_bytes = 0; ///< Largest resident KV cache across
                                   ///< the loop: the un-pruned prompt KV
                                   ///< held during prefill and each
                                   ///< decode pass's pre-prune transient
                                   ///< (carried KV + 1 token) — what a
                                   ///< serving-layer KvPool charges,
                                   ///< before block rounding.
};

/** The context a decode step enters with (see the file comment). */
enum class CarryRule
{
    GrownContext, ///< The paper model: L + t + 1 at step t.
    Survivors,    ///< The serving model: the last pass's survivors + 1.
};

/** One in-flight generative request on one simulated accelerator. */
class DecodeSession final : public ProtocolSession
{
  public:
    DecodeSession(const SpAttenConfig& cfg, const WorkloadSpec& workload,
                  const PruningPolicy& policy,
                  std::uint64_t request_seed = kDefaultRequestSeed,
                  CarryRule rule = CarryRule::Survivors);

    // The stage graph holds references into the session's own members,
    // so a session is pinned to its address (heap-allocate to hand
    // around).
    DecodeSession(const DecodeSession&) = delete;
    DecodeSession& operator=(const DecodeSession&) = delete;

    /** Bytes one token of this session's KV cache occupies. */
    std::size_t kvBytesPerToken() const
    {
        return spatten::kvBytesPerToken(workload().model);
    }

    /** Total simulated seconds consumed so far (prefill + steps). */
    double elapsedSeconds() const { return graph_.elapsedNs() * 1e-9; }

    /** Enable/disable the decode-step replay memo (default on). The
     *  memo is a pure host-side optimization — every simulated result
     *  is bit-identical either way (tests/test_decode_step_memo.cpp);
     *  turn it off only for A/B perf measurement. */
    void setStepMemo(bool on) { memo_enabled_ = on; }
    /** Decode steps served by replaying the recorded pass. */
    std::size_t memoReplays() const { return memo_replays_; }
    /** Route HBM requests through the pre-fast-path reference model
     *  (bit-identical results, reference host cost). A/B perf
     *  measurement only — bench_sim uses it to measure the pre-fast-path
     *  baseline live on the same machine. */
    void setReferenceServing(bool on) { hbm_.setReferenceServing(on); }

    /**
     * Land the per-request totals — cycles/seconds/energy/traffic, the
     * dense fp32 reference for reduction factors, and the stat registry
     * (pipeline aggregates plus the per-stage breakdown). Call once the
     * session is done() — or at eviction, possibly mid-prefill, to
     * account the wasted incarnation (recompute-style preemption can
     * strike between chunks of a split prefill).
     */
    RunResult finalize() const override;

    /**
     * The live execution context. After a pass returns,
     * `context().alive_tokens` is the cascade-pruned survivor count the
     * pass left behind and `context().survivors` its per-layer rows.
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

    /**
     * Run the chunk's queries against the causal context offset + len.
     * ExecutionContext::beginPass resets the cascade state fresh per
     * pass, so pruning is a function of the *entering context length*
     * alone, never of the query count: a cached-prefix prefill or the
     * final chunk of a split one (entering with the full prompt) leaves
     * exactly the KV state a monolithic prefill would, and every later
     * decode step is bit-identical (pinned by
     * tests/test_chunked_prefill.cpp). Only the prefill compute shrinks.
     */
    double chunkPass(std::size_t offset, std::size_t len) override;

    /** A single-query generation pass against @p ctx tokens. */
    double decodePass(std::size_t ctx) override;

    /** The tokens the next decode step carries: the whole context
     *  under GrownContext, the last pass's cascade-pruned survivors
     *  under Survivors. */
    std::size_t survivors(std::size_t ctx) const override
    {
        return rule_ == CarryRule::GrownContext ? ctx : ctx_.alive_tokens;
    }

    /**
     * Run one attention pass over the whole model: @p queries query rows
     * per (layer, head) against an entering context of @p context_len
     * tokens. Generation passes (always single-query) fetch the MSB
     * plane eagerly.
     *
     * Generation passes are transparently memoized: under cascade
     * pruning the carried KV collapses to a fixed point within a few
     * decode steps, after which every step is exactly periodic — the
     * same entering context against the same relative HBM state. The
     * first such pass is recorded (per-layer accounting deltas + memory
     * state); subsequent passes whose entering context AND relative
     * HBM channel/bank state match bit-for-bit are replayed by
     * re-applying the recorded deltas in the original accumulation
     * order. Replay is exact, not approximate: the simulator's memory
     * timing is translation-invariant in absolute time and every
     * floating-point addition sequence is preserved (pinned by
     * tests/test_decode_step_memo.cpp and the golden suites).
     */
    void runPass(std::size_t queries, std::size_t context_len,
                 bool generation);
    void replayPass();

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
    CarryRule rule_;
    double prefill_seconds_ = 0;
    double attention_flops_ = 0;
    bool memo_enabled_ = true;
    std::size_t memo_replays_ = 0;
    PassMemo memo_;
};

} // namespace spatten

#endif // SPATTEN_ACCEL_DECODE_SESSION_HPP
