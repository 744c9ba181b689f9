/**
 * @file
 * The common serving contract every simulated accelerator implements.
 *
 * The paper's headline claims are comparative — SpAtten against A3,
 * MNNFast, and the CPU/GPU platforms — but a comparison under real
 * serving conditions (traffic, KV-memory pressure, preemption) needs
 * every device to speak the same protocol the scheduler drives:
 * admit a request, run its prefill, step its decode loop one token at
 * a time, report its resident KV footprint, and finalize per-request
 * stats. AcceleratorBackend is that protocol. SpAttenAccelerator
 * implements it natively (sessions are cascade-pruning DecodeSessions);
 * the baseline models implement it through dense-KV adapter sessions
 * (baselines/baseline_backends.hpp) with their own cycle/energy models.
 * ContinuousBatchScheduler owns a heterogeneous pool of backends and is
 * oblivious to which device type sits behind each slot.
 *
 * Sessions must be pure functions of (backend config, workload, policy,
 * seed): bit-identical regardless of which scheduler thread or fleet
 * slot drives them. That is what keeps the scheduler's determinism
 * contract (thread-count bit-identity, placement-independent service
 * results) intact across heterogeneous fleets.
 */
#ifndef SPATTEN_SERVE_ACCELERATOR_BACKEND_HPP
#define SPATTEN_SERVE_ACCELERATOR_BACKEND_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/pipeline.hpp"

namespace spatten {

/**
 * Static capability description of one backend type: the one property
 * the scheduler's capability-aware placement routes on. It describes
 * the *mechanism*, not a measured outcome. Every backend supports
 * chunked prefill, prefix caching and tiered KV memory (the session
 * contract below requires the first two; the third lives in KvPool and
 * the scheduler, not the device model).
 */
struct BackendCapabilities
{
    /// Cascade token/head pruning shrinks the resident KV cache across
    /// passes (so a KvPool reservation keeps shrinking after prefill).
    bool cascade_pruning = false;
};

/**
 * One in-flight generative request on one backend: prefill once, then
 * one decodeStep() per generated token. The KV accessors feed the
 * serving layer's KvPool; kvLength() is whatever the device actually
 * keeps resident (cascade-pruned survivors on SpAtten, the full dense
 * context on the baselines).
 */
class BackendSession
{
  public:
    virtual ~BackendSession() = default;

    /** Process the prompt; @return simulated seconds of the pass. */
    virtual double prefill() = 0;

    /**
     * Process the prompt when the serving layer's KvPool mapped the
     * first @p cached_prefix_tokens tokens' KV from its shared-prefix
     * cache: the device skips those tokens' prefill compute (their K/V
     * is already resident) and computes only the suffix queries against
     * the full context. Must behave exactly like prefill() when
     * @p cached_prefix_tokens is 0.
     */
    virtual double
    prefillWithCachedPrefix(std::size_t cached_prefix_tokens) = 0;

    /**
     * Process prompt tokens [offset, offset + len) as one chunk of a
     * split prefill (Sarathi-style chunked prefill). Chunks arrive
     * contiguously in order; the session completes its prefill (and
     * flips prefilled()) when the final chunk reaches the end of the
     * prompt. A first chunk at offset > 0 means the serving layer's
     * shared-prefix cache already holds the leading tokens' KV, so the
     * chunk stream starts at the cached boundary — composing with
     * prefillWithCachedPrefix(), which is exactly the one-chunk case.
     * @return simulated seconds of the chunk's pass.
     */
    virtual double prefillChunk(std::size_t offset, std::size_t len) = 0;

    /** Generate one token; @return simulated seconds of the step. */
    virtual double decodeStep() = 0;

    virtual bool prefilled() const = 0;

    /** All generate_len tokens emitted (a 0-token request is done at
     *  prefill). */
    virtual bool done() const = 0;

    /** Resident KV length in tokens after the last pass. */
    virtual std::size_t kvLength() const = 0;

    /** KV length after prefill and after each decode step. */
    virtual const std::vector<std::size_t>& kvTrace() const = 0;

    virtual const WorkloadSpec& workload() const = 0;

    /** Land the per-request totals; call once the session is done()
     *  (or at eviction, to account the wasted incarnation). */
    virtual RunResult finalize() const = 0;
};

/**
 * The session protocol written once: prefill entry points, the prefix
 * cap, chunk contiguity, decode-step checks and the KV trace. A device
 * session supplies only the pricing of a prompt chunk, of a decode
 * pass, and how many tokens a pass leaves resident.
 */
class ProtocolSession : public BackendSession
{
  public:
    double prefill() final { return prefillWithCachedPrefix(0); }

    /** Capped at summarize_len - 1: like vLLM, the last prompt token is
     *  always recomputed so a fully cached prompt still produces its
     *  first logits. */
    double prefillWithCachedPrefix(std::size_t cached_prefix_tokens) final;

    /** Workloads with skip_summarization (a pre-summarized prompt, the
     *  paper's GPT-2 methodology) charge nothing: the first chunk
     *  completes the prefill with the full prompt KV resident. */
    double prefillChunk(std::size_t offset, std::size_t len) final;

    double decodeStep() final;

    bool prefilled() const final { return prefilled_; }
    bool done() const final
    {
        return prefilled_ && tokens_ >= workload_.generate_len;
    }
    std::size_t kvLength() const final { return kv_len_; }
    const std::vector<std::size_t>& kvTrace() const final
    {
        return kv_trace_;
    }
    const WorkloadSpec& workload() const final { return workload_; }

    std::size_t tokensGenerated() const { return tokens_; }

  protected:
    explicit ProtocolSession(const WorkloadSpec& workload);

    /** Price prompt tokens [offset, offset + len) as one pass whose
     *  queries attend to the causal context offset + len.
     *  @return simulated seconds of the pass. */
    virtual double chunkPass(std::size_t offset, std::size_t len) = 0;

    /** Run one decode pass entering with @p ctx tokens (the carried KV
     *  plus the new token). @return simulated seconds of the pass. */
    virtual double decodePass(std::size_t ctx) = 0;

    /** Tokens the last pass left resident when it entered with @p ctx
     *  tokens. Dense KV keeps them all. */
    virtual std::size_t survivors(std::size_t ctx) const { return ctx; }

  private:
    WorkloadSpec workload_;
    std::size_t kv_len_ = 0;
    std::size_t tokens_ = 0;
    bool prefilled_ = false;
    std::size_t prefill_pos_ = 0; ///< Prompt tokens processed by chunks.
    std::vector<std::size_t> kv_trace_;
};

/** One accelerator type a serving fleet can be built from. */
class AcceleratorBackend
{
  public:
    virtual ~AcceleratorBackend() = default;

    /** Short identifier ("spatten", "a3", ...) for reports/benches. */
    virtual std::string backendName() const = 0;

    /** Default: a dense backend without cascade pruning. */
    virtual BackendCapabilities capabilities() const { return {}; }

    /** Device KV-memory capacity (the default KvPool byte budget). */
    virtual std::uint64_t capacityBytes() const = 0;

    /** Storage width of one KV element on this device (bytes). */
    virtual std::size_t kvBytesPerElem() const = 0;

    /** Bytes one token of @p model's KV occupies on this device — the
     *  figure the serving layer's KvPool charges per resident token. */
    std::size_t kvBytesPerToken(const ModelSpec& model) const
    {
        return spatten::kvBytesPerToken(model, kvBytesPerElem());
    }

    /**
     * Open a serving session for one request. Deterministic: the
     * session's behavior is a pure function of (backend config,
     * workload, policy, seed).
     */
    virtual std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const = 0;

    /**
     * Advance every session in @p lanes by one decode step, landing
     * lane i's simulated seconds in @p seconds_out[i] (resized to
     * match). Sessions are pure functions of their own state and share
     * nothing, so the default steps them serially with
     * lanes[i]->decodeStep(). No device model overrides it; a wrapping
     * backend may, to time or count an iteration's lanes together, and
     * must keep the results bit-identical to the default. It is the
     * scheduler's only decode path: every iteration advances all its
     * prefilled residents through one call.
     */
    virtual void stepDecodeBatch(const std::vector<BackendSession*>& lanes,
                                 std::vector<double>& seconds_out) const
    {
        seconds_out.resize(lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i)
            seconds_out[i] = lanes[i]->decodeStep();
    }
};

} // namespace spatten

#endif // SPATTEN_SERVE_ACCELERATOR_BACKEND_HPP
