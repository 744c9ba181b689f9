/**
 * @file
 * Public facade of the SpAtten accelerator model: configuration (Table I),
 * workload execution, and area/power reporting (Table II / Fig. 13).
 * This is the main entry point a library user interacts with.
 */
#ifndef SPATTEN_ACCEL_SPATTEN_ACCELERATOR_HPP
#define SPATTEN_ACCEL_SPATTEN_ACCELERATOR_HPP

#include <string>
#include <vector>

#include "accel/pipeline.hpp"
#include "serve/accelerator_backend.hpp"

namespace spatten {

// Defined in accel/decode_session.hpp (include it to use runDecode's
// result type).
struct DecodeResult;

/**
 * The SpAtten accelerator.
 *
 * Typical use:
 * @code
 *   SpAttenAccelerator accel;                       // Table I config
 *   WorkloadSpec w = ...;                           // e.g. GPT-2, 992+32
 *   PruningPolicy p = ...;                          // token/head/quant
 *   RunResult r = accel.run(w, p);
 *   std::printf("%.3f ms, %.2fx DRAM reduction\n",
 *               r.seconds * 1e3, r.dramReduction());
 * @endcode
 *
 * The facade also implements the serving layer's AcceleratorBackend
 * contract (serve/accelerator_backend.hpp): makeSession() opens a
 * cascade-pruning DecodeSession, so a ContinuousBatchScheduler fleet
 * can mix SpAtten devices with the baseline adapter backends.
 */
class SpAttenAccelerator : public AcceleratorBackend
{
  public:
    /** Dies on a core clock that is not a finite positive frequency. */
    explicit SpAttenAccelerator(SpAttenConfig cfg = SpAttenConfig{});

    /**
     * Simulate the attention layers of @p workload under @p policy: the
     * paper model. BERT-style workloads run the summarization stage
     * only; GPT-2-style workloads run summarization plus generate_len
     * generation iterations with KV concatenation (Fig. 3), each
     * re-applying the pruning schedule to the full grown context
     * (CarryRule::GrownContext). @p request_seed seeds the per-request
     * PRNG state consumed by stochastic stages (top-k pivot selection).
     * The occupancy model prices selections analytically, so today's
     * results are seed-independent (pinned by tests); the plumbing
     * keeps future functional stages deterministic per request
     * regardless of batch scheduling.
     */
    RunResult run(const WorkloadSpec& workload, const PruningPolicy& policy,
                  std::uint64_t request_seed = kDefaultRequestSeed) const;

    /**
     * The serving model through the same prefill + token-by-token decode
     * loop as run(): each generated token re-enters the stage graph with
     * the cascade-pruned KV length of the previous step
     * (CarryRule::Survivors), as a makeSession() session does. Returns
     * per-step latencies and the KV trajectory along with the aggregate
     * RunResult.
     */
    DecodeResult runDecode(const WorkloadSpec& workload,
                           const PruningPolicy& policy,
                           std::uint64_t request_seed =
                               kDefaultRequestSeed) const;

    // ---- AcceleratorBackend serving contract ----
    std::string backendName() const override { return "spatten"; }
    BackendCapabilities capabilities() const override
    {
        return {/*cascade_pruning=*/true};
    }
    /** KV byte budget = the HBM stack capacity of this configuration. */
    std::uint64_t capacityBytes() const override
    {
        return cfg_.hbm.capacityBytes();
    }
    /** The fetcher streams quantized planes out of an fp16-equivalent
     *  KV layout (see core/model_spec.hpp). */
    std::size_t kvBytesPerElem() const override { return 2; }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override;

    /** Fig. 13 area breakdown for this configuration. */
    std::vector<AreaEntry> area() const;

    /** Total area in mm^2. */
    double areaMm2() const;

    /** Peak compute (TFLOPS) — the roofline computation roof. */
    double computeRoofTflops() const;

    /** Peak DRAM bandwidth (GB/s) — the roofline slope. */
    double bandwidthRoofGBs() const;

    /** Human-readable Table I-style configuration dump. */
    std::string configTable() const;

    const SpAttenConfig& config() const { return cfg_; }

  private:
    SpAttenConfig cfg_;
};

} // namespace spatten

#endif // SPATTEN_ACCEL_SPATTEN_ACCELERATOR_HPP
