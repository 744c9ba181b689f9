/**
 * @file
 * Serving-contract adapters for the baseline models: A3, MNNFast, and
 * the CPU/GPU platform models behind the AcceleratorBackend interface
 * (serve/accelerator_backend.hpp), so ContinuousBatchScheduler can
 * serve heterogeneous fleets and reproduce the paper's cross-accelerator
 * comparison under real traffic, KV-pressure, and preemption regimes.
 *
 * All three baselines keep a *dense* KV cache: none of them prunes
 * tokens globally, so the resident context grows by exactly one token
 * per decode step and a KvPool reservation never shrinks — the heart of
 * SpAtten's admissible-concurrency advantage under a shared KV budget.
 * Their one-shot models (a3_model.hpp, mnnfast_model.hpp,
 * platform_model.hpp) price the prefill pass; the decode step cost is
 * the per-token extension of the same cycle/energy model:
 *
 *   - A3Backend: fetches the full grown K/V per step (pruning decided
 *     after fetch), scores with its 1.73x approximation, and pays an
 *     incremental sorted-insert of the new key into its d per-dimension
 *     sorted lists — the preprocessing that makes A3 a poor fit for
 *     memory-bounded generation (SV-B).
 *   - MnnFastBackend: full K/V fetch per step; only the prob x V side
 *     shrinks (local value pruning), at its FPGA-derived datapath
 *     efficiency.
 *   - PlatformBackend: the de-rated roofline generation step of
 *     PlatformModel::attention (mat-vec at genvec_util, inflated by the
 *     Fig. 2 data-movement share and per-layer launch overhead), with
 *     fp32 KV residency.
 *
 * Sessions are pure functions of (config, workload): the analytic
 * models consume no PRNG state, so determinism across scheduler
 * threads and fleet slots is structural.
 */
#ifndef SPATTEN_BASELINES_BASELINE_BACKENDS_HPP
#define SPATTEN_BASELINES_BASELINE_BACKENDS_HPP

#include "baselines/a3_model.hpp"
#include "baselines/mnnfast_model.hpp"
#include "baselines/platform_model.hpp"
#include "serve/accelerator_backend.hpp"

namespace spatten {

/// Default device-memory budget for the baseline accelerators: the same
/// 8 GiB HBM-class stack as the SpAtten default, so "same KV budget"
/// fleet comparisons are apples to apples out of the box.
inline constexpr std::uint64_t kBaselineCapacityBytes = 8ull << 30;

/** A3 (Ham et al., HPCA 2020) as a serving backend. */
class A3Backend : public AcceleratorBackend
{
  public:
    explicit A3Backend(A3Config cfg = A3Config{},
                       std::uint64_t capacity_bytes =
                           kBaselineCapacityBytes)
        : cfg_(cfg), capacity_bytes_(capacity_bytes)
    {
    }

    std::string backendName() const override { return "a3"; }
    std::uint64_t capacityBytes() const override
    {
        return capacity_bytes_;
    }
    /// KV resides in the fp16-equivalent layout (the 12-bit operand
    /// stream is an on-the-wire format, as in the SpAtten fetcher).
    std::size_t kvBytesPerElem() const override { return 2; }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override;

    const A3Config& config() const { return cfg_; }

  private:
    A3Config cfg_;
    std::uint64_t capacity_bytes_;
};

/** MNNFast (Jang et al., ISCA 2019) as a serving backend. */
class MnnFastBackend : public AcceleratorBackend
{
  public:
    explicit MnnFastBackend(MnnFastConfig cfg = MnnFastConfig{},
                            std::uint64_t capacity_bytes =
                                kBaselineCapacityBytes)
        : cfg_(cfg), capacity_bytes_(capacity_bytes)
    {
    }

    std::string backendName() const override { return "mnnfast"; }
    std::uint64_t capacityBytes() const override
    {
        return capacity_bytes_;
    }
    std::size_t kvBytesPerElem() const override { return 2; }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override;

    const MnnFastConfig& config() const { return cfg_; }

  private:
    MnnFastConfig cfg_;
    std::uint64_t capacity_bytes_;
};

/** A baseline CPU/GPU platform (TITAN Xp, Xeon, ...) as a backend. */
class PlatformBackend : public AcceleratorBackend
{
  public:
    explicit PlatformBackend(PlatformSpec spec = PlatformSpec::titanXp(),
                             std::uint64_t capacity_bytes =
                                 kBaselineCapacityBytes)
        : spec_(std::move(spec)), capacity_bytes_(capacity_bytes)
    {
    }

    std::string backendName() const override { return spec_.name; }
    std::uint64_t capacityBytes() const override
    {
        return capacity_bytes_;
    }
    /// PyTorch-style fp32 K/V cache.
    std::size_t kvBytesPerElem() const override { return 4; }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override;

    const PlatformSpec& spec() const { return spec_; }

  private:
    PlatformSpec spec_;
    std::uint64_t capacity_bytes_;
};

} // namespace spatten

#endif // SPATTEN_BASELINES_BASELINE_BACKENDS_HPP
