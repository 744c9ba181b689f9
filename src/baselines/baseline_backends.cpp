#include "baselines/baseline_backends.hpp"

#include <algorithm>
#include <cmath>

#include "energy/energy_model.hpp"

namespace spatten {

namespace {

/**
 * Shared dense-KV session skeleton: the context grows by exactly one
 * token per decode step (no global pruning), prefill is priced by the
 * subclass's one-shot model, each decode step by its per-token
 * extension. Subclasses accumulate executed/dense FLOPs, DRAM bytes,
 * and energy into the protected totals; finalize() lands them in a
 * RunResult whose dense DRAM reference equals the fetched bytes —
 * baselines fetch everything before any pruning decision, so their
 * dramReduction() is identically 1.
 */
class DenseKvSession : public ProtocolSession
{
  public:
    explicit DenseKvSession(const WorkloadSpec& workload)
        : ProtocolSession(workload)
    {
    }

    RunResult finalize() const override
    {
        // No prefilled() assert: a session evicted mid-prefill (between
        // chunks) finalizes too, accounting the wasted partial pass.
        RunResult res;
        res.workload = workload().name;
        res.seconds = elapsed_;
        res.summarize_seconds = prefill_seconds_;
        res.generate_seconds = elapsed_ - prefill_seconds_;
        res.cycles = static_cast<Cycles>(
            std::llround(elapsed_ * clockGhz() * 1e9));
        res.attention_flops = flops_;
        res.attention_flops_dense = dense_flops_;
        res.dram_bytes = dram_bytes_;
        res.dram_bytes_dense = dram_bytes_; // Everything fetched: no savings.
        res.energy.qk_j = compute_j_;
        res.energy.dram_j = dram_j_;
        res.energy.seconds = elapsed_;
        return res;
    }

  protected:
    /** Simulated seconds of the full prompt pass. */
    virtual double prefillPass() = 0;
    /** Simulated seconds of one decode step over @p ctx tokens. */
    virtual double stepPass(std::size_t ctx) = 0;
    /** Clock used to express elapsed time as RunResult cycles. */
    virtual double clockGhz() const = 0;

    double flops_ = 0;
    double dense_flops_ = 0;
    double dram_bytes_ = 0;
    double compute_j_ = 0;
    double dram_j_ = 0;

  private:
    /**
     * The one-shot baseline models price a full prompt x prompt pass;
     * attention work is proportional to the query x context product,
     * so the chunk's executed share (time, fetched bytes, energy)
     * scales by len/prompt x (offset+len)/prompt — which for a chunk
     * reaching the end of the prompt (a cached-prefix prefill) reduces
     * to the suffix fraction. The *dense* FLOP reference keeps the full
     * prompt: skipped/cheapened work is a compute reduction, not a
     * redefinition of the workload.
     */
    double chunkPass(std::size_t offset, std::size_t len) override
    {
        const std::size_t prompt = workload().summarize_len;
        const double whole = static_cast<double>(prompt);
        double scale = static_cast<double>(len) / whole;
        if (offset + len < prompt)
            scale *= static_cast<double>(offset + len) / whole;
        const double f0 = flops_, b0 = dram_bytes_;
        const double cj0 = compute_j_, dj0 = dram_j_;
        const double d0 = dense_flops_;
        const double s = prefillPass() * scale;
        flops_ = f0 + (flops_ - f0) * scale;
        dram_bytes_ = b0 + (dram_bytes_ - b0) * scale;
        compute_j_ = cj0 + (compute_j_ - cj0) * scale;
        dram_j_ = dj0 + (dram_j_ - dj0) * scale;
        // The full-prompt dense reference lands exactly once, with the
        // chunk that completes the prompt — partial chunks must not
        // re-add it every pass (executed totals above are the per-chunk
        // shares; the dense reference is per prompt).
        if (offset + len < prompt)
            dense_flops_ = d0;
        prefill_seconds_ += s;
        elapsed_ += s;
        return s;
    }

    /** The new token attends to the full dense context. */
    double decodePass(std::size_t ctx) override
    {
        const double s = stepPass(ctx);
        elapsed_ += s;
        return s;
    }

    double prefill_seconds_ = 0;
    double elapsed_ = 0;
};

// ---------------------------------------------------------------------
// A3
// ---------------------------------------------------------------------

class A3Session final : public DenseKvSession
{
  public:
    A3Session(const A3Config& cfg, const WorkloadSpec& workload)
        : DenseKvSession(workload), cfg_(cfg)
    {
    }

  private:
    double prefillPass() override
    {
        // The one-shot model prices exactly the discriminative pass.
        WorkloadSpec prompt = workload();
        prompt.generate_len = 0;
        const A3Result r = A3Model(cfg_).run(prompt);
        flops_ += r.dense_flops / cfg_.approx_speedup;
        dense_flops_ += r.dense_flops;
        dram_bytes_ += r.dram_bytes;
        compute_j_ += r.energy_j - dramEnergyJ(r.dram_bytes);
        dram_j_ += dramEnergyJ(r.dram_bytes);
        return r.seconds;
    }

    double stepPass(std::size_t ctx) override
    {
        const ModelSpec& m = workload().model;
        const double d = static_cast<double>(m.d_head);
        const double h = static_cast<double>(m.num_heads);
        const double c = static_cast<double>(ctx);
        const double layers = static_cast<double>(m.num_layers);
        const double macs_per_ns =
            static_cast<double>(cfg_.num_multipliers) * cfg_.freq_ghz;

        // Dense per-layer work: one query row against c keys + values.
        const double dense_macs_layer = 2.0 * c * d * h;
        const double exec_macs_layer =
            dense_macs_layer / cfg_.approx_speedup;
        // Full grown K/V fetched per step, pruning decided after fetch
        // (12-bit on-the-wire operands, as in the prefill model).
        const double bytes_layer = 2.0 * c * d * h * 1.5;
        // Preprocessing: the new key is inserted into each of the d
        // per-dimension sorted lists (binary insert), every layer — the
        // sorted structures A3's partial-score candidate selection needs.
        const double insert_cmps_layer =
            h * d * std::max(1.0, std::log2(c));
        const double insert_ns_layer =
            insert_cmps_layer / static_cast<double>(cfg_.sort_parallelism);

        const double compute_ns = exec_macs_layer / macs_per_ns;
        const double mem_ns = bytes_layer / cfg_.mem_bw_gbs;
        const double step_s =
            (std::max(compute_ns, mem_ns) + insert_ns_layer) * layers *
            1e-9;

        flops_ += 2.0 * exec_macs_layer * layers;
        dense_flops_ += 2.0 * dense_macs_layer * layers;
        dram_bytes_ += bytes_layer * layers;
        compute_j_ += 2.0 * exec_macs_layer * layers *
                      cfg_.energy_per_flop_pj * 1e-12;
        dram_j_ += dramEnergyJ(bytes_layer * layers);
        return step_s;
    }

    double clockGhz() const override { return cfg_.freq_ghz; }

    A3Config cfg_;
};

// ---------------------------------------------------------------------
// MNNFast
// ---------------------------------------------------------------------

class MnnFastSession final : public DenseKvSession
{
  public:
    MnnFastSession(const MnnFastConfig& cfg, const WorkloadSpec& workload)
        : DenseKvSession(workload), cfg_(cfg)
    {
    }

  private:
    double prefillPass() override
    {
        WorkloadSpec prompt = workload();
        prompt.generate_len = 0;
        const MnnFastResult r = MnnFastModel(cfg_).run(prompt);
        // Executed = QK dense + PV shrunk by the local value pruning.
        flops_ += r.dense_flops *
                  (1.0 + (1.0 - cfg_.v_prune_ratio)) / 2.0;
        dense_flops_ += r.dense_flops;
        dram_bytes_ += r.dram_bytes;
        compute_j_ += r.energy_j - dramEnergyJ(r.dram_bytes);
        dram_j_ += dramEnergyJ(r.dram_bytes);
        return r.seconds;
    }

    double stepPass(std::size_t ctx) override
    {
        const ModelSpec& m = workload().model;
        const double d = static_cast<double>(m.d_head);
        const double h = static_cast<double>(m.num_heads);
        const double c = static_cast<double>(ctx);
        const double layers = static_cast<double>(m.num_layers);
        const double macs_per_ns =
            static_cast<double>(cfg_.num_multipliers) * cfg_.freq_ghz *
            cfg_.datapath_efficiency;

        const double qk_macs_layer = c * d * h;
        const double pv_dense_layer = c * d * h;
        // Only prob x V shrinks (threshold pruning after the fetch).
        const double exec_macs_layer =
            qk_macs_layer + pv_dense_layer * (1.0 - cfg_.v_prune_ratio);
        const double dense_macs_layer = qk_macs_layer + pv_dense_layer;
        // Full grown K/V per step, fp16 operands (no aggressive quant).
        const double bytes_layer = 2.0 * c * d * h * 2.0;

        const double compute_ns = exec_macs_layer / macs_per_ns;
        const double mem_ns = bytes_layer / cfg_.mem_bw_gbs;
        const double step_s =
            std::max(compute_ns, mem_ns) * layers * 1e-9;

        flops_ += 2.0 * exec_macs_layer * layers;
        dense_flops_ += 2.0 * dense_macs_layer * layers;
        dram_bytes_ += bytes_layer * layers;
        compute_j_ += 2.0 * exec_macs_layer * layers *
                      cfg_.energy_per_flop_pj * 1e-12;
        dram_j_ += dramEnergyJ(bytes_layer * layers);
        return step_s;
    }

    double clockGhz() const override { return cfg_.freq_ghz; }

    MnnFastConfig cfg_;
};

// ---------------------------------------------------------------------
// CPU/GPU platforms
// ---------------------------------------------------------------------

class PlatformSession final : public DenseKvSession
{
  public:
    PlatformSession(const PlatformSpec& spec, const WorkloadSpec& workload)
        : DenseKvSession(workload), model_(spec)
    {
    }

  private:
    double prefillPass() override
    {
        WorkloadSpec prompt = workload();
        prompt.generate_len = 0;
        const PlatformResult r = model_.attention(prompt);
        flops_ += r.flops;
        dense_flops_ += r.flops;
        dram_bytes_ += r.dram_bytes;
        compute_j_ += r.energy_j;
        return r.seconds;
    }

    double stepPass(std::size_t ctx) override
    {
        const ModelSpec& m = workload().model;
        const double layers = static_cast<double>(m.num_layers);
        const PlatformGenLayer g =
            model_.genLayer(m, static_cast<double>(ctx));
        const double step_s = layers * g.ns * 1e-9;

        flops_ += layers * g.flops;
        dense_flops_ += layers * g.flops;
        dram_bytes_ += layers * g.bytes;
        compute_j_ += step_s * model_.spec().dynamic_power_w;
        return step_s;
    }

    /// Platforms have no single core clock; express cycles in ns.
    double clockGhz() const override { return 1.0; }

    PlatformModel model_;
};

} // namespace

std::unique_ptr<BackendSession>
A3Backend::makeSession(const WorkloadSpec& workload,
                       const PruningPolicy& policy,
                       std::uint64_t request_seed) const
{
    // Dense-KV baselines ignore the SpAtten policy and draw no PRNG
    // state; the signature is the uniform serving contract.
    (void)policy;
    (void)request_seed;
    return std::make_unique<A3Session>(cfg_, workload);
}

std::unique_ptr<BackendSession>
MnnFastBackend::makeSession(const WorkloadSpec& workload,
                            const PruningPolicy& policy,
                            std::uint64_t request_seed) const
{
    (void)policy;
    (void)request_seed;
    return std::make_unique<MnnFastSession>(cfg_, workload);
}

std::unique_ptr<BackendSession>
PlatformBackend::makeSession(const WorkloadSpec& workload,
                             const PruningPolicy& policy,
                             std::uint64_t request_seed) const
{
    (void)policy;
    (void)request_seed;
    return std::make_unique<PlatformSession>(spec_, workload);
}

} // namespace spatten
