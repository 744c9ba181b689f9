/**
 * @file
 * Energy and area model of the SpAtten accelerator.
 *
 * The paper obtains power/area from Cadence Genus synthesis (TSMC 40 nm),
 * CACTI for SRAMs/FIFOs, and fine-grained-DRAM energy numbers for HBM.
 * We reproduce the same accounting structure with per-event energy
 * constants calibrated so that nominal full-rate activity reproduces the
 * paper's Table II (1.36 W logic, 1.24 W SRAM, 5.71 W DRAM, 8.30 W total)
 * and Fig. 13 module breakdown. Area is modeled per module with unit
 * areas x instance counts so scaled configs (SpAtten-1/8) follow.
 */
#ifndef SPATTEN_ENERGY_ENERGY_MODEL_HPP
#define SPATTEN_ENERGY_ENERGY_MODEL_HPP

#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace spatten {

/** Per-event energy constants (picojoules), 40 nm-class. */
struct EnergyConfig
{
    double mac_pj = 1.30;            ///< 12-bit multiply-accumulate + tree share.
    double softmax_elem_pj = 55.0;   ///< FP exp (Taylor-5 FMA chain) + div share.
    double topk_cmp_pj = 2.5;        ///< One quick-select comparator op.
    double fetch_req_pj = 120.0;     ///< Crossbar traversal + FIFO + addr gen.
    double sram_read_pj_per_byte = 0.55;
    double sram_write_pj_per_byte = 0.65;
    double leakage_w = 0.121;        ///< "Others" static power.
};

/** Energy (J) of moving @p bytes through DRAM at the fine-grained-DRAM
 *  rate of 3.9 pJ/bit: the one DRAM price of the A3 and MNNFast models
 *  and of the baseline serving sessions. */
inline double
dramEnergyJ(double bytes)
{
    return bytes * 8.0 * 3.9 * 1e-12;
}

/** Activity counts accumulated by a simulation run. */
struct ActivityCounts
{
    double qk_macs = 0;
    double pv_macs = 0;
    double softmax_elems = 0;
    double topk_comparisons = 0;
    double fetch_requests = 0;
    double sram_read_bytes = 0;
    double sram_write_bytes = 0;
    double dram_energy_pj = 0; ///< Already computed by HbmModel.
    double cycles = 0;         ///< Elapsed core cycles.
    double freq_ghz = 1.0;     ///< Core clock.

    void add(const ActivityCounts& o);
};

/** Energy (J) and average power (W) per accounting bucket. */
struct EnergyReport
{
    double qk_j = 0;
    double pv_j = 0;
    double softmax_j = 0;
    double topk_j = 0;
    double fetcher_j = 0;
    double sram_j = 0;
    double dram_j = 0;
    /// Far-memory KV migration traffic. compute() leaves it 0: the
    /// serving layer prices migration fleet-wide instead
    /// (ServeReport::migration_energy_j).
    double migration_j = 0;
    double leakage_j = 0;
    double seconds = 0;

    double onChipJ() const
    {
        return qk_j + pv_j + softmax_j + topk_j + fetcher_j + sram_j +
               leakage_j;
    }
    double totalJ() const { return onChipJ() + dram_j + migration_j; }

    /** Multi-line table matching the paper's Table II layout. */
    std::string toString() const;
};

/** Computes an EnergyReport from activity counts. */
class EnergyModel
{
  public:
    explicit EnergyModel(EnergyConfig cfg = EnergyConfig{}) : cfg_(cfg) {}

    const EnergyConfig& config() const { return cfg_; }

    EnergyReport compute(const ActivityCounts& activity) const;

  private:
    EnergyConfig cfg_;
};

/** Per-module area entry of the Fig. 13 breakdown. */
struct AreaEntry
{
    std::string module;
    double mm2 = 0;
};

/**
 * Area model: unit areas x instance counts, calibrated so the full
 * SpAtten config (1024 multipliers, 2x196 KB SRAM) reproduces the
 * paper's 18.71 mm^2 with the Fig. 13 proportions.
 *
 * @param num_multipliers total multipliers (paper: 1024; SpAtten-1/8: 128).
 * @param sram_kb total K+V SRAM capacity in KB (paper: 392).
 * @param topk_parallelism comparators per side in the top-k engine.
 */
std::vector<AreaEntry> areaBreakdown(int num_multipliers, int sram_kb,
                                     int topk_parallelism);

/** Sum of an area breakdown in mm^2. */
double totalAreaMm2(const std::vector<AreaEntry>& entries);

} // namespace spatten

#endif // SPATTEN_ENERGY_ENERGY_MODEL_HPP
