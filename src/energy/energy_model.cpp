#include "energy/energy_model.hpp"

#include "common/logging.hpp"

namespace spatten {

void
ActivityCounts::add(const ActivityCounts& o)
{
    qk_macs += o.qk_macs;
    pv_macs += o.pv_macs;
    softmax_elems += o.softmax_elems;
    topk_comparisons += o.topk_comparisons;
    fetch_requests += o.fetch_requests;
    sram_read_bytes += o.sram_read_bytes;
    sram_write_bytes += o.sram_write_bytes;
    dram_energy_pj += o.dram_energy_pj;
    cycles += o.cycles;
    // freq_ghz is a property, not a counter; keep the existing value.
}

std::string
EnergyReport::toString() const
{
    std::string s;
    s += strfmt("%-22s %10s %10s\n", "bucket", "energy(mJ)", "power(W)");
    const auto row = [&](const char* name, double j) {
        s += strfmt("%-22s %10.3f %10.3f\n", name, j * 1e3,
                    seconds > 0 ? j / seconds : 0.0);
    };
    row("QxK", qk_j);
    row("AttnProb x V", pv_j);
    row("Softmax", softmax_j);
    row("Top-k", topk_j);
    row("QKV Fetcher", fetcher_j);
    row("SRAM", sram_j);
    row("Leakage/Others", leakage_j);
    row("DRAM", dram_j);
    row("Total", totalJ());
    return s;
}

EnergyReport
EnergyModel::compute(const ActivityCounts& a) const
{
    EnergyReport r;
    r.seconds = a.freq_ghz > 0 ? a.cycles / (a.freq_ghz * 1e9) : 0.0;
    r.qk_j = a.qk_macs * cfg_.mac_pj * 1e-12;
    r.pv_j = a.pv_macs * cfg_.mac_pj * 1e-12;
    r.softmax_j = a.softmax_elems * cfg_.softmax_elem_pj * 1e-12;
    r.topk_j = a.topk_comparisons * cfg_.topk_cmp_pj * 1e-12;
    r.fetcher_j = a.fetch_requests * cfg_.fetch_req_pj * 1e-12;
    r.sram_j = (a.sram_read_bytes * cfg_.sram_read_pj_per_byte +
                a.sram_write_bytes * cfg_.sram_write_pj_per_byte) *
               1e-12;
    r.dram_j = a.dram_energy_pj * 1e-12;
    r.leakage_j = cfg_.leakage_w * r.seconds;
    return r;
}

namespace {

// Unit areas calibrated so (1024 mults, 392 KB, parallelism 16) gives the
// paper's Fig. 13: fetcher 2.649, QxK 7.123, Softmax 0.791, Top-k 0.498,
// ProbxV 7.222, Others 0.43 => 18.71 mm^2 total.
constexpr double kQkPerMult = 7.123 / 512.0;
constexpr double kPvPerMult = 7.222 / 512.0;
constexpr double kSramPerKb = (2.649 * 0.8) / 392.0; // SRAM share of fetcher
constexpr double kFetcherFixed = 2.649 * 0.2;        // crossbars + FIFOs
constexpr double kSoftmaxFixed = 0.791;
constexpr double kTopkPerCmp = 0.498 / 32.0; // two engines x 16 comparators
constexpr double kOthers = 0.43;

} // namespace

std::vector<AreaEntry>
areaBreakdown(int num_multipliers, int sram_kb, int topk_parallelism)
{
    SPATTEN_ASSERT(num_multipliers > 0 && sram_kb > 0 &&
                       topk_parallelism > 0,
                   "bad area parameters");
    // Multipliers are split evenly between the QxK and ProbxV arrays.
    // Datapath-width-coupled blocks (crossbars/FIFOs in the fetcher, the
    // softmax lanes, misc glue) scale with the multiplier count.
    const double half_mults = num_multipliers / 2.0;
    const double width_scale = num_multipliers / 1024.0;
    std::vector<AreaEntry> v;
    v.push_back({"QKV Fetcher",
                 kFetcherFixed * width_scale + kSramPerKb * sram_kb});
    v.push_back({"QxK", kQkPerMult * half_mults});
    v.push_back({"Softmax", kSoftmaxFixed * width_scale});
    v.push_back({"Top-k", kTopkPerCmp * 2.0 * topk_parallelism});
    v.push_back({"AttnProb x V", kPvPerMult * half_mults});
    v.push_back({"Others", kOthers * width_scale});
    return v;
}

double
totalAreaMm2(const std::vector<AreaEntry>& entries)
{
    double s = 0;
    for (const auto& e : entries)
        s += e.mm2;
    return s;
}

} // namespace spatten
