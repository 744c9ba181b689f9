/// The paper-claims ledger (bench/paper/): every row recomputes through
/// the library to its committed measurement, and its status agrees with
/// its band. A model change that moves a paper number fails here and
/// re-baselines the row (old -> new in CHANGES.md).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "accel/spatten_accelerator.hpp"
#include "paper/ledger.hpp"
#include "workload/benchmarks.hpp"

namespace spatten {
namespace paper {
namespace {

TEST(PaperLedger, EveryRowRecomputesToItsCommittedValue)
{
    for (const Claim& c : claims()) {
        const double v = c.fn();
        EXPECT_LE(std::fabs(v - c.measured), 1e-9 * std::fabs(c.measured))
            << c.id << ": recomputed " << v << ", committed " << c.measured;
    }
}

TEST(PaperLedger, StatusIsMatchExactlyWhenInsideTheBand)
{
    for (const Claim& c : claims()) {
        EXPECT_EQ(c.inBand(c.measured), c.status == Status::Match)
            << c.id << ": " << c.measured << " vs [" << c.lo() << ", "
            << c.hi() << "], status " << statusName(c.status);
        if (c.status != Status::Match) {
            EXPECT_GT(std::string(c.reason).size(), 0u) << c.id;
        }
    }
}

TEST(PaperLedger, IdsAreUniqueAndEachNamesAFigure)
{
    std::set<std::string> ids, names;
    for (const Figure& f : figures())
        EXPECT_TRUE(names.insert(f.name).second) << f.name;
    for (const Claim& c : claims()) {
        EXPECT_TRUE(ids.insert(c.id).second) << c.id;
        EXPECT_EQ(names.count(c.figure()), 1u) << c.id;
    }
}

// The ledger runs each GPT-2 model once for all four of its datasets;
// that holds only while the datasets share one shape and policy.
TEST(PaperLedger, GptDatasetsOfOneModelShareOneResult)
{
    SpAttenAccelerator accel;
    std::map<std::string, RunResult> first;
    for (const BenchmarkSpec& b : gptBenchmarks()) {
        const RunResult r = accel.run(b.workload, b.policy);
        const auto [it, fresh] = first.emplace(b.workload.model.name, r);
        if (fresh)
            continue;
        EXPECT_EQ(r.cycles, it->second.cycles) << b.workload.name;
        EXPECT_EQ(r.dram_bytes, it->second.dram_bytes) << b.workload.name;
        EXPECT_EQ(r.energy.totalJ(), it->second.energy.totalJ())
            << b.workload.name;
    }
}

} // namespace
} // namespace paper
} // namespace spatten
