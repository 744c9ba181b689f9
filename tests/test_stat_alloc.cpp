/// Allocation guard for the StatSet. Every served request keeps its
/// finalized RunResult, so a RunResult copy must stay a handful of
/// allocations, not one heap node per stat: at most the workload name
/// and the single value array, however many stats the result carries.
/// The names and kinds live once in the shared interned layout, so the
/// copy costs 8 bytes (one double) per stat plus the name.
///
/// The binary replaces the global operator new with a counting one, so
/// it lives alone rather than in a shared test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

} // namespace

// The replacements stay out of line: inlined into their callers, GCC
// would pair malloc()/free() against new/delete expressions and flag
// them as mismatched.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace spatten {
namespace {

/// Heap allocations made by copying @p r.
std::size_t
copyAllocations(const RunResult& r)
{
    const std::size_t before = g_allocations.load();
    const RunResult copy = r;
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(copy.stats.all().size(), r.stats.all().size());
    return after - before;
}

/// Heap bytes requested by copying @p r.
std::size_t
copyBytes(const RunResult& r)
{
    const std::size_t before = g_bytes.load();
    const RunResult copy = r;
    const std::size_t after = g_bytes.load();
    EXPECT_EQ(copy.stats.all().size(), r.stats.all().size());
    return after - before;
}

/// The most a RunResult copy may allocate: one double per stat and the
/// name's characters with their terminator.
std::size_t
copyBudget(const RunResult& r)
{
    return r.stats.all().size() * sizeof(double) + r.workload.size() + 1;
}

/// A name too long for the small-string buffer, so the copy of the
/// name is one of the two allowed allocations.
WorkloadSpec
gpt2(std::size_t prompt, std::size_t generate)
{
    WorkloadSpec w;
    w.name = "gpt2-small-stat-allocation-guard";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = prompt;
    w.generate_len = generate;
    return w;
}

/// A SpAtten session run to completion, ready to finalize.
std::unique_ptr<DecodeSession>
finishedSession()
{
    auto session = std::make_unique<DecodeSession>(
        SpAttenConfig{}, gpt2(128, 4), PruningPolicy{});
    session->prefill();
    while (!session->done())
        session->decodeStep();
    return session;
}

TEST(StatAlloc, CopyingARunResultAllocatesNameAndStatArrayOnly)
{
    SpAttenAccelerator accel;
    const RunResult r = accel.run(gpt2(512, 16), PruningPolicy{});
    ASSERT_GE(r.stats.all().size(), 37u);
    EXPECT_LE(copyAllocations(r), 2u);
}

TEST(StatAlloc, CopyingAFinalizedSessionAllocatesNameAndStatArrayOnly)
{
    const RunResult r = finishedSession()->finalize();
    ASSERT_GE(r.stats.all().size(), 37u);
    EXPECT_LE(copyAllocations(r), 2u);
}

TEST(StatAlloc, CopyingAFinalizedResultAllocatesEightBytesPerStat)
{
    SpAttenAccelerator accel;
    const RunResult ran = accel.run(gpt2(512, 16), PruningPolicy{});
    const RunResult finalized = finishedSession()->finalize();
    for (const RunResult* r : {&ran, &finalized}) {
        ASSERT_GE(r->stats.all().size(), 37u);
        EXPECT_LE(copyBytes(*r), copyBudget(*r));
    }
}

// finalize() sizes the stat array once for every entry it writes, so
// landing 37 stats grows the array in a single allocation. The first
// finalize in a process also interns the stat names; that one-time cost
// is paid before counting.
TEST(StatAlloc, FinalizeAllocatesTheStatArrayOnce)
{
    finishedSession()->finalize();
    const auto session = finishedSession();
    const std::size_t before = g_allocations.load();
    const RunResult r = session->finalize();
    const std::size_t after = g_allocations.load();
    ASSERT_GE(r.stats.all().size(), 37u);
    EXPECT_LE(after - before, 2u);
}

} // namespace
} // namespace spatten
