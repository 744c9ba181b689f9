/// Property tests for the paged ref-counted KV block allocator
/// (serve/kv_pool.hpp): shared-prefix mapping charges shared blocks
/// once, refcounts never underflow, hash collisions fall back to
/// private blocks, copy-on-write keeps the cached originals intact,
/// cold-cache eviction is LRU and never lets usage exceed the budget,
/// release/double-release and byte-size overflow assert instead of
/// silently corrupting the ledger. With the DRAM cold tier configured,
/// the demotion/eviction order is pinned as a deterministic function
/// of the release order — within-release ties resolve chain-head-first
/// — by a 4000-op random run against an exact shadow model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/tokens.hpp"
#include "serve/kv_pool.hpp"

namespace spatten {
namespace {

/// 4-layer, 4-head, 64-dim model: kvBytesPerToken = 2*4*4*64*2 = 4096,
/// so a 16-token block is 64 KiB — easy mental math for the budgets.
ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

constexpr std::uint64_t kBlockBytes = 16ull * 4096; // 16-token block.

/// Distinct deterministic prompt content per (stream, length).
std::vector<std::uint64_t>
prompt(std::uint64_t stream, std::size_t tokens)
{
    std::vector<std::uint64_t> p;
    p.reserve(tokens);
    for (std::size_t i = 0; i < tokens; ++i)
        p.push_back(stream * 0x100000001ULL + i);
    return p;
}

TEST(KvPoolPrefix, SharedBlocksChargedOnceAndRefCounted)
{
    const ModelSpec m = tinyModel();
    KvPool pool({0, 16});
    const auto a = prompt(1, 64); // 4 complete blocks.

    const auto r0 = pool.tryReservePrefix(0, m, a);
    ASSERT_TRUE(r0.ok);
    EXPECT_EQ(r0.cached_tokens, 0u) << "cold cache: nothing to map";
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.sharedBlockRefs(0),
              (std::vector<std::uint32_t>{1, 1, 1, 1}));

    const auto r1 = pool.tryReservePrefix(1, m, a);
    ASSERT_TRUE(r1.ok);
    EXPECT_EQ(r1.cached_tokens, 64u);
    EXPECT_EQ(r1.shared_bytes, 4 * kBlockBytes);
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes)
        << "a full prefix hit charges no new bytes";
    EXPECT_EQ(pool.sharedBlockRefs(0),
              (std::vector<std::uint32_t>{2, 2, 2, 2}));

    pool.release(0);
    EXPECT_EQ(pool.sharedBlockRefs(1),
              (std::vector<std::uint32_t>{1, 1, 1, 1}));
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);
    pool.release(1);
    // Last holder gone: blocks stay resident as reclaimable cold cache.
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.coldBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.residentRequests(), 0u);
}

TEST(KvPoolPrefix, SharedBufferViewMatchesVector)
{
    // A trace hands the scheduler a view of the first n tokens of a
    // longer conversation's runs, and admission copies it into one
    // scratch vector reused across requests. The pool must reserve, hit
    // and cache exactly what a vector of those n ids does, and the view
    // must never read past n: a view of 40 tokens caches 2 complete
    // blocks, not the conversation's third.
    const ModelSpec m = tinyModel();
    const auto conversation = std::make_shared<const PromptTokens::Runs>(
        PromptTokens::Runs{{0, 7}, {24, 8}, {40, 9}, {72, 10}});
    std::vector<std::uint64_t> ids; // Token p of run r is mix64(seed ^ p).
    for (std::size_t p = 0, r = 0; p < 112; ++p) {
        if (r + 1 < conversation->size() && (*conversation)[r + 1].start == p)
            ++r;
        ids.push_back(mix64((*conversation)[r].seed ^ p));
    }
    KvPool by_vector({10 * kBlockBytes, 16});
    KvPool by_view({10 * kBlockBytes, 16});
    const std::size_t lens[] = {40, 32, 72, 112, 48};
    std::vector<std::uint64_t> scratch(128, 0); // Longer stale content.
    std::size_t hits = 0;
    for (std::size_t id = 0; id < std::size(lens); ++id) {
        const std::vector<std::uint64_t> copy(
            ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(lens[id]));
        PromptTokens(conversation, lens[id]).copyTo(scratch);
        ASSERT_EQ(scratch, copy) << "prompt " << id;
        const auto a = by_vector.tryReservePrefix(id, m, copy);
        const auto b = by_view.tryReservePrefix(id, m, scratch);
        ASSERT_TRUE(a.ok && b.ok) << "prompt " << id;
        EXPECT_EQ(a.cached_tokens, b.cached_tokens) << "prompt " << id;
        EXPECT_EQ(a.shared_bytes, b.shared_bytes) << "prompt " << id;
        EXPECT_EQ(a.promoted_bytes, b.promoted_bytes) << "prompt " << id;
        EXPECT_EQ(by_vector.usedBytes(), by_view.usedBytes());
        EXPECT_EQ(by_vector.cachedBlocks(), by_view.cachedBlocks());
        EXPECT_EQ(by_vector.sharedBlockRefs(id), by_view.sharedBlockRefs(id));
        hits += b.cached_tokens > 0 ? 1 : 0;
        if (id == 0) {
            EXPECT_EQ(by_view.cachedBlocks(), 2u);
        }
    }
    EXPECT_EQ(hits, 4u);
    EXPECT_EQ(by_view.usedBytes(), 9 * kBlockBytes);
}

TEST(KvPoolPrefix, PartialTailBlockStaysPrivate)
{
    const ModelSpec m = tinyModel();
    KvPool pool({0, 16});
    const auto a = prompt(2, 40); // 2 complete blocks + 8-token tail.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    EXPECT_EQ(pool.usedBytes(), 3 * kBlockBytes);
    EXPECT_EQ(pool.cachedBlocks(), 2u) << "only complete blocks cached";

    const auto r1 = pool.tryReservePrefix(1, m, a);
    ASSERT_TRUE(r1.ok);
    EXPECT_EQ(r1.cached_tokens, 32u) << "tail recomputed privately";
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes)
        << "shared 2 + two private tails";
    pool.release(0);
    pool.release(1);
}

TEST(KvPoolPrefix, ColdCacheHitThenLruEviction)
{
    const ModelSpec m = tinyModel();
    KvPool pool({6 * kBlockBytes, 16});
    const auto a = prompt(3, 64); // 4 blocks.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    pool.release(0);
    EXPECT_EQ(pool.coldBytes(), 4 * kBlockBytes);

    // A cold hit revives the blocks instead of re-prefilling.
    const auto r1 = pool.tryReservePrefix(1, m, a);
    ASSERT_TRUE(r1.ok);
    EXPECT_EQ(r1.cached_tokens, 64u);
    EXPECT_EQ(pool.coldBytes(), 0u);
    pool.release(1);

    // A 6-block private reservation needs the cold blocks' bytes:
    // they are evicted (LRU) rather than blocking the admission.
    EXPECT_TRUE(pool.tryReserve(2, m, 96));
    EXPECT_EQ(pool.usedBytes(), 6 * kBlockBytes);
    EXPECT_EQ(pool.evictedBlocks(), 4u);
    EXPECT_EQ(pool.cachedBlocks(), 0u);
    // The prefix is gone from the cache: a re-reservation is cold.
    pool.release(2);
    const auto r3 = pool.tryReservePrefix(3, m, a);
    ASSERT_TRUE(r3.ok);
    EXPECT_EQ(r3.cached_tokens, 0u);
    pool.release(3);
}

TEST(KvPoolPrefix, HashCollisionsFallBackToPrivateBlocks)
{
    const ModelSpec m = tinyModel();
    // A 1-bit chain hash: at most two distinct index keys can ever
    // exist, so among any three distinct single-block prompts at
    // least one collides at registration and must fall back private.
    KvPool pool({0, 16, 2, 1});
    std::size_t id = 0;
    std::size_t fallbacks = 0;
    for (std::uint64_t stream = 10; stream < 13; ++stream) {
        const auto p = prompt(stream, 16);
        const std::size_t cached_before = pool.cachedBlocks();
        const auto r = pool.tryReservePrefix(id++, m, p);
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(r.cached_tokens, 0u)
            << "distinct content must never map cached blocks, even "
               "under a colliding chain hash";
        if (pool.cachedBlocks() == cached_before)
            ++fallbacks; // Key occupied: block stayed anonymous.
    }
    EXPECT_GE(fallbacks, 1u) << "pigeonhole: 3 prompts, 2 hash keys";
    EXPECT_LE(pool.cachedBlocks(), 2u);
    // Every reservation is fully served regardless of the collisions.
    EXPECT_EQ(pool.usedBytes(), 3 * kBlockBytes);
    for (std::size_t i = 0; i < id; ++i)
        pool.release(i);
}

TEST(KvPoolPrefix, CopyOnWriteLeavesCachedOriginalsIntact)
{
    const ModelSpec m = tinyModel();
    KvPool pool({0, 16});
    const auto a = prompt(4, 64); // 4 blocks.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    ASSERT_TRUE(pool.tryReservePrefix(1, m, a).ok);
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);

    // Cascade pruning shrinks request 1 to 40 tokens: its content
    // diverges from the cached prefix, so the 3 still-needed blocks
    // are copied private and the references dropped.
    EXPECT_TRUE(pool.tryResize(1, m, 40));
    EXPECT_EQ(pool.cowCopiedBlocks(), 3u);
    EXPECT_TRUE(pool.sharedBlockRefs(1).empty());
    EXPECT_EQ(pool.sharedBlockRefs(0),
              (std::vector<std::uint32_t>{1, 1, 1, 1}));
    EXPECT_EQ(pool.usedBytes(), 7 * kBlockBytes)
        << "4 shared originals + 3 private copies";

    // The originals remain matchable by a fresh admission.
    const auto r2 = pool.tryReservePrefix(2, m, a);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.cached_tokens, 64u);
    pool.release(0);
    pool.release(1);
    pool.release(2);
}

TEST(KvPoolPrefix, CopyOnWriteUnderPressureFailsCleanlyThenSucceeds)
{
    const ModelSpec m = tinyModel();
    KvPool pool({5 * kBlockBytes, 16});
    const auto a = prompt(5, 64); // 4 blocks.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    ASSERT_TRUE(pool.tryReservePrefix(1, m, a).ok);

    // Request 0 still references every shared block, so the 3 COW
    // copies cannot fit a 5-block budget: the resize must fail and
    // roll the references back untouched.
    EXPECT_FALSE(pool.tryResize(1, m, 48));
    EXPECT_EQ(pool.sharedBlockRefs(1),
              (std::vector<std::uint32_t>{2, 2, 2, 2}));
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);

    // Once request 0 leaves, the dereferenced originals go cold and
    // the same copy-on-write succeeds by reclaiming them.
    pool.release(0);
    EXPECT_TRUE(pool.tryResize(1, m, 48));
    EXPECT_EQ(pool.cowCopiedBlocks(), 3u);
    EXPECT_LE(pool.usedBytes(), 5 * kBlockBytes);
    pool.release(1);
}

TEST(KvPoolPrefix, GrowthAfterPrefixKeepsPrefixShared)
{
    const ModelSpec m = tinyModel();
    KvPool pool({0, 16});
    const auto a = prompt(6, 64);

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    ASSERT_TRUE(pool.tryReservePrefix(1, m, a).ok);
    // Decode appends tokens: append-only growth never diverges.
    EXPECT_TRUE(pool.tryResize(1, m, 80));
    EXPECT_EQ(pool.cowCopiedBlocks(), 0u);
    EXPECT_EQ(pool.sharedBlockRefs(1),
              (std::vector<std::uint32_t>{2, 2, 2, 2}));
    EXPECT_EQ(pool.usedBytes(), 5 * kBlockBytes);
    pool.release(0);
    pool.release(1);
}

TEST(KvPoolPrefix, SubBlockPromptIsFullyPrivate)
{
    const ModelSpec m = tinyModel();
    KvPool pool({0, 16});
    const auto a = prompt(7, 9); // Shorter than one block.
    const auto r0 = pool.tryReservePrefix(0, m, a);
    ASSERT_TRUE(r0.ok);
    EXPECT_EQ(r0.cached_tokens, 0u);
    EXPECT_EQ(pool.cachedBlocks(), 0u);
    const auto r1 = pool.tryReservePrefix(1, m, a);
    ASSERT_TRUE(r1.ok);
    EXPECT_EQ(r1.cached_tokens, 0u) << "no complete block to share";
    pool.release(0);
    pool.release(1);
}

TEST(KvPoolPrefix, RandomOpsNeverUnderflowOrExceedBudget)
{
    const ModelSpec m = tinyModel();
    const std::uint64_t cap = 24 * kBlockBytes;
    KvPool pool({cap, 16});
    Prng prng(0x5eedb10c);
    // Four recurring prompt contents drive real sharing; per-id state
    // tracks what a correct ledger must still hold.
    std::vector<bool> held(8, false);
    std::vector<std::size_t> tokens(8, 0);
    for (int op = 0; op < 4000; ++op) {
        const std::size_t id = prng.below(8);
        if (!held[id]) {
            const auto p =
                prompt(100 + prng.below(4), 16 + prng.below(120));
            if (pool.tryReservePrefix(id, m, p).ok) {
                held[id] = true;
                tokens[id] = p.size();
            }
        } else if (prng.chance(0.3)) {
            pool.release(id);
            held[id] = false;
        } else {
            // Mix growth (decode) and shrink (pruning divergence).
            const std::size_t target =
                prng.chance(0.5) ? tokens[id] + prng.below(24)
                                 : prng.below(tokens[id] + 1);
            if (pool.tryResize(id, m, target))
                tokens[id] = target;
        }
        // The ledger invariants a refcount underflow or double charge
        // would break (underflow itself aborts via SPATTEN_ASSERT):
        ASSERT_LE(pool.usedBytes(), cap);
        ASSERT_LE(pool.coldBytes(), pool.usedBytes());
        for (std::size_t i = 0; i < held.size(); ++i) {
            if (!held[i])
                continue;
            for (const std::uint32_t r : pool.sharedBlockRefs(i))
                ASSERT_GE(r, 1u);
        }
    }
    for (std::size_t i = 0; i < held.size(); ++i)
        if (held[i])
            pool.release(i);
    EXPECT_EQ(pool.usedBytes(), pool.coldBytes())
        << "only reclaimable cold cache may remain";
}

// ---------------------------------------------------------------------
// Tiered memory: HBM cold list and DRAM LRU share one release clock
// ---------------------------------------------------------------------

TEST(KvPoolTier, SameReleaseTiesDemoteAndEvictChainHeadFirst)
{
    const ModelSpec m = tinyModel();
    // 4-block HBM hot tier over a 2-block DRAM cold tier.
    KvPool pool({4 * kBlockBytes, 16, 2, 64, 2 * kBlockBytes});
    const auto a = prompt(30, 64); // 4 blocks, released in ONE call.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    pool.release(0); // Ties: all four go cold in this one release.

    // Two private blocks reclaim two cold ones: within-release ties
    // resolve chain-head-first, so blocks 0 and 1 demote.
    ASSERT_TRUE(pool.tryReserve(1, m, 32));
    EXPECT_EQ(pool.demotedBlocks(), 2u);
    EXPECT_EQ(pool.evictedBlocks(), 0u);
    EXPECT_EQ(pool.dramUsedBytes(), 2 * kBlockBytes);
    pool.release(1);

    // Four private blocks demote the remaining two; the 2-block DRAM
    // tier overflows and true-evicts ITS oldest ticks — blocks 0, 1.
    ASSERT_TRUE(pool.tryReserve(2, m, 64));
    EXPECT_EQ(pool.demotedBlocks(), 4u);
    EXPECT_EQ(pool.evictedBlocks(), 2u);
    EXPECT_EQ(pool.dramUsedBytes(), 2 * kBlockBytes);
    pool.release(2);

    // Identity proof: the chain head is gone — a re-reservation runs
    // cold — while blocks 2 and 3 survive in DRAM (their occupied keys
    // stop the re-registration at index 2).
    const auto r3 = pool.tryReservePrefix(3, m, a);
    ASSERT_TRUE(r3.ok);
    EXPECT_EQ(r3.cached_tokens, 0u)
        << "block 0 evicted => nothing matches from the chain head";
    EXPECT_EQ(r3.promoted_bytes, 0u);
    EXPECT_EQ(pool.dramUsedBytes(), 2 * kBlockBytes)
        << "blocks 2 and 3 must still be DRAM-resident";
    EXPECT_EQ(pool.cachedBlocks(), 4u)
        << "re-registered blocks 0-1 + surviving DRAM blocks 2-3";
    pool.release(3);
}

/// Exact shadow model of the tiered reclaim machinery for the op mix
/// the random test drives: tryReservePrefix with block-aligned prompts
/// of one uniform block size plus release, under the full-width
/// (collision-free) chain hash. Block identity is (stream, chain
/// index); "front of vector" is the oldest release tick. Mirrors
/// kv_pool.cpp's makeRoom/demoteToDram/evictDramLru/rollback paths
/// operation for operation, so any divergence in which block demotes
/// or evicts shows up immediately in the compared counters and in the
/// cached_tokens of later reservations.
struct ShadowTier
{
    std::uint64_t cap = 0;
    std::uint64_t dram_cap = 0;

    using Key = std::pair<std::uint64_t, std::size_t>;
    struct SBlock
    {
        std::uint32_t refs = 0;
        bool in_dram = false;
    };
    struct Res
    {
        std::vector<Key> chain;
        std::size_t priv = 0;
    };
    struct Outcome
    {
        bool ok = false;
        std::size_t matched = 0;
        std::uint64_t promote_b = 0;
    };

    std::map<Key, SBlock> reg;    ///< Prefix-index shadow.
    std::vector<Key> cold;        ///< HBM cold list, front = oldest.
    std::vector<Key> dram;        ///< DRAM LRU, front = oldest.
    std::map<std::size_t, Res> held;
    std::uint64_t used = 0, cold_b = 0, dram_b = 0;
    std::size_t demoted = 0, promoted = 0, evicted = 0;

    static void eraseKey(std::vector<Key>& v, const Key& k)
    {
        v.erase(std::find(v.begin(), v.end(), k));
    }

    void makeRoom(std::uint64_t need)
    {
        while (used + need > cap) {
            ASSERT_FALSE(cold.empty());
            const Key k = cold.front();
            cold.erase(cold.begin());
            cold_b -= kBlockBytes;
            used -= kBlockBytes;
            if (kBlockBytes <= dram_cap) {
                while (dram_b + kBlockBytes > dram_cap) {
                    reg.erase(dram.front());
                    dram.erase(dram.begin());
                    dram_b -= kBlockBytes;
                    ++evicted;
                }
                reg.at(k).in_dram = true;
                dram_b += kBlockBytes;
                dram.push_back(k);
                ++demoted;
            } else {
                reg.erase(k);
                ++evicted;
            }
        }
    }

    Outcome reserve(std::size_t id, std::uint64_t stream,
                    std::size_t blocks)
    {
        std::size_t matched = 0;
        while (matched < blocks && reg.count({stream, matched}) != 0)
            ++matched;
        // Pull the matched blocks off their lists (chain order), as
        // the pool does before its budget check.
        const std::vector<Key> dram_before = dram;
        std::uint64_t promote_b = 0;
        std::vector<Key> chain;
        for (std::size_t i = 0; i < matched; ++i) {
            const Key k{stream, i};
            SBlock& b = reg.at(k);
            if (b.refs == 0) {
                if (b.in_dram) {
                    eraseKey(dram, k);
                    dram_b -= kBlockBytes;
                    promote_b += kBlockBytes;
                } else {
                    eraseKey(cold, k);
                    cold_b -= kBlockBytes;
                }
            }
            ++b.refs;
            chain.push_back(k);
        }
        const std::uint64_t need =
            (blocks - matched) * kBlockBytes +
            promote_b;
        if (used - cold_b + need > cap) {
            // Rollback: DRAM pulls return at their unchanged ticks
            // (exactly the pre-op DRAM list); HBM pulls re-tick onto
            // the cold tail in chain order.
            for (std::size_t i = 0; i < matched; ++i) {
                const Key k{stream, i};
                SBlock& b = reg.at(k);
                if (--b.refs > 0)
                    continue;
                if (b.in_dram) {
                    dram_b += kBlockBytes;
                } else {
                    cold.push_back(k);
                    cold_b += kBlockBytes;
                }
            }
            dram = dram_before;
            return {};
        }
        makeRoom(need);
        for (std::size_t i = 0; i < matched; ++i) {
            SBlock& b = reg.at({stream, i});
            if (b.in_dram) {
                b.in_dram = false;
                used += kBlockBytes;
                ++promoted;
            }
        }
        std::size_t priv = 0;
        bool registering = true;
        for (std::size_t i = matched; i < blocks; ++i) {
            const Key k{stream, i};
            if (registering && reg.count(k) != 0)
                registering = false; // Occupied key: private fallback.
            used += kBlockBytes;
            if (!registering) {
                ++priv;
                continue;
            }
            reg[k] = SBlock{1, false};
            chain.push_back(k);
        }
        held[id] = Res{std::move(chain), priv};
        return {true, matched, promote_b};
    }

    void release(std::size_t id)
    {
        Res& r = held.at(id);
        for (const Key& k : r.chain) {
            SBlock& b = reg.at(k);
            if (--b.refs == 0) {
                cold.push_back(k); // Fresh tick: cold tail.
                cold_b += kBlockBytes;
            }
        }
        used -= r.priv * kBlockBytes;
        held.erase(id);
    }
};

TEST(KvPoolTier, ReclaimOrderMatchesShadowModelOver4000RandomOps)
{
    const ModelSpec m = tinyModel();
    const std::uint64_t cap = 12 * kBlockBytes;
    const std::uint64_t dram_cap = 6 * kBlockBytes;
    KvPool pool({cap, 16, 2, 64, dram_cap});
    ShadowTier sh;
    sh.cap = cap;
    sh.dram_cap = dram_cap;
    Prng prng(0x7ee7ed0bdec4ULL);
    std::vector<bool> held(8, false);
    for (int op = 0; op < 4000; ++op) {
        const std::size_t id = prng.below(8);
        if (!held[id]) {
            const std::uint64_t stream = 200 + prng.below(4);
            const std::size_t blocks = 1 + prng.below(8);
            const auto got =
                pool.tryReservePrefix(id, m, prompt(stream, blocks * 16));
            const auto want = sh.reserve(id, stream, blocks);
            ASSERT_EQ(got.ok, want.ok) << "op " << op;
            if (got.ok) {
                ASSERT_EQ(got.cached_tokens, want.matched * 16)
                    << "op " << op
                    << ": a reclaim-order divergence surfaces here";
                ASSERT_EQ(got.promoted_bytes, want.promote_b)
                    << "op " << op;
                held[id] = true;
            }
        } else {
            pool.release(id);
            sh.release(id);
            held[id] = false;
        }
        ASSERT_EQ(pool.usedBytes(), sh.used) << "op " << op;
        ASSERT_EQ(pool.coldBytes(), sh.cold_b) << "op " << op;
        ASSERT_EQ(pool.dramUsedBytes(), sh.dram_b) << "op " << op;
        ASSERT_EQ(pool.cachedBlocks(), sh.reg.size()) << "op " << op;
        ASSERT_EQ(pool.demotedBlocks(), sh.demoted) << "op " << op;
        ASSERT_EQ(pool.promotedBlocks(), sh.promoted) << "op " << op;
        ASSERT_EQ(pool.evictedBlocks(), sh.evicted) << "op " << op;
    }
}

TEST(KvPoolDeath, ReleaseOfUnknownIdAsserts)
{
    const ModelSpec m = tinyModel();
    KvPool pool({0, 16});
    EXPECT_DEATH(pool.release(42), "released without");
    // Double release is the same bug with extra steps.
    ASSERT_TRUE(pool.tryReserve(0, m, 16));
    pool.release(0);
    EXPECT_DEATH(pool.release(0), "released without");
}

TEST(KvPoolDeath, ByteSizeOverflowAsserts)
{
    const ModelSpec m = tinyModel();
    const KvPool pool({0, 16});
    // ~2^60 blocks x 2^16 B/block overflows uint64: the guard must
    // abort instead of wrapping into a small admissible size.
    EXPECT_DEATH(
        (void)pool.bytesForTokens(
            m, std::numeric_limits<std::size_t>::max()),
        "overflows");
}

} // namespace
} // namespace spatten
