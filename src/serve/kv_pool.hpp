/**
 * @file
 * Paged, ref-counted KV-cache block allocator for one simulated
 * accelerator, with shared-prefix caching.
 *
 * Production continuous-batching systems are defined by the coupling
 * between scheduling and KV memory: a request can only be admitted when
 * its prompt KV fits the device's HBM budget, a decoding request can
 * only grow its cache while blocks remain, and under pressure the
 * scheduler preempts a victim and recomputes it later. KvPool is that
 * accounting, vLLM-style: the byte budget (derived from
 * HbmConfig::capacityBytes() by default) is carved into fixed-size
 * token blocks, each reservation holds a chain of blocks, and blocks
 * carry reference counts so that requests whose prompts share a cached
 * prefix map the same physical blocks copy-free.
 *
 * Prefix caching: a reservation made through tryReservePrefix()
 * registers its complete prompt blocks in a prefix-hash index keyed on
 * (model shape, prompt-token chain hash). A later reservation whose
 * prompt starts with the same token blocks maps them by bumping their
 * refcounts — charging the budget only for its non-shared tail — and
 * the serving layer can skip the shared tokens' prefill compute.
 * Cached blocks whose last holder releases them stay resident ("cold")
 * and are evicted LRU-first only when an allocation needs their bytes,
 * so the budget check is never optimistic.
 *
 * Copy-on-write: shared blocks stay valid only while a reservation
 * grows append-only (decode appends tokens after the prefix). The first
 * shrink — cascade pruning dropping survivors — diverges the resident
 * content from the cached prefix, so the reservation copies the blocks
 * it still needs into private ones (possibly evicting cold blocks, and
 * failing like any allocation when hot blocks leave no room) and drops
 * its references on the cached originals, which remain in the index for
 * future admissions.
 *
 * Tiered memory (Hybrid2-style, KvPoolConfig::dram_capacity_bytes > 0):
 * the HBM byte budget becomes the *hot* tier and a far-memory DRAM pool
 * becomes the *cold* tier. When an allocation needs a cold cached
 * block's hot bytes, the block *demotes* to DRAM (it stays registered
 * in the prefix index; only its residency moves) instead of being
 * dropped; true eviction happens only when the DRAM tier itself fills,
 * still LRU-first on the same global clock — the demotion/eviction
 * order is a pure function of the release order either way. A later
 * prefix hit on a DRAM-resident block *promotes* it back to HBM: the
 * promoted bytes count against the hot budget of that admission (both
 * tiers gate admission), and the reservation reports them so the
 * scheduler can charge the migration's latency to the admitting
 * request's prefill timeline. The pool itself stays pure bookkeeping —
 * it meters migration bytes and block counts; time and energy are
 * priced by the serving layer (FarMemoryConfig in hbm/hbm.hpp). With dram_capacity_bytes == 0 every
 * code path above is untouched and the pool is bit-identical to the
 * single-budget allocator.
 *
 * The pool is plain deterministic bookkeeping driven by the scheduler's
 * single-threaded coordinator; it never touches simulated time.
 */
#ifndef SPATTEN_SERVE_KV_POOL_HPP
#define SPATTEN_SERVE_KV_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/tokens.hpp"
#include "core/model_spec.hpp"

namespace spatten {

/** Static configuration of one accelerator's KV pool. */
struct KvPoolConfig
{
    /// Byte budget for resident KV caches. 0 = unlimited (the pool
    /// still accounts occupancy but never rejects).
    std::uint64_t capacity_bytes = 0;
    /// Allocation granularity in tokens (vLLM-style paged blocks): a
    /// request holding t tokens reserves ceil(t / block_tokens) blocks.
    std::size_t block_tokens = 16;
    /// Storage width of one KV element on the owning device (bytes):
    /// 2 for SpAtten's fp16-equivalent plane layout (the default), 4
    /// for the fp32 platform baselines (AcceleratorBackend::
    /// kvBytesPerElem()).
    std::size_t bytes_per_elem = 2;
    /// Width of the prefix-index chain hash. 64 in production; tests
    /// shrink it to force collisions and pin the private-block
    /// fallback (a colliding lookup compares the stored token content
    /// and treats a mismatch as a miss).
    std::size_t prefix_hash_bits = 64;
    /// Far-memory DRAM cold-tier byte budget (FarMemoryConfig::
    /// capacityBytes()). 0 disables tiering: cold cached blocks stay
    /// HBM-resident until true-evicted, the single-budget semantics
    /// every PR-2..6 golden pins.
    std::uint64_t dram_capacity_bytes = 0;
};

/** Per-accelerator paged KV block allocator. */
class KvPool
{
  public:
    /** Outcome of a prefix-aware reservation. */
    struct PrefixReservation
    {
        bool ok = false;             ///< Reserved (false: budget exceeded).
        std::size_t cached_tokens = 0; ///< Leading prompt tokens mapped
                                       ///< copy-free from the cache.
        std::uint64_t shared_bytes = 0; ///< Bytes of those shared blocks
                                        ///< (charged to no one anew).
        /// Bytes promoted DRAM -> HBM to serve this hit (0 when every
        /// matched block was already hot-tier resident, or tiering is
        /// off). The scheduler charges this burst's transfer latency to
        /// the admitting request's prefill timeline.
        std::uint64_t promoted_bytes = 0;
    };

    explicit KvPool(KvPoolConfig cfg = KvPoolConfig{});

    const KvPoolConfig& config() const { return cfg_; }

    /** Bytes a @p tokens-token KV cache of @p model reserves (rounded
     *  up to whole blocks). 0 tokens reserve nothing. Asserts when the
     *  product blocks x block_tokens x kvBytesPerToken overflows
     *  uint64 — a silent wrap would turn an impossible reservation
     *  into an admissible one. */
    std::uint64_t bytesForTokens(const ModelSpec& model,
                                 std::size_t tokens) const;

    /**
     * Reserve a new private cache of @p tokens tokens for request
     * @p id (no prefix lookup; the pre-caching admission path).
     * @return false (and reserve nothing) when the budget would be
     * exceeded even after evicting every cold cached block; unlimited
     * pools always succeed.
     */
    bool tryReserve(std::size_t id, const ModelSpec& model,
                    std::size_t tokens);

    /**
     * Reserve a cache for request @p id whose prompt content is
     * @p prompt_tokens: map the longest cached block-chain prefix
     * copy-free (refcount bumps, no new bytes), register the remaining
     * complete prompt blocks in the prefix index for future
     * admissions, and allocate the tail privately. Only the non-shared
     * blocks are charged against the budget. A hash collision (same
     * chain hash, different stored tokens) is treated as a miss: the
     * block falls back to a private allocation. @p prompt_tokens is
     * only read during the call, so a caller may pass a scratch vector
     * it reuses (the scheduler copies each PromptTokens view into one).
     */
    PrefixReservation tryReservePrefix(std::size_t id,
                                       const ModelSpec& model,
                                       TokenSpan prompt_tokens);

    /**
     * Resize request @p id's reservation to @p tokens tokens.
     * Growing appends private blocks and fails (leaving the
     * reservation untouched) when the budget would be exceeded after
     * cold-block eviction. Shrinking a fully private reservation
     * always succeeds and frees blocks; shrinking one that still maps
     * shared prefix blocks diverges the content (cascade pruning) and
     * triggers copy-on-write — the still-needed shared blocks are
     * copied into private ones, which like any allocation can fail
     * under pressure (the scheduler preempts a victim and retries).
     */
    bool tryResize(std::size_t id, const ModelSpec& model,
                   std::size_t tokens);

    /** Drop request @p id's reservation. Shared blocks are
     *  dereferenced (cached copies stay resident until evicted);
     *  private blocks are freed. Asserts on an unknown id — a silent
     *  no-op would let scheduler double-release/leak bugs hide. */
    void release(std::size_t id);

    std::uint64_t capacityBytes() const { return cfg_.capacity_bytes; }
    /// HBM-resident bytes: every hot-tier block — held by a request or
    /// cold in the prefix cache — counted once regardless of refcount.
    /// DRAM-resident blocks are accounted separately (dramUsedBytes()).
    std::uint64_t usedBytes() const { return used_bytes_; }
    std::uint64_t peakBytes() const { return peak_bytes_; }
    std::size_t residentRequests() const { return held_.size(); }
    bool unlimited() const { return cfg_.capacity_bytes == 0; }
    /// Far-memory cold tier configured (dram_capacity_bytes > 0).
    bool tiered() const { return cfg_.dram_capacity_bytes > 0; }

    // ---- Prefix-cache introspection (tests, ServeReport) ----
    /// Blocks currently registered in the prefix index (hot + cold,
    /// both tiers).
    std::size_t cachedBlocks() const { return prefix_index_.size(); }
    /// Bytes of cold cached blocks still HBM-resident (refcount 0):
    /// reclaimable on demand by demotion or eviction.
    std::uint64_t coldBytes() const { return cold_bytes_; }
    /// Blocks copied by copy-on-write divergences so far.
    std::size_t cowCopiedBlocks() const { return cow_copied_blocks_; }
    /// Cached blocks dropped from the cache entirely so far (tiering
    /// off: cold HBM blocks reclaimed for an allocation; tiering on:
    /// DRAM-tier LRU overflow, or a cold block too large for the DRAM
    /// budget altogether).
    std::size_t evictedBlocks() const { return evicted_blocks_; }

    // ---- Tiered-memory introspection (tests, ServeReport) ----
    /// Cold-tier occupancy: bytes of cached blocks currently demoted
    /// to far-memory DRAM.
    std::uint64_t dramUsedBytes() const { return dram_used_bytes_; }
    std::uint64_t dramPeakBytes() const { return dram_peak_bytes_; }
    /// Blocks / bytes migrated HBM -> DRAM so far.
    std::size_t demotedBlocks() const { return demoted_blocks_; }
    std::uint64_t demotedBytes() const { return demoted_bytes_; }
    /// Blocks / bytes migrated DRAM -> HBM (prefix re-reference) so far.
    std::size_t promotedBlocks() const { return promoted_blocks_; }
    std::uint64_t promotedBytes() const { return promoted_bytes_; }
    /// Refcounts of @p id's shared prefix blocks in chain order (empty
    /// when the reservation is fully private): test hook for the
    /// sharing and refcount-underflow properties.
    std::vector<std::uint32_t> sharedBlockRefs(std::size_t id) const;

  private:
    struct Block
    {
        std::uint64_t bytes = 0;   ///< Byte size (model-dependent).
        std::uint32_t refs = 0;    ///< Requests holding this block.
        bool cached = false;       ///< Registered in the prefix index.
        std::uint64_t hash = 0;    ///< Chain hash (when cached).
        std::vector<std::uint64_t> tokens; ///< Content (when cached),
                                           ///< for collision detection.
        std::uint64_t cold_tick = 0; ///< LRU stamp while refs == 0.
        bool in_dram = false; ///< Demoted to the far-memory cold tier
                              ///< (implies cached && refs == 0).
    };

    struct Reservation
    {
        std::size_t tokens = 0;       ///< Logical token count.
        std::uint64_t block_bytes = 0; ///< Bytes of one block here.
        std::vector<std::uint32_t> prefix_blocks; ///< Shared-capable
                                                  ///< prompt chain.
        std::size_t private_blocks = 0; ///< Anonymous blocks (prompt
                                        ///< tail + decode growth).
    };

    std::uint64_t blockBytes(const ModelSpec& model) const;
    /** ceil(tokens / block_tokens), overflow-safe (ceilDiv's num+den-1
     *  wraps for tokens near UINT64_MAX). */
    std::uint64_t blocksFor(std::size_t tokens) const;
    std::uint64_t chainHash(std::uint64_t prev, const ModelSpec& model,
                            const std::uint64_t* tokens,
                            std::size_t n) const;
    /** True when @p need new bytes fit after reclaiming (demoting or
     *  evicting) cold blocks (does not reclaim). */
    bool canAllocate(std::uint64_t need) const;
    /** Reclaim cold cached HBM blocks LRU-first until @p need new
     *  bytes fit: demote to the DRAM tier when one is configured and
     *  the block fits it, evict otherwise. @pre canAllocate(need). */
    void makeRoom(std::uint64_t need);
    /** Move cold HBM block @p id (already off the cold list) to the
     *  DRAM tier, true-evicting DRAM LRU blocks until it fits.
     *  @pre blocks_[id].bytes <= cfg_.dram_capacity_bytes. */
    void demoteToDram(std::uint32_t id);
    /** Drop the LRU DRAM-resident block from the cache entirely. */
    void evictDramLru();
    std::uint32_t newBlock(std::uint64_t bytes);
    void derefBlock(std::uint32_t id);
    void freeBlock(std::uint32_t id);
    void touchCharge(std::uint64_t bytes);

    KvPoolConfig cfg_;
    std::vector<Block> blocks_;        ///< Block table.
    std::vector<std::uint32_t> free_blocks_; ///< Reusable table slots.
    std::map<std::size_t, Reservation> held_; ///< id -> reservation.
    std::unordered_map<std::uint64_t, std::uint32_t>
        prefix_index_;                 ///< chain hash -> block id.
    std::map<std::uint64_t, std::uint32_t>
        cold_blocks_;                  ///< LRU tick -> cold cached block
                                       ///< (HBM-resident).
    std::map<std::uint64_t, std::uint32_t>
        dram_lru_;                     ///< LRU tick -> DRAM-resident
                                       ///< block. Blocks keep their
                                       ///< cold_tick across demotion,
                                       ///< so the eviction order stays
                                       ///< the global release order.
    /// tryReservePrefix()'s chain walk: each complete prompt block's
    /// chain hash and the matched cached block ids. Cleared and reused
    /// across calls, so a walk allocates only while they grow.
    std::vector<std::uint64_t> walk_hashes_;
    std::vector<std::uint32_t> walk_shared_;
    std::uint64_t used_bytes_ = 0;
    std::uint64_t peak_bytes_ = 0;
    std::uint64_t cold_bytes_ = 0;
    std::uint64_t dram_used_bytes_ = 0;
    std::uint64_t dram_peak_bytes_ = 0;
    std::uint64_t tick_ = 0;           ///< Monotonic LRU clock.
    std::size_t cow_copied_blocks_ = 0;
    std::size_t evicted_blocks_ = 0;
    std::size_t demoted_blocks_ = 0;
    std::size_t promoted_blocks_ = 0;
    std::uint64_t demoted_bytes_ = 0;
    std::uint64_t promoted_bytes_ = 0;
};

} // namespace spatten

#endif // SPATTEN_SERVE_KV_POOL_HPP
