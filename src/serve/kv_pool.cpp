#include "serve/kv_pool.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/prng.hpp" // mix64: the chain-hash mixing step.

namespace spatten {

KvPool::KvPool(KvPoolConfig cfg) : cfg_(cfg)
{
    SPATTEN_ASSERT(cfg_.block_tokens >= 1, "zero-token KV blocks");
    SPATTEN_ASSERT(cfg_.bytes_per_elem >= 1, "zero-byte KV elements");
    SPATTEN_ASSERT(cfg_.prefix_hash_bits >= 1 &&
                       cfg_.prefix_hash_bits <= 64,
                   "prefix hash width %zu outside [1, 64]",
                   cfg_.prefix_hash_bits);
}

std::uint64_t
KvPool::blocksFor(std::size_t tokens) const
{
    return tokens / cfg_.block_tokens +
           (tokens % cfg_.block_tokens != 0 ? 1 : 0);
}

std::uint64_t
KvPool::bytesForTokens(const ModelSpec& model, std::size_t tokens) const
{
    if (tokens == 0)
        return 0;
    const std::uint64_t per_token =
        kvBytesPerToken(model, cfg_.bytes_per_elem);
    SPATTEN_ASSERT(per_token == 0 ||
                       cfg_.block_tokens <= UINT64_MAX / per_token,
                   "KV block byte size overflows uint64 "
                   "(block_tokens %zu x %llu B/token)",
                   cfg_.block_tokens,
                   static_cast<unsigned long long>(per_token));
    const std::uint64_t per_block = cfg_.block_tokens * per_token;
    const std::uint64_t blocks = blocksFor(tokens);
    SPATTEN_ASSERT(per_block == 0 || blocks <= UINT64_MAX / per_block,
                   "KV reservation byte size overflows uint64 "
                   "(%llu blocks x %llu B/block)",
                   static_cast<unsigned long long>(blocks),
                   static_cast<unsigned long long>(per_block));
    return blocks * per_block;
}

std::uint64_t
KvPool::blockBytes(const ModelSpec& model) const
{
    return bytesForTokens(model, cfg_.block_tokens);
}

std::uint64_t
KvPool::chainHash(std::uint64_t prev, const ModelSpec& model,
                  const std::uint64_t* tokens, std::size_t n) const
{
    std::uint64_t h = prev;
    // Model shape folds into every link so equal token streams on
    // different models can never chain-match.
    h = mix64(h ^ (model.num_layers * 0x10001ULL + model.num_heads));
    h = mix64(h ^ model.d_head);
    for (std::size_t i = 0; i < n; ++i)
        h = mix64(h ^ tokens[i]);
    if (cfg_.prefix_hash_bits < 64)
        h &= (1ULL << cfg_.prefix_hash_bits) - 1;
    return h;
}

bool
KvPool::canAllocate(std::uint64_t need) const
{
    if (unlimited())
        return true;
    // Cold cached blocks are reclaimable on demand, so they never
    // block an allocation — only hot (referenced) bytes do.
    return used_bytes_ - cold_bytes_ + need <= cfg_.capacity_bytes;
}

void
KvPool::makeRoom(std::uint64_t need)
{
    if (unlimited())
        return;
    while (used_bytes_ + need > cfg_.capacity_bytes) {
        SPATTEN_ASSERT(!cold_blocks_.empty(),
                       "makeRoom(%llu) without canAllocate()",
                       static_cast<unsigned long long>(need));
        const auto it = cold_blocks_.begin();
        const std::uint32_t id = it->second;
        cold_blocks_.erase(it);
        Block& b = blocks_[id];
        SPATTEN_ASSERT(b.refs == 0 && b.cached && !b.in_dram,
                       "non-cold block %u on the cold list", id);
        cold_bytes_ -= b.bytes;
        if (b.bytes <= cfg_.dram_capacity_bytes) {
            // Tiered: the block's residency moves to far memory; its
            // prefix-index entry (and content) survives for future
            // admissions to promote back.
            demoteToDram(id);
            continue;
        }
        // Tiering off (or a block the DRAM budget could never hold
        // even empty): drop it from the cache entirely.
        prefix_index_.erase(b.hash);
        b.cached = false;
        ++evicted_blocks_;
        freeBlock(id);
    }
}

void
KvPool::demoteToDram(std::uint32_t id)
{
    Block& b = blocks_[id];
    while (dram_used_bytes_ + b.bytes > cfg_.dram_capacity_bytes)
        evictDramLru();
    SPATTEN_ASSERT(used_bytes_ >= b.bytes, "KV pool byte underflow");
    used_bytes_ -= b.bytes;
    b.in_dram = true;
    dram_used_bytes_ += b.bytes;
    dram_peak_bytes_ = std::max(dram_peak_bytes_, dram_used_bytes_);
    // The cold_tick survives the migration, so DRAM eviction order is
    // the same global release order the HBM cold list uses.
    dram_lru_.emplace(b.cold_tick, id);
    ++demoted_blocks_;
    demoted_bytes_ += b.bytes;
}

void
KvPool::evictDramLru()
{
    SPATTEN_ASSERT(!dram_lru_.empty(),
                   "DRAM-tier eviction with an empty cold tier");
    const auto it = dram_lru_.begin();
    const std::uint32_t id = it->second;
    dram_lru_.erase(it);
    Block& b = blocks_[id];
    SPATTEN_ASSERT(b.refs == 0 && b.cached && b.in_dram,
                   "non-DRAM block %u on the DRAM LRU list", id);
    SPATTEN_ASSERT(dram_used_bytes_ >= b.bytes,
                   "DRAM tier byte underflow");
    dram_used_bytes_ -= b.bytes;
    prefix_index_.erase(b.hash);
    ++evicted_blocks_;
    // Not freeBlock(): the block never re-entered the hot tier, so
    // there are no HBM bytes to return — only the table slot.
    b = Block{};
    free_blocks_.push_back(id);
}

std::uint32_t
KvPool::newBlock(std::uint64_t bytes)
{
    std::uint32_t id;
    if (!free_blocks_.empty()) {
        id = free_blocks_.back();
        free_blocks_.pop_back();
    } else {
        id = static_cast<std::uint32_t>(blocks_.size());
        blocks_.emplace_back();
    }
    blocks_[id] = Block{};
    blocks_[id].bytes = bytes;
    blocks_[id].refs = 1;
    touchCharge(bytes);
    return id;
}

void
KvPool::derefBlock(std::uint32_t id)
{
    Block& b = blocks_[id];
    SPATTEN_ASSERT(b.refs >= 1, "KV block %u refcount underflow", id);
    if (--b.refs > 0)
        return;
    if (b.cached) {
        // Last holder gone: the block stays resident as a cold cache
        // entry, reclaimable LRU-first when an allocation needs room.
        b.cold_tick = tick_++;
        cold_bytes_ += b.bytes;
        cold_blocks_.emplace(b.cold_tick, id);
        return;
    }
    freeBlock(id);
}

void
KvPool::freeBlock(std::uint32_t id)
{
    Block& b = blocks_[id];
    SPATTEN_ASSERT(used_bytes_ >= b.bytes, "KV pool byte underflow");
    used_bytes_ -= b.bytes;
    b = Block{};
    free_blocks_.push_back(id);
}

void
KvPool::touchCharge(std::uint64_t bytes)
{
    used_bytes_ += bytes;
    peak_bytes_ = std::max(peak_bytes_, used_bytes_);
}

std::vector<std::uint32_t>
KvPool::sharedBlockRefs(std::size_t id) const
{
    const auto it = held_.find(id);
    SPATTEN_ASSERT(it != held_.end(),
                   "request %zu has no KV reservation", id);
    std::vector<std::uint32_t> refs;
    refs.reserve(it->second.prefix_blocks.size());
    for (const std::uint32_t bid : it->second.prefix_blocks)
        refs.push_back(blocks_[bid].refs);
    return refs;
}

bool
KvPool::tryReserve(std::size_t id, const ModelSpec& model,
                   std::size_t tokens)
{
    SPATTEN_ASSERT(held_.count(id) == 0,
                   "request %zu already holds a KV reservation", id);
    const std::uint64_t need = bytesForTokens(model, tokens);
    if (!canAllocate(need))
        return false;
    makeRoom(need);
    Reservation res;
    res.tokens = tokens;
    res.block_bytes = blockBytes(model);
    res.private_blocks = blocksFor(tokens);
    touchCharge(need);
    held_.emplace(id, std::move(res));
    return true;
}

KvPool::PrefixReservation
KvPool::tryReservePrefix(std::size_t id, const ModelSpec& model,
                         TokenSpan prompt_tokens)
{
    SPATTEN_ASSERT(held_.count(id) == 0,
                   "request %zu already holds a KV reservation", id);
    const std::size_t n = prompt_tokens.size();
    SPATTEN_ASSERT(n >= 1, "prefix reservation with no prompt tokens");
    const std::size_t bt = cfg_.block_tokens;
    const std::uint64_t bb = blockBytes(model);
    const std::size_t complete = n / bt;
    const std::size_t total = blocksFor(n);

    // ---- Walk the chain: longest cached block prefix ----
    std::vector<std::uint64_t>& hashes = walk_hashes_;
    std::vector<std::uint32_t>& shared = walk_shared_;
    hashes.resize(complete);
    shared.clear();
    std::uint64_t h = 0;
    std::size_t matched = 0;
    bool chain_alive = true;
    for (std::size_t i = 0; i < complete; ++i) {
        h = chainHash(h, model, prompt_tokens.data() + i * bt, bt);
        hashes[i] = h;
        if (!chain_alive)
            continue;
        const auto it = prefix_index_.find(h);
        if (it == prefix_index_.end()) {
            chain_alive = false;
            continue;
        }
        const Block& b = blocks_[it->second];
        if (b.bytes != bb ||
            !std::equal(b.tokens.begin(), b.tokens.end(),
                        prompt_tokens.begin() +
                            static_cast<std::ptrdiff_t>(i * bt))) {
            // Hash collision: different content behind the same chain
            // key. Fall back to private blocks from here on.
            chain_alive = false;
            continue;
        }
        shared.push_back(it->second);
        ++matched;
    }

    // ---- Budget check: the non-shared blocks are charged, and so are
    // the matched blocks the DRAM tier must promote back — both tiers
    // gate the admission. Reference the matched blocks first so a cold
    // hit cannot be counted as evictable room for its own admission,
    // and pull DRAM-resident ones off the DRAM LRU so the demotions
    // makeRoom may trigger can never evict a block this admission is
    // about to promote. ----
    std::uint64_t promote_bytes = 0;
    for (const std::uint32_t bid : shared) {
        Block& b = blocks_[bid];
        if (b.refs == 0) {
            if (b.in_dram) {
                dram_lru_.erase(b.cold_tick);
                dram_used_bytes_ -= b.bytes;
                promote_bytes += b.bytes;
            } else {
                cold_blocks_.erase(b.cold_tick);
                cold_bytes_ -= b.bytes;
            }
        }
        ++b.refs;
    }
    const std::uint64_t need =
        (total - matched) * bb + promote_bytes;
    if (!canAllocate(need)) {
        // Roll back: un-reference. DRAM residents (in_dram still set —
        // the promote step below never ran) return to the DRAM LRU at
        // their unchanged cold_tick; HBM residents take the ordinary
        // deref path back onto the cold list.
        for (const std::uint32_t bid : shared) {
            Block& b = blocks_[bid];
            if (!b.in_dram) {
                derefBlock(bid);
                continue;
            }
            SPATTEN_ASSERT(b.refs >= 1,
                           "KV block %u refcount underflow", bid);
            if (--b.refs == 0) {
                dram_lru_.emplace(b.cold_tick, bid);
                dram_used_bytes_ += b.bytes;
            }
        }
        return {};
    }
    makeRoom(need);
    // Promote the DRAM-resident matched blocks into the hot tier; the
    // bytes were part of `need`, so they fit.
    for (const std::uint32_t bid : shared) {
        Block& b = blocks_[bid];
        if (!b.in_dram)
            continue;
        b.in_dram = false;
        touchCharge(b.bytes);
        ++promoted_blocks_;
        promoted_bytes_ += b.bytes;
    }

    // ---- Allocate the tail: register unmatched complete blocks in
    // the index; the partial last block (and any collision fallback)
    // stays anonymous-private ----
    Reservation res;
    res.tokens = n;
    res.block_bytes = bb;
    res.prefix_blocks.reserve(complete);
    res.prefix_blocks.assign(shared.begin(), shared.end());
    bool registering = true;
    for (std::size_t i = matched; i < complete; ++i) {
        if (registering && prefix_index_.count(hashes[i]) != 0)
            registering = false; // Collision: key occupied downstream.
        if (!registering) {
            ++res.private_blocks;
            touchCharge(bb);
            continue;
        }
        const std::uint32_t bid = newBlock(bb);
        Block& b = blocks_[bid];
        b.cached = true;
        b.hash = hashes[i];
        b.tokens.assign(prompt_tokens.begin() +
                            static_cast<std::ptrdiff_t>(i * bt),
                        prompt_tokens.begin() +
                            static_cast<std::ptrdiff_t>((i + 1) * bt));
        prefix_index_.emplace(hashes[i], bid);
        res.prefix_blocks.push_back(bid);
    }
    if (total > complete) {
        ++res.private_blocks;
        touchCharge(bb);
    }
    PrefixReservation out;
    out.ok = true;
    out.cached_tokens = matched * bt;
    out.shared_bytes = matched * bb;
    out.promoted_bytes = promote_bytes;
    held_.emplace(id, std::move(res));
    return out;
}

bool
KvPool::tryResize(std::size_t id, const ModelSpec& model,
                  std::size_t tokens)
{
    const auto it = held_.find(id);
    SPATTEN_ASSERT(it != held_.end(),
                   "request %zu resized without a KV reservation", id);
    Reservation& res = it->second;
    const std::uint64_t bb = blockBytes(model);
    SPATTEN_ASSERT(bb == res.block_bytes,
                   "request %zu resized under a different model", id);
    (void)bytesForTokens(model, tokens); // Overflow guard.
    const std::size_t needed =
        blocksFor(tokens);
    const std::size_t cur = res.prefix_blocks.size() + res.private_blocks;

    if (tokens >= res.tokens) {
        // Append-only growth: the shared prefix stays valid; the tail
        // grows with anonymous private blocks.
        const std::uint64_t need =
            (needed - cur) * bb;
        if (!canAllocate(need))
            return false;
        makeRoom(need);
        touchCharge(need);
        res.private_blocks += needed - cur;
        res.tokens = tokens;
        return true;
    }

    if (res.prefix_blocks.empty()) {
        // Fully private shrink: free tail blocks; never fails.
        SPATTEN_ASSERT(res.private_blocks == cur && cur >= needed,
                       "private shrink bookkeeping broken");
        const std::uint64_t freed =
            (cur - needed) * bb;
        SPATTEN_ASSERT(used_bytes_ >= freed, "KV pool byte underflow");
        used_bytes_ -= freed;
        res.private_blocks = needed;
        res.tokens = tokens;
        return true;
    }

    // Copy-on-write: cascade pruning shrank the resident KV, so its
    // content diverged from the cached prefix. Copy the still-needed
    // shared blocks into private ones and drop the references; the
    // cached originals stay in the index for future admissions.
    const std::size_t reuse = std::min(res.private_blocks, needed);
    const std::size_t copies = needed - reuse;
    for (const std::uint32_t bid : res.prefix_blocks)
        derefBlock(bid);
    const std::uint64_t need = static_cast<std::uint64_t>(copies) * bb;
    if (!canAllocate(need)) {
        // Roll the divergence back: every dereferenced block is cached
        // (prefix blocks always are), so it survived as a cold entry
        // and can simply be re-referenced.
        for (const std::uint32_t bid : res.prefix_blocks) {
            Block& b = blocks_[bid];
            if (b.refs == 0) {
                cold_blocks_.erase(b.cold_tick);
                cold_bytes_ -= b.bytes;
            }
            ++b.refs;
        }
        return false;
    }
    makeRoom(need); // May reclaim the just-dereferenced originals.
    touchCharge(need);
    cow_copied_blocks_ += copies;
    if (res.private_blocks > needed) {
        const std::uint64_t freed =
            (res.private_blocks - needed) * bb;
        SPATTEN_ASSERT(used_bytes_ >= freed, "KV pool byte underflow");
        used_bytes_ -= freed;
    }
    res.prefix_blocks.clear();
    res.private_blocks = needed;
    res.tokens = tokens;
    return true;
}

void
KvPool::release(std::size_t id)
{
    const auto it = held_.find(id);
    SPATTEN_ASSERT(it != held_.end(),
                   "request %zu released without a KV reservation", id);
    Reservation& res = it->second;
    for (const std::uint32_t bid : res.prefix_blocks)
        derefBlock(bid);
    const std::uint64_t freed =
        res.private_blocks * res.block_bytes;
    SPATTEN_ASSERT(used_bytes_ >= freed, "KV pool byte underflow");
    used_bytes_ -= freed;
    held_.erase(it);
}

} // namespace spatten
