/**
 * @file
 * Deterministic pseudo-random number generator used across the repo so that
 * every experiment is reproducible bit-for-bit from a seed.
 *
 * Implements xoshiro256** (Blackman & Vigna), seeded via splitmix64.
 */
#ifndef SPATTEN_COMMON_PRNG_HPP
#define SPATTEN_COMMON_PRNG_HPP

#include <cstdint>

namespace spatten {

/// Default per-request seed shared by every public simulation API
/// (e2e, accelerator facade, decode session, serving backends),
/// so the entry points can never drift to different defaults.
constexpr std::uint64_t kDefaultRequestSeed = 0x5eed;

/**
 * splitmix64 finalizer: the one 64-bit mixing step behind seed
 * derivation, KV prefix chain hashes, and synthetic token-content ids.
 * A single definition so golden-pinned values (block identities, trace
 * tokens) can never drift between private copies.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * xoshiro256** PRNG. Satisfies the UniformRandomBitGenerator concept so it
 * can be used with <random> distributions, but the helpers below are
 * preferred because their output is stable across standard libraries.
 * The raw step and uniform() are inline: trace generators draw several
 * values per request and a call per draw costs as much as the draw.
 */
class Prng
{
  public:
    using result_type = std::uint64_t;

    /**
     * A below() bound with its rejection limit computed once, for loops
     * that draw many values under one bound (a trace's output lengths).
     */
    class Bound
    {
      public:
        /** @pre n > 0. */
        explicit Bound(std::uint64_t n);

      private:
        friend class Prng;
        std::uint64_t n_;
        std::uint64_t limit_; ///< Raw draws at or above it are rejected.
    };

    explicit Prng(std::uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void reseed(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit output. */
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits -> [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) for the bound's n: rejection sampling
     *  against its limit avoids modulo bias. */
    std::uint64_t below(const Bound& bound)
    {
        std::uint64_t x = next();
        while (x >= bound.limit_)
            x = next();
        return x % bound.n_;
    }

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t below(std::uint64_t n) { return below(Bound(n)); }

    /** Uniform integer in [lo, hi] inclusive; the full int64 range is
     *  one raw draw. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (stable across platforms). */
    double gaussian();

    /** Gaussian with given mean and stddev. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

  private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    std::uint64_t state_[4];
    bool has_spare_ = false;
    double spare_ = 0.0;
};

} // namespace spatten

#endif // SPATTEN_COMMON_PRNG_HPP
