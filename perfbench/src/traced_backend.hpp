/**
 * @file
 * A timing decorator for the serving contract.
 *
 * TracedBackend wraps one fleet slot's AcceleratorBackend and times every
 * public call the scheduler makes through it — makeSession, the prompt
 * passes, per-session and batched decode steps, finalize, and the
 * session's destruction — on the host's steady clock. Everything else
 * the scheduler does during ContinuousBatchScheduler::run (coordinator,
 * admission, KvPool, report assembly) is its self time: run() wall time
 * minus the sum of these spans.
 *
 * The decorator is transparent: it forwards every call unchanged, and
 * stepDecodeBatch hands the *inner* sessions to the inner backend, so
 * SpAtten's layer-major batched path still recognises its own sessions.
 * Simulated results are therefore bit-identical to an unwrapped fleet.
 */
#ifndef PERFBENCH_TRACED_BACKEND_HPP
#define PERFBENCH_TRACED_BACKEND_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/accelerator_backend.hpp"
#include "serve/continuous_batch_scheduler.hpp"

namespace perfbench {

/** The timed public calls of the serving contract. */
enum class Call : std::size_t
{
    Make,        ///< AcceleratorBackend::makeSession.
    Prefill,     ///< prefill / prefillWithCachedPrefix (units: tokens).
    Chunk,       ///< prefillChunk (units: tokens).
    Decode,      ///< BackendSession::decodeStep (units: steps).
    DecodeBatch, ///< AcceleratorBackend::stepDecodeBatch (units: lanes).
    Finalize,    ///< BackendSession::finalize.
    Destroy,     ///< Session destruction; untimed, it would count as
                 ///< scheduler self time.
};
inline constexpr std::size_t kNumCalls = 7;

/** Totals of one call kind. */
struct CallTotals
{
    std::uint64_t calls = 0;
    std::uint64_t units = 0; ///< Tokens, steps or lanes (see Call).
    std::uint64_t ns = 0;    ///< Host nanoseconds inside the call.

    CallTotals& operator+=(const CallTotals& o)
    {
        calls += o.calls;
        units += o.units;
        ns += o.ns;
        return *this;
    }
};

/** Per-call totals of one fleet slot, or of a sum of slots. */
using LedgerTotals = std::array<CallTotals, kNumCalls>;

/**
 * Host-time accumulator of one fleet slot. Thread-safe: the scheduler's
 * StepPool helpers step sessions of one slot concurrently.
 */
class HostLedger
{
  public:
    void add(Call call, std::uint64_t units, std::uint64_t ns);
    LedgerTotals totals() const;

  private:
    struct Counters
    {
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::uint64_t> units{0};
        std::atomic<std::uint64_t> ns{0};
    };
    std::array<Counters, kNumCalls> counters_;
};

/** The timing decorator around one fleet slot's backend. */
class TracedBackend final : public spatten::AcceleratorBackend
{
  public:
    explicit TracedBackend(
        std::shared_ptr<const spatten::AcceleratorBackend> inner);

    std::string backendName() const override;
    spatten::BackendCapabilities capabilities() const override;
    std::uint64_t capacityBytes() const override;
    std::size_t kvBytesPerElem() const override;
    std::unique_ptr<spatten::BackendSession>
    makeSession(const spatten::WorkloadSpec& workload,
                const spatten::PruningPolicy& policy,
                std::uint64_t request_seed) const override;
    void stepDecodeBatch(const std::vector<spatten::BackendSession*>& lanes,
                         std::vector<double>& seconds_out) const override;

    const HostLedger& ledger() const { return ledger_; }

  private:
    std::shared_ptr<const spatten::AcceleratorBackend> inner_;
    /// Mutable: the serving contract's entry points are const, and the
    /// ledger is measurement state, not backend state.
    mutable HostLedger ledger_;
};

/** Wrap every slot of @p fleet in its own TracedBackend. */
std::vector<std::shared_ptr<const TracedBackend>>
traceFleet(const spatten::AcceleratorFleet& fleet);

/** The traced slots as a fleet the scheduler accepts. */
spatten::AcceleratorFleet
asFleet(const std::vector<std::shared_ptr<const TracedBackend>>& traced);

/**
 * Sum the ledgers of @p traced, keeping only slots whose backendName()
 * equals @p backend_name (every slot when it is empty).
 */
LedgerTotals
sumLedgers(const std::vector<std::shared_ptr<const TracedBackend>>& traced,
           const std::string& backend_name = {});

/** Host nanoseconds across every call kind of @p totals. */
std::uint64_t totalNs(const LedgerTotals& totals);

} // namespace perfbench

#endif // PERFBENCH_TRACED_BACKEND_HPP
