#include "traced_backend.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

std::size_t
index(Call call)
{
    return static_cast<std::size_t>(call);
}

/** One request's session behind the decorator. */
class TracedSession final : public spatten::BackendSession
{
  public:
    TracedSession(std::unique_ptr<spatten::BackendSession> inner,
                  HostLedger& ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    ~TracedSession() override
    {
        const auto t0 = Clock::now();
        inner_.reset();
        ledger_.add(Call::Destroy, 0, nsSince(t0));
    }

    TracedSession(const TracedSession&) = delete;
    TracedSession& operator=(const TracedSession&) = delete;
    TracedSession(TracedSession&&) = delete;
    TracedSession& operator=(TracedSession&&) = delete;

    double prefill() override
    {
        const auto t0 = Clock::now();
        const double s = inner_->prefill();
        ledger_.add(Call::Prefill, inner_->workload().summarize_len,
                    nsSince(t0));
        return s;
    }

    double prefillWithCachedPrefix(std::size_t cached_prefix_tokens) override
    {
        const auto t0 = Clock::now();
        const double s = inner_->prefillWithCachedPrefix(cached_prefix_tokens);
        ledger_.add(Call::Prefill,
                    inner_->workload().summarize_len - cached_prefix_tokens,
                    nsSince(t0));
        return s;
    }

    double prefillChunk(std::size_t offset, std::size_t len) override
    {
        const auto t0 = Clock::now();
        const double s = inner_->prefillChunk(offset, len);
        ledger_.add(Call::Chunk, len, nsSince(t0));
        return s;
    }

    double decodeStep() override
    {
        const auto t0 = Clock::now();
        const double s = inner_->decodeStep();
        ledger_.add(Call::Decode, 1, nsSince(t0));
        return s;
    }

    bool prefilled() const override { return inner_->prefilled(); }
    bool done() const override { return inner_->done(); }
    std::size_t kvLength() const override { return inner_->kvLength(); }
    const std::vector<std::size_t>& kvTrace() const override
    {
        return inner_->kvTrace();
    }
    const spatten::WorkloadSpec& workload() const override
    {
        return inner_->workload();
    }

    spatten::RunResult finalize() const override
    {
        const auto t0 = Clock::now();
        spatten::RunResult r = inner_->finalize();
        ledger_.add(Call::Finalize, 0, nsSince(t0));
        return r;
    }

    spatten::BackendSession* inner() const { return inner_.get(); }

  private:
    std::unique_ptr<spatten::BackendSession> inner_;
    HostLedger& ledger_;
};

} // namespace

void
HostLedger::add(Call call, std::uint64_t units, std::uint64_t ns)
{
    Counters& c = counters_[index(call)];
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.units.fetch_add(units, std::memory_order_relaxed);
    c.ns.fetch_add(ns, std::memory_order_relaxed);
}

LedgerTotals
HostLedger::totals() const
{
    LedgerTotals t;
    for (std::size_t i = 0; i < kNumCalls; ++i) {
        t[i].calls = counters_[i].calls.load(std::memory_order_relaxed);
        t[i].units = counters_[i].units.load(std::memory_order_relaxed);
        t[i].ns = counters_[i].ns.load(std::memory_order_relaxed);
    }
    return t;
}

TracedBackend::TracedBackend(
    std::shared_ptr<const spatten::AcceleratorBackend> inner)
    : inner_(std::move(inner))
{
    if (!inner_)
        throw std::invalid_argument("TracedBackend: null inner backend");
}

std::string
TracedBackend::backendName() const
{
    return inner_->backendName();
}

spatten::BackendCapabilities
TracedBackend::capabilities() const
{
    return inner_->capabilities();
}

std::uint64_t
TracedBackend::capacityBytes() const
{
    return inner_->capacityBytes();
}

std::size_t
TracedBackend::kvBytesPerElem() const
{
    return inner_->kvBytesPerElem();
}

std::unique_ptr<spatten::BackendSession>
TracedBackend::makeSession(const spatten::WorkloadSpec& workload,
                           const spatten::PruningPolicy& policy,
                           std::uint64_t request_seed) const
{
    const auto t0 = Clock::now();
    auto inner = inner_->makeSession(workload, policy, request_seed);
    ledger_.add(Call::Make, 0, nsSince(t0));
    return std::make_unique<TracedSession>(std::move(inner), ledger_);
}

void
TracedBackend::stepDecodeBatch(
    const std::vector<spatten::BackendSession*>& lanes,
    std::vector<double>& seconds_out) const
{
    // Forward the inner sessions: a backend's batched path recognises
    // only its own session type and would silently fall back to serial
    // steps on wrapped lanes.
    std::vector<spatten::BackendSession*> inner_lanes(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const auto* traced = dynamic_cast<const TracedSession*>(lanes[i]);
        if (!traced)
            throw std::logic_error(
                "TracedBackend::stepDecodeBatch: lane was not made by "
                "this decorator");
        inner_lanes[i] = traced->inner();
    }
    const auto t0 = Clock::now();
    inner_->stepDecodeBatch(inner_lanes, seconds_out);
    ledger_.add(Call::DecodeBatch, lanes.size(), nsSince(t0));
}

std::vector<std::shared_ptr<const TracedBackend>>
traceFleet(const spatten::AcceleratorFleet& fleet)
{
    std::vector<std::shared_ptr<const TracedBackend>> traced;
    traced.reserve(fleet.size());
    for (const auto& slot : fleet)
        traced.push_back(std::make_shared<const TracedBackend>(slot));
    return traced;
}

spatten::AcceleratorFleet
asFleet(const std::vector<std::shared_ptr<const TracedBackend>>& traced)
{
    return spatten::AcceleratorFleet(traced.begin(), traced.end());
}

LedgerTotals
sumLedgers(const std::vector<std::shared_ptr<const TracedBackend>>& traced,
           const std::string& backend_name)
{
    LedgerTotals sum{};
    for (const auto& slot : traced) {
        if (!backend_name.empty() && slot->backendName() != backend_name)
            continue;
        const LedgerTotals t = slot->ledger().totals();
        for (std::size_t i = 0; i < kNumCalls; ++i)
            sum[i] += t[i];
    }
    return sum;
}

std::uint64_t
totalNs(const LedgerTotals& totals)
{
    std::uint64_t ns = 0;
    for (const CallTotals& t : totals)
        ns += t.ns;
    return ns;
}

} // namespace perfbench
