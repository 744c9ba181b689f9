/// Batched decode-step evaluation: the scheduler advances every
/// prefilled resident through one AcceleratorBackend::stepDecodeBatch
/// call per iteration, mixed prefill+decode iterations included, and a
/// SpAtten lane's step inside that call is the session's own
/// decodeStep() — memo replay included, bit-identical to a session
/// stepped with the memo off. Thread, shard, chunked-prefill and
/// prefix-cache invariance of the served report are pinned in
/// test_continuous_scheduler.cpp and test_chunked_prefill.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"
#include "serve/continuous_batch_scheduler.hpp"

namespace spatten {
namespace {

ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

WorkloadSpec
laneWorkload(std::size_t prompt, std::size_t gen, const char* name)
{
    WorkloadSpec w;
    w.name = name;
    w.model = tinyModel();
    w.summarize_len = prompt;
    w.generate_len = gen;
    return w;
}

// ---------------------------------------------------------------------
// Backend level: memo replay inside a batch == memo off
// ---------------------------------------------------------------------

void
expectSameSession(const DecodeSession& a, const DecodeSession& b)
{
    EXPECT_EQ(a.kvTrace(), b.kvTrace());
    const RunResult ra = a.finalize();
    const RunResult rb = b.finalize();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.seconds, rb.seconds);
    EXPECT_EQ(ra.dram_bytes, rb.dram_bytes);
    EXPECT_EQ(ra.attention_flops, rb.attention_flops);
    EXPECT_EQ(ra.energy.totalJ(), rb.energy.totalJ());
    ASSERT_EQ(ra.stats.all().size(), rb.stats.all().size());
    auto ita = ra.stats.all().begin();
    for (auto itb = rb.stats.all().begin(); itb != rb.stats.all().end();
         ++ita, ++itb) {
        EXPECT_EQ(ita->first, itb->first);
        EXPECT_EQ(ita->second, itb->second) << "stat " << ita->first;
    }
}

TEST(BatchedDecode, MemoReplayInABatchMatchesMemoOff)
{
    // A pruned veteran settles into the memo's steady state, then a
    // fresh lane joins its batch and records while the veteran keeps
    // replaying. Each lane must match a twin stepped with the memo off.
    const SpAttenAccelerator accel;
    const SpAttenConfig& cfg = accel.config();
    const WorkloadSpec vet_w = laneWorkload(96, 16, "veteran");
    const WorkloadSpec rook_w = laneWorkload(64, 8, "rookie");
    DecodeSession vet(cfg, vet_w, PruningPolicy{}, 7);
    DecodeSession vet_off(cfg, vet_w, PruningPolicy{}, 7);
    DecodeSession rook(cfg, rook_w, PruningPolicy{}, 9);
    DecodeSession rook_off(cfg, rook_w, PruningPolicy{}, 9);
    vet_off.setStepMemo(false);
    rook_off.setStepMemo(false);
    for (DecodeSession* s : {&vet, &vet_off, &rook, &rook_off})
        s->prefill();

    const std::size_t join = vet_w.generate_len - rook_w.generate_len;
    std::vector<double> secs;
    std::size_t solo_replays = 0;
    for (std::size_t step = 0; step < vet_w.generate_len; ++step) {
        std::vector<BackendSession*> lanes = {&vet};
        std::vector<DecodeSession*> twins = {&vet_off};
        if (step == join)
            solo_replays = vet.memoReplays();
        if (step >= join) {
            lanes.push_back(&rook);
            twins.push_back(&rook_off);
        }
        accel.stepDecodeBatch(lanes, secs);
        ASSERT_EQ(secs.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i)
            EXPECT_EQ(secs[i], twins[i]->decodeStep())
                << "lane " << i << " step " << step;
    }
    EXPECT_GT(vet.memoReplays(), solo_replays)
        << "the veteran must replay while sharing a batch";
    EXPECT_EQ(vet_off.memoReplays(), 0u);
    EXPECT_TRUE(vet.done());
    EXPECT_TRUE(rook.done());
    expectSameSession(vet, vet_off);
    expectSameSession(rook, rook_off);
}

// ---------------------------------------------------------------------
// Scheduler level: every decode step arrives through stepDecodeBatch
// ---------------------------------------------------------------------

std::vector<TracedRequest>
denseTrace(std::size_t n)
{
    ArrivalTraceConfig tc;
    tc.num_requests = n;
    tc.mean_interarrival_s = 0.05e-3;
    tc.seed = 0xbadc0de;
    tc.model = tinyModel();
    tc.min_prompt = 48;
    tc.max_prompt = 160;
    tc.min_output = 4;
    tc.max_output = 16;
    return generatePoissonTrace(tc);
}

void
expectSameReport(const ServeReport& a, const ServeReport& b)
{
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.accel_busy_s, b.accel_busy_s);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].first_token_s,
                  b.requests[i].first_token_s);
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
        EXPECT_EQ(a.requests[i].token_times_s,
                  b.requests[i].token_times_s);
        EXPECT_EQ(a.requests[i].service_seconds,
                  b.requests[i].service_seconds);
        EXPECT_EQ(a.requests[i].kv_trace, b.requests[i].kv_trace);
        EXPECT_EQ(a.requests[i].sim.cycles, b.requests[i].sim.cycles);
        EXPECT_EQ(a.requests[i].sim.energy.totalJ(),
                  b.requests[i].sim.energy.totalJ());
    }
}

/// The SpAtten backend, counting decode work by entry point: lanes
/// handed to stepDecodeBatch versus decodeStep() calls made on the
/// sessions directly.
class CountingBackend : public AcceleratorBackend
{
  public:
    std::string backendName() const override
    {
        return inner_.backendName();
    }
    BackendCapabilities capabilities() const override
    {
        return inner_.capabilities();
    }
    std::uint64_t capacityBytes() const override
    {
        return inner_.capacityBytes();
    }
    std::size_t kvBytesPerElem() const override
    {
        return inner_.kvBytesPerElem();
    }

    class Session : public BackendSession
    {
      public:
        Session(std::unique_ptr<BackendSession> inner,
                std::atomic<std::size_t>& direct_steps)
            : inner_(std::move(inner)), direct_steps_(direct_steps)
        {
        }
        double prefill() override { return inner_->prefill(); }
        double prefillWithCachedPrefix(std::size_t cached) override
        {
            return inner_->prefillWithCachedPrefix(cached);
        }
        double prefillChunk(std::size_t offset, std::size_t len) override
        {
            return inner_->prefillChunk(offset, len);
        }
        double decodeStep() override
        {
            ++direct_steps_;
            return inner_->decodeStep();
        }
        bool prefilled() const override { return inner_->prefilled(); }
        bool done() const override { return inner_->done(); }
        std::size_t kvLength() const override { return inner_->kvLength(); }
        const std::vector<std::size_t>& kvTrace() const override
        {
            return inner_->kvTrace();
        }
        const WorkloadSpec& workload() const override
        {
            return inner_->workload();
        }
        RunResult finalize() const override { return inner_->finalize(); }

        BackendSession* inner() const { return inner_.get(); }

      private:
        std::unique_ptr<BackendSession> inner_;
        std::atomic<std::size_t>& direct_steps_;
    };

    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override
    {
        return std::make_unique<Session>(
            inner_.makeSession(workload, policy, request_seed),
            direct_steps);
    }
    void stepDecodeBatch(const std::vector<BackendSession*>& lanes,
                         std::vector<double>& seconds_out) const override
    {
        std::vector<BackendSession*> inner_lanes;
        for (BackendSession* lane : lanes)
            inner_lanes.push_back(static_cast<Session*>(lane)->inner());
        batched_lanes += lanes.size();
        inner_.stepDecodeBatch(inner_lanes, seconds_out);
    }

    mutable std::atomic<std::size_t> batched_lanes{0};
    mutable std::atomic<std::size_t> direct_steps{0};

  private:
    SpAttenAccelerator inner_;
};

TEST(BatchedDecode, MixedIterationsDecodeThroughTheBatchedPath)
{
    const auto trace = denseTrace(16);
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.num_threads = 3;
    sc.prefill_chunk_tokens = 32;
    sc.iteration_token_budget = 48;
    const auto counting = std::make_shared<const CountingBackend>();
    const ServeReport rep =
        ContinuousBatchScheduler(AcceleratorFleet{counting}, sc).run(trace);

    std::size_t decoded = 0;
    std::size_t chunked = 0;
    for (const ServedRequest& r : rep.requests) {
        decoded += r.tokens + r.recompute_tokens;
        chunked += r.prefill_chunks > 1 ? 1 : 0;
    }
    ASSERT_GT(chunked, 0u) << "the fixture must split prompts into "
                              "chunks, or no iteration mixes work";
    EXPECT_EQ(counting->batched_lanes.load(), decoded);
    EXPECT_EQ(counting->direct_steps.load(), 0u);
    // Wrapping the backend changes nothing it serves.
    const AcceleratorFleet plain{
        std::make_shared<const SpAttenAccelerator>()};
    expectSameReport(ContinuousBatchScheduler(plain, sc).run(trace), rep);
}

} // namespace
} // namespace spatten
