#include "accel/decode_session.hpp"

#include "common/logging.hpp"

namespace spatten {

DecodeSession::DecodeSession(const SpAttenConfig& cfg,
                             const WorkloadSpec& workload,
                             const PruningPolicy& policy,
                             std::uint64_t request_seed, CarryRule rule)
    : ProtocolSession(workload), graph_(cfg, workload, policy, request_seed),
      rule_(rule)
{
    // The unpruned trajectory peaks at summarize + generate tokens; the
    // pruned one only shrinks from there, so this bound covers both.
    SPATTEN_ASSERT(workload.summarize_len + workload.generate_len <=
                       cfg.max_context,
                   "context %zu exceeds SRAM-backed max %zu",
                   workload.summarize_len + workload.generate_len,
                   cfg.max_context);
}

double
DecodeSession::chunkPass(std::size_t offset, std::size_t len)
{
    const double before = graph_.elapsedSeconds();
    graph_.runPass(len, offset + len, false);
    // Cumulative: nothing but prefill chunks has run on the graph yet,
    // so the graph's elapsed time *is* the prefill share — and it is
    // already correct at a mid-prefill eviction's finalize().
    prefill_seconds_ = graph_.elapsedSeconds();
    return graph_.elapsedSeconds() - before;
}

double
DecodeSession::decodePass(std::size_t ctx)
{
    const double before = graph_.elapsedSeconds();
    graph_.runPass(1, ctx, true);
    return graph_.elapsedSeconds() - before;
}

RunResult
DecodeSession::finalize() const
{
    // No prefilled() assert: a session evicted mid-prefill (between
    // chunks) finalizes too, accounting the wasted partial pass.
    RunResult res;
    res.workload = workload().name;
    res.summarize_seconds = prefill_seconds_;
    res.generate_seconds = graph_.elapsedSeconds() - prefill_seconds_;
    graph_.finalize(res);
    return res;
}

} // namespace spatten
