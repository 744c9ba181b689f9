#include "serve/accelerator_backend.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace spatten {

ProtocolSession::ProtocolSession(const WorkloadSpec& workload)
    : workload_(workload)
{
    SPATTEN_ASSERT(workload_.summarize_len >= 1, "empty prompt");
}

double
ProtocolSession::prefillWithCachedPrefix(std::size_t cached_prefix_tokens)
{
    SPATTEN_ASSERT(!prefilled_, "prefill() called twice");
    if (workload_.skip_summarization)
        return prefillChunk(0, workload_.summarize_len);
    const std::size_t cached =
        std::min(cached_prefix_tokens, workload_.summarize_len - 1);
    return prefillChunk(cached, workload_.summarize_len - cached);
}

double
ProtocolSession::prefillChunk(std::size_t offset, std::size_t len)
{
    SPATTEN_ASSERT(!prefilled_, "prefillChunk() after prefill completed");
    const std::size_t prompt = workload_.summarize_len;
    SPATTEN_ASSERT(len >= 1 && offset + len <= prompt,
                   "chunk [%zu, %zu) outside the %zu-token prompt",
                   offset, offset + len, prompt);
    SPATTEN_ASSERT(prefill_pos_ == 0 || offset == prefill_pos_,
                   "non-contiguous chunk at %zu (expected %zu)", offset,
                   prefill_pos_);
    if (workload_.skip_summarization) {
        prefilled_ = true;
        prefill_pos_ = prompt;
        kv_len_ = prompt;
        kv_trace_.push_back(kv_len_);
        return 0.0;
    }
    const double s = chunkPass(offset, len);
    prefill_pos_ = offset + len;
    if (prefill_pos_ == prompt) {
        prefilled_ = true;
        kv_len_ = survivors(prompt);
        kv_trace_.push_back(kv_len_);
    }
    return s;
}

double
ProtocolSession::decodeStep()
{
    SPATTEN_ASSERT(prefilled_, "decodeStep() before prefill()");
    SPATTEN_ASSERT(!done(), "decodeStep() past generate_len");
    const double seconds = decodePass(kv_len_ + 1);
    kv_len_ = survivors(kv_len_ + 1);
    kv_trace_.push_back(kv_len_);
    ++tokens_;
    return seconds;
}

} // namespace spatten
