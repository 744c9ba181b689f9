#include "gate.hpp"

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

namespace perfbench {

namespace {

using spatten::ServedRequest;
using spatten::ServeReport;

constexpr std::size_t kMaxErrors = 8;

/** FNV-1a over the bytes of every value fed to it. */
class Hasher
{
  public:
    template <class T>
    Hasher& operator<<(const T& v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "hash fields one scalar at a time");
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes)
            h_ = (h_ ^ b) * 0x100000001b3ULL;
        return *this;
    }
    Hasher& operator<<(const std::string& s)
    {
        *this << s.size();
        for (char c : s)
            *this << c;
        return *this;
    }
    template <class T>
    Hasher& operator<<(const std::vector<T>& v)
    {
        *this << v.size();
        for (const T& x : v)
            *this << x;
        return *this;
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
digestOf(const ServedRequest& r)
{
    Hasher h;
    h << r.id << r.accel << r.phase << r.priority << r.arrival_s
      << r.admit_s << r.first_token_s << r.finish_s << r.service_seconds
      << r.preemptions << r.recompute_tokens << r.cached_prefix_tokens
      << r.prefill_chunks << r.tokens << r.token_times_s << r.kv_trace;
    const spatten::RunResult& s = r.sim;
    h << s.workload << s.cycles << s.seconds << s.summarize_seconds
      << s.generate_seconds << s.attention_flops << s.attention_flops_dense
      << s.dram_bytes << s.dram_bytes_dense;
    const spatten::EnergyReport& e = s.energy;
    h << e.qk_j << e.pv_j << e.softmax_j << e.topk_j << e.fetcher_j
      << e.sram_j << e.dram_j << e.migration_j << e.leakage_j << e.seconds;
    for (const auto& [name, value] : s.stats.all())
        h << name << value;
    return h.value();
}

std::string
requestError(const spatten::TracedRequest& t, const ServedRequest& r)
{
    const std::string who = "request " + std::to_string(t.id) + ": ";
    if (r.phase != spatten::RequestPhase::Finished)
        return who + "not finished";
    if (r.arrival_s != t.arrival_s)
        return who + "arrival time differs from the trace";
    if (r.tokens != t.workload.generate_len)
        return who + std::to_string(r.tokens) + " tokens, expected " +
               std::to_string(t.workload.generate_len);
    if (r.token_times_s.size() != r.tokens)
        return who + "token count and token times disagree";
    if (r.admit_s < r.arrival_s)
        return who + "admitted before arrival";
    if (r.first_token_s < r.arrival_s)
        return who + "first token before arrival";
    for (std::size_t k = 1; k < r.token_times_s.size(); ++k)
        if (r.token_times_s[k] < r.token_times_s[k - 1])
            return who + "token times run backwards";
    if (!r.token_times_s.empty() &&
        (r.first_token_s != r.token_times_s.front() ||
         r.finish_s != r.token_times_s.back()))
        return who + "first/last token times disagree with the token trail";
    if (r.finish_s < r.first_token_s)
        return who + "finished before its first token";
    return {};
}

} // namespace

void
GateResult::fail(std::string why)
{
    if (errors.size() < kMaxErrors)
        errors.push_back(std::move(why));
    else if (errors.size() == kMaxErrors)
        errors.push_back("... further findings suppressed");
}

GateResult
checkReport(const std::vector<spatten::TracedRequest>& trace,
            const ServeReport& rep)
{
    GateResult g;
    g.attempted = trace.size();
    g.request_ok.assign(trace.size(), false);

    // Each trace id must own exactly one record: a missing record is an
    // unfinished request, a second one a duplicate finish.
    std::vector<std::size_t> records_of(trace.size(), 0);
    for (const ServedRequest& r : rep.requests) {
        if (r.id < trace.size())
            ++records_of[r.id];
        else
            g.fail("record for unknown request id " + std::to_string(r.id));
    }
    if (rep.requests.size() != trace.size())
        g.fail("report holds " + std::to_string(rep.requests.size()) +
               " request records for " + std::to_string(trace.size()) +
               " requests");

    std::size_t expected_tokens = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const spatten::TracedRequest& t = trace[i];
        expected_tokens += t.workload.generate_len;
        std::string why;
        if (t.id != i)
            why = "trace id " + std::to_string(t.id) + " at position " +
                  std::to_string(i);
        else if (records_of[i] != 1)
            why = "request " + std::to_string(i) + " finished " +
                  std::to_string(records_of[i]) + " times";
        else if (i >= rep.requests.size() || rep.requests[i].id != i)
            why = "request " + std::to_string(i) + " out of trace order";
        else
            why = requestError(t, rep.requests[i]);
        if (why.empty()) {
            g.request_ok[i] = true;
        } else {
            ++g.failed;
            g.fail(why);
        }
    }
    if (rep.total_tokens != expected_tokens)
        g.fail("report counts " + std::to_string(rep.total_tokens) +
               " tokens, the trace asks for " +
               std::to_string(expected_tokens));
    return g;
}

std::size_t
sloMet(const ServeReport& rep, const GateResult& gate,
       const spatten::ContinuousBatchConfig& sched)
{
    std::size_t met = 0;
    for (std::size_t i = 0; i < gate.request_ok.size(); ++i) {
        if (!gate.request_ok[i])
            continue;
        const ServedRequest& r = rep.requests[i];
        if (r.ttftSeconds() <= sched.slo_ttft_s &&
            (r.tokens < 2 || r.avgItlSeconds() <= sched.slo_itl_s))
            ++met;
    }
    return met;
}

ReportDigest
digestOf(const ServeReport& rep)
{
    ReportDigest d;
    d.requests.reserve(rep.requests.size());
    for (const ServedRequest& r : rep.requests)
        d.requests.push_back(digestOf(r));

    Hasher h;
    h << rep.makespan_s << rep.ttft_p50_s << rep.ttft_p99_s << rep.itl_p50_s
      << rep.itl_p99_s << rep.req_itl_p99_p50_s << rep.req_itl_p99_p99_s
      << rep.queue_delay_p50_s << rep.queue_delay_p99_s
      << rep.throughput_rps << rep.goodput_rps << rep.slo_met
      << rep.tokens_per_s << rep.total_tokens << rep.accel_busy_s
      << rep.accel_util << rep.accel_requests << rep.total_cycles
      << rep.total_energy_j << rep.total_flops << rep.dram_reduction;
    h << rep.accel_names << rep.preemptions << rep.recompute_tokens << rep.peak_concurrency
      << rep.kv_capacity_bytes << rep.accel_kv_capacity_bytes
      << rep.kv_peak_bytes << rep.kv_mean_bytes << rep.prefix_cache_hits
      << rep.prefix_cached_tokens << rep.prefix_shared_bytes
      << rep.cow_copied_blocks << rep.kv_evicted_blocks
      << rep.kv_dram_capacity_bytes << rep.kv_dram_peak_bytes
      << rep.kv_demoted_blocks << rep.kv_promoted_blocks
      << rep.kv_demoted_bytes << rep.kv_promoted_bytes
      << rep.kv_migrated_bytes << rep.migration_energy_j
      << rep.promotion_stall_s;
    d.aggregate = h.value();
    return d;
}

std::string
firstDifference(const ReportDigest& a, const ReportDigest& b)
{
    if (a.requests.size() != b.requests.size())
        return "request record counts differ (" +
               std::to_string(a.requests.size()) + " vs " +
               std::to_string(b.requests.size()) + ")";
    for (std::size_t i = 0; i < a.requests.size(); ++i)
        if (a.requests[i] != b.requests[i])
            return "request record " + std::to_string(i) + " differs";
    if (a.aggregate != b.aggregate)
        return "run-level report fields differ";
    return {};
}

} // namespace perfbench
