#include "serve/continuous_batch_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "accel/spatten_accelerator.hpp"
#include "common/logging.hpp"
#include "serve/accelerator_backend.hpp"

namespace spatten {

namespace {

/** One in-flight request on one accelerator. */
struct ActiveSession
{
    std::size_t idx = 0; ///< Position in the trace (report index).
    std::uint64_t admit_seq = 0; ///< Global admission order (preemption
                                 ///< tie-break: evict the latest).
    std::size_t cached_prefix = 0; ///< Prompt tokens whose prefill the
                                   ///< shared-prefix cache skips.
    std::size_t prefill_pos = 0;   ///< Prompt tokens processed so far
                                   ///< (starts at cached_prefix; the
                                   ///< chunk stream begins at the
                                   ///< cached-prefix boundary).
    double promote_s = 0; ///< Pending DRAM -> HBM promotion latency:
                          ///< charged to this request's first prompt
                          ///< pass (the promoted prefix must land in
                          ///< HBM before the prefill can extend it).
    std::unique_ptr<BackendSession> session;
};

/** One simulated accelerator's private scheduling state. */
struct AccelState
{
    double clock_s = 0; ///< Simulated time cursor.
    double busy_s = 0;  ///< Time spent serving (vs idle waiting).
    std::vector<ActiveSession> active; ///< In admission order.
    std::deque<std::size_t> queue;     ///< Round-robin private feed.
    KvPool pool;                       ///< KV-capacity accounting.
    double kv_weighted_bytes_s = 0; ///< Integral of occupancy over busy
                                    ///< time (for the mean occupancy).
};

/** One prompt pass to simulate this iteration (decode steps go through
 *  the backend's batched lane API instead). */
struct StepJob
{
    BackendSession* session = nullptr;
    std::size_t member = 0; ///< Index into AccelState::active. Not every
                            ///< member gets a job every iteration once
                            ///< chunked prefill defers prompt work, so
                            ///< jobs are not parallel to active[].
    bool chunked = false; ///< prefillChunk(offset, len) instead of the
                          ///< monolithic prefillWithCachedPrefix path.
    std::size_t offset = 0; ///< Chunk-only: first prompt token.
    std::size_t len = 0;    ///< Chunk-only: chunk length.
    std::size_t cached_prefix = 0; ///< Monolithic-prefill-only.
    double seconds = 0; ///< Output: simulated step cost.
};

/**
 * Persistent helper-thread pool for the per-iteration prompt passes;
 * the calling thread advances the iteration's decode batch meanwhile.
 *
 * A scheduler run has one iteration per prefill/decode round — hundreds
 * for a modest trace — and each pass simulates only microseconds of
 * work, so spawning threads per iteration would cost more than it
 * saves. The pool keeps num_threads-1 helpers parked on a condition
 * variable; run() publishes a job batch (a "generation"), drains it
 * together with the helpers through an atomic cursor, and returns only
 * after every helper has finished the generation (which also makes the
 * next cursor reset race-free). Sessions are independent, each job
 * executes exactly once,
 * and outputs land in caller-fixed job slots, so the result is
 * identical at any thread count — parallelism here is pure wall-clock
 * speedup.
 */
class StepPool
{
  public:
    explicit StepPool(std::size_t num_threads)
    {
        const std::size_t helpers = num_threads > 1 ? num_threads - 1 : 0;
        helpers_.reserve(helpers);
        for (std::size_t i = 0; i < helpers; ++i)
            helpers_.emplace_back([this] { helperLoop(); });
    }

    ~StepPool()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        wake_cv_.notify_all();
        for (auto& t : helpers_)
            t.join();
    }

    /** Execute every job once and, on the calling thread, @p lanes'
     *  decode batch on @p backend; blocks until all are complete. */
    void run(std::vector<StepJob>& jobs, const AcceleratorBackend& backend,
             const std::vector<BackendSession*>& lanes,
             std::vector<double>& lane_seconds)
    {
        const auto decode = [&] {
            if (!lanes.empty())
                backend.stepDecodeBatch(lanes, lane_seconds);
        };
        // Helpers pay off only with at least two work items to overlap.
        if (helpers_.empty() || jobs.empty() ||
            (jobs.size() == 1 && lanes.empty())) {
            decode();
            for (auto& job : jobs)
                step(job);
            return;
        }
        {
            std::lock_guard<std::mutex> lk(m_);
            // Every helper finished the previous generation before the
            // previous run() returned, so resetting the shared cursor
            // is race-free.
            jobs_ = &jobs;
            cursor_.store(0, std::memory_order_relaxed);
            done_ = 0;
            ++generation_;
        }
        wake_cv_.notify_all();
        decode();
        drain(jobs); // The caller is a worker too.
        // Full rendezvous: wait until every helper has drained *this*
        // generation. Waiting merely for parked helpers would let a
        // slow helper that never started the generation park-count as
        // done and then dereference jobs_ after it was reset.
        std::unique_lock<std::mutex> lk(m_);
        idle_cv_.wait(lk, [&] { return done_ == helpers_.size(); });
        jobs_ = nullptr;
    }

  private:
    static void step(StepJob& job)
    {
        if (job.chunked)
            job.seconds = job.session->prefillChunk(job.offset, job.len);
        else
            job.seconds =
                job.session->prefillWithCachedPrefix(job.cached_prefix);
    }

    void drain(std::vector<StepJob>& jobs)
    {
        for (;;) {
            const std::size_t i =
                cursor_.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            step(jobs[i]);
        }
    }

    void helperLoop()
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(m_);
        for (;;) {
            wake_cv_.wait(lk,
                          [&] { return stop_ || generation_ != seen; });
            if (stop_)
                return;
            seen = generation_;
            std::vector<StepJob>& jobs = *jobs_;
            lk.unlock();
            drain(jobs);
            lk.lock();
            // Completing under the mutex publishes this helper's step
            // results to run()'s post-wait reads.
            ++done_;
            if (done_ == helpers_.size())
                idle_cv_.notify_one();
        }
    }

    std::vector<std::thread> helpers_;
    std::mutex m_;
    std::condition_variable wake_cv_; ///< Helpers wait for a generation.
    std::condition_variable idle_cv_; ///< run() waits for helpers to park.
    std::vector<StepJob>* jobs_ = nullptr;
    std::atomic<std::size_t> cursor_{0};
    std::uint64_t generation_ = 0;
    std::size_t done_ = 0; ///< Helpers finished with this generation.
    bool stop_ = false;
};

} // namespace

std::uint64_t
kvBudgetForWorstRequest(const std::vector<TracedRequest>& trace,
                        double headroom,
                        const ContinuousBatchConfig& sched,
                        std::size_t kv_bytes_per_elem)
{
    const KvPool probe({0, sched.kv_block_tokens, kv_bytes_per_elem});
    std::uint64_t worst = 0;
    for (const TracedRequest& r : trace)
        worst = std::max(worst, probe.bytesForTokens(
                                    r.workload.model,
                                    r.workload.summarize_len +
                                        r.workload.generate_len));
    return static_cast<std::uint64_t>(static_cast<double>(worst) *
                                      headroom);
}

namespace {

/// The homogeneous pool of the legacy constructor: one shared SpAtten
/// backend in every slot (sessions carry all per-request state).
AcceleratorFleet
spattenFleet(const SpAttenConfig& cfg, std::size_t num_accelerators)
{
    SPATTEN_ASSERT(num_accelerators >= 1, "empty accelerator pool");
    return AcceleratorFleet(
        num_accelerators, std::make_shared<const SpAttenAccelerator>(cfg));
}

} // namespace

ContinuousBatchScheduler::ContinuousBatchScheduler(
    SpAttenConfig cfg, ContinuousBatchConfig sched)
    : ContinuousBatchScheduler(spattenFleet(cfg, sched.num_accelerators),
                               sched)
{
}

ContinuousBatchScheduler::ContinuousBatchScheduler(
    AcceleratorFleet fleet, ContinuousBatchConfig sched)
    : fleet_(std::move(fleet)), sched_(sched)
{
    SPATTEN_ASSERT(!fleet_.empty(), "empty accelerator pool");
    for (const auto& backend : fleet_)
        SPATTEN_ASSERT(backend != nullptr, "null backend in fleet");
    sched_.num_accelerators = fleet_.size();
    SPATTEN_ASSERT(sched_.max_active >= 1, "batch width must be >= 1");
    SPATTEN_ASSERT(sched_.kv_block_tokens >= 1, "zero-token KV blocks");
    if (sched_.far_memory.enabled())
        sched_.far_memory.validate();
    if (sched_.kv_capacity_bytes == 0) {
        // A fleet of equal-capacity devices keeps the uniform-budget
        // report field meaningful; heterogeneous capacities stay
        // per-slot (ServeReport::accel_kv_capacity_bytes).
        const std::uint64_t first = fleet_.front()->capacityBytes();
        bool uniform = true;
        for (const auto& backend : fleet_)
            uniform = uniform && backend->capacityBytes() == first;
        if (uniform)
            sched_.kv_capacity_bytes = first;
    }
    if (sched_.num_threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        sched_.num_threads = hw > 0 ? hw : 1;
    }
    // A generation never holds more than max_active jobs, so extra
    // helpers would only add rendezvous cost on wide machines.
    sched_.num_threads = std::min(sched_.num_threads, sched_.max_active);
}

ServeReport
ContinuousBatchScheduler::run(const std::vector<TracedRequest>& trace)
{
    const std::size_t n = trace.size();
    const std::size_t num_accels = sched_.num_accelerators;

    // Effective per-slot KV budget: the uniform override when set,
    // otherwise each backend's own device capacity.
    const auto slotBudget = [&](std::size_t a) {
        return sched_.kv_capacity_bytes != 0
                   ? sched_.kv_capacity_bytes
                   : fleet_[a]->capacityBytes();
    };

    ServeReport rep;
    rep.requests.resize(n);
    rep.accel_busy_s.assign(num_accels, 0.0);
    rep.accel_util.assign(num_accels, 0.0);
    rep.accel_requests.assign(num_accels, 0);
    rep.kv_capacity_bytes = sched_.kv_capacity_bytes;
    rep.accel_names.resize(num_accels);
    rep.accel_kv_capacity_bytes.resize(num_accels);
    for (std::size_t a = 0; a < num_accels; ++a) {
        rep.accel_names[a] = fleet_[a]->backendName();
        rep.accel_kv_capacity_bytes[a] = slotBudget(a);
    }
    rep.kv_peak_bytes.assign(num_accels, 0);
    rep.kv_mean_bytes.assign(num_accels, 0.0);
    rep.kv_dram_capacity_bytes = sched_.far_memory.capacityBytes();
    rep.kv_dram_peak_bytes.assign(num_accels, 0);
    if (n == 0)
        return rep;

    for (std::size_t i = 0; i < n; ++i) {
        rep.requests[i].id = trace[i].id;
        rep.requests[i].arrival_s = trace[i].arrival_s;
        rep.requests[i].priority = trace[i].priority;
    }

    // When a request may next be admitted: its arrival until it is
    // first admitted, then — after a preemption — its eviction time, so
    // an idle accelerator with a lagging clock can never re-admit a
    // victim in the simulated past (causality of the event loop).
    std::vector<double> eligible(n);
    for (std::size_t i = 0; i < n; ++i)
        eligible[i] = trace[i].arrival_s;
    // The single queue ordering: by (eligibility, id). Every feed queue
    // keeps this sorted invariant — the initial fill is sorted and
    // preemption re-inserts in order — so the head is always the
    // earliest-eligible entry.
    const auto queuedBefore = [&](std::size_t a, std::size_t b) {
        if (eligible[a] != eligible[b])
            return eligible[a] < eligible[b];
        return trace[a].id < trace[b].id;
    };

    // Canonical admission order: by (arrival, id), independent of the
    // trace vector's ordering, so the schedule is a pure function of the
    // trace's *content*.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), queuedBefore);

    std::vector<AccelState> accels(num_accels);
    for (std::size_t a = 0; a < num_accels; ++a)
        accels[a].pool = KvPool({slotBudget(a), sched_.kv_block_tokens,
                                 fleet_[a]->kvBytesPerElem(),
                                 /*prefix_hash_bits=*/64,
                                 sched_.far_memory.capacityBytes()});

    // ---- Routing classes ----
    // CapabilityAware keeps two shared queues: long prompts wait in a
    // queue only cascade-pruning backends pull from, short prompts in a
    // queue every backend pulls from. With no pruning backend in the
    // fleet every request is short-class (plain LeastLoaded).
    const bool cap_aware = sched_.shard == ShardPolicy::CapabilityAware;
    std::vector<char> slot_prunes(num_accels, 0);
    bool fleet_has_pruner = false;
    for (std::size_t a = 0; a < num_accels; ++a) {
        slot_prunes[a] = fleet_[a]->capabilities().cascade_pruning;
        fleet_has_pruner |= slot_prunes[a] != 0;
    }
    const auto isLongClass = [&](std::size_t idx) {
        return cap_aware && fleet_has_pruner &&
               trace[idx].workload.summarize_len >=
                   sched_.long_prompt_threshold;
    };
    // Round-robin pin of each request (by canonical arrival position).
    std::vector<std::size_t> pinned(n, 0);
    for (std::size_t k = 0; k < n; ++k)
        pinned[order[k]] = k % num_accels;
    // Whether accelerator a can ever serve request idx.
    const auto routable = [&](std::size_t a, std::size_t idx) {
        if (sched_.shard == ShardPolicy::RoundRobin)
            return pinned[idx] == a;
        return !isLongClass(idx) || slot_prunes[a] != 0;
    };

    // Forward-progress precondition: a sole resident request can always
    // grow to its worst-case (unpruned) KV on every accelerator that
    // might host it, so preemption never cascades into a stall.
    for (std::size_t a = 0; a < num_accels; ++a) {
        // i is the trace *position* — the index every queue, pin, and
        // class function speaks — not TracedRequest::id, which a
        // filtered or reordered trace need not keep dense.
        for (std::size_t i = 0; i < n; ++i) {
            if (!routable(a, i))
                continue;
            const TracedRequest& req = trace[i];
            const std::uint64_t worst = accels[a].pool.bytesForTokens(
                req.workload.model,
                req.workload.summarize_len + req.workload.generate_len);
            SPATTEN_ASSERT(
                worst <= slotBudget(a),
                "request %zu needs %llu KV bytes, accel %zu (%s) budget "
                "is %llu",
                req.id, static_cast<unsigned long long>(worst), a,
                fleet_[a]->backendName().c_str(),
                static_cast<unsigned long long>(slotBudget(a)));
        }
    }

    constexpr double kInf = std::numeric_limits<double>::infinity();
    // When demand first exists *for each accelerator*: under
    // RoundRobin an accelerator only ever sees its pinned requests, and
    // under CapabilityAware a non-pruning backend only ever sees
    // short-class requests, so each utilization window starts at the
    // earliest arrival routable to that accelerator; under LeastLoaded
    // every accelerator could pull the first arrival of the trace.
    std::vector<double> first_demand(num_accels, kInf);
    std::deque<std::size_t> shared;      ///< Short / default class.
    std::deque<std::size_t> shared_long; ///< CapabilityAware long class.
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = order[k];
        if (sched_.shard == ShardPolicy::RoundRobin)
            accels[k % num_accels].queue.push_back(idx);
        else if (isLongClass(idx))
            shared_long.push_back(idx);
        else
            shared.push_back(idx);
        for (std::size_t a = 0; a < num_accels; ++a)
            if (routable(a, idx))
                first_demand[a] =
                    std::min(first_demand[a], trace[idx].arrival_s);
    }
    // The feed queues an accelerator pulls from, in preference order
    // (ties in eligibility resolve toward the earlier queue). At most
    // two and queried on every event-loop iteration, so a fixed-size
    // view — never an allocation.
    struct QueueList
    {
        std::deque<std::size_t>* q[2];
        std::size_t count;
        std::deque<std::size_t>** begin() { return q; }
        std::deque<std::size_t>** end() { return q + count; }
    };
    const auto feedQueues = [&](std::size_t a) -> QueueList {
        if (sched_.shard == ShardPolicy::RoundRobin)
            return {{&accels[a].queue, nullptr}, 1};
        if (cap_aware && slot_prunes[a] != 0)
            return {{&shared_long, &shared}, 2};
        return {{&shared, nullptr}, 1};
    };
    // The class queue a (preempted) request re-enters.
    const auto homeQueue =
        [&](std::size_t accel_index,
            std::size_t idx) -> std::deque<std::size_t>& {
        if (sched_.shard == ShardPolicy::RoundRobin)
            return accels[accel_index].queue;
        return isLongClass(idx) ? shared_long : shared;
    };

    // Queue-policy admission key: lexicographic (policy primary,
    // eligibility, id) — FIFO is the degenerate constant-primary case,
    // so every policy stays deterministic and starvation-diagnosable.
    // A preempted request re-enters the queue keyed by its eviction
    // time, i.e. FIFO treats it like a fresh arrival.
    const auto admitBefore = [&](std::size_t a, std::size_t b) {
        double pa = 0.0, pb = 0.0;
        switch (sched_.queue) {
        case QueuePolicy::Fifo:
            break;
        case QueuePolicy::Priority:
            pa = -static_cast<double>(trace[a].priority);
            pb = -static_cast<double>(trace[b].priority);
            break;
        case QueuePolicy::ShortestPromptFirst:
            pa = static_cast<double>(trace[a].workload.summarize_len);
            pb = static_cast<double>(trace[b].workload.summarize_len);
            break;
        }
        if (pa != pb)
            return pa < pb;
        return queuedBefore(a, b);
    };

    // The earliest simulated time at which an accelerator can do work:
    // now if it has an active batch, the earliest head eligibility of
    // its feed queues if it is idle, +inf if it has nothing left to do.
    // (Queue policies reorder admission among *eligible* requests only,
    // never the wake-up time.)
    const auto nextEventTime = [&](std::size_t a) {
        if (!accels[a].active.empty())
            return accels[a].clock_s;
        double head = kInf;
        for (const auto* q : feedQueues(a))
            if (!q->empty())
                head = std::min(head, eligible[q->front()]);
        if (head == kInf)
            return kInf;
        return std::max(accels[a].clock_s, head);
    };

    std::uint64_t admit_seq = 0;   ///< Global admission counter.
    // Residency intervals [admission, finish-or-eviction) in simulated
    // time, across all accelerators and incarnations. peak_concurrency
    // is their maximum overlap — computed by a sweep at the end, since
    // the host processes accelerator iterations in event order, not in
    // simulated-time order, so no running counter samples correctly.
    std::vector<std::pair<double, double>> residency;
    // Work consumed by preempted incarnations before they were evicted:
    // real simulated passes whose outputs were discarded. They count
    // toward the report's totals (the accelerator did burn the cycles,
    // energy, and DRAM traffic) but contribute no useful-work dense
    // reference, so preemption overhead shows up as a lower effective
    // dram_reduction — matching how busy_s already keeps the time.
    double wasted_cycles = 0, wasted_energy_j = 0, wasted_flops = 0;
    double wasted_dram_bytes = 0;

    // Evict active[v] vLLM-recompute-style: KV blocks released, emitted
    // tokens discarded, request re-queued for a fresh admission.
    const auto preempt = [&](std::size_t accel_index, std::size_t v) {
        AccelState& accel = accels[accel_index];
        const std::size_t idx = accel.active[v].idx;
        accel.pool.release(idx);
        // The victim may be mid-prefill: chunked prefill spreads the
        // prompt over iterations, so preemption can strike between
        // chunks. finalize() still accounts the partial pass as wasted
        // work; on re-admission the request recomputes from whatever
        // cached-prefix boundary the KV pool then offers.
        const RunResult w = accel.active[v].session->finalize();
        wasted_cycles += static_cast<double>(w.cycles);
        wasted_energy_j += w.energy.totalJ();
        wasted_flops += w.attention_flops;
        wasted_dram_bytes += w.dram_bytes;
        ServedRequest& r = rep.requests[idx];
        residency.emplace_back(r.admit_s, accel.clock_s);
        ++r.preemptions;
        ++rep.preemptions;
        r.recompute_tokens += r.tokens;
        rep.recompute_tokens += r.tokens;
        r.tokens = 0;
        r.token_times_s.clear();
        r.kv_trace.clear();
        // The timing trail must come from the final incarnation alone:
        // clearing first_token_s here is what makes a re-admitted
        // request's TTFT measure its *served* first token, not the
        // discarded one (pinned by the preemption-TTFT golden test).
        r.first_token_s = -1;
        r.admit_s = -1;
        r.cached_prefix_tokens = 0;
        r.prefill_chunks = 0;
        r.phase = RequestPhase::Queued;
        // Eligible again only from the eviction onward — never before,
        // so no accelerator can re-admit it in the simulated past.
        eligible[idx] = accel.clock_s;
        // Sorted re-insert into the request's class queue preserves the
        // queues' (eligibility, id) order, keeping nextEventTime's
        // head-is-earliest invariant.
        auto& q = homeQueue(accel_index, idx);
        q.insert(std::upper_bound(q.begin(), q.end(), idx, queuedBefore),
                 idx);
        accel.active.erase(accel.active.begin() +
                           static_cast<std::ptrdiff_t>(v));
    };

    // The preemption victim: lowest priority first, latest admission
    // (least sunk cost) within a level.
    const auto pickVictim = [&](const AccelState& accel) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < accel.active.size(); ++i) {
            const ServedRequest& a = rep.requests[accel.active[i].idx];
            const ServedRequest& b =
                rep.requests[accel.active[victim].idx];
            if (a.priority != b.priority
                    ? a.priority < b.priority
                    : accel.active[i].admit_seq >
                          accel.active[victim].admit_seq)
                victim = i;
        }
        return victim;
    };

    // Resize active[i]'s reservation to @p target tokens, preempting
    // victims until it fits — the shared machinery of the pre-iteration
    // growth phase and the post-step trim (whose copy-on-write can also
    // need bytes). Keeps @p i valid across mid-loop erasures; @return
    // false when active[i] itself was the victim (caller must not ++i).
    // A sole resident always fits: its worst-case KV passes the budget
    // precondition and cold cached blocks are evicted on demand.
    const auto resizeOrPreempt = [&](std::size_t accel_index,
                                     std::size_t& i, std::size_t target,
                                     const char* action) {
        AccelState& accel = accels[accel_index];
        const std::size_t idx = accel.active[i].idx;
        while (!accel.pool.tryResize(idx, trace[idx].workload.model,
                                     target)) {
            SPATTEN_ASSERT(accel.active.size() > 1,
                           "sole request %zu cannot %s", idx, action);
            const std::size_t v = pickVictim(accel);
            const bool self = v == i;
            preempt(accel_index, v);
            if (self)
                return false;
            if (v < i)
                --i;
        }
        return true;
    };

    // Land member @p m's completion if its step ending at @p t
    // finished it.
    std::size_t finished = 0;
    const auto finishIfDone = [&](AccelState& accel, ActiveSession& m,
                                  ServedRequest& r, double t) {
        if (!m.session->done())
            return;
        // A 0-token request's "first token" is its prefill completion
        // (the classification-style response).
        if (r.first_token_s < 0)
            r.first_token_s = t;
        r.finish_s = t;
        r.phase = RequestPhase::Finished;
        r.kv_trace = m.session->kvTrace();
        r.sim = m.session->finalize();
        accel.pool.release(m.idx);
        residency.emplace_back(r.admit_s, r.finish_s);
        ++finished;
    };

    std::vector<StepJob> jobs;
    std::vector<BackendSession*> lanes;
    std::vector<std::size_t> lane_members; ///< active[] index per lane.
    std::vector<double> lane_seconds;
    StepPool pool(sched_.num_threads);
    while (finished < n) {
        // ---- Pick the accelerator with the earliest next event ----
        // (ties break to the lowest index, keeping the loop an exact
        // discrete-event simulation: iterations are processed in global
        // simulated-time order, so least-loaded pulls stay FIFO.)
        std::size_t best = num_accels;
        double best_t = kInf;
        for (std::size_t a = 0; a < num_accels; ++a) {
            const double t = nextEventTime(a);
            if (t < best_t) {
                best_t = t;
                best = a;
            }
        }
        SPATTEN_ASSERT(best < num_accels,
                       "scheduler stalled with %zu unfinished requests",
                       n - finished);
        AccelState& accel = accels[best];
        accel.clock_s = std::max(accel.clock_s, best_t);

        // ---- Grow the residents' decode KV reservations for this
        // iteration (each pass appends one token before pruning);
        // under pressure, preempt-and-recompute until the growth fits.
        // This runs BEFORE admission so a newcomer is only admitted
        // into blocks the residents do not need this iteration — never
        // admitted and then evicted untouched in the same breath ----
        for (std::size_t i = 0; i < accel.active.size();) {
            // Mid-prefill residents (chunked prefill defers prompt
            // work across iterations) keep their full-prompt admission
            // reservation untouched until their final chunk lands —
            // they neither grow nor trim here. With chunking off every
            // resident is prefilled: prefill ran in its admission
            // iteration, before this iteration started.
            if (!accel.active[i].session->prefilled()) {
                ++i;
                continue;
            }
            if (resizeOrPreempt(best, i,
                                accel.active[i].session->kvLength() + 1,
                                "grow its KV"))
                ++i;
        }

        // ---- Admit eligible requests into free batch slots, feed
        // queues in preference order, best queue-policy key first;
        // admission blocks (head-of-line, per class queue) when the
        // prompt KV does not fit the pool. A blocked preferred queue
        // also blocks the lower-preference queues, so short-class
        // requests can never starve a blocked long-class head ----
        bool admission_blocked = false;
        // Candidates whose KV reservation failed this iteration. The
        // non-FIFO policies may skip past up to admission_skip_ahead of
        // them to the next-best eligible candidate (a huge head must
        // not starve small requests that would fit); FIFO admission is
        // strict arrival order, so its head-of-line always blocks.
        const std::size_t skip_allowance =
            sched_.queue == QueuePolicy::Fifo ? 0
                                              : sched_.admission_skip_ahead;
        std::vector<std::size_t> failed;
        for (auto* queue_ptr : feedQueues(best)) {
            if (admission_blocked)
                break;
            auto& queue = *queue_ptr;
            while (accel.active.size() < sched_.max_active) {
                constexpr auto npos =
                    std::numeric_limits<std::size_t>::max();
                std::size_t best_pos = npos;
                if (sched_.queue == QueuePolicy::Fifo) {
                    // FIFO fast path: the queue is sorted by exactly the
                    // FIFO admission key (eligibility, id) and the skip
                    // allowance is 0 (the first reservation failure
                    // blocks), so the head is always the best candidate
                    // — O(1) where the scan below is O(eligible
                    // backlog), the difference between minutes and
                    // seconds on a backlogged 1e5-request day trace.
                    if (!queue.empty() &&
                        eligible[queue.front()] <= accel.clock_s)
                        best_pos = 0;
                } else {
                    for (std::size_t p = 0; p < queue.size(); ++p) {
                        // Sorted by eligibility: everything past the
                        // first not-yet-eligible entry is ineligible too.
                        if (eligible[queue[p]] > accel.clock_s)
                            break;
                        if (std::find(failed.begin(), failed.end(),
                                      queue[p]) != failed.end())
                            continue; // Already failed this iteration.
                        if (best_pos == npos ||
                            admitBefore(queue[p], queue[best_pos]))
                            best_pos = p;
                    }
                }
                if (best_pos == npos)
                    break; // Nothing eligible here: try the next queue.
                const std::size_t idx = queue[best_pos];
                const WorkloadSpec& w = trace[idx].workload;
                std::size_t cached_prefix = 0;
                double promote_s = 0.0;
                bool reserved;
                if (sched_.enable_prefix_caching &&
                    !trace[idx].prompt_tokens.empty()) {
                    SPATTEN_ASSERT(trace[idx].prompt_tokens.size() ==
                                       w.summarize_len,
                                   "request %zu prompt content (%zu "
                                   "tokens) disagrees with its length "
                                   "%zu",
                                   trace[idx].id,
                                   trace[idx].prompt_tokens.size(),
                                   w.summarize_len);
                    const KvPool::PrefixReservation pr =
                        accel.pool.tryReservePrefix(
                            idx, w.model, trace[idx].prompt_tokens);
                    reserved = pr.ok;
                    if (pr.ok && pr.cached_tokens > 0) {
                        // The last prompt token is always recomputed
                        // (vLLM semantics), so the compute skip caps
                        // one token short of the prompt.
                        cached_prefix = std::min(pr.cached_tokens,
                                                 w.summarize_len - 1);
                        ++rep.prefix_cache_hits;
                        rep.prefix_cached_tokens += cached_prefix;
                        rep.prefix_shared_bytes += pr.shared_bytes;
                    }
                    // A hit on DRAM-demoted blocks promoted them back
                    // to HBM: the burst's transfer latency lands on
                    // this request's prefill timeline (the demotion
                    // direction is asynchronous — bytes and energy are
                    // metered by the pool, but no one waits on it).
                    if (pr.ok && pr.promoted_bytes > 0)
                        promote_s = sched_.far_memory.transferSeconds(
                            pr.promoted_bytes);
                } else {
                    reserved = accel.pool.tryReserve(idx, w.model,
                                                     w.summarize_len);
                }
                if (!reserved) {
                    failed.push_back(idx);
                    if (failed.size() > skip_allowance) {
                        // Pool full and the skip-ahead bound exhausted:
                        // admission blocked until blocks free up.
                        admission_blocked = true;
                        break;
                    }
                    continue; // Try the next-best eligible candidate.
                }
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(best_pos));
                ServedRequest& r = rep.requests[idx];
                r.accel = static_cast<int>(best);
                r.admit_s = accel.clock_s;
                r.cached_prefix_tokens = cached_prefix;
                r.phase = RequestPhase::Prefill;
                accel.active.push_back(
                    {idx, admit_seq++, cached_prefix,
                     /*prefill_pos=*/cached_prefix, promote_s,
                     fleet_[best]->makeSession(trace[idx].workload,
                                               trace[idx].policy,
                                               trace[idx].seed)});
            }
        }
        SPATTEN_ASSERT(!accel.active.empty(),
                       "selected an accelerator with no admissible work");
        const std::uint64_t kv_used = accel.pool.usedBytes();

        // ---- One iteration: one decode step for every prefilled
        // resident, advanced together through the backend's batched
        // lane API, plus prompt work for the un-prefilled ones under
        // the chunking knobs, which the pool's helpers take while the
        // coordinator runs the decode batch. Results apply
        // in admission order: prefilled residents form a prefix of
        // active[] (admission appends, and prompt passes are granted
        // in admission order), so "decodes first, then prompt work" IS
        // admission order. ----
        lanes.clear();
        lane_members.clear();
        for (std::size_t i = 0; i < accel.active.size(); ++i) {
            if (!accel.active[i].session->prefilled())
                continue;
            lanes.push_back(accel.active[i].session.get());
            lane_members.push_back(i);
        }
        // Prompt-work grants, in admission order. Each resident decode
        // step above costs one budget token; whole prompts that fit
        // the remainder run as ordinary monolithic prefills, and at
        // most one *partial* chunk is issued per iteration — the
        // Sarathi-style mixed iteration. Budget exhaustion defers the
        // remaining un-prefilled members (their full-prompt KV
        // reservations stay put); decode steps are never deferred, so
        // the batch always advances and prefill work drains as
        // residents finish.
        jobs.clear();
        std::size_t budget_left =
            sched_.iteration_token_budget > 0
                ? (sched_.iteration_token_budget > lanes.size()
                       ? sched_.iteration_token_budget - lanes.size()
                       : 0)
                : std::numeric_limits<std::size_t>::max();
        for (std::size_t i = 0; i < accel.active.size(); ++i) {
            ActiveSession& m = accel.active[i];
            if (m.session->prefilled())
                continue;
            const WorkloadSpec& w = trace[m.idx].workload;
            if (w.skip_summarization) {
                // Pre-summarized prompt: the pass is free, so it
                // neither draws budget nor counts as the chunk.
                jobs.push_back(
                    {m.session.get(), i, false, 0, 0, m.cached_prefix, 0.0});
                continue;
            }
            const std::size_t remaining = w.summarize_len - m.prefill_pos;
            if (budget_left == 0)
                break;
            std::size_t len = std::min(remaining, budget_left);
            if (sched_.prefill_chunk_tokens > 0)
                len = std::min(len, sched_.prefill_chunk_tokens);
            if (len == remaining && m.prefill_pos == m.cached_prefix) {
                // First and only pass: the monolithic path — also what
                // chunk sizes >= the prompt reduce to.
                jobs.push_back(
                    {m.session.get(), i, false, 0, 0, m.cached_prefix, 0.0});
            } else {
                jobs.push_back({m.session.get(), i, /*chunked=*/true,
                                m.prefill_pos, len, 0, 0.0});
            }
            budget_left -= len;
            if (len < remaining)
                break; // At most one partial chunk per iteration.
        }
        SPATTEN_ASSERT(!lanes.empty() || !jobs.empty(),
                       "iteration with no work on accelerator %zu", best);
        pool.run(jobs, *fleet_[best], lanes, lane_seconds);

        double t = accel.clock_s;
        for (std::size_t j = 0; j < lanes.size(); ++j) {
            ActiveSession& m = accel.active[lane_members[j]];
            ServedRequest& r = rep.requests[m.idx];
            t += lane_seconds[j];
            r.service_seconds += lane_seconds[j];
            r.token_times_s.push_back(t);
            ++r.tokens;
            if (r.first_token_s < 0)
                r.first_token_s = t;
            finishIfDone(accel, m, r, t);
        }
        for (const StepJob& job : jobs) {
            ActiveSession& m = accel.active[job.member];
            ServedRequest& r = rep.requests[m.idx];
            if (m.promote_s > 0) {
                // The admission's DRAM -> HBM promotion burst completes
                // before the first prompt pass can extend the promoted
                // prefix, so its latency serializes into the iteration
                // like the pass itself. (A member preempted before any
                // prompt pass drops the pending charge with its
                // incarnation — the migration bytes and energy were
                // already metered by the pool.)
                t += m.promote_s;
                r.service_seconds += m.promote_s;
                rep.promotion_stall_s += m.promote_s;
                m.promote_s = 0;
            }
            t += job.seconds;
            r.service_seconds += job.seconds;
            m.prefill_pos = job.chunked ? job.offset + job.len
                                        : trace[m.idx].workload.summarize_len;
            ++r.prefill_chunks;
            // TTFT semantics under chunking: the request stays in
            // Prefill until its final chunk lands; its first token is
            // the first decode completion after that.
            if (m.session->prefilled())
                r.phase = RequestPhase::Decoding;
            finishIfDone(accel, m, r, t);
        }
        // Per-member charging audit (mixed prefill/decode iterations):
        // iter_s is the serialized sum of the steps that actually ran —
        // members granted no work this iteration (deferred prefills)
        // contribute nothing, so busy_s equals the sum of the
        // service_seconds it produced, chunked or not (pinned by
        // tests/test_chunked_prefill.cpp). The KV integral charges the
        // full pool occupancy over that span: a deferred member's
        // reservation is resident whether or not it stepped, so
        // occupancy-seconds are *not* per-member prorated.
        const double iter_s = t - accel.clock_s;
        accel.busy_s += iter_s;
        accel.kv_weighted_bytes_s +=
            static_cast<double>(kv_used) * iter_s;
        accel.clock_s = t;
        accel.active.erase(
            std::remove_if(accel.active.begin(), accel.active.end(),
                           [](const ActiveSession& m) {
                               return m.session->done();
                           }),
            accel.active.end());

        // ---- Trim the survivors' reservations to the pass's
        // cascade-pruned count — this is where pruning frees blocks
        // and raises admissible concurrency. A fully private trim is
        // shrink-or-equal and never fails; a trim that shrinks below
        // a shared prefix copy-on-writes the still-needed blocks
        // (serve/kv_pool.hpp), which under pressure needs bytes other
        // residents hold — preempt-and-recompute until it fits, like
        // the pre-iteration growth path. ----
        for (std::size_t i = 0; i < accel.active.size();) {
            // Mid-prefill members hold their full-prompt reservation
            // until the final chunk; the first trim to the pruned
            // survivor count happens right after it (this iteration if
            // the prefill just completed, via prefilled() flipping).
            if (!accel.active[i].session->prefilled()) {
                ++i;
                continue;
            }
            if (resizeOrPreempt(best, i,
                                accel.active[i].session->kvLength(),
                                "copy-on-write its KV"))
                ++i;
        }
    }

    // ---- Aggregate ----
    // peak_concurrency: maximum overlap of the residency intervals in
    // *simulated* time. A departure at time t frees its KV before an
    // admission at the same t can reuse it, so ends sort before starts
    // at equal times (delta -1 < +1).
    {
        std::vector<std::pair<double, int>> events;
        events.reserve(residency.size() * 2);
        for (const auto& [start, end] : residency) {
            events.emplace_back(start, +1);
            events.emplace_back(end, -1);
        }
        std::sort(events.begin(), events.end());
        std::ptrdiff_t depth = 0, peak = 0;
        for (const auto& [time, delta] : events) {
            depth += delta;
            peak = std::max(peak, depth);
        }
        rep.peak_concurrency = static_cast<std::size_t>(peak);
    }

    std::vector<double> ttfts, itls, qdelays;
    ttfts.reserve(n);
    qdelays.reserve(n);
    rep.total_cycles = wasted_cycles;
    rep.total_energy_j = wasted_energy_j;
    rep.total_flops = wasted_flops;
    double dram_bytes = wasted_dram_bytes, dram_bytes_dense = 0;
    for (const ServedRequest& r : rep.requests) {
        rep.makespan_s = std::max(rep.makespan_s, r.finish_s);
        rep.total_tokens += r.tokens;
        ttfts.push_back(r.ttftSeconds());
        qdelays.push_back(r.queueDelaySeconds());
        for (double g : r.interTokenGaps())
            itls.push_back(g);
        rep.total_cycles += static_cast<double>(r.sim.cycles);
        rep.total_energy_j += r.sim.energy.totalJ();
        rep.total_flops += r.sim.attention_flops;
        dram_bytes += r.sim.dram_bytes;
        dram_bytes_dense += r.sim.dram_bytes_dense;
        if (r.accel >= 0)
            ++rep.accel_requests[static_cast<std::size_t>(r.accel)];
        const bool good =
            r.ttftSeconds() <= sched_.slo_ttft_s &&
            (r.tokens < 2 || r.avgItlSeconds() <= sched_.slo_itl_s);
        rep.slo_met += good ? 1 : 0;
    }
    std::sort(ttfts.begin(), ttfts.end());
    std::sort(itls.begin(), itls.end());
    std::sort(qdelays.begin(), qdelays.end());
    rep.ttft_p50_s = sortedQuantile(ttfts, 0.50);
    rep.ttft_p99_s = sortedQuantile(ttfts, 0.99);
    rep.queue_delay_p50_s = sortedQuantile(qdelays, 0.50);
    rep.queue_delay_p99_s = sortedQuantile(qdelays, 0.99);
    rep.itl_p50_s = sortedQuantile(itls, 0.50);
    rep.itl_p99_s = sortedQuantile(itls, 0.99);
    // Per-request ITL tails with equal weight per request — the
    // pooled percentiles above weight every gap equally, so a single
    // long request dominates them (see ServeReport).
    {
        std::vector<double> req_p99s;
        req_p99s.reserve(n);
        for (const ServedRequest& r : rep.requests)
            if (r.tokens >= 2)
                req_p99s.push_back(r.itlP99Seconds());
        std::sort(req_p99s.begin(), req_p99s.end());
        rep.req_itl_p99_p50_s = sortedQuantile(req_p99s, 0.50);
        rep.req_itl_p99_p99_s = sortedQuantile(req_p99s, 0.99);
    }
    if (rep.makespan_s > 0) {
        rep.throughput_rps = static_cast<double>(n) / rep.makespan_s;
        rep.goodput_rps =
            static_cast<double>(rep.slo_met) / rep.makespan_s;
        rep.tokens_per_s =
            static_cast<double>(rep.total_tokens) / rep.makespan_s;
    }
    // Utilization over the window in which work could exist for each
    // accelerator: idle lead-in before its first (routable) arrival is
    // demand absence, not accelerator idleness, so it is excluded from
    // the denominator — per accelerator, since RoundRobin pinning can
    // route an accelerator's first demand long after the trace starts.
    for (std::size_t a = 0; a < num_accels; ++a) {
        const double window_s = rep.makespan_s - first_demand[a];
        rep.accel_busy_s[a] = accels[a].busy_s;
        rep.accel_util[a] =
            window_s > 0 ? accels[a].busy_s / window_s : 0.0;
        rep.kv_peak_bytes[a] = accels[a].pool.peakBytes();
        rep.kv_mean_bytes[a] = accels[a].busy_s > 0
                                   ? accels[a].kv_weighted_bytes_s /
                                         accels[a].busy_s
                                   : 0.0;
        rep.cow_copied_blocks += accels[a].pool.cowCopiedBlocks();
        rep.kv_evicted_blocks += accels[a].pool.evictedBlocks();
        rep.kv_dram_peak_bytes[a] = accels[a].pool.dramPeakBytes();
        rep.kv_demoted_blocks += accels[a].pool.demotedBlocks();
        rep.kv_promoted_blocks += accels[a].pool.promotedBlocks();
        rep.kv_demoted_bytes += accels[a].pool.demotedBytes();
        rep.kv_promoted_bytes += accels[a].pool.promotedBytes();
    }
    rep.kv_migrated_bytes = rep.kv_demoted_bytes + rep.kv_promoted_bytes;
    // Migration traffic is DRAM <-> HBM block movement the per-session
    // energy reports cannot see; price it at the link's bit energy and
    // fold it into the run total.
    rep.migration_energy_j =
        sched_.far_memory.transferJoules(rep.kv_migrated_bytes);
    rep.total_energy_j += rep.migration_energy_j;
    rep.dram_reduction =
        dram_bytes > 0 ? dram_bytes_dense / dram_bytes : 1.0;
    return rep;
}

} // namespace spatten
