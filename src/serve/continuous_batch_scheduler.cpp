#include "serve/continuous_batch_scheduler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "serve/accelerator_backend.hpp"

namespace spatten {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Hashes and compares stat sets by (layout, value bits). */
struct StatValueHash
{
    std::size_t operator()(const StatSet& s) const
    {
        return s.valueHash();
    }
};
struct StatValueEqual
{
    bool operator()(const StatSet& a, const StatSet& b) const
    {
        return a.sameValues(b);
    }
};

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
    /// The feed queues (RunState routing table) this slot pulls from,
    /// in preference order: ties in eligibility resolve toward the
    /// earlier queue.
    std::vector<std::size_t> feeds;
    KvPool pool;                       ///< KV-capacity accounting.
    double kv_weighted_bytes_s = 0; ///< Integral of occupancy over busy
                                    ///< time (for the mean occupancy).
    /// Earliest arrival routable to this slot: where its utilization
    /// window opens.
    double first_demand_s = kInf;
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
    // bytesForTokens is monotone in tokens, so a template's worst
    // request is its longest: one byte count per distinct template.
    std::vector<std::pair<const RequestTemplate*, std::size_t>> longest;
    for (const TracedRequest& r : trace) {
        const RequestTemplate* t = &r.requestTemplate();
        const std::size_t tokens =
            r.workload.summarize_len + r.workload.generate_len;
        const auto it = std::find_if(
            longest.begin(), longest.end(),
            [t](const auto& e) { return e.first == t; });
        if (it == longest.end())
            longest.emplace_back(t, tokens);
        else
            it->second = std::max(it->second, tokens);
    }
    const KvPool probe({0, sched.kv_block_tokens, kv_bytes_per_elem});
    std::uint64_t worst = 0;
    for (const auto& [t, tokens] : longest)
        worst = std::max(worst, probe.bytesForTokens(t->model, tokens));
    return static_cast<std::uint64_t>(static_cast<double>(worst) *
                                      headroom);
}

ContinuousBatchScheduler::ContinuousBatchScheduler(
    AcceleratorFleet fleet, ContinuousBatchConfig sched)
    : fleet_(std::move(fleet)), sched_(sched)
{
    SPATTEN_ASSERT(!fleet_.empty(), "empty accelerator pool");
    for (const auto& backend : fleet_)
        SPATTEN_ASSERT(backend != nullptr, "null backend in fleet");
    SPATTEN_ASSERT(sched_.max_active >= 1, "batch width must be >= 1");
    SPATTEN_ASSERT(sched_.kv_block_tokens >= 1, "zero-token KV blocks");
    // enabled() is false for a negative or NaN capacity, which would
    // skip validate() and then convert the value to bytes.
    SPATTEN_ASSERT(sched_.far_memory.capacity_gb >= 0,
                   "far-memory capacity_gb must be >= 0, got %g",
                   sched_.far_memory.capacity_gb);
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

namespace {

/**
 * Everything one run() mutates — the routing table, the per-slot
 * states, the report under construction — and the phases of run()'s
 * event loop, each of which advances it. Only route() reads the shard
 * policy; every later phase speaks the routing table.
 */
class RunState
{
    /// The single queue ordering: by (eligibility, id). (Defined first:
    /// later members deduce their comparator type from it.)
    auto queueOrder() const
    {
        return [this](std::size_t a, std::size_t b) {
            if (eligible_[a] != eligible_[b])
                return eligible_[a] < eligible_[b];
            return trace_[a].id < trace_[b].id;
        };
    }

  public:
    RunState(const AcceleratorFleet& fleet, const ContinuousBatchConfig& sched,
             const std::vector<TracedRequest>& trace)
        : fleet_(fleet), sched_(sched), trace_(trace),
          eligible_(trace.size()), home_(trace.size()),
          accels_(fleet.size()), pool_(sched.num_threads)
    {
        const std::size_t num_accels = fleet_.size();
        rep_.requests.resize(trace_.size());
        rep_.accel_busy_s.assign(num_accels, 0.0);
        rep_.accel_util.assign(num_accels, 0.0);
        rep_.accel_requests.assign(num_accels, 0);
        rep_.kv_capacity_bytes = sched_.kv_capacity_bytes;
        rep_.accel_names.resize(num_accels);
        rep_.accel_kv_capacity_bytes.resize(num_accels);
        for (std::size_t a = 0; a < num_accels; ++a) {
            rep_.accel_names[a] = fleet_[a]->backendName();
            rep_.accel_kv_capacity_bytes[a] = slotBudget(a);
            accels_[a].pool = KvPool({slotBudget(a), sched_.kv_block_tokens,
                                      fleet_[a]->kvBytesPerElem(),
                                      /*prefix_hash_bits=*/64,
                                      sched_.far_memory.capacityBytes()});
        }
        rep_.kv_peak_bytes.assign(num_accels, 0);
        rep_.kv_mean_bytes.assign(num_accels, 0.0);
        rep_.kv_dram_capacity_bytes = sched_.far_memory.capacityBytes();
        rep_.kv_dram_peak_bytes.assign(num_accels, 0);
        for (std::size_t i = 0; i < trace_.size(); ++i) {
            rep_.requests[i].id = trace_[i].id;
            rep_.requests[i].arrival_s = trace_[i].arrival_s;
            rep_.requests[i].priority = trace_[i].priority;
            eligible_[i] = trace_[i].arrival_s;
        }
        residency_.reserve(trace_.size());
    }

    bool finished() const { return finished_ == trace_.size(); }

    /**
     * Route (once): build the routing table — the feed queues, each
     * request's home queue, each slot's feeds in preference order.
     * RoundRobin keeps one private queue per slot and homes request k
     * (in canonical arrival order) at k mod N. LeastLoaded keeps one
     * shared queue. CapabilityAware adds a long-prompt queue
     * (summarize_len >= long_prompt_threshold) that only
     * cascade-pruning slots pull from, ahead of the shared one — their
     * pruned KV makes heavy prompts cheap to keep resident; with no
     * pruning backend in the fleet it degrades to LeastLoaded.
     */
    void route()
    {
        const std::size_t n = trace_.size(), num_accels = accels_.size();
        // Canonical admission order: by (arrival, id), independent of
        // the trace vector's ordering, so the schedule is a pure
        // function of the trace's *content*.
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(), queueOrder());
        const auto prunes = [&](std::size_t a) {
            return fleet_[a]->capabilities().cascade_pruning;
        };
        bool any_pruner = false;
        for (std::size_t a = 0; a < num_accels; ++a)
            any_pruner |= prunes(a);
        if (sched_.shard == ShardPolicy::RoundRobin) {
            queues_.resize(num_accels);
            for (std::size_t a = 0; a < num_accels; ++a)
                accels_[a].feeds = {a};
            for (std::size_t k = 0; k < n; ++k)
                home_[order[k]] = k % num_accels;
        } else if (sched_.shard == ShardPolicy::CapabilityAware &&
                   any_pruner) {
            queues_.resize(2); // 0: shared (short) class, 1: long class.
            for (std::size_t a = 0; a < num_accels; ++a)
                accels_[a].feeds = prunes(a) ? std::vector<std::size_t>{1, 0}
                                             : std::vector<std::size_t>{0};
            for (std::size_t i = 0; i < n; ++i)
                home_[i] = trace_[i].workload.summarize_len >=
                           sched_.long_prompt_threshold; // 1: long class.
        } else {
            queues_.resize(1); // Every request is homed at queue 0.
            for (AccelState& accel : accels_)
                accel.feeds = {0};
        }
        // Every feed queue starts sorted by (eligibility, id), and
        // preemption re-inserts in order, so a queue's head is always
        // its earliest-eligible entry.
        for (const std::size_t idx : order)
            queues_[home_[idx]].push_back(idx);

        // Forward-progress precondition: a sole resident request can
        // always grow to its worst-case (unpruned) KV on every
        // accelerator that might host it, so preemption never cascades
        // into a stall. i is the trace *position* — the index every
        // queue and home speaks — not TracedRequest::id, which a
        // filtered or reordered trace need not keep dense.
        for (std::size_t a = 0; a < num_accels; ++a) {
            const std::vector<std::size_t>& feeds = accels_[a].feeds;
            for (std::size_t i = 0; i < n; ++i) {
                if (std::find(feeds.begin(), feeds.end(), home_[i]) ==
                    feeds.end())
                    continue;
                const TracedRequest& req = trace_[i];
                const std::uint64_t worst = accels_[a].pool.bytesForTokens(
                    req.model(),
                    req.workload.summarize_len + req.workload.generate_len);
                SPATTEN_ASSERT(
                    worst <= slotBudget(a),
                    "request %zu needs %llu KV bytes, accel %zu (%s) budget "
                    "is %llu",
                    req.id, static_cast<unsigned long long>(worst), a,
                    fleet_[a]->backendName().c_str(),
                    static_cast<unsigned long long>(slotBudget(a)));
            }
            // Demand first exists for a slot at the earliest arrival
            // routable to it: its feed queues' heads.
            for (const std::size_t q : feeds)
                if (!queues_[q].empty())
                    accels_[a].first_demand_s =
                        std::min(accels_[a].first_demand_s,
                                 trace_[queues_[q].front()].arrival_s);
        }
    }

    /**
     * Pick the accelerator with the earliest next event and advance its
     * clock there. Ties break to the lowest index, keeping the loop an
     * exact discrete-event simulation: iterations are processed in
     * global simulated-time order, so least-loaded pulls stay FIFO.
     */
    std::size_t pickAccel()
    {
        std::size_t best = accels_.size();
        double best_t = kInf;
        for (std::size_t a = 0; a < accels_.size(); ++a) {
            const double t = nextEventTime(a);
            if (t < best_t) {
                best_t = t;
                best = a;
            }
        }
        SPATTEN_ASSERT(best < accels_.size(),
                       "scheduler stalled with %zu unfinished requests",
                       trace_.size() - finished_);
        accels_[best].clock_s = std::max(accels_[best].clock_s, best_t);
        return best;
    }

    /**
     * Reconcile: resize every prefilled resident's KV reservation to
     * its kvLength() + @p extra tokens, preempting victims until it
     * fits. Before admission (extra 1) this grows the residents for the
     * pass about to append one token, so a newcomer is only admitted
     * into blocks the residents do not need this iteration — never
     * admitted and then evicted untouched. After the step (extra 0) it
     * trims survivors to the cascade-pruned count — where pruning frees
     * blocks and raises admissible concurrency; a trim below a shared
     * prefix copy-on-writes the still-needed blocks (serve/kv_pool.hpp),
     * which under pressure needs bytes other residents hold.
     * Mid-prefill residents keep their full-prompt admission
     * reservation until their final chunk lands (the first trim happens
     * right after it). A sole resident always fits: its worst-case KV
     * passes the route() precondition and cold cached blocks are
     * evicted on demand.
     */
    void reconcile(std::size_t a, std::size_t extra, const char* action)
    {
        AccelState& accel = accels_[a];
        for (std::size_t i = 0; i < accel.active.size();) {
            const ActiveSession& m = accel.active[i];
            if (!m.session->prefilled() ||
                accel.pool.tryResize(m.idx, trace_[m.idx].model(),
                                     m.session->kvLength() + extra)) {
                ++i;
                continue;
            }
            SPATTEN_ASSERT(accel.active.size() > 1,
                           "sole request %zu cannot %s", m.idx, action);
            // The victim: lowest priority first, latest admission
            // (least sunk cost) within a level.
            std::size_t v = 0;
            for (std::size_t k = 1; k < accel.active.size(); ++k) {
                const ServedRequest& x = rep_.requests[accel.active[k].idx];
                const ServedRequest& y = rep_.requests[accel.active[v].idx];
                if (x.priority != y.priority
                        ? x.priority < y.priority
                        : accel.active[k].admit_seq > accel.active[v].admit_seq)
                    v = k;
            }
            preempt(a, v);
            // v == i: active[i] is now the next member; otherwise retry
            // member i, which moved down one slot if v preceded it.
            if (v < i)
                --i;
        }
    }

    /**
     * Admit eligible requests into free batch slots: feed queues in
     * preference order, best queue-policy key first. Admission blocks
     * (head-of-line) at the first prompt whose KV does not fit the
     * pool; a blocked preferred queue also blocks the lower-preference
     * ones, so short-class requests can never starve a blocked
     * long-class head.
     */
    void admit(std::size_t a)
    {
        AccelState& accel = accels_[a];
        for (const std::size_t q : accel.feeds) {
            std::deque<std::size_t>& queue = queues_[q];
            while (accel.active.size() < sched_.max_active) {
                // One scan over the eligible prefix of the queue (it is
                // sorted by eligibility). FIFO's key IS the queue order,
                // so its scan stops at the head — O(1) admission, the
                // difference between minutes and seconds on a
                // backlogged 1e5-request day trace.
                std::size_t best = queue.size();
                for (std::size_t p = 0; p < queue.size() &&
                                        eligible_[queue[p]] <= accel.clock_s;
                     ++p) {
                    if (best == queue.size() ||
                        admitBefore(queue[p], queue[best]))
                        best = p;
                    if (sched_.queue == QueuePolicy::Fifo)
                        break;
                }
                if (best == queue.size())
                    break; // Nothing eligible here: try the next queue.
                if (!tryAdmit(a, queue, best))
                    return; // Pool full: blocked until blocks free up.
            }
        }
    }

    /**
     * Plan one iteration: one decode lane per prefilled resident, plus
     * prompt-work grants for the un-prefilled ones, in admission order.
     * Each decode lane costs one budget token; whole prompts that fit
     * the remainder run as ordinary monolithic prefills, and at most
     * one *partial* chunk is issued per iteration — the Sarathi-style
     * mixed iteration. Budget exhaustion defers the remaining
     * un-prefilled members (their full-prompt KV reservations stay
     * put); decode steps are never deferred, so the batch always
     * advances and prefill work drains as residents finish.
     */
    void plan(std::size_t a)
    {
        AccelState& accel = accels_[a];
        SPATTEN_ASSERT(!accel.active.empty(),
                       "selected an accelerator with no admissible work");
        lanes_.clear();
        lane_members_.clear();
        for (std::size_t i = 0; i < accel.active.size(); ++i) {
            if (!accel.active[i].session->prefilled())
                continue;
            lanes_.push_back(accel.active[i].session.get());
            lane_members_.push_back(i);
        }
        jobs_.clear();
        std::size_t budget_left =
            sched_.iteration_token_budget > 0
                ? (sched_.iteration_token_budget > lanes_.size()
                       ? sched_.iteration_token_budget - lanes_.size()
                       : 0)
                : std::numeric_limits<std::size_t>::max();
        for (std::size_t i = 0; i < accel.active.size(); ++i) {
            ActiveSession& m = accel.active[i];
            if (m.session->prefilled())
                continue;
            const WorkloadSpec& w = m.session->workload();
            if (w.skip_summarization) {
                // Pre-summarized prompt: the pass is free, so it
                // neither draws budget nor counts as the chunk.
                jobs_.push_back(
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
                jobs_.push_back(
                    {m.session.get(), i, false, 0, 0, m.cached_prefix, 0.0});
            } else {
                jobs_.push_back({m.session.get(), i, /*chunked=*/true,
                                 m.prefill_pos, len, 0, 0.0});
            }
            budget_left -= len;
            if (len < remaining)
                break; // At most one partial chunk per iteration.
        }
        SPATTEN_ASSERT(!lanes_.empty() || !jobs_.empty(),
                       "iteration with no work on accelerator %zu", a);
    }

    /** Execute the plan: the coordinator runs the decode batch through
     *  the backend's batched lane API while the pool's helpers take the
     *  prompt passes. */
    void execute(std::size_t a)
    {
        pool_.run(jobs_, *fleet_[a], lanes_, lane_seconds_);
    }

    /**
     * Apply the step results in admission order — prefilled residents
     * form a prefix of active[] (admission appends, and prompt passes
     * are granted in admission order), so "decodes first, then prompt
     * work" IS admission order — then charge the iteration and drop the
     * finished members.
     */
    void apply(std::size_t a)
    {
        AccelState& accel = accels_[a];
        const std::uint64_t kv_used = accel.pool.usedBytes();
        double t = accel.clock_s;
        for (std::size_t j = 0; j < lanes_.size(); ++j) {
            ActiveSession& m = accel.active[lane_members_[j]];
            ServedRequest& r = rep_.requests[m.idx];
            t += lane_seconds_[j];
            r.service_seconds += lane_seconds_[j];
            r.token_times_s.push_back(t);
            ++r.tokens;
            if (r.first_token_s < 0)
                r.first_token_s = t;
            finishIfDone(accel, m, r, t);
        }
        for (const StepJob& job : jobs_) {
            ActiveSession& m = accel.active[job.member];
            ServedRequest& r = rep_.requests[m.idx];
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
                rep_.promotion_stall_s += m.promote_s;
                m.promote_s = 0;
            }
            t += job.seconds;
            r.service_seconds += job.seconds;
            m.prefill_pos = job.chunked ? job.offset + job.len
                                        : trace_[m.idx].workload.summarize_len;
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
        accel.kv_weighted_bytes_s += static_cast<double>(kv_used) * iter_s;
        accel.clock_s = t;
        accel.active.erase(
            std::remove_if(accel.active.begin(), accel.active.end(),
                           [](const ActiveSession& m) {
                               return m.session->done();
                           }),
            accel.active.end());
    }

    /** Aggregate the served requests into the report's metrics. */
    ServeReport aggregate()
    {
        const std::size_t n = trace_.size();
        const std::vector<ServedRequest>& reqs = rep_.requests;
        // peak_concurrency: maximum overlap of the residency intervals
        // in *simulated* time. They are half-open, so a departure at
        // time t frees its KV before an admission at the same t can
        // reuse it.
        rep_.peak_concurrency = maxOverlap(residency_);

        rep_.total_cycles = wasted_cycles_;
        rep_.total_energy_j = wasted_energy_j_;
        rep_.total_flops = wasted_flops_;
        double dram_bytes = wasted_dram_bytes_, dram_bytes_dense = 0;
        std::size_t gaps = 0;
        for (const ServedRequest& r : reqs) {
            rep_.makespan_s = std::max(rep_.makespan_s, r.finish_s);
            rep_.total_tokens += r.tokens;
            gaps += std::max<std::size_t>(r.token_times_s.size(), 1) - 1;
            rep_.total_cycles += static_cast<double>(r.sim.cycles);
            rep_.total_energy_j += r.sim.energy.totalJ();
            rep_.total_flops += r.sim.attention_flops;
            dram_bytes += r.sim.dram_bytes;
            dram_bytes_dense += r.sim.dram_bytes_dense;
            if (r.accel >= 0)
                ++rep_.accel_requests[static_cast<std::size_t>(r.accel)];
            const bool good =
                r.ttftSeconds() <= sched_.slo_ttft_s &&
                (r.tokens < 2 || r.avgItlSeconds() <= sched_.slo_itl_s);
            rep_.slo_met += good ? 1 : 0;
        }
        // The pooled percentiles are exact selections over values the
        // records already hold: no sorted copy of the gaps (a double
        // per emitted token) or of the per-request delays.
        constexpr std::array<double, 2> kP50P99{0.50, 0.99};
        const auto ttft = selectQuantiles(n, kP50P99, [&](const auto& visit) {
            for (const ServedRequest& r : reqs)
                visit(r.ttftSeconds());
        });
        const auto qdelay =
            selectQuantiles(n, kP50P99, [&](const auto& visit) {
                for (const ServedRequest& r : reqs)
                    visit(r.queueDelaySeconds());
            });
        const auto itl = selectQuantiles(gaps, kP50P99, [&](const auto& visit) {
            for (const ServedRequest& r : reqs)
                for (std::size_t i = 1; i < r.token_times_s.size(); ++i)
                    visit(r.token_times_s[i] - r.token_times_s[i - 1]);
        });
        rep_.ttft_p50_s = ttft[0];
        rep_.ttft_p99_s = ttft[1];
        rep_.queue_delay_p50_s = qdelay[0];
        rep_.queue_delay_p99_s = qdelay[1];
        rep_.itl_p50_s = itl[0];
        rep_.itl_p99_s = itl[1];
        // Per-request ITL tails with equal weight per request — the
        // pooled percentiles above weight every gap equally, so a
        // single long request dominates them (see ServeReport).
        {
            std::vector<double> req_p99s, gaps_scratch;
            req_p99s.reserve(n);
            for (const ServedRequest& r : reqs)
                if (r.tokens >= 2)
                    req_p99s.push_back(r.itlP99Seconds(gaps_scratch));
            std::sort(req_p99s.begin(), req_p99s.end());
            rep_.req_itl_p99_p50_s = sortedQuantile(req_p99s, 0.50);
            rep_.req_itl_p99_p99_s = sortedQuantile(req_p99s, 0.99);
        }
        if (rep_.makespan_s > 0) {
            rep_.throughput_rps = static_cast<double>(n) / rep_.makespan_s;
            rep_.goodput_rps =
                static_cast<double>(rep_.slo_met) / rep_.makespan_s;
            rep_.tokens_per_s =
                static_cast<double>(rep_.total_tokens) / rep_.makespan_s;
        }
        // Utilization over the window in which work could exist for
        // each accelerator: idle lead-in before its first (routable)
        // arrival is demand absence, not accelerator idleness, so it is
        // excluded from the denominator — per accelerator, since
        // RoundRobin pinning can route an accelerator's first demand
        // long after the trace starts.
        for (std::size_t a = 0; a < accels_.size(); ++a) {
            const AccelState& accel = accels_[a];
            const double window_s = rep_.makespan_s - accel.first_demand_s;
            rep_.accel_busy_s[a] = accel.busy_s;
            rep_.accel_util[a] = window_s > 0 ? accel.busy_s / window_s : 0.0;
            rep_.kv_peak_bytes[a] = accel.pool.peakBytes();
            rep_.kv_mean_bytes[a] =
                accel.busy_s > 0 ? accel.kv_weighted_bytes_s / accel.busy_s
                                 : 0.0;
            rep_.cow_copied_blocks += accel.pool.cowCopiedBlocks();
            rep_.kv_evicted_blocks += accel.pool.evictedBlocks();
            rep_.kv_dram_peak_bytes[a] = accel.pool.dramPeakBytes();
            rep_.kv_demoted_blocks += accel.pool.demotedBlocks();
            rep_.kv_promoted_blocks += accel.pool.promotedBlocks();
            rep_.kv_demoted_bytes += accel.pool.demotedBytes();
            rep_.kv_promoted_bytes += accel.pool.promotedBytes();
        }
        rep_.kv_migrated_bytes = rep_.kv_demoted_bytes + rep_.kv_promoted_bytes;
        // Migration traffic is DRAM <-> HBM block movement the
        // per-session energy reports cannot see; price it at the link's
        // bit energy and fold it into the run total.
        rep_.migration_energy_j =
            sched_.far_memory.transferJoules(rep_.kv_migrated_bytes);
        rep_.total_energy_j += rep_.migration_energy_j;
        rep_.dram_reduction =
            dram_bytes > 0 ? dram_bytes_dense / dram_bytes : 1.0;
        return std::move(rep_);
    }

  private:
    /// Effective per-slot KV budget: the uniform override when set,
    /// otherwise each backend's own device capacity.
    std::uint64_t slotBudget(std::size_t a) const
    {
        return sched_.kv_capacity_bytes != 0 ? sched_.kv_capacity_bytes
                                             : fleet_[a]->capacityBytes();
    }

    /// Queue-policy admission key: lexicographic (policy primary,
    /// eligibility, id) — FIFO is the degenerate constant-primary case,
    /// so every policy stays deterministic and starvation-diagnosable.
    /// A preempted request re-enters its queue keyed by its eviction
    /// time, i.e. FIFO treats it like a fresh arrival.
    bool admitBefore(std::size_t a, std::size_t b) const
    {
        double pa = 0.0, pb = 0.0;
        switch (sched_.queue) {
        case QueuePolicy::Fifo:
            break;
        case QueuePolicy::Priority:
            pa = -static_cast<double>(trace_[a].priority);
            pb = -static_cast<double>(trace_[b].priority);
            break;
        case QueuePolicy::ShortestPromptFirst:
            pa = static_cast<double>(trace_[a].workload.summarize_len);
            pb = static_cast<double>(trace_[b].workload.summarize_len);
            break;
        }
        if (pa != pb)
            return pa < pb;
        return queueOrder()(a, b);
    }

    /// The earliest simulated time at which an accelerator can do work:
    /// now if it has an active batch, the earliest head eligibility of
    /// its feed queues if it is idle, +inf if it has nothing left to
    /// do. (Queue policies reorder admission among *eligible* requests
    /// only, never the wake-up time.)
    double nextEventTime(std::size_t a) const
    {
        const AccelState& accel = accels_[a];
        if (!accel.active.empty())
            return accel.clock_s;
        double head = kInf;
        for (const std::size_t q : accel.feeds)
            if (!queues_[q].empty())
                head = std::min(head, eligible_[queues_[q].front()]);
        if (head == kInf)
            return kInf;
        return std::max(accel.clock_s, head);
    }

    /// Reserve queue[pos]'s prompt KV on accelerator @p a and admit it;
    /// @return false (nothing changed) when the reservation fails.
    bool tryAdmit(std::size_t a, std::deque<std::size_t>& queue,
                  std::size_t pos)
    {
        AccelState& accel = accels_[a];
        const std::size_t idx = queue[pos];
        const TracedRequest& req = trace_[idx];
        const RequestShape& w = req.workload;
        std::size_t cached_prefix = 0;
        double promote_s = 0.0;
        bool reserved;
        if (sched_.enable_prefix_caching && !req.prompt_tokens.empty()) {
            SPATTEN_ASSERT(req.prompt_tokens.size() == w.summarize_len,
                           "request %zu prompt content (%zu "
                           "tokens) disagrees with its length "
                           "%zu",
                           req.id, req.prompt_tokens.size(),
                           w.summarize_len);
            req.prompt_tokens.copyTo(prompt_ids_);
            const KvPool::PrefixReservation pr =
                accel.pool.tryReservePrefix(idx, req.model(), prompt_ids_);
            reserved = pr.ok;
            if (pr.ok && pr.cached_tokens > 0) {
                // The last prompt token is always recomputed (vLLM
                // semantics), so the compute skip caps one token short
                // of the prompt.
                cached_prefix =
                    std::min(pr.cached_tokens, w.summarize_len - 1);
                ++rep_.prefix_cache_hits;
                rep_.prefix_cached_tokens += cached_prefix;
                rep_.prefix_shared_bytes += pr.shared_bytes;
            }
            // A hit on DRAM-demoted blocks promoted them back to HBM:
            // the burst's transfer latency lands on this request's
            // prefill timeline (the demotion direction is asynchronous
            // — bytes and energy are metered by the pool, but no one
            // waits on it).
            if (pr.ok && pr.promoted_bytes > 0)
                promote_s =
                    sched_.far_memory.transferSeconds(pr.promoted_bytes);
        } else {
            reserved =
                accel.pool.tryReserve(idx, req.model(), w.summarize_len);
        }
        if (!reserved)
            return false;
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pos));
        ServedRequest& r = rep_.requests[idx];
        r.accel = static_cast<int>(a);
        r.admit_s = accel.clock_s;
        r.cached_prefix_tokens = cached_prefix;
        r.phase = RequestPhase::Prefill;
        // Exact trail capacity; a preemption's clear() keeps it.
        r.token_times_s.reserve(w.generate_len);
        accel.active.push_back(
            {idx, admit_seq_++, cached_prefix,
             /*prefill_pos=*/cached_prefix, promote_s,
             fleet_[a]->makeSession(req.sessionSpec(), req.policy(),
                                    req.seed)});
        return true;
    }

    /// Retire @p m from @p accel at simulated time @p end_s — finished
    /// or evicted: release its KV blocks and close its residency
    /// interval.
    void retire(AccelState& accel, const ActiveSession& m, double end_s)
    {
        accel.pool.release(m.idx);
        const double start_s = rep_.requests[m.idx].admit_s;
        SPATTEN_ASSERT(start_s <= end_s,
                       "request %zu retires at %g s, before its admission "
                       "at %g s",
                       m.idx, end_s, start_s);
        residency_.emplace_back(start_s, end_s);
    }

    /// Evict active[v] vLLM-recompute-style: KV blocks released,
    /// emitted tokens discarded, request re-queued at its home queue
    /// for a fresh admission.
    void preempt(std::size_t a, std::size_t v)
    {
        AccelState& accel = accels_[a];
        const ActiveSession& m = accel.active[v];
        const std::size_t idx = m.idx;
        // The victim may be mid-prefill: chunked prefill spreads the
        // prompt over iterations, so preemption can strike between
        // chunks. finalize() still accounts the partial pass as wasted
        // work; on re-admission the request recomputes from whatever
        // cached-prefix boundary the KV pool then offers.
        const RunResult w = m.session->finalize();
        wasted_cycles_ += static_cast<double>(w.cycles);
        wasted_energy_j_ += w.energy.totalJ();
        wasted_flops_ += w.attention_flops;
        wasted_dram_bytes_ += w.dram_bytes;
        retire(accel, m, accel.clock_s);
        ServedRequest& r = rep_.requests[idx];
        ++r.preemptions;
        ++rep_.preemptions;
        r.recompute_tokens += r.tokens;
        rep_.recompute_tokens += r.tokens;
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
        // so no accelerator can re-admit it in the simulated past. The
        // sorted re-insert keeps its home queue's (eligibility, id)
        // order, and with it nextEventTime's head-is-earliest invariant.
        eligible_[idx] = accel.clock_s;
        std::deque<std::size_t>& q = queues_[home_[idx]];
        q.insert(std::upper_bound(q.begin(), q.end(), idx, queueOrder()),
                 idx);
        accel.active.erase(accel.active.begin() +
                           static_cast<std::ptrdiff_t>(v));
    }

    /// Land member @p m's completion if its step ending at @p t
    /// finished it.
    void finishIfDone(AccelState& accel, ActiveSession& m, ServedRequest& r,
                      double t)
    {
        if (!m.session->done())
            return;
        // A 0-token request's "first token" is its prefill completion
        // (the classification-style response).
        if (r.first_token_s < 0)
            r.first_token_s = t;
        r.finish_s = t;
        r.phase = RequestPhase::Finished;
        const std::vector<std::size_t>& kv = m.session->kvTrace();
        for (const std::size_t len : kv)
            SPATTEN_ASSERT(len <= std::numeric_limits<std::uint32_t>::max(),
                           "request %zu keeps %zu KV tokens, beyond the "
                           "32-bit kv_trace",
                           m.idx, len);
        r.kv_trace.assign(kv.begin(), kv.end());
        r.sim = m.session->finalize();
        shareStats(r.sim.stats);
        retire(accel, m, t);
        ++finished_;
    }

    /// Points a finished record's @p stats at the block of an earlier
    /// record with bit-equal values (its fresh block is freed here), or
    /// registers its block for the records after it. A session is a
    /// pure function of its shape, so a report keeps one block per
    /// distinct result rather than one per request.
    void shareStats(StatSet& stats)
    {
        if (stats.all().size() == 0)
            return;
        const auto [it, fresh] = stat_blocks_.insert(stats);
        if (!fresh)
            stats = *it;
    }

    const AcceleratorFleet& fleet_;
    const ContinuousBatchConfig& sched_;
    const std::vector<TracedRequest>& trace_;
    ServeReport rep_;

    /// When each request may next be admitted: its arrival until it is
    /// first admitted, then — after a preemption — its eviction time,
    /// so an idle accelerator with a lagging clock can never re-admit a
    /// victim in the simulated past (causality of the event loop).
    std::vector<double> eligible_;
    // ---- Routing table (built by route(); AccelState::feeds too) ----
    std::vector<std::deque<std::size_t>> queues_; ///< The feed queues.
    std::vector<std::size_t> home_; ///< Each request's feed queue.
    std::vector<AccelState> accels_;

    std::uint64_t admit_seq_ = 0; ///< Global admission counter.
    std::size_t finished_ = 0;
    /// Residency intervals [admission, finish-or-eviction) in simulated
    /// time, across all accelerators and incarnations (reserved for one
    /// per request; preemptions add more). peak_concurrency is their
    /// maximum overlap — computed by a sweep at the end, since the host
    /// processes accelerator iterations in event order, not in
    /// simulated-time order, so no running counter samples correctly.
    std::vector<std::pair<double, double>> residency_;
    /// Work consumed by preempted incarnations before they were
    /// evicted: real simulated passes whose outputs were discarded.
    /// They count toward the report's totals (the accelerator did burn
    /// the cycles, energy, and DRAM traffic) but contribute no
    /// useful-work dense reference, so preemption overhead shows up as
    /// a lower effective dram_reduction — matching how busy_s already
    /// keeps the time.
    double wasted_cycles_ = 0, wasted_energy_j_ = 0, wasted_flops_ = 0;
    double wasted_dram_bytes_ = 0;
    /// The prompt ids of the request being admitted: its PromptTokens
    /// view computed into one vector the pool's prefix lookup reads,
    /// reused across admissions.
    std::vector<std::uint64_t> prompt_ids_;
    /// One entry per distinct finished stat block (see shareStats());
    /// lives for the run only, so nothing but the records' own blocks
    /// outlives the report.
    std::unordered_set<StatSet, StatValueHash, StatValueEqual> stat_blocks_;

    // ---- One iteration's plan, reused across iterations ----
    std::vector<StepJob> jobs_;
    std::vector<BackendSession*> lanes_;
    std::vector<std::size_t> lane_members_; ///< active[] index per lane.
    std::vector<double> lane_seconds_;
    StepPool pool_;
};

} // namespace

ServeReport
ContinuousBatchScheduler::run(const std::vector<TracedRequest>& trace)
{
    RunState s(fleet_, sched_, trace);
    s.route();
    while (!s.finished()) {
        const std::size_t a = s.pickAccel();
        s.reconcile(a, /*extra=*/1, "grow its KV");
        s.admit(a);
        s.plan(a);
        s.execute(a);
        s.apply(a);
        s.reconcile(a, /*extra=*/0, "copy-on-write its KV");
    }
    return s.aggregate();
}

} // namespace spatten
