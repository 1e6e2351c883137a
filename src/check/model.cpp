// model.cpp — the exploration engine behind src/check/model.hpp.
//
// One Explorer per check() call. Model threads are OS threads driven
// cooperatively through a single turn token (one mutex, a condvar per
// thread), so exactly one model thread executes between scheduling
// decisions and every interleaving is deterministic and replayable. The
// thread holding the turn makes the next scheduling decision itself when
// it parks at an operation, so a thread that keeps the turn never context
// switches. Worker OS threads are created once and reused across the
// (possibly millions of) executions of a search. The DFS trail alternates
// two node kinds:
//
//   Sched  — which enabled thread performs its announced pending operation
//            (created by the turn holder; carries the sleep set and the
//            preemption budget);
//   Choice — which store in the location's modification order a load (or
//            wait wake-up) observes, or which blocked waiter a notify_one
//            releases (created by the performing thread).
//
// Replay of a trail prefix is bit-deterministic, so nodes are extended in
// place and backtracking truncates the suffix.
#include "check/model.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

namespace htims::check {
namespace {

constexpr int kController = -1;
constexpr std::size_t kMaxThreads = 8;

/// Vector clock over model thread ids.
using Clock = std::array<std::uint64_t, kMaxThreads>;

Clock zero_clock() { return Clock{}; }

void join_clock(Clock& into, const Clock& other) {
    for (std::size_t i = 0; i < kMaxThreads; ++i)
        into[i] = std::max(into[i], other[i]);
}

bool clock_leq(const Clock& a, const Clock& b) {
    for (std::size_t i = 0; i < kMaxThreads; ++i)
        if (a[i] > b[i]) return false;
    return true;
}

enum class OpKind { kLoad, kStore, kRmw, kCas, kWait, kWake, kNotify, kSpawn, kJoin };

const char* op_name(OpKind k) {
    switch (k) {
        case OpKind::kLoad: return "load";
        case OpKind::kStore: return "store";
        case OpKind::kRmw: return "rmw";
        case OpKind::kCas: return "cas";
        case OpKind::kWait: return "wait";
        case OpKind::kWake: return "wake";
        case OpKind::kNotify: return "notify";
        case OpKind::kSpawn: return "spawn";
        case OpKind::kJoin: return "join";
    }
    return "?";
}

const char* mo_name(int mo) {
    switch (static_cast<std::memory_order>(mo)) {
        case std::memory_order_relaxed: return "rlx";
        case std::memory_order_consume: return "cns";
        case std::memory_order_acquire: return "acq";
        case std::memory_order_release: return "rel";
        case std::memory_order_acq_rel: return "ar";
        case std::memory_order_seq_cst: return "sc";
    }
    return "?";
}

bool mo_acquires(int mo) {
    const auto m = static_cast<std::memory_order>(mo);
    return m == std::memory_order_acquire || m == std::memory_order_acq_rel ||
           m == std::memory_order_seq_cst || m == std::memory_order_consume;
}

bool mo_releases(int mo) {
    const auto m = static_cast<std::memory_order>(mo);
    return m == std::memory_order_release || m == std::memory_order_acq_rel ||
           m == std::memory_order_seq_cst;
}

bool mo_sc(int mo) {
    return static_cast<std::memory_order>(mo) == std::memory_order_seq_cst;
}

/// A pending (announced, not yet performed) operation of a parked thread.
struct Op {
    OpKind kind = OpKind::kLoad;
    std::size_t loc = 0;   // atomic location (kSpawn/kJoin: unused/target)
    std::uint64_t arg = 0; // store value / rmw delta / wait old / join target
    int mo = 0;
};

/// Two ops are dependent when reordering them can change the execution.
/// Reads of the same location commute; everything touching a location with
/// at least one writer does not. Thread-control ops are conservatively
/// dependent with everything (they are rare; precision there buys little).
bool dependent(const Op& a, const Op& b) {
    auto is_control = [](const Op& o) {
        return o.kind == OpKind::kSpawn || o.kind == OpKind::kJoin;
    };
    if (is_control(a) || is_control(b)) return true;
    if (a.loc != b.loc) return false;
    // A notify only changes whether a blocked waiter on the location can
    // run: it commutes with loads and writes, never with a wait or wake.
    if (a.kind == OpKind::kNotify || b.kind == OpKind::kNotify) {
        const Op& other = a.kind == OpKind::kNotify ? b : a;
        return other.kind == OpKind::kWait || other.kind == OpKind::kWake ||
               other.kind == OpKind::kNotify;
    }
    auto is_read = [](const Op& o) {
        return o.kind == OpKind::kLoad || o.kind == OpKind::kWait ||
               o.kind == OpKind::kWake;
    };
    return !(is_read(a) && is_read(b));
}

/// One store in a location's modification order.
struct Store {
    std::uint64_t value = 0;
    int tid = 0;      // storing thread
    Clock stamp;      // storing thread's clock at the store (hb test)
    Clock rel;        // release-sequence payload joined by acquire readers
    bool has_rel = false;
};

struct AtomicLoc {
    std::vector<Store> mo;  // modification order, append-only
    int last_sc = -1;       // index of the latest seq_cst store, -1 if none
};

/// Race-detection state of one plain (model::var) location.
struct PlainLoc {
    Clock write_stamp;  // stamp of the last write
    int write_tid = -1;
    Clock reads;        // join of all read stamps since the last write
    bool has_reads = false;
};

enum class ThreadState { kUnused, kRunning, kParked, kDone };

struct ThreadRec {
    ThreadState state = ThreadState::kUnused;
    Op pending;              // valid when kParked
    Clock clock;             // the thread's vector clock
    std::function<void()> job;
    bool has_job = false;    // job assigned, worker should pick it up
    bool notified = false;   // blocked in wait: a notify has landed since
};

struct SleepEnt {
    int tid = 0;
    Op op;
};

/// One DFS trail node.
struct Node {
    bool is_choice = false;

    // --- Sched node ---
    int chosen_tid = 0;
    Op chosen_op;                      // the op the chosen thread announced
    std::vector<SleepEnt> sleep;       // sleep set on entry (fixed at creation)
    std::vector<SleepEnt> tried;       // fully-explored siblings
    std::vector<SleepEnt> enabled_at;  // enabled threads + their pending ops
    int preemptions = 0;               // preemptions used up to and incl. here

    // --- Choice node ---
    std::size_t num_choices = 0;
    std::size_t chosen = 0;  // index into the candidate list (newest first)
};

class Explorer;
thread_local Explorer* tls_explorer = nullptr;

class Explorer {
public:
    explicit Explorer(const Options& options) : options_(options) {}

    ~Explorer() {
        {
            std::lock_guard lock(m_);
            shutdown_ = true;
        }
        for (auto& cv : thread_cv_) cv.notify_all();
        ctl_cv_.notify_all();
        for (auto& w : workers_)
            if (w.joinable()) w.join();
    }

    Explorer(const Explorer&) = delete;
    Explorer& operator=(const Explorer&) = delete;

    Result run(const std::function<void()>& body) {
        Result res;
        while (true) {
            run_one(body);
            ++res.executions;
            res.steps += exec_steps_;
            if (!failure_.empty()) {
                res.ok = false;
                res.complete = true;  // failing interleaving is a definite answer
                res.failure = render_failure();
                if (options_.verbose) std::fputs(res.failure.c_str(), stderr);
                return res;
            }
            if (options_.max_executions != 0 &&
                res.executions >= options_.max_executions && advance_possible()) {
                res.ok = true;
                res.complete = false;
                return res;
            }
            if (!advance_trail()) {
                res.ok = true;
                res.complete = true;
                return res;
            }
        }
    }

    // ---- calls from model threads (narrow interface) --------------------

    std::size_t reg_atomic(std::uint64_t init) {
        const int tid = current_tid();
        AtomicLoc loc;
        Store s;
        s.value = init;
        s.tid = tid;
        s.stamp = threads_[static_cast<std::size_t>(tid)].clock;
        // The initial value behaves like a release store by the creator:
        // any thread that reaches this cell does so via a spawn edge anyway.
        s.rel = s.stamp;
        s.has_rel = true;
        loc.mo.push_back(s);
        atomics_.push_back(std::move(loc));
        for (auto& v : views_) v.push_back(0);
        return atomics_.size() - 1;
    }

    std::size_t reg_plain() {
        plains_.emplace_back();
        return plains_.size() - 1;
    }

    std::uint64_t atomic_load(std::size_t loc, int mo) {
        schedule(Op{OpKind::kLoad, loc, 0, mo});
        return perform_read(loc, mo, /*wait_old=*/nullptr);
    }

    void atomic_store(std::size_t loc, std::uint64_t v, int mo) {
        schedule(Op{OpKind::kStore, loc, v, mo});
        const int tid = current_tid();
        auto& th = threads_[static_cast<std::size_t>(tid)];
        Store s;
        s.value = v;
        s.tid = tid;
        s.stamp = th.clock;
        if (mo_releases(mo)) {
            s.rel = th.clock;
            s.has_rel = true;
        }
        auto& al = atomics_[loc];
        al.mo.push_back(s);
        if (mo_sc(mo)) al.last_sc = static_cast<int>(al.mo.size()) - 1;
        views_[static_cast<std::size_t>(tid)][loc] = al.mo.size() - 1;
        trace_step(tid, "store " + loc_str(loc) + "@" + mo_name(mo) + " := " +
                            std::to_string(v));
    }

    std::uint64_t rmw(std::size_t loc, std::uint64_t operand, int op, int mo) {
        schedule(Op{OpKind::kRmw, loc, operand, mo});
        const std::uint64_t old = perform_rmw(loc, mo, [&](std::uint64_t v) {
            switch (op) {
                case detail::kRmwOr: return v | operand;
                case detail::kRmwAnd: return v & operand;
                default: return v + operand;
            }
        });
        static constexpr const char* kSym[] = {" +", " |", " &"};
        trace_step(current_tid(), "rmw " + loc_str(loc) + "@" + mo_name(mo) +
                                      kSym[op] + std::to_string(operand) +
                                      " -> " + std::to_string(old));
        return old;
    }

    bool cas(std::size_t loc, std::uint64_t& expected, std::uint64_t desired,
             int mo) {
        schedule(Op{OpKind::kCas, loc, desired, mo});
        // Both arms read the latest store (atomicity for the success arm; a
        // deliberate simplification for the failure arm, which C++ allows to
        // read staler values — an under-approximation, documented in the
        // header, that cannot invent forbidden behaviors).
        auto& al = atomics_[loc];
        const Store& back = al.mo.back();
        const int tid = current_tid();
        auto& th = threads_[static_cast<std::size_t>(tid)];
        const bool success = back.value == expected;
        if (!success) {
            expected = back.value;
            if (mo_acquires(mo) && back.has_rel) join_clock(th.clock, back.rel);
            views_[static_cast<std::size_t>(tid)][loc] = al.mo.size() - 1;
            trace_step(tid, "cas-fail " + loc_str(loc) + "@" + mo_name(mo) +
                                " -> " + std::to_string(back.value));
            return false;
        }
        perform_rmw(loc, mo, [&](std::uint64_t) { return desired; });
        trace_step(tid, "cas " + loc_str(loc) + "@" + mo_name(mo) + " := " +
                            std::to_string(desired));
        return true;
    }

    /// wait(old): returns at once when the load reads a value != old, or
    /// when the location's latest store is != old (the futex compare
    /// against the current word); otherwise the thread blocks on a kWake
    /// op, which only a later notify (plus a readable value != old)
    /// enables — see op_enabled.
    void atomic_wait(std::size_t loc, std::uint64_t old, int mo) {
        schedule(Op{OpKind::kWait, loc, old, mo});
        if (atomics_[loc].mo.back().value != old) {
            perform_read(loc, mo, &old);
            return;
        }
        if (perform_read(loc, mo, nullptr) != old) return;
        threads_[static_cast<std::size_t>(current_tid())].notified = false;
        schedule(Op{OpKind::kWake, loc, old, mo});
        perform_read(loc, mo, &old);
    }

    void atomic_notify(std::size_t loc, bool all) {
        schedule(Op{OpKind::kNotify, loc, all ? 1u : 0u, 0});
        const int tid = current_tid();
        std::vector<int> blocked;
        {
            std::lock_guard lock(m_);
            for (int t = 0; t < next_tid_; ++t) {
                const auto& th = threads_[static_cast<std::size_t>(t)];
                if (th.state == ThreadState::kParked &&
                    th.pending.kind == OpKind::kWake && th.pending.loc == loc &&
                    !th.notified)
                    blocked.push_back(t);
            }
        }
        if (!all && blocked.size() > 1) {
            const int one = blocked[choose(blocked.size())];
            blocked.assign(1, one);
        }
        std::string woke;
        for (const int t : blocked) {
            threads_[static_cast<std::size_t>(t)].notified = true;
            woke += " T" + std::to_string(t);
        }
        trace_step(tid, std::string(all ? "notify_all " : "notify_one ") +
                            loc_str(loc) + " ->" +
                            (woke.empty() ? std::string(" (none blocked)") : woke));
    }

    void plain_read(std::size_t loc) {
        // Not a schedule point: the race check below is interleaving-
        // insensitive, so scheduling around plain accesses adds states
        // without adding detection power.
        const int tid = current_tid();
        auto& th = threads_[static_cast<std::size_t>(tid)];
        auto& pl = plains_[loc];
        th.clock[static_cast<std::size_t>(tid)] += 1;
        if (pl.write_tid >= 0 && !clock_leq(pl.write_stamp, th.clock))
            fail("data race on plain location " + plain_str(loc) +
                 ": read by T" + std::to_string(tid) +
                 " concurrent with write by T" + std::to_string(pl.write_tid));
        join_clock(pl.reads, th.clock);
        pl.has_reads = true;
    }

    void plain_write(std::size_t loc) {
        const int tid = current_tid();
        auto& th = threads_[static_cast<std::size_t>(tid)];
        auto& pl = plains_[loc];
        th.clock[static_cast<std::size_t>(tid)] += 1;
        if (pl.write_tid >= 0 && !clock_leq(pl.write_stamp, th.clock))
            fail("data race on plain location " + plain_str(loc) +
                 ": write by T" + std::to_string(tid) +
                 " concurrent with write by T" + std::to_string(pl.write_tid));
        if (pl.has_reads && !clock_leq(pl.reads, th.clock))
            fail("data race on plain location " + plain_str(loc) +
                 ": write by T" + std::to_string(tid) +
                 " concurrent with a read");
        pl.write_stamp = th.clock;
        pl.write_tid = tid;
        pl.reads = zero_clock();
        pl.has_reads = false;
    }

    int spawn(std::function<void()> fn) {
        const int child = next_tid_;
        schedule(Op{OpKind::kSpawn, 0, static_cast<std::uint64_t>(child), 0});
        if (next_tid_ >= static_cast<int>(kMaxThreads))
            fail("model thread limit (" + std::to_string(kMaxThreads) +
                 ") exceeded");
        ++next_tid_;
        const int tid = current_tid();
        auto& parent = threads_[static_cast<std::size_t>(tid)];
        auto& ch = threads_[static_cast<std::size_t>(child)];
        ch.clock = parent.clock;  // spawn happens-before the child's first op
        ch.clock[static_cast<std::size_t>(child)] += 1;
        trace_step(tid, "spawn T" + std::to_string(child));
        start_job(child, std::move(fn));
        return child;
    }

    void join(int target) {
        schedule(Op{OpKind::kJoin, 0, static_cast<std::uint64_t>(target), 0});
        const int tid = current_tid();
        auto& th = threads_[static_cast<std::size_t>(tid)];
        join_clock(th.clock, threads_[static_cast<std::size_t>(target)].clock);
        trace_step(tid, "join T" + std::to_string(target));
    }

    [[noreturn]] void fail(const std::string& msg) {
        if (failure_.empty()) {
            failure_ = msg;
            failure_tid_ = current_tid();
        }
        aborting_ = true;
        throw ModelAbort{};
    }

private:
    // ---- one execution ---------------------------------------------------

    void run_one(const std::function<void()>& body) {
        atomics_.clear();
        plains_.clear();
        for (auto& v : views_) v.clear();
        for (auto& t : threads_) {
            t.state = ThreadState::kUnused;
            t.clock = zero_clock();
        }
        next_tid_ = 1;
        pos_ = 0;
        exec_steps_ = 0;
        trace_.clear();
        failure_.clear();
        failure_tid_ = -1;
        aborting_ = false;

        threads_[0].clock[0] = 1;
        start_job(0, body);
        controller_loop();
    }

    /// Run one execution to its end. Scheduling is self-dispatched: the
    /// thread holding the turn picks the next thread itself when it parks
    /// or finishes (continuing without a context switch when it picks
    /// itself), so the controller only starts the execution and winds it
    /// down once the turn comes back to it — at the end, or on a failure,
    /// deadlock or pruned branch.
    void controller_loop() {
        {
            std::unique_lock lock(m_);
            pass_turn_locked(decide_next_locked());
            ctl_cv_.wait(lock, [&] { return turn_ == kController; });
        }
        bool any_live = false;
        for (int t = 0; t < next_tid_; ++t)
            if (threads_[static_cast<std::size_t>(t)].state != ThreadState::kDone)
                any_live = true;
        if (any_live) wind_down();
    }

    /// The next thread to run, or kController when the execution must end:
    /// every thread finished, a failure is aborting it, no thread is enabled
    /// (recorded as a deadlock), or every enabled thread is in the sleep set
    /// (a redundant branch). Engine lock held, by the turn holder.
    int decide_next_locked() {
        if (aborting_) return kController;
        std::vector<SleepEnt> enabled;
        bool any_live = false;
        for (int t = 0; t < next_tid_; ++t) {
            auto& th = threads_[static_cast<std::size_t>(t)];
            if (th.state == ThreadState::kDone) continue;
            any_live = true;
            if (th.state == ThreadState::kParked && op_enabled(t, th))
                enabled.push_back(SleepEnt{t, th.pending});
        }
        if (!any_live) return kController;
        if (enabled.empty()) {
            record_deadlock();
            return kController;
        }
        const int pick = sched_decide(enabled);
        return pick < 0 ? kController : pick;
    }

    /// Hand the turn to `next` and wake it (engine lock held).
    void pass_turn_locked(int next) {
        turn_ = next;
        if (next == kController)
            ctl_cv_.notify_all();
        else
            thread_cv_[static_cast<std::size_t>(next)].notify_one();
    }

    /// Enabledness of thread `tid`'s announced op (engine lock held).
    bool op_enabled(int tid, const ThreadRec& th) {
        const Op& op = th.pending;
        if (op.kind == OpKind::kJoin)
            return threads_[static_cast<std::size_t>(op.arg)].state ==
                   ThreadState::kDone;
        if (op.kind == OpKind::kWake) {
            // A blocked waiter needs a notify since it blocked AND some
            // readable store with a value != old.
            return th.notified &&
                   !read_candidates_for(tid, op.loc, op.mo, &op.arg).empty();
        }
        return true;
    }

    /// Scheduling decision at the current trail position. Returns the tid to
    /// run, or -1 when every enabled thread is in the sleep set (prune).
    int sched_decide(const std::vector<SleepEnt>& enabled) {
        if (pos_ < trail_.size()) {
            Node& node = trail_[pos_];
            ++pos_;
            return node.chosen_tid;  // deterministic replay
        }
        Node node;
        node.is_choice = false;
        node.enabled_at = enabled;
        // Sleep set inherited from the parent sched node, minus entries woken
        // by a dependent op executed since (each step has its own node, so
        // "since" is exactly the parent's op).
        const Node* parent = last_sched_node();
        if (parent != nullptr) {
            for (const auto& e : parent->sleep)
                if (!dependent(e.op, parent->chosen_op)) node.sleep.push_back(e);
            for (const auto& e : parent->tried)
                if (!dependent(e.op, parent->chosen_op)) node.sleep.push_back(e);
        }
        const int prev = parent != nullptr ? parent->chosen_tid : 0;
        const int used = parent != nullptr ? parent->preemptions : 0;
        const int chosen = pick_candidate(node, enabled, prev, used);
        if (chosen < 0) return -1;
        trail_.push_back(std::move(node));
        ++pos_;
        return chosen;
    }

    /// Pick a runnable candidate for `node` honoring sleep set + preemption
    /// budget; fills chosen_tid/chosen_op/preemptions. Returns -1 if none.
    int pick_candidate(Node& node, const std::vector<SleepEnt>& enabled,
                       int prev, int used) {
        auto asleep = [&](int tid) {
            for (const auto& e : node.sleep)
                if (e.tid == tid) return true;
            for (const auto& e : node.tried)
                if (e.tid == tid) return true;
            return false;
        };
        const bool prev_enabled = std::any_of(
            enabled.begin(), enabled.end(),
            [&](const SleepEnt& e) { return e.tid == prev; });
        std::vector<const SleepEnt*> cands;
        // Prefer continuing the previous thread (no preemption) — it keeps
        // the default execution close to a sequential run.
        for (const auto& e : enabled)
            if (e.tid == prev && !asleep(e.tid)) cands.push_back(&e);
        for (const auto& e : enabled)
            if (e.tid != prev && !asleep(e.tid)) cands.push_back(&e);
        for (const SleepEnt* c : cands) {
            const bool preempts = prev_enabled && c->tid != prev;
            if (preempts && options_.preemption_bound >= 0 &&
                used >= options_.preemption_bound)
                continue;
            node.chosen_tid = c->tid;
            node.chosen_op = c->op;
            node.preemptions = used + (preempts ? 1 : 0);
            return c->tid;
        }
        return -1;
    }

    const Node* last_sched_node() const {
        for (std::size_t i = pos_; i > 0; --i)
            if (!trail_[i - 1].is_choice) return &trail_[i - 1];
        return nullptr;
    }

    /// Backtrack: advance the deepest node with an unexplored alternative.
    bool advance_trail() {
        while (!trail_.empty()) {
            Node& node = trail_.back();
            if (node.is_choice) {
                if (node.chosen + 1 < node.num_choices) {
                    ++node.chosen;
                    return true;
                }
                trail_.pop_back();
                continue;
            }
            node.tried.push_back(SleepEnt{node.chosen_tid, node.chosen_op});
            // Recompute used-preemption budget from the parent.
            const Node* parent = nullptr;
            for (std::size_t i = trail_.size() - 1; i > 0; --i)
                if (!trail_[i - 1].is_choice) {
                    parent = &trail_[i - 1];
                    break;
                }
            const int prev = parent != nullptr ? parent->chosen_tid : 0;
            const int used = parent != nullptr ? parent->preemptions : 0;
            if (pick_candidate(node, node.enabled_at, prev, used) >= 0)
                return true;
            trail_.pop_back();
        }
        return false;
    }

    bool advance_possible() const {
        for (const Node& node : trail_) {
            if (node.is_choice) {
                if (node.chosen + 1 < node.num_choices) return true;
            } else if (node.tried.size() + node.sleep.size() + 1 <
                       node.enabled_at.size()) {
                return true;
            }
        }
        return false;
    }

    // ---- memory-model semantics (thread holds the turn) ------------------

    /// Stores of `loc` thread `tid` may legally read: at or after its own
    /// per-location view, at or after any store that happens-before now,
    /// and (for seq_cst) at or after the latest seq_cst store. Newest first.
    std::vector<std::size_t> read_candidates_for(int tid, std::size_t loc,
                                                 int mo,
                                                 const std::uint64_t* not_value) {
        const auto& th = threads_[static_cast<std::size_t>(tid)];
        const auto& al = atomics_[loc];
        std::size_t floor = views_[static_cast<std::size_t>(tid)][loc];
        for (std::size_t j = al.mo.size(); j > floor; --j) {
            const Store& s = al.mo[j - 1];
            if (s.stamp[static_cast<std::size_t>(s.tid)] <=
                th.clock[static_cast<std::size_t>(s.tid)]) {
                floor = std::max(floor, j - 1);  // hb-ordered: can't read older
                break;
            }
        }
        if (mo_sc(mo) && al.last_sc >= 0)
            floor = std::max(floor, static_cast<std::size_t>(al.last_sc));
        std::vector<std::size_t> out;
        for (std::size_t j = al.mo.size(); j > floor; --j) {
            if (not_value != nullptr && al.mo[j - 1].value == *not_value)
                continue;
            out.push_back(j - 1);
        }
        return out;
    }

    /// Perform a load (wait_old == nullptr) or a wait wake-up read
    /// (candidates restricted to value != *wait_old), with read-from
    /// branching through a Choice trail node.
    std::uint64_t perform_read(std::size_t loc, int mo,
                               const std::uint64_t* wait_old) {
        const int tid = current_tid();
        auto cands = read_candidates_for(tid, loc, mo, wait_old);
        // Enabledness was checked before granting; candidates only grow.
        std::size_t pick = 0;
        if (cands.size() > 1) pick = choose(cands.size());
        const std::size_t idx = cands[pick];
        auto& th = threads_[static_cast<std::size_t>(tid)];
        const Store& s = atomics_[loc].mo[idx];
        if (mo_acquires(mo) && s.has_rel) join_clock(th.clock, s.rel);
        auto& view = views_[static_cast<std::size_t>(tid)][loc];
        view = std::max(view, idx);
        trace_step(tid, std::string(wait_old != nullptr ? "wake " : "load ") +
                            loc_str(loc) + "@" + mo_name(mo) + " -> " +
                            std::to_string(s.value) + " (store#" +
                            std::to_string(idx) + ")");
        return s.value;
    }

    /// Read-modify-write: atomically reads the latest store and appends the
    /// transformed value, continuing the release sequence. Returns old.
    template <typename F>
    std::uint64_t perform_rmw(std::size_t loc, int mo, F&& f) {
        const int tid = current_tid();
        auto& th = threads_[static_cast<std::size_t>(tid)];
        auto& al = atomics_[loc];
        const Store back = al.mo.back();
        if (mo_acquires(mo) && back.has_rel) join_clock(th.clock, back.rel);
        Store s;
        s.value = f(back.value);
        s.tid = tid;
        s.stamp = th.clock;
        // An RMW continues the release sequence of the store it replaces:
        // its payload keeps the predecessor's, joined with this thread's
        // clock when the RMW itself releases.
        s.rel = back.has_rel ? back.rel : zero_clock();
        s.has_rel = back.has_rel;
        if (mo_releases(mo)) {
            join_clock(s.rel, th.clock);
            s.has_rel = true;
        }
        al.mo.push_back(s);
        if (mo_sc(mo)) al.last_sc = static_cast<int>(al.mo.size()) - 1;
        views_[static_cast<std::size_t>(tid)][loc] = al.mo.size() - 1;
        return back.value;
    }

    /// Read-from (and any other data) nondeterminism: branch over n
    /// alternatives through the trail. Called by the thread with the turn.
    std::size_t choose(std::size_t n) {
        if (pos_ < trail_.size()) {
            Node& node = trail_[pos_];
            ++pos_;
            return node.chosen;
        }
        Node node;
        node.is_choice = true;
        node.num_choices = n;
        node.chosen = 0;
        trail_.push_back(node);
        ++pos_;
        return 0;
    }

    // ---- cooperative scheduling machinery --------------------------------

    int current_tid() const { return tls_tid; }

    /// Announce the next operation, hand the turn back, and block until the
    /// controller grants it. Increments the thread's clock component (every
    /// performed op is a distinct event).
    void schedule(Op op) {
        const int tid = current_tid();
        auto& th = threads_[static_cast<std::size_t>(tid)];
        {
            std::unique_lock lock(m_);
            th.pending = op;
            th.state = ThreadState::kParked;
            if (turn_ == tid) {
                const int next = decide_next_locked();
                if (next != tid) pass_turn_locked(next);
            } else {
                ctl_cv_.notify_all();  // first op: the spawner waits for it
            }
            thread_cv_[static_cast<std::size_t>(tid)].wait(
                lock, [&] { return turn_ == tid || shutdown_; });
            th.state = ThreadState::kRunning;
            if (shutdown_) throw ModelAbort{};
        }
        if (aborting_) throw ModelAbort{};
        th.clock[static_cast<std::size_t>(tid)] += 1;
        ++exec_steps_;
        if (exec_steps_ > options_.max_steps)
            fail("step cap exceeded (" + std::to_string(options_.max_steps) +
                 " ops in one execution) — runaway loop in the checked body?");
    }

    /// Controller: give the turn to `tid` and wait for it to park or finish.
    void grant_and_wait(int tid) {
        std::unique_lock lock(m_);
        turn_ = tid;
        thread_cv_[static_cast<std::size_t>(tid)].notify_one();
        ctl_cv_.wait(lock, [&] { return turn_ == kController; });
    }

    /// Wind down an aborted or pruned execution: release every live thread;
    /// each observes aborting_ and unwinds via ModelAbort.
    void wind_down() {
        aborting_ = true;
        while (true) {
            int next = -1;
            {
                std::lock_guard lock(m_);
                for (int t = 0; t < next_tid_; ++t)
                    if (threads_[static_cast<std::size_t>(t)].state ==
                        ThreadState::kParked) {
                        next = t;
                        break;
                    }
            }
            if (next < 0) break;
            grant_and_wait(next);
        }
        // Wait for any thread still running its unwind to finish.
        std::unique_lock lock(m_);
        ctl_cv_.wait(lock, [&] {
            for (int t = 0; t < next_tid_; ++t)
                if (threads_[static_cast<std::size_t>(t)].state !=
                        ThreadState::kDone &&
                    threads_[static_cast<std::size_t>(t)].state !=
                        ThreadState::kUnused)
                    return false;
            return true;
        });
    }

    void record_deadlock() {
        if (!failure_.empty()) return;
        std::ostringstream os;
        os << "deadlock: no thread is enabled;";
        for (int t = 0; t < next_tid_; ++t) {
            const auto& th = threads_[static_cast<std::size_t>(t)];
            if (th.state == ThreadState::kParked)
                os << " T" << t << " blocked on "
                   << op_name(th.pending.kind) << "(" << th.pending.loc << ")";
        }
        failure_ = os.str();
    }

    /// Start (or reuse) the worker OS thread for model tid `t` and hand it
    /// `fn`; blocks until the new model thread parks at its first operation
    /// (so exactly one model thread is ever running user code).
    void start_job(int t, std::function<void()> fn) {
        {
            std::lock_guard lock(m_);
            auto& th = threads_[static_cast<std::size_t>(t)];
            th.job = std::move(fn);
            th.has_job = true;
            th.state = ThreadState::kRunning;
            if (workers_.size() <= static_cast<std::size_t>(t))
                workers_.emplace_back([this, t] { worker_loop(t); });
        }
        thread_cv_[static_cast<std::size_t>(t)].notify_one();
        std::unique_lock lock(m_);
        ctl_cv_.wait(lock, [&] {
            const auto st = threads_[static_cast<std::size_t>(t)].state;
            return st == ThreadState::kParked || st == ThreadState::kDone;
        });
    }

    void worker_loop(int tid) {
        tls_explorer = this;
        tls_tid = tid;
        while (true) {
            std::function<void()> job;
            {
                std::unique_lock lock(m_);
                auto& th = threads_[static_cast<std::size_t>(tid)];
                thread_cv_[static_cast<std::size_t>(tid)].wait(
                    lock, [&] { return th.has_job || shutdown_; });
                if (shutdown_) return;
                th.has_job = false;
                job = std::move(th.job);
            }
            try {
                job();
            } catch (const ModelAbort&) {
            } catch (const std::exception& e) {
                if (failure_.empty())
                    failure_ = std::string("exception escaped model thread: ") +
                               e.what();
                aborting_ = true;
            } catch (...) {
                if (failure_.empty())
                    failure_ = "exception escaped model thread";
                aborting_ = true;
            }
            {
                std::lock_guard lock(m_);
                auto& th = threads_[static_cast<std::size_t>(tid)];
                th.state = ThreadState::kDone;
                if (turn_ == tid) pass_turn_locked(decide_next_locked());
            }
            ctl_cv_.notify_all();
        }
    }

    // ---- reporting -------------------------------------------------------

    void trace_step(int tid, std::string what) {
        trace_.push_back("T" + std::to_string(tid) + " " + std::move(what));
    }

    static std::string loc_str(std::size_t loc) {
        return "a" + std::to_string(loc);
    }
    static std::string plain_str(std::size_t loc) {
        return "p" + std::to_string(loc);
    }

    std::string render_failure() const {
        std::ostringstream os;
        os << failure_;
        if (failure_tid_ >= 0) os << " (detected by T" << failure_tid_ << ")";
        os << "\ninterleaving (" << trace_.size() << " steps):\n";
        for (std::size_t i = 0; i < trace_.size(); ++i)
            os << "  #" << i << " " << trace_[i] << "\n";
        return os.str();
    }

    // ---- state -----------------------------------------------------------

    Options options_;

    // Engine coordination.
    // One condvar per model thread (woken only for its own turn or job) and
    // one for the controller side (a thread parked or finished), so a
    // handoff wakes exactly the party it concerns.
    std::mutex m_;
    std::array<std::condition_variable, kMaxThreads> thread_cv_;
    std::condition_variable ctl_cv_;
    int turn_ = kController;
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
    static thread_local int tls_tid;

    // Per-execution program state.
    std::array<ThreadRec, kMaxThreads> threads_;
    int next_tid_ = 1;
    std::vector<AtomicLoc> atomics_;
    std::vector<PlainLoc> plains_;
    std::array<std::vector<std::size_t>, kMaxThreads> views_;
    bool aborting_ = false;
    std::string failure_;
    int failure_tid_ = -1;
    std::vector<std::string> trace_;
    std::uint64_t exec_steps_ = 0;

    // DFS trail (persists across executions; truncated on backtrack).
    std::vector<Node> trail_;
    std::size_t pos_ = 0;
};

thread_local int Explorer::tls_tid = kController;

}  // namespace

Result check(const Options& options, const std::function<void()>& body) {
    Explorer explorer(options);
    return explorer.run(body);
}

namespace detail {

namespace {
Explorer& cur() {
    // A model cell or thread used outside a running check() body is a
    // programming error in the litmus unit itself.
    if (tls_explorer == nullptr)
        std::abort();
    return *tls_explorer;
}
}  // namespace

std::size_t ExecHandle::reg_atomic(std::uint64_t init) {
    return cur().reg_atomic(init);
}
std::size_t ExecHandle::reg_plain() { return cur().reg_plain(); }
std::uint64_t ExecHandle::atomic_load(std::size_t loc, int mo) {
    return cur().atomic_load(loc, mo);
}
void ExecHandle::atomic_store(std::size_t loc, std::uint64_t v, int mo) {
    cur().atomic_store(loc, v, mo);
}
std::uint64_t ExecHandle::rmw(std::size_t loc, std::uint64_t operand, int op,
                              int mo) {
    return cur().rmw(loc, operand, op, mo);
}
bool ExecHandle::cas(std::size_t loc, std::uint64_t& expected,
                     std::uint64_t desired, int mo) {
    return cur().cas(loc, expected, desired, mo);
}
void ExecHandle::atomic_wait(std::size_t loc, std::uint64_t old, int mo) {
    cur().atomic_wait(loc, old, mo);
}
void ExecHandle::atomic_notify(std::size_t loc, bool all) {
    cur().atomic_notify(loc, all);
}
void ExecHandle::plain_read(std::size_t loc) { cur().plain_read(loc); }
void ExecHandle::plain_write(std::size_t loc) { cur().plain_write(loc); }
int ExecHandle::spawn(std::function<void()> fn) {
    return cur().spawn(std::move(fn));
}
void ExecHandle::join(int tid) { cur().join(tid); }
void ExecHandle::fail(const std::string& msg) { cur().fail(msg); }

}  // namespace detail
}  // namespace htims::check
