/**
 * @file
 * Step-budget and wall-clock watchdogs for the interpreter and the
 * cycle-level simulators.
 *
 * A livelocked schedule (or a pathological DSE candidate) must not spin
 * forever inside an exploration worker. A WatchdogScope installs a
 * thread-local budget; instrumented inner loops charge it once per unit
 * of work (an iteration point, a simulated cycle wave, a merge round).
 * When the budget expires the charge throws TimeoutError carrying a
 * diagnostic state dump supplied by the loop (last point executed,
 * queue occupancies), which the DSE isolation layer records as a
 * per-candidate Timeout failure.
 *
 * Two budgets can be active on one watchdog:
 *  - a *step* budget, counted exactly, deterministic across hosts;
 *  - a *wall-clock* deadline in milliseconds, checked at batch
 *    boundaries, for untrusted external inputs (SuiteSparse /
 *    MatrixMarket sweeps) whose step counts cannot be bounded ahead
 *    of time.
 *
 * Hot loops charge through a WatchdogBatcher rather than per-step
 * watchdogTick calls: the batcher caches the thread-local lookup once,
 * pre-charges work in batches capped to the remaining step allowance
 * (so expiry lands on exactly the same step, with the same diagnostic,
 * as per-step ticking), checks the wall-clock deadline at each batch
 * boundary, and refunds unconsumed credit on destruction so the step
 * count stays exact for any later loop on the same watchdog. When no
 * watchdog is installed a batcher step is a single null check — no
 * thread-local load, and the diagnostic dump is never evaluated.
 *
 * The thread-local design keeps the plumbing out of every simulator
 * signature: callers that want a budget wrap the call in a scope, and
 * code that never installs one pays almost nothing. Scopes nest; the
 * innermost budget applies.
 */

#ifndef STELLAR_UTIL_WATCHDOG_HPP
#define STELLAR_UTIL_WATCHDOG_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "util/failure.hpp"

namespace stellar::util
{

/** A counting step budget; throws TimeoutError when exceeded. */
class Watchdog
{
  public:
    /**
     * `max_steps` of 0 disables the step budget (ticks only count);
     * `max_millis` of 0 disables the wall-clock deadline. The deadline
     * clock starts at construction.
     */
    Watchdog(std::string stage, std::int64_t max_steps,
             std::int64_t max_millis = 0)
        : stage_(std::move(stage)), budget_(max_steps),
          millisBudget_(max_millis)
    {
        if (millisBudget_ > 0)
            start_ = std::chrono::steady_clock::now();
    }

    const std::string &stage() const { return stage_; }
    std::int64_t budget() const { return budget_; }
    std::int64_t millisBudget() const { return millisBudget_; }
    std::int64_t stepsExecuted() const { return steps_; }
    bool enabled() const { return budget_ > 0; }
    bool deadlineEnabled() const { return millisBudget_ > 0; }

    /**
     * Steps left before the budget expires (0 when exhausted). Batched
     * loops use this to charge K points with a single tick and still
     * expire at exactly the same step the per-point tick would.
     */
    std::int64_t
    remaining() const
    {
        return budget_ > steps_ ? budget_ - steps_ : 0;
    }

    /** Charge `steps` units of work; throws TimeoutError on expiry. */
    void
    tick(std::int64_t steps = 1)
    {
        steps_ += steps;
        if (enabled() && steps_ > budget_)
            expire("");
    }

    /**
     * Charge `steps` and, only on expiry, call `dump` for the
     * diagnostic state description carried by the TimeoutError. The
     * dump is never evaluated on the fast path.
     */
    template <typename DumpFn>
    void
    tick(std::int64_t steps, DumpFn &&dump)
    {
        steps_ += steps;
        if (enabled() && steps_ > budget_)
            expire(dump());
    }

    /**
     * Return `steps` previously over-charged by a batched loop that
     * ended mid-batch, so stepsExecuted() reflects work actually done.
     */
    void
    refund(std::int64_t steps)
    {
        steps_ = std::max<std::int64_t>(0, steps_ - steps);
    }

    /** Milliseconds elapsed since construction (0 with no deadline). */
    std::int64_t
    millisElapsed() const
    {
        if (!deadlineEnabled())
            return 0;
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start_)
                .count();
    }

    /**
     * Throw TimeoutError if the wall-clock deadline has passed,
     * evaluating `dump` only on expiry. Called at batch boundaries —
     * never per step — so the steady_clock read is amortized.
     */
    template <typename DumpFn>
    void
    checkDeadline(DumpFn &&dump)
    {
        if (deadlineEnabled() && millisElapsed() > millisBudget_)
            throw TimeoutError::wallClock(stage_, millisElapsed(),
                                          millisBudget_, steps_, dump());
    }

    /** Deadline check without a diagnostic dump. */
    void
    checkDeadline()
    {
        checkDeadline([]() { return std::string(); });
    }

  private:
    [[noreturn]] void
    expire(const std::string &diagnostic)
    {
        throw TimeoutError(stage_, steps_, budget_, diagnostic);
    }

    std::string stage_;
    std::int64_t budget_ = 0;
    std::int64_t millisBudget_ = 0;
    std::int64_t steps_ = 0;
    std::chrono::steady_clock::time_point start_{};
};

/** The watchdog installed on this thread; nullptr when none. */
Watchdog *currentWatchdog();

/**
 * RAII: installs a thread-local Watchdog for the dynamic extent of the
 * scope and restores the previous one (scopes nest) on destruction.
 */
class WatchdogScope
{
  public:
    WatchdogScope(std::string stage, std::int64_t max_steps,
                  std::int64_t max_millis = 0);
    ~WatchdogScope();

    WatchdogScope(const WatchdogScope &) = delete;
    WatchdogScope &operator=(const WatchdogScope &) = delete;

    Watchdog &watchdog() { return watchdog_; }

  private:
    Watchdog watchdog_;
    Watchdog *previous_;
};

/**
 * RAII: uninstalls the current thread's watchdog for the dynamic extent
 * of the scope and restores it on destruction. Used around work done on
 * behalf of *every* consumer — e.g. a workload-cache miss synthesizing
 * a shared input: whether a given sweep point pays synthesis steps must
 * not depend on which point happened to miss first, so the miss charges
 * nobody (exactly like a hit).
 */
class WatchdogSuspend
{
  public:
    WatchdogSuspend();
    ~WatchdogSuspend();

    WatchdogSuspend(const WatchdogSuspend &) = delete;
    WatchdogSuspend &operator=(const WatchdogSuspend &) = delete;

  private:
    Watchdog *previous_;
};

/** Tick the installed watchdog, if any. */
inline void
watchdogTick(std::int64_t steps = 1)
{
    if (Watchdog *dog = currentWatchdog())
        dog->tick(steps);
}

/** Tick with a lazily evaluated diagnostic dump. */
template <typename DumpFn>
inline void
watchdogTick(std::int64_t steps, DumpFn &&dump)
{
    if (Watchdog *dog = currentWatchdog())
        dog->tick(steps, std::forward<DumpFn>(dump));
}

/**
 * Batch size override installed by tests (0 = use the default). With an
 * override of 1 a WatchdogBatcher degenerates to exact per-step
 * ticking, which is the oracle the batched-expiry tests compare
 * against.
 */
std::int64_t watchdogBatchOverride();

/** RAII: overrides the batcher batch size on this thread (for tests). */
class WatchdogBatchOverride
{
  public:
    explicit WatchdogBatchOverride(std::int64_t batch);
    ~WatchdogBatchOverride();

    WatchdogBatchOverride(const WatchdogBatchOverride &) = delete;
    WatchdogBatchOverride &operator=(const WatchdogBatchOverride &) =
            delete;

  private:
    std::int64_t previous_;
};

/**
 * Batched charging of the current thread's watchdog for hot simulator
 * loops. Construct once outside the loop, call step(dump) once per unit
 * of work. Guarantees, enforced by tests/sim_parallel_test.cpp:
 *
 *  - *budget-exact expiry*: an installed step budget expires after
 *    exactly the same number of steps, throwing the same TimeoutError
 *    stage/steps/diagnostic, as per-step watchdogTick(1, dump) would,
 *    because each pre-charged batch is capped to the remaining
 *    allowance and the expiring step is charged alone with its dump;
 *  - *wall-clock deadlines* are checked once per batch boundary;
 *  - *exact accounting*: unconsumed pre-charged credit is refunded on
 *    destruction, so stepsExecuted() equals the work actually done and
 *    later loops on the same watchdog expire at the right step;
 *  - *zero-cost when idle*: with no watchdog installed, step() is one
 *    branch on a cached pointer — no thread-local load and no dump
 *    evaluation. The dump is only ever evaluated on expiry.
 */
class WatchdogBatcher
{
  public:
    /** Points charged per batch (matches IterationSpace's batching). */
    static constexpr std::int64_t kDefaultBatch = 256;

    WatchdogBatcher() : dog_(currentWatchdog()) {}

    ~WatchdogBatcher()
    {
        if (dog_ != nullptr && credit_ > 0)
            dog_->refund(credit_);
    }

    WatchdogBatcher(const WatchdogBatcher &) = delete;
    WatchdogBatcher &operator=(const WatchdogBatcher &) = delete;

    /** True when a watchdog is installed on this thread. */
    bool active() const { return dog_ != nullptr; }

    /** Charge one unit of work; `dump` is evaluated only on expiry. */
    template <typename DumpFn>
    void
    step(DumpFn &&dump)
    {
        if (dog_ == nullptr)
            return;
        if (credit_ == 0)
            refill(std::forward<DumpFn>(dump));
        --credit_;
    }

    /**
     * Units step() can still charge before the step budget expires;
     * the int64 maximum with no watchdog or no step budget.
     */
    std::int64_t
    allowance() const
    {
        if (dog_ == nullptr || !dog_->enabled())
            return std::numeric_limits<std::int64_t>::max();
        return credit_ + dog_->remaining();
    }

    /**
     * Charge `n` units at once, for a loop that accounts for many
     * units of work without running them one by one. `n` must be at
     * most allowance(), so this never expires the budget: the units
     * stay charged exactly as `n` step() calls would leave them, and
     * the expiring unit, if any, is still charged alone by step(). The
     * wall-clock deadline is checked whenever this draws on the
     * watchdog.
     */
    template <typename DumpFn>
    void
    charge(std::int64_t n, DumpFn &&dump)
    {
        if (dog_ == nullptr)
            return;
        const std::int64_t from_credit = std::min(n, credit_);
        credit_ -= from_credit;
        if (n > from_credit) {
            dog_->checkDeadline(dump);
            dog_->tick(n - from_credit, std::forward<DumpFn>(dump));
        }
    }

  private:
    template <typename DumpFn>
    void
    refill(DumpFn &&dump)
    {
        std::int64_t batch = watchdogBatchOverride() > 0
                                     ? watchdogBatchOverride()
                                     : kDefaultBatch;
        if (dog_->enabled()) {
            std::int64_t allowance = dog_->remaining();
            if (allowance == 0) {
                // Expiring step: charge it alone so the TimeoutError
                // carries the per-step-identical step count and dump.
                dog_->tick(1, std::forward<DumpFn>(dump));
            }
            batch = std::min(batch, allowance);
        }
        dog_->checkDeadline(dump);
        dog_->tick(batch);
        credit_ = batch;
    }

    Watchdog *dog_;
    std::int64_t credit_ = 0;
};

} // namespace stellar::util

#endif // STELLAR_UTIL_WATCHDOG_HPP
