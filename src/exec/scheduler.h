#ifndef DATABLOCKS_EXEC_SCHEDULER_H_
#define DATABLOCKS_EXEC_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cpu.h"

namespace datablocks {

/// Process-wide morsel-driven worker pool (Leis et al. [20], the execution
/// model behind HyPer's 64-thread Table 2 numbers): a fixed set of worker
/// threads, each with its own task queue, stealing from siblings when their
/// own queue drains. Query pipelines submit coarse tasks (one per
/// parallelism slot) whose inner loop claims chunk-ranges as morsels from a
/// MorselDispatcher; the lifecycle manager can register periodic ticks so
/// background freezing/compaction shares the same threads instead of owning
/// one per table.
///
/// Workers are pinned to cores round-robin over the host topology
/// (util/cpu HostTopology), node-major so co-scheduled workers share a NUMA
/// node as long as possible; pinning silently degrades to unpinned workers
/// when the topology cannot be probed or the affinity call fails.
///
/// One instance is usually enough: Scheduler::Default() is a lazily
/// constructed process-wide pool sized to the hardware. Components accept
/// an injectable `Scheduler*` (tests build small private pools) and fall
/// back to Default() when given nullptr.
class Scheduler {
 public:
  struct Options {
    /// 0 = one worker per available hardware thread (affinity-mask aware).
    unsigned num_workers = 0;
    /// Best-effort core pinning of the workers (see class comment).
    bool pin_workers = true;
  };

  Scheduler();  // = Scheduler(Options{})
  explicit Scheduler(Options opts);
  /// Joins the workers. Tasks still queued (not yet claimed by a worker)
  /// are dropped — callers sequence completion with TaskGroup::Wait, which
  /// returns only after its tasks ran. Periodic tasks must be removed
  /// before destruction (LifecycleManager::Stop does).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The process-wide pool, created on first use.
  static Scheduler& Default();

  unsigned num_workers() const { return unsigned(workers_.size()); }
  /// CPU the worker was pinned to, -1 when unpinned.
  int worker_cpu(unsigned worker) const { return workers_[worker]->cpu; }
  /// NUMA node of that CPU, -1 when unknown.
  int worker_node(unsigned worker) const { return workers_[worker]->node; }

  /// NUMA node of the calling thread: the pinned node of the pool worker
  /// executing this call, or (for non-pool threads — e.g. the caller
  /// running slot 0 of RunOnSlots) the node it is currently scheduled on
  /// via cpu::CurrentNode(). -1 when unknown. This is what morsel handout
  /// uses to prefer node-local chunks.
  static int CurrentWorkerNode();

  /// Enqueues one task (round-robin over the worker queues; an idle sibling
  /// steals it if the assigned worker is busy). Prefer TaskGroup for
  /// joinable work.
  void Submit(std::function<void()> fn);

  /// Enqueues one task on the pool's urgent lane: one FIFO that every
  /// worker drains before its own queue, so urgent tasks overtake every
  /// task queued with Submit. The serving layer routes OLTP point ops
  /// here. An urgent task does not wait for a running pipeline to end
  /// either: workers in the middle of a scan run pending urgent tasks
  /// inline at their next batch boundary (RunUrgentHere).
  ///
  /// Contract for urgent tasks: one may run on a worker in the middle of
  /// another task's pipeline, between two batches, so it must not wait
  /// on anything that a preempted pipeline holds or needs to progress —
  /// a lock kept across batches (DensePartitionedScan drops its run lock
  /// first, see PreemptRelease), a TaskGroup of that pipeline, or a lock
  /// that another urgent task keeps while it runs a parallel pipeline of
  /// its own. Short point operations meet it trivially. Urgent tasks run
  /// noexcept: a throwing one terminates the process, as in WorkerLoop.
  void SubmitUrgent(std::function<void()> fn);

  /// The preemption point of the morsel loops, called at every batch
  /// boundary (the top of TableScanner::Next). On a worker of a pool with
  /// pending urgent tasks it runs them inline, after the thread's
  /// PreemptRelease scopes dropped what they hold; elsewhere it costs one
  /// thread-local load (plus one relaxed atomic load on a pool worker).
  /// An urgent task never runs other urgent tasks nested inside itself.
  static void RunUrgentHere();

  /// Scope guard for a morsel loop that keeps a lock from one batch to
  /// the next: while it lives, RunUrgentHere on this thread calls
  /// `release(ctx)` before it runs any urgent task, so no urgent task
  /// runs while the lock is held. Scopes nest; every live one is called.
  class PreemptRelease {
   public:
    PreemptRelease(void (*release)(void*), void* ctx);
    ~PreemptRelease();
    PreemptRelease(const PreemptRelease&) = delete;
    PreemptRelease& operator=(const PreemptRelease&) = delete;

   private:
    friend class Scheduler;
    void (*const release_)(void*);
    void* const ctx_;
    const PreemptRelease* const outer_;
  };

  /// Registers `fn` to run roughly every `interval` on pool workers.
  /// Returns a nonzero id for RemovePeriodic. Firings are skipped while a
  /// previous firing of the same task is still executing, so a slow task
  /// cannot pile up in the queues.
  uint64_t AddPeriodic(std::chrono::milliseconds interval,
                       std::function<void()> fn);

  /// Unregisters a periodic task and blocks until any in-flight execution
  /// of it has finished — after return, `fn` will never run again. Must not
  /// be called from inside the task itself.
  void RemovePeriodic(uint64_t id);

  /// Tasks executed by pool workers (excludes TaskGroup::Wait help-runs;
  /// includes urgent tasks run inline at a batch boundary).
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  /// Tasks a worker took from a sibling's queue.
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  /// Per-worker slice of tasks_run()/steals(); index = worker id. The
  /// split shows work-distribution skew the pool-wide totals hide.
  struct WorkerStats {
    uint64_t tasks_run = 0;
    uint64_t steals = 0;
  };
  std::vector<WorkerStats> worker_stats() const;

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> queue;  // guarded by mu
    std::thread thread;
    int cpu = -1;
    int node = -1;
    std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> steals{0};
  };

  struct Periodic {
    std::chrono::milliseconds interval;
    std::function<void()> fn;
    std::chrono::steady_clock::time_point next_fire;
    bool in_flight = false;
    bool removed = false;
  };

  void WorkerLoop(unsigned self);
  bool TryRunOne(unsigned self);
  /// Pops the oldest urgent task (empty when none is pending).
  std::function<void()> PopUrgent();
  void RunUrgent(std::function<void()>& task, unsigned self) noexcept;
  void CountRun(unsigned self);
  void FirePeriodic(uint64_t id);
  void TimerLoop();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<unsigned> next_queue_{0};  // Submit round-robin cursor

  // The urgent lane (SubmitUrgent). urgent_pending_ mirrors urgent_.size()
  // so RunUrgentHere can test it without taking urgent_mu_.
  std::mutex urgent_mu_;
  std::deque<std::function<void()>> urgent_;  // guarded by urgent_mu_
  std::atomic<size_t> urgent_pending_{0};

  // Idle workers sleep here; pending_ counts queued-but-unclaimed tasks,
  // urgent ones included.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  size_t pending_ = 0;
  bool stop_ = false;

  // Periodic-task registry + timer thread (lazily started).
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::map<uint64_t, Periodic> periodics_;
  uint64_t next_periodic_id_ = 1;
  std::thread timer_;
  bool timer_stop_ = false;

  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> steals_{0};
};

/// Resolves a user-facing thread-count knob against a pool: 0 means "all
/// hardware threads" (the pool's worker count when one is given). Always
/// >= 1.
inline unsigned EffectiveThreads(unsigned requested,
                                 const Scheduler* scheduler = nullptr) {
  if (requested != 0) return requested;
  if (scheduler != nullptr && scheduler->num_workers() > 0)
    return scheduler->num_workers();
  return cpu::HardwareThreads();
}

/// A joinable batch of tasks on a Scheduler. Wait() is deadlock-free even
/// when called from a pool worker (nested parallelism): unclaimed tasks of
/// the group are run by the waiting thread itself, so progress never
/// depends on a free worker.
///
/// A task that throws does NOT take the pool down: the first exception of
/// the group is captured and rethrown from Wait() on the joining thread
/// (later ones are dropped — one failure fails the batch). Sibling tasks
/// are not cancelled; they run to completion before Wait returns/throws.
/// This is how a storage fault inside one scan morsel becomes a failed
/// *query* instead of std::terminate on a worker thread.
class TaskGroup {
 public:
  /// nullptr = Scheduler::Default().
  explicit TaskGroup(Scheduler* scheduler = nullptr)
      : scheduler_(scheduler != nullptr ? scheduler : &Scheduler::Default()),
        state_(std::make_shared<State>()) {}
  ~TaskGroup() {
    // A destructor must not throw; an unconsumed task exception dies here
    // (callers that care Wait() explicitly).
    try {
      Wait();
    } catch (...) {
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Adds a task and makes it claimable by the pool.
  void Run(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->tasks.push_back(std::move(fn));
    }
    // The pool wrapper claims *some* unclaimed task of the group — which
    // one is irrelevant, they are all going to run exactly once.
    scheduler_->Submit([state = state_] { RunOneClaimed(*state); });
  }

  /// Blocks until every task added so far has finished, helping to run
  /// still-unclaimed ones. Rethrows the group's first task exception (a
  /// later Wait on the same group returns normally — the error is
  /// consumed).
  void Wait() {
    for (;;) {
      if (RunOneClaimed(*state_)) continue;
      std::unique_lock<std::mutex> lock(state_->mu);
      if (state_->next >= state_->tasks.size() && state_->running == 0) {
        if (state_->error != nullptr) {
          std::exception_ptr error;
          std::swap(error, state_->error);
          lock.unlock();
          std::rethrow_exception(error);
        }
        return;
      }
      state_->cv.wait(lock, [&] {
        return state_->next < state_->tasks.size() || state_->running == 0;
      });
    }
  }

  Scheduler& scheduler() const { return *scheduler_; }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::function<void()>> tasks;
    size_t next = 0;      // first unclaimed task
    unsigned running = 0; // claimed but unfinished
    std::exception_ptr error;  // first task exception, consumed by Wait
  };

  /// Claims and runs one unclaimed task. Returns false when none were left.
  /// A throwing task never unwinds into the pool's WorkerLoop (that would
  /// std::terminate the process): its exception is parked in the state for
  /// Wait to rethrow.
  static bool RunOneClaimed(State& state) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.next >= state.tasks.size()) return false;
      // Moved out under the lock: a concurrent Run() may push_back and
      // reallocate `tasks`, so no reference into it can outlive the lock.
      task = std::move(state.tasks[state.next++]);
      ++state.running;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(state.mu);
      --state.running;
      if (error != nullptr && state.error == nullptr) state.error = error;
    }
    state.cv.notify_all();
    return true;
  }

  Scheduler* scheduler_;
  std::shared_ptr<State> state_;
};

/// Hands out [0, total) as contiguous ranges of `morsel_size` with one
/// atomic add per claim — the shared work list of one parallel pipeline.
/// Workers that finish their morsel early simply claim the next one, which
/// is what balances skew (a worker stuck on an expensive chunk claims
/// fewer morsels).
class MorselDispatcher {
 public:
  MorselDispatcher(size_t total, size_t morsel_size = 1)
      : total_(total), morsel_(morsel_size == 0 ? 1 : morsel_size) {}

  /// Claims the next morsel into [*begin, *end); false when exhausted.
  bool Next(size_t* begin, size_t* end) {
    size_t b = next_.fetch_add(morsel_, std::memory_order_relaxed);
    if (b >= total_) return false;
    *begin = b;
    *end = b + morsel_ < total_ ? b + morsel_ : total_;
    return true;
  }

  size_t total() const { return total_; }
  size_t morsel_size() const { return morsel_; }

 private:
  std::atomic<size_t> next_{0};
  size_t total_;
  size_t morsel_;
};

/// NUMA-aware variant of MorselDispatcher: chunk indexes are grouped by
/// their home node (Table::chunk_node) and Next(node, ...) drains the
/// requester's own group before stealing from remote groups — locality
/// first, load balance second (an idle worker never starves while remote
/// work remains). Claims from a *known* remote node are counted on the
/// instance and on the process-wide `scheduler.morsels_remote` counter;
/// chunks with unknown homes (-1) and requesters with unknown nodes are
/// always "local" (there is nothing to miss). Morsels are single chunks,
/// matching MorselDispatcher's default granularity.
class NodeMorselDispatcher {
 public:
  /// nodes[i] = home node of chunk i, -1 unknown. Grouping cost is one
  /// O(chunks) pass at pipeline start.
  explicit NodeMorselDispatcher(const std::vector<int>& nodes);

  /// Claims one chunk into [*begin, *end), preferring `node`'s group;
  /// false when every group is exhausted.
  bool Next(int node, size_t* begin, size_t* end);

  size_t total() const { return total_; }
  uint64_t local_claims() const {
    return local_.load(std::memory_order_relaxed);
  }
  uint64_t remote_claims() const {
    return remote_.load(std::memory_order_relaxed);
  }

 private:
  struct Group {
    int node = -1;                  // -1 = unknown-home group
    std::vector<size_t> chunks;
    std::atomic<size_t> cursor{0};
  };

  bool Claim(Group& g, size_t* begin, size_t* end);

  std::vector<std::unique_ptr<Group>> groups_;
  size_t total_ = 0;
  std::atomic<uint64_t> local_{0};
  std::atomic<uint64_t> remote_{0};
};

/// Runs `worker(slot)` on `slots` parallelism slots — slot 0 on the calling
/// thread, the rest as pool tasks — and returns when all of them finished.
/// The canonical body is a MorselScan slot (exec/parallel_scan.h): it
/// claims morsels from shared dispatchers and accumulates into a per-slot
/// state that the caller merges afterwards in slot order (making the merged
/// result independent of which worker claimed which morsel).
/// A slot that throws fails the whole call: the first exception (slot 0's
/// wins ties) is rethrown on the calling thread after every slot finished —
/// pool tasks are always joined first, so no task outlives the caller's
/// captured state.
template <typename WorkerFn>
void RunOnSlots(unsigned slots, WorkerFn&& worker,
                Scheduler* scheduler = nullptr) {
  if (slots <= 1) {
    worker(0u);
    return;
  }
  TaskGroup group(scheduler);
  for (unsigned t = 1; t < slots; ++t) {
    group.Run([&worker, t] { worker(t); });
  }
  std::exception_ptr primary;
  try {
    worker(0u);
  } catch (...) {
    primary = std::current_exception();
  }
  try {
    group.Wait();
  } catch (...) {
    if (primary == nullptr) primary = std::current_exception();
  }
  if (primary != nullptr) std::rethrow_exception(primary);
}

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_SCHEDULER_H_
