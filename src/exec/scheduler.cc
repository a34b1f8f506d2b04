#include "exec/scheduler.h"

#include <algorithm>
#include <climits>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_profile.h"  // MonotonicNs
#include "obs/trace.h"
#include "util/macros.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace datablocks {

namespace {

/// Best-effort: pin the calling thread to one CPU. Failure is ignored —
/// pinning is an optimization, never a correctness requirement.
void PinSelfTo(unsigned cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

/// Process-wide mirrors of the pool counters ("scheduler.*"), resolved once.
struct SchedulerMetrics {
  obs::Counter* tasks_run;
  obs::Counter* steals;
  obs::Counter* periodic_fires;
  obs::Counter* morsels_remote;
  obs::Counter* urgent_preemptions;
};

const SchedulerMetrics& Metrics() {
  static const SchedulerMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return SchedulerMetrics{r.GetCounter("scheduler.tasks_run"),
                            r.GetCounter("scheduler.steals"),
                            r.GetCounter("scheduler.periodic_fires"),
                            r.GetCounter("scheduler.morsels_remote"),
                            r.GetCounter("scheduler.urgent_preemptions")};
  }();
  return m;
}

/// Node of the pool worker running this thread; INT_MIN = not a pool
/// worker (resolve via cpu::CurrentNode() instead).
constexpr int kNotAPoolWorker = INT_MIN;
thread_local int tls_worker_node = kNotAPoolWorker;

/// The pool (and worker index) whose WorkerLoop runs on this thread;
/// nullptr for every other thread.
thread_local Scheduler* tls_pool = nullptr;
thread_local unsigned tls_worker = 0;
/// Set while this thread runs an urgent task: stops RunUrgentHere from
/// nesting urgent tasks inside one another.
thread_local bool tls_in_urgent = false;
/// Innermost live PreemptRelease scope of this thread.
thread_local const Scheduler::PreemptRelease* tls_release = nullptr;

}  // namespace

Scheduler::PreemptRelease::PreemptRelease(void (*release)(void*), void* ctx)
    : release_(release), ctx_(ctx), outer_(tls_release) {
  tls_release = this;
}

Scheduler::PreemptRelease::~PreemptRelease() { tls_release = outer_; }

int Scheduler::CurrentWorkerNode() {
  const int n = tls_worker_node;
  return n != kNotAPoolWorker ? n : cpu::CurrentNode();
}

Scheduler::Scheduler() : Scheduler(Options{}) {}

Scheduler::Scheduler(Options opts) {
  const unsigned n = EffectiveThreads(opts.num_workers);
  const cpu::Topology& topo = cpu::HostTopology();
  workers_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    auto worker = std::make_unique<Worker>();
    if (opts.pin_workers && !topo.cpus.empty()) {
      const size_t slot = w % topo.cpus.size();
      worker->cpu = int(topo.cpus[slot]);
      worker->node = topo.node_of[slot];
    }
    workers_.push_back(std::move(worker));
  }
  // Threads start only after every Worker slot exists: workers steal from
  // siblings by index and must never observe a growing vector.
  for (unsigned w = 0; w < n; ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) worker->thread.join();
}

Scheduler& Scheduler::Default() {
  static Scheduler scheduler;
  return scheduler;
}

void Scheduler::Submit(std::function<void()> fn) {
  const unsigned target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % num_workers();
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->queue.push_back(std::move(fn));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++pending_;
  }
  sleep_cv_.notify_one();
}

void Scheduler::SubmitUrgent(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(urgent_mu_);
    urgent_.push_back(std::move(fn));
    urgent_pending_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++pending_;
  }
  sleep_cv_.notify_one();
}

std::function<void()> Scheduler::PopUrgent() {
  std::function<void()> task;
  if (urgent_pending_.load(std::memory_order_relaxed) == 0) return task;
  {
    std::lock_guard<std::mutex> lock(urgent_mu_);
    if (urgent_.empty()) return task;
    task = std::move(urgent_.front());
    urgent_.pop_front();
    urgent_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(sleep_mu_);
  --pending_;
  return task;
}

void Scheduler::RunUrgent(std::function<void()>& task,
                          unsigned self) noexcept {
  tls_in_urgent = true;
  task();
  tls_in_urgent = false;
  CountRun(self);
}

void Scheduler::CountRun(unsigned self) {
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  workers_[self]->tasks_run.fetch_add(1, std::memory_order_relaxed);
  Metrics().tasks_run->Add();
}

void Scheduler::RunUrgentHere() {
  Scheduler* const pool = tls_pool;
  if (pool == nullptr ||
      pool->urgent_pending_.load(std::memory_order_relaxed) == 0 ||
      tls_in_urgent) {
    return;
  }
  for (const PreemptRelease* r = tls_release; r != nullptr; r = r->outer_) {
    r->release_(r->ctx_);
  }
  while (std::function<void()> task = pool->PopUrgent()) {
    Metrics().urgent_preemptions->Add();
    pool->RunUrgent(task, tls_worker);
  }
}

bool Scheduler::TryRunOne(unsigned self) {
  if (std::function<void()> urgent = PopUrgent()) {
    RunUrgent(urgent, self);
    return true;
  }
  std::function<void()> task;
  // Own queue first (front: submission order), then sweep the siblings.
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      task = std::move(own.queue.front());
      own.queue.pop_front();
    }
  }
  if (!task) {
    const unsigned n = num_workers();
    for (unsigned i = 1; i < n && !task; ++i) {
      Worker& victim = *workers_[(self + i) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.queue.empty()) {
        // Steal from the back: the victim keeps draining its own front.
        task = std::move(victim.queue.back());
        victim.queue.pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
        workers_[self]->steals.fetch_add(1, std::memory_order_relaxed);
        Metrics().steals->Add();
      }
    }
  }
  if (!task) return false;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    --pending_;
  }
  task();
  CountRun(self);
  return true;
}

std::vector<Scheduler::WorkerStats> Scheduler::worker_stats() const {
  std::vector<WorkerStats> out(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    out[w].tasks_run = workers_[w]->tasks_run.load(std::memory_order_relaxed);
    out[w].steals = workers_[w]->steals.load(std::memory_order_relaxed);
  }
  return out;
}

void Scheduler::WorkerLoop(unsigned self) {
  if (workers_[self]->cpu >= 0) PinSelfTo(unsigned(workers_[self]->cpu));
  tls_worker_node = workers_[self]->node;
  tls_pool = this;
  tls_worker = self;
  for (;;) {
    if (TryRunOne(self)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_) return;
  }
}

uint64_t Scheduler::AddPeriodic(std::chrono::milliseconds interval,
                                std::function<void()> fn) {
  DB_CHECK(interval.count() > 0);
  std::lock_guard<std::mutex> lock(timer_mu_);
  const uint64_t id = next_periodic_id_++;
  Periodic p;
  p.interval = interval;
  p.fn = std::move(fn);
  p.next_fire = std::chrono::steady_clock::now() + interval;
  periodics_.emplace(id, std::move(p));
  if (!timer_.joinable()) timer_ = std::thread([this] { TimerLoop(); });
  timer_cv_.notify_all();
  return id;
}

void Scheduler::RemovePeriodic(uint64_t id) {
  std::unique_lock<std::mutex> lock(timer_mu_);
  auto it = periodics_.find(id);
  if (it == periodics_.end()) return;
  it->second.removed = true;
  if (!it->second.in_flight) {
    periodics_.erase(it);
    return;
  }
  // An execution is running on some worker; FirePeriodic erases the entry
  // when it finishes. After this wait the task can never run again.
  timer_cv_.wait(lock, [&] { return periodics_.count(id) == 0; });
}

void Scheduler::FirePeriodic(uint64_t id) {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    auto it = periodics_.find(id);
    if (it == periodics_.end() || it->second.removed ||
        it->second.in_flight) {
      return;
    }
    it->second.in_flight = true;
    fn = it->second.fn;
  }
  const uint64_t t0 = obs::MonotonicNs();
  fn();
  Metrics().periodic_fires->Add();
  obs::TraceRing::Default().Publish("scheduler", "periodic_fire", int64_t(id),
                                    int64_t(obs::MonotonicNs() - t0));
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    auto it = periodics_.find(id);
    DB_CHECK(it != periodics_.end());
    it->second.in_flight = false;
    if (it->second.removed) periodics_.erase(it);
  }
  timer_cv_.notify_all();
}

NodeMorselDispatcher::NodeMorselDispatcher(const std::vector<int>& nodes)
    : total_(nodes.size()) {
  // Group chunk indexes by home node, preserving index order within a
  // group. Few distinct nodes (typically 1-8), so linear group lookup.
  for (size_t i = 0; i < nodes.size(); ++i) {
    Group* g = nullptr;
    for (auto& cand : groups_) {
      if (cand->node == nodes[i]) {
        g = cand.get();
        break;
      }
    }
    if (g == nullptr) {
      groups_.push_back(std::make_unique<Group>());
      g = groups_.back().get();
      g->node = nodes[i];
    }
    g->chunks.push_back(i);
  }
}

bool NodeMorselDispatcher::Claim(Group& g, size_t* begin, size_t* end) {
  const size_t c = g.cursor.fetch_add(1, std::memory_order_relaxed);
  if (c >= g.chunks.size()) return false;
  *begin = g.chunks[c];
  *end = g.chunks[c] + 1;
  return true;
}

bool NodeMorselDispatcher::Next(int node, size_t* begin, size_t* end) {
  // Own group first, then sweep the rest (steal). A claim is "remote" only
  // when both sides know their node and they differ.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& g : groups_) {
      const bool own = g->node == node;
      if (own != (pass == 0)) continue;
      if (!Claim(*g, begin, end)) continue;
      if (own || node < 0 || g->node < 0) {
        local_.fetch_add(1, std::memory_order_relaxed);
      } else {
        remote_.fetch_add(1, std::memory_order_relaxed);
        Metrics().morsels_remote->Add();
      }
      return true;
    }
  }
  return false;
}

void Scheduler::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!timer_stop_) {
    const auto now = std::chrono::steady_clock::now();
    auto wake = now + std::chrono::hours(24);
    for (auto& [id, p] : periodics_) {
      if (p.removed) continue;
      if (p.next_fire <= now) {
        // Fixed-delay rescheduling from *now*: a task slower than its
        // interval fires again one interval after the tardy deadline, it
        // does not burst to catch up (and FirePeriodic skips overlapping
        // executions anyway).
        p.next_fire = now + p.interval;
        if (!p.in_flight) {
          Submit([this, id = id] { FirePeriodic(id); });
        }
      }
      wake = std::min(wake, p.next_fire);
    }
    // Plain wait_until (no predicate): any registry change notifies, and
    // the loop recomputes the earliest deadline from scratch — a predicate
    // wait would sleep through a newly added earlier task.
    timer_cv_.wait_until(lock, wake);
  }
}

}  // namespace datablocks
