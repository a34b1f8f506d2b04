#include "serve/admission.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_profile.h"  // MonotonicNs
#include "obs/trace.h"
#include "util/macros.h"

namespace datablocks::serve {

namespace {

/// Process-wide admission counters ("serve.*"), resolved once.
struct AdmissionMetrics {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* timed_out;
  obs::Counter* cancelled;
  obs::Gauge* running;
  obs::Gauge* queued;
  obs::Histogram* queue_wait_ns;
};

const AdmissionMetrics& Metrics() {
  static const AdmissionMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return AdmissionMetrics{r.GetCounter("serve.submitted"),
                            r.GetCounter("serve.admitted"),
                            r.GetCounter("serve.rejected"),
                            r.GetCounter("serve.timed_out"),
                            r.GetCounter("serve.cancelled"),
                            r.GetGauge("serve.running"),
                            r.GetGauge("serve.queued"),
                            r.GetHistogram("serve.queue_wait_ns")};
  }();
  return m;
}

}  // namespace

const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kOltp: return "oltp";
    case Priority::kOlap: return "olap";
    case Priority::kBatch: return "batch";
  }
  return "?";
}

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kRejected: return "rejected";
    case Status::kTimedOut: return "timed_out";
    case Status::kShutdown: return "shutdown";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionConfig cfg,
                                         unsigned default_running)
    : cfg_([&] {
        AdmissionConfig c = cfg;
        if (c.max_running == 0) c.max_running = std::max(1u, default_running);
        if (c.max_heavy_running == 0) {
          c.max_heavy_running = std::max(1u, c.max_running / 2);
        }
        return c;
      }()) {}

bool AdmissionController::CanRunLocked(const Ticket& t) const {
  if (running_ >= cfg_.max_running) return false;
  if (t.heavy && running_heavy_ >= cfg_.max_heavy_running) return false;
  return true;
}

void AdmissionController::GaugesLocked() const {
  Metrics().running->Set(int64_t(running_));
  Metrics().queued->Set(int64_t(queued_));
}

void AdmissionController::ExpireLocked(
    std::chrono::steady_clock::time_point now, std::vector<Action>* actions) {
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end();) {
      Ticket& t = *it->ticket;
      if (t.has_deadline && t.deadline <= now) {
        it->state = TicketState::kDropped;
        actions->push_back({std::move(it->ticket), false, 0,
                            Status::kTimedOut});
        it = queue.erase(it);
        --queued_;
      } else {
        ++it;
      }
    }
  }
}

void AdmissionController::PumpLocked(
    std::chrono::steady_clock::time_point now, std::vector<Action>* actions) {
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end();) {
      if (running_ >= cfg_.max_running) return;  // nothing can be granted
      Ticket& t = *it->ticket;
      if (t.has_deadline && t.deadline <= now) {
        it->state = TicketState::kDropped;
        actions->push_back({std::move(it->ticket), false, 0,
                            Status::kTimedOut});
        it = queue.erase(it);
        --queued_;
        continue;
      }
      if (!CanRunLocked(t)) {
        // Heavy-gated: leave it queued, let lighter entries bypass.
        ++it;
        continue;
      }
      ++running_;
      if (t.heavy) ++running_heavy_;
      const uint64_t queue_ns = uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - it->enqueued)
              .count());
      it->state = TicketState::kGranted;
      actions->push_back({std::move(it->ticket), true, queue_ns,
                          Status::kOk});
      it = queue.erase(it);
      --queued_;
    }
  }
}

void AdmissionController::RunActions(std::vector<Action>& actions) {
  for (Action& a : actions) {
    if (a.granted) {
      Metrics().admitted->Add();
      Metrics().queue_wait_ns->Observe(a.queue_ns);
      a.ticket->grant(a.queue_ns);
    } else {
      if (a.drop_status == Status::kTimedOut) {
        Metrics().timed_out->Add();
        obs::TraceRing::Default().Publish(
            "serve", "timed_out", int64_t(a.ticket->priority), 0);
      } else if (a.drop_status == Status::kRejected) {
        Metrics().rejected->Add();
        obs::TraceRing::Default().Publish(
            "serve", "rejected", int64_t(a.ticket->priority), 0);
      } else {
        Metrics().cancelled->Add();
      }
      a.ticket->drop(a.drop_status);
    }
  }
}

void AdmissionController::Submit(std::shared_ptr<Ticket> t) {
  DB_CHECK(t != nullptr && t->grant && t->drop);
  Metrics().submitted->Add();
  std::vector<Action> actions;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Every `now` is read under mu_: read before it, a ticket another
    // thread enqueues in between would be granted with a negative wait.
    const auto now = std::chrono::steady_clock::now();
    if (shutdown_) {
      actions.push_back({std::move(t), false, 0, Status::kShutdown});
      lock.unlock();  // the drop callback may call back into the controller
      RunActions(actions);
      return;
    }
    const unsigned pri = unsigned(t->priority);
    queues_[pri].push_back({t, now, TicketState::kQueued});
    ++queued_;
    PumpLocked(now, &actions);
    // Overflow: if the arrival is still queued past the bound, evict the
    // newest entry of the lowest class *below* it — or the arrival
    // itself when nothing outranked exists.
    if (queued_ > cfg_.max_queued) {
      bool evicted = false;
      for (unsigned p = kNumPriorities; p-- > pri + 1 && !evicted;) {
        if (!queues_[p].empty()) {
          Slot& victim = queues_[p].back();
          victim.state = TicketState::kDropped;
          actions.push_back({std::move(victim.ticket), false, 0,
                             Status::kRejected});
          queues_[p].pop_back();
          --queued_;
          evicted = true;
        }
      }
      if (!evicted) {
        // The arrival may itself have been granted by the pump; only a
        // still-queued arrival can be bounced.
        auto& queue = queues_[pri];
        if (!queue.empty() && queue.back().ticket == t) {
          queue.back().state = TicketState::kDropped;
          actions.push_back({std::move(queue.back().ticket), false, 0,
                             Status::kRejected});
          queue.pop_back();
          --queued_;
        }
      }
    }
    GaugesLocked();
  }
  RunActions(actions);
}

void AdmissionController::OnDone(bool heavy) {
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    DB_CHECK(running_ > 0);
    --running_;
    if (heavy) {
      DB_CHECK(running_heavy_ > 0);
      --running_heavy_;
    }
    PumpLocked(now, &actions);
    GaugesLocked();
    if (running_ == 0 && queued_ == 0) idle_cv_.notify_all();
  }
  RunActions(actions);
}

void AdmissionController::ReapExpired() {
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    ExpireLocked(now, &actions);
    if (!actions.empty()) {
      // Expiry can unblock the heavy gate's bypass scan.
      PumpLocked(now, &actions);
      GaugesLocked();
      if (running_ == 0 && queued_ == 0) idle_cv_.notify_all();
    }
  }
  RunActions(actions);
}

void AdmissionController::Shutdown() {
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& queue : queues_) {
      for (Slot& slot : queue) {
        slot.state = TicketState::kDropped;
        actions.push_back({std::move(slot.ticket), false, 0,
                           Status::kShutdown});
      }
      queue.clear();
    }
    queued_ = 0;
    GaugesLocked();
    if (running_ == 0) idle_cv_.notify_all();
  }
  RunActions(actions);
}

void AdmissionController::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return running_ == 0 && queued_ == 0; });
}

unsigned AdmissionController::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace datablocks::serve
