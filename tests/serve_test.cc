// Serving front end: admission control (queue-full rejection, priority
// eviction and ordering, queued-request timeout, the heavy gate),
// session lifecycle (close-with-queries-in-flight, server shutdown),
// handler errors, and serve-vs-direct TPC-H result equality. The
// concurrency here — clients racing admission, grants firing from
// finishing workers, the reaper expiring queued tickets — is what the
// TSan CI leg exercises.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tpch/queries.h"

namespace datablocks {
namespace {

using serve::Priority;
using serve::Request;
using serve::Response;
using serve::ResponseFuture;
using serve::Status;

/// Spin-waits (with yields) until `pred` holds or ~10s elapsed.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Manually opened barrier blocking a handler on a worker.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

Scheduler::Options SmallPool() {
  Scheduler::Options opts;
  opts.num_workers = 2;
  opts.pin_workers = false;
  return opts;
}

serve::ServerConfig TinyAdmission(Scheduler* scheduler, unsigned max_running,
                                  size_t max_queued) {
  serve::ServerConfig cfg;
  cfg.scheduler = scheduler;
  cfg.admission.max_running = max_running;
  cfg.admission.max_queued = max_queued;
  cfg.admission.reap_interval = std::chrono::milliseconds(2);
  return cfg;
}

Request Blocking(std::string name, Gate* gate, std::atomic<int>* started,
                 Priority priority = Priority::kOlap) {
  Request req;
  req.name = std::move(name);
  req.priority = priority;
  req.work = [gate, started] {
    started->fetch_add(1);
    gate->Wait();
    return std::string("done");
  };
  return req;
}

TEST(Admission, QueueFullRejectsNewestSamePriority) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 1));
  auto session = server.OpenSession("t");

  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture a = session->Submit(Blocking("a", &gate, &started));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));

  Request b;
  b.name = "b";
  b.work = [] { return std::string("b"); };
  ResponseFuture fb = session->Submit(std::move(b));
  ASSERT_TRUE(WaitFor([&] { return server.queued() == 1; }));

  Request c;
  c.name = "c";
  c.work = [] { return std::string("c"); };
  ResponseFuture fc = session->Submit(std::move(c));
  // No lower-priority victim exists: the arrival itself bounces, inline.
  EXPECT_EQ(fc.Get().status, Status::kRejected);

  gate.Open();
  EXPECT_EQ(a.Get().status, Status::kOk);
  const Response& rb = fb.Get();
  EXPECT_EQ(rb.status, Status::kOk);
  EXPECT_EQ(rb.payload, "b");
  EXPECT_GT(rb.queue_ns, 0u);
  server.Shutdown();
}

TEST(Admission, DropAfterShutdownRunsOutsideTheControllerLock) {
  // A ticket submitted after Shutdown is dropped inline. Its drop callback
  // calls back into the controller, which deadlocks if the callback runs
  // under the controller lock. The submit runs on a helper thread, so a
  // deadlock fails the wait below instead of hanging the suite (the
  // helper is leaked then, and the controller with it).
  auto ac = std::make_shared<serve::AdmissionController>(
      serve::AdmissionConfig{}, /*default_running=*/1);
  ac->Shutdown();
  auto dropped = std::make_shared<std::promise<Status>>();
  std::future<Status> status = dropped->get_future();
  std::thread submitter([ac, dropped] {
    auto ticket = std::make_shared<serve::AdmissionController::Ticket>();
    ticket->grant = [](uint64_t) {};
    ticket->drop = [ac, dropped](Status s) {
      (void)ac->queued();  // takes the controller lock
      dropped->set_value(s);
    };
    ac->Submit(std::move(ticket));
  });
  if (status.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    submitter.detach();
    FAIL() << "the drop callback ran under the controller lock";
  }
  submitter.join();
  EXPECT_EQ(status.get(), Status::kShutdown);
}

TEST(Admission, OltpArrivalEvictsQueuedBatchOnOverflow) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 1));
  auto session = server.OpenSession("t");

  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture a = session->Submit(Blocking("a", &gate, &started));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));

  Request batch;
  batch.name = "batch";
  batch.priority = Priority::kBatch;
  batch.work = [] { return std::string("batch"); };
  ResponseFuture fb = session->Submit(std::move(batch));
  ASSERT_TRUE(WaitFor([&] { return server.queued() == 1; }));

  Request oltp;
  oltp.name = "oltp";
  oltp.priority = Priority::kOltp;
  oltp.work = [] { return std::string("oltp"); };
  ResponseFuture fo = session->Submit(std::move(oltp));

  // The batch entry was evicted in favor of the higher class...
  EXPECT_EQ(fb.Get().status, Status::kRejected);
  // ...which runs once the slot frees.
  gate.Open();
  EXPECT_EQ(a.Get().status, Status::kOk);
  EXPECT_EQ(fo.Get().payload, "oltp");
  server.Shutdown();
}

TEST(Admission, QueuedRequestTimesOutWhileSlotIsHeld) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t");

  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture a = session->Submit(Blocking("a", &gate, &started));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));

  Request b;
  b.name = "b";
  b.queue_timeout = std::chrono::milliseconds(20);
  b.work = [] { return std::string("b"); };
  ResponseFuture fb = session->Submit(std::move(b));
  // The reaper (2 ms cadence on the second worker) expires it; the
  // slot-holder never finishes first.
  EXPECT_EQ(fb.Get().status, Status::kTimedOut);
  EXPECT_EQ(server.queued(), 0u);

  gate.Open();
  EXPECT_EQ(a.Get().status, Status::kOk);
  server.Shutdown();
}

TEST(Admission, PriorityClassesDrainHighestFirst) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t");

  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture a = session->Submit(Blocking("a", &gate, &started));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));

  std::mutex order_mu;
  std::vector<std::string> order;
  auto make = [&](std::string name, Priority priority) {
    Request req;
    req.name = name;
    req.priority = priority;
    req.work = [&, name] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
      return name;
    };
    return req;
  };
  // Submitted worst-first; admission must invert the order.
  ResponseFuture fb = session->Submit(make("batch", Priority::kBatch));
  ResponseFuture fo1 = session->Submit(make("olap", Priority::kOlap));
  ResponseFuture ft = session->Submit(make("oltp", Priority::kOltp));
  ASSERT_TRUE(WaitFor([&] { return server.queued() == 3; }));

  gate.Open();
  EXPECT_EQ(a.Get().status, Status::kOk);
  EXPECT_EQ(fb.Get().status, Status::kOk);
  EXPECT_EQ(fo1.Get().status, Status::kOk);
  EXPECT_EQ(ft.Get().status, Status::kOk);
  EXPECT_EQ(order,
            (std::vector<std::string>{"oltp", "olap", "batch"}));
  server.Shutdown();
}

TEST(Admission, HeavyGateLetsLightRequestsBypass) {
  Scheduler scheduler(SmallPool());
  serve::ServerConfig cfg = TinyAdmission(&scheduler, 2, 8);
  cfg.admission.max_heavy_running = 1;
  cfg.admission.heavy_cost_ns = 1;  // any completed name counts as heavy
  serve::Server server(cfg);
  auto session = server.OpenSession("t");

  // Prime the cost model: the first "hv" completion teaches the server
  // that this name is expensive (EWMA > 1 ns).
  {
    Request prime;
    prime.name = "hv";
    prime.work = [] { return std::string("p"); };
    EXPECT_EQ(session->Submit(std::move(prime)).Get().status, Status::kOk);
  }
  ASSERT_GT(server.CostNs("hv"), 1u);

  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture hv1 = session->Submit(Blocking("hv", &gate, &started));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));

  Request hv2;
  hv2.name = "hv";
  hv2.work = [] { return std::string("hv2"); };
  ResponseFuture fhv2 = session->Submit(std::move(hv2));
  ASSERT_TRUE(WaitFor([&] { return server.queued() == 1; }));

  // A light request bypasses the gated heavy entry and completes while
  // the heavy one is still held back.
  Request light;
  light.name = "lt";
  light.work = [] { return std::string("lt"); };
  EXPECT_EQ(session->Submit(std::move(light)).Get().payload, "lt");
  EXPECT_EQ(server.queued(), 1u);

  gate.Open();
  EXPECT_EQ(hv1.Get().status, Status::kOk);
  EXPECT_EQ(fhv2.Get().payload, "hv2");
  server.Shutdown();
}

TEST(Session, CloseDrainsInFlightRequests) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 8));
  auto session = server.OpenSession("t");

  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.name = "slow";
    req.work = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return std::string("s");
    };
    futures.push_back(session->Submit(std::move(req)));
  }
  session->Close();
  // Close returned only after every in-flight request resolved.
  for (ResponseFuture& f : futures) {
    ASSERT_TRUE(f.WaitFor(std::chrono::milliseconds(0)));
    EXPECT_EQ(f.Get().status, Status::kOk);
  }
  EXPECT_EQ(session->completed(), 4u);

  Request late;
  late.name = "late";
  late.work = [] { return std::string("x"); };
  EXPECT_EQ(session->Submit(std::move(late)).Get().status,
            Status::kShutdown);
  server.Shutdown();
}

TEST(Session, ServerShutdownFlushesQueueAndStopsIntake) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t");

  Request slow;
  slow.name = "slow";
  slow.work = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return std::string("s");
  };
  ResponseFuture fa = session->Submit(std::move(slow));
  Request q1;
  q1.name = "q1";
  q1.work = [] { return std::string("q"); };
  ResponseFuture fb = session->Submit(std::move(q1));

  server.Shutdown();
  // The running request drained; the queued one was flushed.
  EXPECT_EQ(fa.Get().status, Status::kOk);
  EXPECT_EQ(fb.Get().status, Status::kShutdown);
  EXPECT_EQ(server.running(), 0u);
  EXPECT_EQ(server.queued(), 0u);

  Request late;
  late.name = "late";
  late.work = [] { return std::string("x"); };
  EXPECT_EQ(session->Submit(std::move(late)).Get().status,
            Status::kShutdown);
}

TEST(Server, HandlerErrorsAndUnknownVerbs) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 8));
  server.RegisterHandler("boom", [](std::string_view) -> std::string {
    throw std::runtime_error("kaput");
  });
  server.RegisterHandler("echo", [](std::string_view args) {
    return std::string(args);
  });
  auto session = server.OpenSession("t");

  // Copies: Get() returns a reference into the future's shared state,
  // and these futures are temporaries.
  const Response err = session->Call("boom").Get();
  EXPECT_EQ(err.status, Status::kError);
  EXPECT_EQ(err.payload, "kaput");

  const Response unknown = session->Call("nope").Get();
  EXPECT_EQ(unknown.status, Status::kError);
  EXPECT_EQ(unknown.payload, "unknown verb: nope");

  const Response ok = session->Call("echo", "hello").Get();
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_EQ(ok.payload, "hello");
  server.Shutdown();
}

TEST(Server, PerClientAndPerPriorityLatencyHistograms) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 8));
  server.RegisterHandler("ping", [](std::string_view) {
    return std::string("pong");
  });
  obs::Histogram* client_hist = obs::MetricsRegistry::Default().GetHistogram(
      "serve.client.histo_client.latency_ns");
  obs::Histogram* oltp_hist = obs::MetricsRegistry::Default().GetHistogram(
      "serve.oltp_latency_ns");
  const uint64_t client_before = client_hist->count();
  const uint64_t oltp_before = oltp_hist->count();

  auto session = server.OpenSession("histo_client", Priority::kOltp);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(session->Call("ping").Get().status, Status::kOk);
  }
  EXPECT_EQ(client_hist->count(), client_before + 5);
  EXPECT_EQ(oltp_hist->count(), oltp_before + 5);
  server.Shutdown();
}

TEST(Server, ConcurrentClientsAllComplete) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 64));
  std::atomic<int> executed{0};
  server.RegisterHandler("inc", [&](std::string_view) {
    executed.fetch_add(1);
    return std::string("i");
  });

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.OpenSession(
          "c" + std::to_string(c),
          c % 2 == 0 ? Priority::kOltp : Priority::kOlap);
      for (int i = 0; i < kPerClient; ++i) {
        if (session->Call("inc").Get().status == Status::kOk) {
          ok.fetch_add(1);
        }
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(executed.load(), kClients * kPerClient);
  server.Shutdown();
}

TEST(Server, QueueWaitNeverExceedsTotalLatency) {
  // Submitters race finishers for one running slot: every grant's queue
  // wait must fit inside its request's end-to-end latency. Reading the
  // clock outside the admission lock let a ticket enqueued in between be
  // granted with a negative wait, which wrapped to ~1.8e19 ns. OLAP
  // clients flood the queue so the slot stays busy; closed-loop OLTP
  // clients then arrive at a mostly empty OLTP queue, whose head a
  // finishing request grants first.
  constexpr int kClients = 4;
  constexpr int kPerClient = 2000;
  Scheduler scheduler(SmallPool());
  serve::Server server(
      TinyAdmission(&scheduler, 1, size_t(kClients) * kPerClient));
  server.RegisterHandler("nop", [](std::string_view) { return "n"; });
  std::vector<std::vector<ResponseFuture>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool oltp = c % 2 == 0;
      auto session = server.OpenSession(
          "q" + std::to_string(c), oltp ? Priority::kOltp : Priority::kOlap);
      for (int i = 0; i < kPerClient; ++i) {
        futures[c].push_back(session->Call("nop"));
        if (oltp) futures[c].back().Get();
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  int granted = 0;
  for (const auto& mine : futures) {
    for (const ResponseFuture& f : mine) {
      const Response& r = f.Get();
      ASSERT_EQ(r.status, Status::kOk);
      ++granted;
      ASSERT_LE(r.queue_ns, r.total_ns) << "request " << granted;
    }
  }
  EXPECT_EQ(granted, kClients * kPerClient);
  server.Shutdown();
}

TEST(Serve, TpchThroughServerMatchesDirectCall) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  auto db = tpch::MakeTpch(cfg);
  db->FreezeAll();

  Scheduler scheduler(SmallPool());
  serve::ServerConfig server_cfg;
  server_cfg.scheduler = &scheduler;
  serve::Server server(server_cfg);
  for (unsigned threads : {1u, 2u}) {
    server.RegisterHandler("tpch", [&, threads](std::string_view args) {
      tpch::ScanOptions opt;
      opt.mode = ScanMode::kDataBlocksPsma;
      opt.ctx.threads = threads;
      opt.ctx.scheduler = &scheduler;
      return tpch::RunQuery(std::stoi(std::string(args)), *db, opt)
          .ToString();
    });
    auto session = server.OpenSession("tpch_t" + std::to_string(threads));
    for (int q : {1, 6, 14}) {
      tpch::ScanOptions direct;
      direct.mode = ScanMode::kDataBlocksPsma;
      const Response resp =
          session->Call("tpch", std::to_string(q)).Get();
      ASSERT_EQ(resp.status, Status::kOk) << resp.payload;
      // Parallel serve-layer execution must be bit-identical to the
      // sequential direct call (the determinism contract, now holding
      // one abstraction layer higher).
      EXPECT_EQ(resp.payload, tpch::RunQuery(q, *db, direct).ToString())
          << "Q" << q << " at " << threads << " threads";
    }
    session->Close();
  }
  server.Shutdown();
}

}  // namespace
}  // namespace datablocks
