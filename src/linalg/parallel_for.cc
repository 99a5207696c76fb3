#include "linalg/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

// Header-only annotated primitives (no ctbus_core symbols): the pool's
// shared state carries the same thread-safety annotations as the service
// queues.
#include "core/mutex.h"

namespace ctbus::linalg {

namespace {

using Body = std::function<void(int, int, int)>;

// One ParallelFor call of width >= 2. It lives on the caller's stack; the
// caller returns only after every helper that joined it has left.
class Job {
 public:
  Job(int n, int width, const Body& body)
      : n_(n), width_(width), body_(body), errors_(width) {}

  int width() const { return width_; }
  bool Exhausted() const { return next_.load() >= n_; }

  // Claims and runs indices as `worker` until none is left. An exception
  // is kept in the worker's own slot: a worker claims increasing indices,
  // so its first one is its lowest.
  void Work(int worker) {
    for (int i = next_.fetch_add(1); i < n_; i = next_.fetch_add(1)) {
      try {
        body_(worker, i, i + 1);
      } catch (...) {
        if (errors_[worker].second == nullptr) {
          errors_[worker] = {i, std::current_exception()};
        }
      }
    }
  }

  // After every worker has left: rethrows the lowest index's exception.
  void RethrowFirstError() const {
    const std::pair<int, std::exception_ptr>* first = nullptr;
    for (const auto& error : errors_) {
      if (error.second != nullptr &&
          (first == nullptr || error.first < first->first)) {
        first = &error;
      }
    }
    if (first != nullptr) std::rethrow_exception(first->second);
  }

 private:
  const int n_;
  const int width_;
  const Body& body_;
  /// The next unclaimed index; past n_ once every index is claimed.
  std::atomic<int> next_{0};
  /// Per worker id: (index, exception) of its first throwing index.
  std::vector<std::pair<int, std::exception_ptr>> errors_;
};

// The process-wide helpers. Helper s serves worker id s + 1, so it joins
// only calls wider than s + 1, and a call of width W is served by helpers
// 0 .. W - 2 alone.
class Pool {
 public:
  // Never destroyed, so its helpers are never joined: they stay parked
  // until the process ends, and a thread still fanning out while static
  // objects are destroyed (say, after std::exit) finds the pool intact.
  static Pool& Instance() {
    static Pool* const pool = new Pool;
    return *pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void Run(Job* job) CTBUS_EXCLUDES(mu_) {
    {
      core::MutexLock lock(mu_);
      while (static_cast<int>(helpers_.size()) < job->width() - 1) {
        StartHelperLocked();
      }
      open_.push_back(job);
      for (int s = 0; s < job->width() - 1; ++s) {
        helpers_[s]->wake.NotifyOne();
      }
    }
    job->Work(/*worker=*/0);
    core::MutexLock lock(mu_);
    // Every index is claimed: no helper may join from here on.
    CloseLocked(job);
    while (std::find(serving_.begin(), serving_.end(), job) !=
           serving_.end()) {
      left_.Wait(mu_);
    }
  }

 private:
  Pool() = default;

  struct Helper {
    core::CondVar wake;
    std::thread thread;
  };

  // The new helper blocks on mu_ (held here) until its slot is
  // registered; the slot cannot fail to register once the thread runs.
  void StartHelperLocked() CTBUS_REQUIRES(mu_) {
    const int slot = static_cast<int>(helpers_.size());
    helpers_.reserve(slot + 1);
    serving_.reserve(slot + 1);
    auto helper = std::make_unique<Helper>();
    helper->thread = std::thread([this, slot] { HelperLoop(slot); });
    helpers_.push_back(std::move(helper));
    serving_.push_back(nullptr);
  }

  void HelperLoop(int slot) CTBUS_EXCLUDES(mu_) {
    for (;;) {
      Job* job = nullptr;
      {
        core::MutexLock lock(mu_);
        // A Helper never moves (helpers_ holds it by unique_ptr), so the
        // reference survives later helper starts.
        core::CondVar& wake = helpers_[slot]->wake;
        while ((job = OpenJobLocked(slot)) == nullptr) wake.Wait(mu_);
        serving_[slot] = job;
      }
      job->Work(slot + 1);
      core::MutexLock lock(mu_);
      CloseLocked(job);
      serving_[slot] = nullptr;
      left_.NotifyAll();
    }
  }

  // The oldest open call this helper may serve, or null.
  Job* OpenJobLocked(int slot) CTBUS_REQUIRES(mu_) {
    for (Job* job : open_) {
      if (job->width() > slot + 1 && !job->Exhausted()) return job;
    }
    return nullptr;
  }

  void CloseLocked(const Job* job) CTBUS_REQUIRES(mu_) {
    open_.erase(std::remove(open_.begin(), open_.end(), job), open_.end());
  }

  core::Mutex mu_;
  /// Calls that may still have unclaimed indices, oldest first.
  std::vector<Job*> open_ CTBUS_GUARDED_BY(mu_);
  /// Per helper slot: its wake-up and thread, and the call it is working
  /// in (null while parked).
  std::vector<std::unique_ptr<Helper>> helpers_ CTBUS_GUARDED_BY(mu_);
  std::vector<const Job*> serving_ CTBUS_GUARDED_BY(mu_);
  /// Signalled whenever a helper leaves a call.
  core::CondVar left_;
};

}  // namespace

void ParallelFor(int n, int num_threads, const Body& body) {
  if (n <= 0) return;
  const int width = std::max(1, std::min(num_threads, n));
  if (width == 1) {
    body(0, 0, n);
    return;
  }
  Job job(n, width, body);
  Pool::Instance().Run(&job);
  job.RethrowFirstError();
}

}  // namespace ctbus::linalg
