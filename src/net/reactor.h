#ifndef JUGGLER_NET_REACTOR_H_
#define JUGGLER_NET_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_diag.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/poller.h"

namespace juggler::net {

/// \brief One event-loop thread that several components can share: a Poller
/// over watched fds, a wake pipe, closures posted from any thread, and tick
/// hooks run on every loop iteration.
///
/// `LoopServer` runs on one (its own, or one it is handed), and the cluster
/// router runs its HTTP edge and its shard connections on the same one, so a
/// routed request crosses no thread inside the router.
///
/// Threading:
///  - `Post()` is callable from any thread. From the loop thread it queues
///    without a lock or a wake-up (the closure runs after the current event
///    batch); from any other thread it takes the queue lock and writes the
///    wake pipe when the queue was empty.
///  - `Watch`/`Update`/`Unwatch` and the tick hooks belong to the loop
///    thread; before `Start()` and after `Stop()` the caller's thread may use
///    them (no loop runs then).
///  - `RunSync()` runs a closure on the loop thread and waits for it (inline
///    when called on the loop thread or while no loop runs).
///
/// Stop: the loop exits, refuses further posts, and runs the closures
/// already queued, so a poster whose `Post()` returned true always has its
/// closure run.
class Reactor {
 public:
  /// Receives readiness for one watched fd, on the loop thread.
  class Watcher {
   public:
    virtual void OnEvent(const Poller::Event& event) = 0;

   protected:
    ~Watcher() = default;
  };

  /// `lock_class`/`lock_rank` name the posted-closure queue's lock (see
  /// common/lock_diag.h); `force_poll` selects the poll(2) backend.
  Reactor(const char* lock_class, int lock_rank, bool force_poll);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Opens the wake pipe (first start only) and starts the loop thread.
  /// Errors: Internal (pipe/poller failure), FailedPrecondition (running).
  [[nodiscard]] Status Start() EXCLUDES(mu_);

  /// Stops and joins the loop thread after it runs the queued closures.
  /// Idempotent; must not be called on the loop thread.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool InLoopThread() const;

  /// "epoll" or "poll".
  const char* backend() const { return poller_->backend_name(); }

  /// Queues `fn` to run on the loop thread. Returns false (and drops `fn`)
  /// when no loop accepts work: not started, or stopping.
  bool Post(std::function<void()> fn) EXCLUDES(mu_);

  /// Runs `fn` on the loop thread and returns once it has run.
  void RunSync(const std::function<void()>& fn) EXCLUDES(mu_);

  [[nodiscard]] Status Watch(int fd, bool want_read, bool want_write,
                             Watcher* watcher);
  [[nodiscard]] Status Update(int fd, bool want_read, bool want_write);
  /// Stops delivering events for `fd` (call before closing it). Events for
  /// it still pending in the current batch are dropped, and so are those of
  /// an fd number watched again within the same batch.
  void Unwatch(int fd);

  /// Registers a hook run after every event batch (at least every
  /// `kTickMs`). Hooks must not add or remove hooks.
  uint64_t AddTickHook(std::function<void()> hook);
  void RemoveTickHook(uint64_t id);

  /// Upper bound on the time between tick-hook runs when the loop is idle.
  static constexpr int kTickMs = 50;

 private:
  void Loop() EXCLUDES(mu_);
  void RunPosted() EXCLUDES(mu_);
  void Wake();

  std::unique_ptr<Poller> poller_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  // Loop-thread state.
  std::vector<Watcher*> watchers_;     ///< By fd; null when not watched.
  std::vector<uint64_t> watched_in_;   ///< By fd: batch that watched it.
  uint64_t batch_ = 0;
  std::vector<std::pair<uint64_t, std::function<void()>>> hooks_;
  uint64_t next_hook_id_ = 1;
  std::vector<std::function<void()>> local_;  ///< Posted by the loop itself.
  std::vector<std::function<void()>> ready_;  ///< Being run by RunPosted.

  /// Guards the closures posted from other threads. Its lock class is the
  /// owner's (e.g. "net.HttpServer.completions"): held only to push or swap
  /// the vector, never while a closure runs.
  Mutex mu_ ACQUIRED_BEFORE(lockdiag::kServiceOrder);
  std::vector<std::function<void()>> posted_ GUARDED_BY(mu_);
  bool accepting_ GUARDED_BY(mu_) = false;
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_REACTOR_H_
