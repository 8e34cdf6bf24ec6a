#include "net/reactor.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>

#include "net/socket_util.h"

namespace juggler::net {

namespace {

/// The reactor whose loop runs on this thread, if any.
thread_local const Reactor* tls_loop = nullptr;

}  // namespace

Reactor::Reactor(const char* lock_class, int lock_rank, bool force_poll)
    : poller_(Poller::Create(force_poll)),
      mu_(lockdiag::RegisterLockClass(lock_class, lock_rank)) {}

Reactor::~Reactor() {
  Stop();
  CloseFd(wake_read_fd_);
  CloseFd(wake_write_fd_);
}

Status Reactor::Start() {
  if (thread_.joinable()) {
    return Status::FailedPrecondition("event loop already running");
  }
  if (wake_read_fd_ < 0) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      return Status::Internal(std::string("pipe2: ") + std::strerror(errno));
    }
    if (Status added = poller_->Add(pipe_fds[0], /*want_read=*/true,
                                    /*want_write=*/false);
        !added.ok()) {
      CloseFd(pipe_fds[0]);
      CloseFd(pipe_fds[1]);
      return added;
    }
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
  }
  {
    MutexLock lock(mu_);
    accepting_ = true;
  }
  stop_.store(false);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Reactor::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  Wake();
  thread_.join();
  running_.store(false, std::memory_order_release);
}

bool Reactor::InLoopThread() const { return tls_loop == this; }

bool Reactor::Post(std::function<void()> fn) {
  if (InLoopThread()) {
    local_.push_back(std::move(fn));
    return true;
  }
  bool wake = false;
  {
    MutexLock lock(mu_);
    if (!accepting_) return false;
    // A non-empty queue already has a wake-up on its way (the loop swaps the
    // queue under this lock, so it cannot miss the push).
    wake = posted_.empty();
    posted_.push_back(std::move(fn));
  }
  if (wake) Wake();
  return true;
}

void Reactor::RunSync(const std::function<void()>& fn) {
  if (InLoopThread() || !running()) {
    fn();
    return;
  }
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  if (!Post([&fn, done] {
        fn();
        done->set_value();
      })) {
    fn();  // The loop is gone; nothing else touches its state now.
    return;
  }
  finished.wait();
}

Status Reactor::Watch(int fd, bool want_read, bool want_write,
                      Watcher* watcher) {
  if (fd < 0) return Status::InvalidArgument("negative fd");
  JUGGLER_RETURN_IF_ERROR(poller_->Add(fd, want_read, want_write));
  const size_t index = static_cast<size_t>(fd);
  if (watchers_.size() <= index) {
    watchers_.resize(index + 1, nullptr);
    watched_in_.resize(index + 1, 0);
  }
  watchers_[index] = watcher;
  watched_in_[index] = batch_;
  return Status::OK();
}

Status Reactor::Update(int fd, bool want_read, bool want_write) {
  return poller_->Update(fd, want_read, want_write);
}

void Reactor::Unwatch(int fd) {
  const size_t index = static_cast<size_t>(fd);
  if (fd < 0 || index >= watchers_.size()) return;
  poller_->Remove(fd);
  watchers_[index] = nullptr;
}

uint64_t Reactor::AddTickHook(std::function<void()> hook) {
  const uint64_t id = next_hook_id_++;
  hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Reactor::RemoveTickHook(uint64_t id) {
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == id) {
      hooks_.erase(it);
      return;
    }
  }
}

void Reactor::Wake() {
  const char byte = 'w';
  // EAGAIN means the pipe already holds a pending wake-up; that is enough.
  ssize_t n;
  do {
    n = ::write(wake_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

void Reactor::Loop() {
  tls_loop = this;
  std::vector<Poller::Event> events;
  while (!stop_.load(std::memory_order_acquire)) {
    // Closures the loop posted to itself run before it sleeps again.
    const int timeout_ms = local_.empty() ? kTickMs : 0;
    if (Status status = poller_->Wait(timeout_ms, &events); !status.ok()) {
      break;  // Poller broken (fd table exhausted, ...): shut down.
    }
    ++batch_;
    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        char drain[64];
        ssize_t n;
        do {
          n = ::read(wake_read_fd_, drain, sizeof(drain));
        } while (n > 0 || (n < 0 && errno == EINTR));
        continue;
      }
      const size_t index = static_cast<size_t>(event.fd);
      if (index >= watchers_.size() || watchers_[index] == nullptr ||
          watched_in_[index] == batch_) {
        continue;  // Unwatched, or a new fd reusing a number this batch.
      }
      watchers_[index]->OnEvent(event);
    }
    RunPosted();
    for (auto& hook : hooks_) hook.second();
  }
  {
    MutexLock lock(mu_);
    accepting_ = false;
  }
  RunPosted();
  tls_loop = nullptr;
}

void Reactor::RunPosted() {
  for (;;) {
    {
      MutexLock lock(mu_);
      ready_.swap(posted_);
    }
    for (auto& fn : local_) ready_.push_back(std::move(fn));
    local_.clear();
    if (ready_.empty()) return;
    // Closures may post more (to local_); the next round picks them up.
    for (auto& fn : ready_) fn();
    ready_.clear();
  }
}

}  // namespace juggler::net
