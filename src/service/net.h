// Epoll edge-triggered multi-connection TCP front end over the service
// plane.
//
// `OTB_NET_THREADS` net threads (default 1) each own an epoll instance and
// a disjoint set of connections: thread 0 additionally owns the listening
// socket and deals accepted fds round-robin to the others through a
// mutex-guarded handoff list + eventfd poke.  All transactional work stays
// on the service workers — net threads only shuttle bytes — so the adapter
// still adds no second threading model, it just shards the byte-shuttling.
//
// No periodic tick.  The PR 5 adapter polled with a 1 ms timeout because
// completions arrive from service workers, not sockets.  Here every
// completion notifies its owning net thread through the request's
// completion hook (request.h).  A worker completes a whole batch before it
// wakes anyone, so the hook only defers a wake (`defer_wake`): once per
// batch and net thread, the wake flips the thread's dirty flag and, only on
// the false→true transition, writes the thread's eventfd — one syscall per
// batch, not per completion.  A completion the net thread makes itself (an
// inline snapshot read, an admission failure) writes nothing: the thread
// re-harvests until a pass finds no completion of its own it has not yet
// seen.  An idle net thread blocks in epoll_wait(-1) indefinitely.
//
// Backpressure (per connection): once a connection's in-flight request
// count or its pending-write bytes reach the high-water marks
// (`OTB_NET_INFLIGHT_HW` / `OTB_NET_WRBUF_HW`), the thread stops reading
// that socket — unread bytes accumulate in the kernel buffer until TCP
// closes the client's window.  Admission control stays independently
// checkable: requests the service rejects still complete `kOverloaded`
// and the response frame carries that status.  Because resuming a paused
// connection gets no fresh epoll edge for bytes already buffered, resume
// re-runs the read path directly.
//
// Wire format (little-endian; u32 length prefix counts the bytes after
// itself; docs/SERVICE.md "Wire format").  Every frame is a v2 multi-op
// script, len == 14 + 29·nsteps:
//     request  := u32 len | u8 ver(=2) | u8 nsteps | u32 deadline_ms
//                 | u64 id | nsteps × step
//     step     := u8 structure | u8 verb | u8 flags | i8 key_from
//                 | i8 value_from | i64 key | i64 value | i64 expect
//     response := u32 len | u8 ver(=2) | u64 id | u8 status | u8 ok
//                 | u8 nsteps | nsteps × (u8 ran, u8 ok, i64 value)
//                 | u32 n | n × (i64 key, i64 value)
//   `flags` bit0 = required, bit1 = has_expect.
//
// `id` is an opaque client token echoed back; `deadline_ms` is relative
// (0 = none) and converted to the service's absolute now_ns clock on
// receipt; `n` counts the range pairs of completed kOk requests with range
// steps.  Frame-level garbage (a length that is not 14 + 29·n, a version
// byte other than 2, nsteps outside [1, kNetMaxWireSteps], unknown verb)
// closes the connection — a length-prefixed stream cannot resynchronise
// after garbage.  SEMANTIC problems (unregistered slot, incompatible verb,
// bad binding) are the service's call: they come back as a kFailed
// response, not a hangup.
//
// Shutdown: request_stop() is async-signal-safe (a relaxed store plus
// eventfd writes, both signal-safe), so `signal(SIGTERM, handler)` can call
// it directly.  Each thread then stops accepting/reading, flushes every
// in-flight response, and waits for its outstanding completion hooks to
// retire (the `outstanding` counter is what makes destroying the server
// after run() safe: a deferred wake holds its completions' units until it
// has written the eventfd, and never touches thread state after its
// decrement).
// Thread 0 joins the others and stops the service (full drain).
//
// `BasicNetServer` is templated on the service type so the same adapter
// fronts a single `Service` or a `ShardedService` (sharding.h); the
// `NetServer` alias keeps the PR 5 spelling.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "metrics/registry.h"
#include "service/request.h"
#include "service/service.h"

namespace otb::service {

#if defined(__linux__)

inline constexpr std::uint8_t kNetWireV2 = 2;
inline constexpr std::size_t kNetWireStepLen = 29;      // encoded v2 step
inline constexpr std::size_t kNetWireV2HeaderLen = 14;  // ver..id inclusive
/// Framing cap on v2 scripts — decoupled from the service's own
/// OTB_SVC_MAX_STEPS admission knob (a longer-than-configured script
/// decodes fine and completes kFailed; a frame above this cap is garbage).
inline constexpr std::size_t kNetMaxWireSteps = 32;

namespace wire {
template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}
template <typename T>
T get(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
}  // namespace wire

struct NetServerConfig {
  unsigned net_threads = 1;             // epoll threads (thread 0 accepts)
  std::size_t conn_inflight_hw = 256;   // pause reads at this many in flight
  std::size_t conn_wrbuf_hw = 1u << 20; // ... or this many unsent bytes

  /// Metrics sink; null = Registry::global().sink("otb.service.net").
  metrics::MetricsSink* metrics = nullptr;

  /// Defaults overridable from the environment (docs/KNOBS.md):
  /// OTB_NET_THREADS, OTB_NET_INFLIGHT_HW, OTB_NET_WRBUF_HW.
  static NetServerConfig from_env() {
    NetServerConfig cfg;
    cfg.net_threads = static_cast<unsigned>(
        detail::env_u64("OTB_NET_THREADS", cfg.net_threads));
    cfg.conn_inflight_hw = static_cast<std::size_t>(
        detail::env_u64("OTB_NET_INFLIGHT_HW", cfg.conn_inflight_hw));
    cfg.conn_wrbuf_hw = static_cast<std::size_t>(
        detail::env_u64("OTB_NET_WRBUF_HW", cfg.conn_wrbuf_hw));
    return cfg;
  }
};

template <typename Svc>
class BasicNetServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see bound_port()).  Throws
  /// nothing: check listening() before run().
  BasicNetServer(Svc& svc, std::uint16_t port,
                 NetServerConfig cfg = NetServerConfig::from_env())
      : svc_(svc),
        cfg_(sanitise(cfg)),
        sink_(cfg_.metrics != nullptr
                  ? cfg_.metrics
                  : &metrics::Registry::global().sink("otb.service.net")) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) return;
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    // Backlog sized for a whole client fleet connecting before the accept
    // loop first runs (bench forks its processes pre-start).
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 512) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
        0) {
      bound_port_ = ntohs(addr.sin_port);
    }
    threads_.reserve(cfg_.net_threads);
    for (unsigned i = 0; i < cfg_.net_threads; ++i) {
      auto t = std::make_unique<NetThread>();
      t->epfd = ::epoll_create1(EPOLL_CLOEXEC);
      t->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      bool ok = t->epfd >= 0 && t->event_fd >= 0;
      if (ok) {
        epoll_event ev{};
        ev.events = EPOLLIN;  // level-triggered: drained on every wake
        ev.data.u64 = kTagEvent;
        ok = ::epoll_ctl(t->epfd, EPOLL_CTL_ADD, t->event_fd, &ev) == 0;
      }
      if (ok && i == 0) {
        epoll_event ev{};
        ev.events = EPOLLIN;  // level-triggered: accepts until EAGAIN anyway
        ev.data.u64 = kTagListen;
        ok = ::epoll_ctl(t->epfd, EPOLL_CTL_ADD, listen_fd_, &ev) == 0;
      }
      if (!ok) {
        if (t->event_fd >= 0) ::close(t->event_fd);
        if (t->epfd >= 0) ::close(t->epfd);
        for (auto& prev : threads_) {
          ::close(prev->event_fd);
          ::close(prev->epfd);
        }
        threads_.clear();
        ::close(listen_fd_);
        listen_fd_ = -1;
        return;
      }
      threads_.push_back(std::move(t));
    }
  }

  ~BasicNetServer() {
    for (auto& t : threads_) {
      for (auto& c : t->conns) close_conn(*c);
      for (int fd : t->handoff) ::close(fd);
      if (t->event_fd >= 0) ::close(t->event_fd);
      if (t->epfd >= 0) ::close(t->epfd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  BasicNetServer(const BasicNetServer&) = delete;
  BasicNetServer& operator=(const BasicNetServer&) = delete;

  bool listening() const { return listen_fd_ >= 0; }
  std::uint16_t bound_port() const { return bound_port_; }
  unsigned net_threads() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Async-signal-safe stop request (SIGTERM handlers call this): one
  /// relaxed store plus an eventfd write per net thread.
  void request_stop() {
    stop_flag_.store(true, std::memory_order_relaxed);
    const std::uint64_t one = 1;
    for (auto& t : threads_) {
      [[maybe_unused]] ssize_t r = ::write(t->event_fd, &one, sizeof(one));
    }
  }

  /// Serve until request_stop(): runs net thread 0 on the calling thread
  /// and spawns the rest.  Every thread drains its in-flight responses,
  /// then the service is stopped (full drain) before run() returns.
  void run() {
    if (!listening()) {
      svc_.stop();
      return;
    }
    for (unsigned i = 1; i < threads_.size(); ++i) {
      threads_[i]->thread = std::thread([this, i] { loop(i); });
    }
    loop(0);
    for (unsigned i = 1; i < threads_.size(); ++i) {
      if (threads_[i]->thread.joinable()) threads_[i]->thread.join();
    }
    svc_.stop();
  }

 private:
  // epoll_event.data.u64 tags; real Conn pointers can never be 0 or 1.
  static constexpr std::uint64_t kTagListen = 0;
  static constexpr std::uint64_t kTagEvent = 1;
  static constexpr int kMaxEvents = 64;

  struct InFlight {
    std::uint64_t id = 0;
    ResponseFuture fut;
  };

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::deque<InFlight> inflight;
    bool dead = false;
    bool paused = false;  // reads suspended at a high-water mark
  };

  /// Per-net-thread state.  Addresses are stable for the server's lifetime
  /// (unique_ptr in a fixed vector) because completion hooks hold raw
  /// pointers to it from arbitrary service-worker threads.
  struct NetThread {
    int epfd = -1;
    int event_fd = -1;
    // Completion-wakeup coalescing: a wake writes event_fd only on the
    // false→true transition, so a harvest wakes once per burst.
    std::atomic<bool> dirty{false};
    // Hooks not yet retired.  The drain loop waits for 0 before the thread
    // exits: a deferred wake's decrement is its last access to this struct,
    // so outstanding == 0 (acquire) proves no hook can touch freed memory.
    std::atomic<std::uint64_t> outstanding{0};
    // Completions made on this thread itself; only this thread touches it.
    std::uint64_t own_completions = 0;
    std::mutex handoff_mu;
    std::vector<int> handoff;  // accepted fds awaiting adoption
    std::vector<std::unique_ptr<Conn>> conns;
    std::thread thread;  // threads_[0] runs on the run() caller instead
  };

  static NetServerConfig sanitise(NetServerConfig cfg) {
    if (cfg.net_threads == 0) cfg.net_threads = 1;
    if (cfg.net_threads > 64) cfg.net_threads = 64;
    if (cfg.conn_inflight_hw == 0) cfg.conn_inflight_hw = 1;
    if (cfg.conn_wrbuf_hw < 4096) cfg.conn_wrbuf_hw = 4096;
    return cfg;
  }

  /// Request completion hook (request.h): runs on whichever thread
  /// completes the request.  On the owning net thread it only counts the
  /// completion for the re-harvest; anywhere else it defers the wake, which
  /// keeps this completion's outstanding unit until the wake has run.
  static void notify_completion(void* arg) {
    auto* t = static_cast<NetThread*>(arg);
    if (t == current_) {
      ++t->own_completions;
      t->outstanding.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    defer_wake(&wake, t);
  }

  /// Deferred wake for `n` completions of `arg`'s requests.  Must not touch
  /// the NetThread after its outstanding decrement.
  static void wake(void* arg, std::uint32_t n) {
    auto* t = static_cast<NetThread*>(arg);
    if (!t->dirty.exchange(true, std::memory_order_acq_rel)) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t r = ::write(t->event_fd, &one, sizeof(one));
    }
    t->outstanding.fetch_sub(n, std::memory_order_release);
  }

  void loop(unsigned idx) {
    char name[16];
    std::snprintf(name, sizeof(name), "otb-net-%u", idx);
    set_this_thread_name(name);
    NetThread& t = *threads_[idx];
    current_ = &t;
    while (!stop_flag_.load(std::memory_order_relaxed)) {
      dispatch(t, /*accepting=*/true, /*timeout_ms=*/-1);
    }
    // Drain: no new connections or frames, but every submitted request
    // still gets its response before the socket closes, and every
    // completion hook retires before the thread exits.  The finite timeout
    // here is not a serving tick — it only bounds the shutdown wait when a
    // peer stops reading its responses.
    while (in_flight_total(t) > 0 || pending_writes(t) ||
           t.outstanding.load(std::memory_order_acquire) != 0) {
      dispatch(t, /*accepting=*/false, /*timeout_ms=*/10);
    }
    current_ = nullptr;
  }

  /// One epoll round: move bytes for ready fds, then harvest completions
  /// and reap finished connections.  `accepting` false (drain mode) stops
  /// accept() and ignores fresh request frames.
  void dispatch(NetThread& t, bool accepting, int timeout_ms) {
    epoll_event evs[kMaxEvents];
    const int n = ::epoll_wait(t.epfd, evs, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = evs[i].data.u64;
      if (tag == kTagListen) {
        if (accepting) accept_new(t);
      } else if (tag == kTagEvent) {
        // One read returns and zeroes the whole counter (the eventfd is
        // not a semaphore).  It fails with EAGAIN only when an earlier
        // round already consumed the wake, which leaves nothing to do.
        std::uint64_t drained;
        [[maybe_unused]] const ssize_t got =
            ::read(t.event_fd, &drained, sizeof(drained));
        // Clear-after-drain keeps the invariant "dirty ⇒ eventfd readable
        // or harvest imminent": a wake firing after this exchange sees
        // false and writes the (now-empty) eventfd again.  The acq_rel
        // exchange also orders the wake's preceding status publishes before
        // the harvest below.
        t.dirty.exchange(false, std::memory_order_acq_rel);
        adopt_handoffs(t, accepting);
      } else {
        Conn& c = *reinterpret_cast<Conn*>(tag);
        if ((evs[i].events & (EPOLLHUP | EPOLLERR)) != 0 && !accepting) {
          c.dead = true;  // peer gone: let the drain loop terminate
        }
        if ((evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
            accepting && !c.paused) {
          read_frames(t, c);
        }
        if ((evs[i].events & EPOLLOUT) != 0) flush(c);
      }
    }
    // This thread's own completions wrote no eventfd, so nothing else would
    // bring it back for them: a harvest that resumed a paused connection
    // may have completed more inline, which the next pass picks up.
    std::uint64_t seen = 0;
    do {
      seen = t.own_completions;
      harvest(t, accepting);
    } while (t.own_completions != seen);
    reap(t);
  }

  /// Thread 0 only: accept until EAGAIN, dealing connections round-robin
  /// across the net threads.
  void accept_new(NetThread& t0) {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) return;
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sink_->add(metrics::CounterId::kNetAccepts);
      const std::size_t target = rr_next_++ % threads_.size();
      if (target == 0) {
        add_conn(t0, fd);
        continue;
      }
      NetThread& t = *threads_[target];
      {
        std::lock_guard<std::mutex> g(t.handoff_mu);
        t.handoff.push_back(fd);
      }
      const std::uint64_t poke = 1;
      [[maybe_unused]] ssize_t r = ::write(t.event_fd, &poke, sizeof(poke));
    }
  }

  void adopt_handoffs(NetThread& t, bool accepting) {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> g(t.handoff_mu);
      fds.swap(t.handoff);
    }
    for (int fd : fds) {
      if (!accepting) {
        ::close(fd);
        continue;
      }
      add_conn(t, fd);
    }
  }

  void add_conn(NetThread& t, int fd) {
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.u64 = reinterpret_cast<std::uint64_t>(conn.get());
    if (::epoll_ctl(t.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    Conn& c = *conn;
    t.conns.push_back(std::move(conn));
    // Bytes may already be queued (clients often connect-and-send before
    // the ADD above); read now rather than trust an add-time edge.
    read_frames(t, c);
  }

  /// True (and the connection paused) when either high-water mark is hit.
  bool check_pause(Conn& conn) {
    if (conn.inflight.size() < cfg_.conn_inflight_hw &&
        conn.out.size() - conn.out_off < cfg_.conn_wrbuf_hw) {
      return false;
    }
    if (!conn.paused) {
      conn.paused = true;
      sink_->add(metrics::CounterId::kNetBackpressure);
    }
    return true;
  }

  /// Decode-and-submit everything buffered, then read the socket until
  /// EAGAIN/EOF or a high-water pause.  Also the resume path: buffered
  /// bytes parse first because a paused connection gets no fresh edge for
  /// them.
  void read_frames(NetThread& t, Conn& conn) {
    parse_frames(t, conn);
    std::uint8_t buf[16384];
    while (!conn.dead && !check_pause(conn)) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.in.insert(conn.in.end(), buf, buf + n);
        parse_frames(t, conn);
        continue;
      }
      if (n == 0) conn.dead = true;                         // orderly EOF
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) conn.dead = true;
      break;
    }
  }

  void parse_frames(NetThread& t, Conn& conn) {
    std::size_t off = 0;
    while (!conn.dead && conn.in.size() - off >= 4 && !check_pause(conn)) {
      const std::uint32_t len = wire::get<std::uint32_t>(conn.in.data() + off);
      // A v2 frame is 14 + 29·n bytes; anything else is garbage.
      const bool v2_shape =
          len >= kNetWireV2HeaderLen + kNetWireStepLen &&
          (len - kNetWireV2HeaderLen) % kNetWireStepLen == 0 &&
          (len - kNetWireV2HeaderLen) / kNetWireStepLen <= kNetMaxWireSteps;
      if (!v2_shape) {  // protocol error: cannot resync
        conn.dead = true;
        break;
      }
      if (conn.in.size() - off < 4 + len) break;
      sink_->add(metrics::CounterId::kNetFramesIn);
      decode_submit_v2(t, conn, conn.in.data() + off + 4, len);
      off += 4 + len;
    }
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(off));
  }

  void submit(NetThread& t, Conn& conn, Request req, std::uint64_t id) {
    req.on_complete = &notify_completion;
    req.on_complete_arg = &t;
    // Counted before submit(): admission failures complete inline, running
    // the hook on this thread before submit() even returns.
    t.outstanding.fetch_add(1, std::memory_order_relaxed);
    conn.inflight.push_back(InFlight{id, svc_.submit(std::move(req))});
  }

  void decode_submit_v2(NetThread& t, Conn& conn, const std::uint8_t* p,
                        std::uint32_t len) {
    if (wire::get<std::uint8_t>(p) != kNetWireV2) {
      conn.dead = true;
      return;
    }
    const std::uint8_t nsteps = wire::get<std::uint8_t>(p + 1);
    if (nsteps == 0 ||
        std::size_t{nsteps} !=
            (len - kNetWireV2HeaderLen) / kNetWireStepLen) {
      conn.dead = true;  // header and length prefix disagree
      return;
    }
    const std::uint32_t deadline_ms = wire::get<std::uint32_t>(p + 2);
    const std::uint64_t id = wire::get<std::uint64_t>(p + 6);
    Request req;
    if (deadline_ms != 0) {
      req.deadline_ns = now_ns() + std::uint64_t{deadline_ms} * 1'000'000ull;
    }
    const std::uint8_t* sp = p + kNetWireV2HeaderLen;
    for (std::uint8_t i = 0; i < nsteps; ++i, sp += kNetWireStepLen) {
      const std::uint8_t verb = wire::get<std::uint8_t>(sp + 1);
      if (verb >= kVerbCount) {  // not even a known verb: garbage frame
        conn.dead = true;
        return;
      }
      Step s;
      s.structure = wire::get<std::uint8_t>(sp);
      s.verb = static_cast<Verb>(verb);
      const std::uint8_t flags = wire::get<std::uint8_t>(sp + 2);
      s.required = (flags & 1u) != 0;
      s.has_expect = (flags & 2u) != 0;
      s.key_from = static_cast<std::int8_t>(wire::get<std::uint8_t>(sp + 3));
      s.value_from = static_cast<std::int8_t>(wire::get<std::uint8_t>(sp + 4));
      s.key = wire::get<std::int64_t>(sp + 5);
      s.value = wire::get<std::int64_t>(sp + 13);
      s.expect = wire::get<std::int64_t>(sp + 21);
      req.steps.push_back(s);
    }
    submit(t, conn, std::move(req), id);
  }

  /// Append response frames for completed futures and flush.  Completions
  /// are encoded in FIFO order per connection; responses stall behind an
  /// incomplete older request, which keeps the client's submission order
  /// (it still matches responses by id).  Resumes paused connections whose
  /// high-water marks have cleared.
  void harvest(NetThread& t, bool accepting) {
    for (auto& c : t.conns) {
      while (!c->inflight.empty() && c->inflight.front().fut.done()) {
        encode(*c, c->inflight.front());
        c->inflight.pop_front();
      }
      flush(*c);
      if (accepting && c->paused && !c->dead) {
        c->paused = false;  // re-evaluated by check_pause on the read path
        if (!check_pause(*c)) {
          // No fresh epoll edge covers bytes that arrived while paused, so
          // resuming must run the read path directly.
          read_frames(t, *c);
          flush(*c);
        }
      }
    }
  }

  void encode(Conn& conn, const InFlight& f) {
    const SvcStatus s = f.fut.status();
    const bool with_range =
        s == SvcStatus::kOk && !f.fut.range().empty();
    const std::uint32_t n =
        with_range ? static_cast<std::uint32_t>(f.fut.range().size()) : 0;
    // Per-step results exist only for requests the worker path saw; a
    // submit-time kFailed/kOverloaded leaves `results` empty, which the
    // frame carries faithfully as nsteps == 0.
    const auto nsteps = static_cast<std::uint32_t>(f.fut.step_count());
    const std::uint32_t body = 1 + 8 + 1 + 1 + 1 + nsteps * 10 + 4 + n * 16;
    wire::put<std::uint32_t>(conn.out, body);
    wire::put<std::uint8_t>(conn.out, kNetWireV2);
    wire::put<std::uint64_t>(conn.out, f.id);
    wire::put<std::uint8_t>(conn.out, static_cast<std::uint8_t>(s));
    wire::put<std::uint8_t>(conn.out, s == SvcStatus::kOk && f.fut.ok() ? 1 : 0);
    wire::put<std::uint8_t>(conn.out, static_cast<std::uint8_t>(nsteps));
    for (std::uint32_t i = 0; i < nsteps; ++i) {
      const StepResult& r = f.fut.step(i);
      wire::put<std::uint8_t>(conn.out, r.ran ? 1 : 0);
      wire::put<std::uint8_t>(conn.out, r.ok ? 1 : 0);
      wire::put<std::int64_t>(conn.out, r.value);
    }
    wire::put<std::uint32_t>(conn.out, n);
    if (with_range) {
      for (const auto& [k, v] : f.fut.range()) {
        wire::put<std::int64_t>(conn.out, k);
        wire::put<std::int64_t>(conn.out, v);
      }
    }
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn.dead = true;
      conn.out_off = conn.out.size();
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }

  /// Reap connections that died with nothing left to say.  A dead
  /// connection with live in-flight requests stays until they complete —
  /// nothing else guarantees the futures' refs are settled.
  void reap(NetThread& t) {
    for (std::size_t c = 0; c < t.conns.size();) {
      Conn& conn = *t.conns[c];
      if (conn.dead && conn.inflight.empty() &&
          conn.out_off >= conn.out.size()) {
        close_conn(conn);
        t.conns.erase(t.conns.begin() + static_cast<std::ptrdiff_t>(c));
      } else {
        ++c;
      }
    }
  }

  std::size_t in_flight_total(const NetThread& t) const {
    std::size_t n = 0;
    for (const auto& c : t.conns) n += c->inflight.size();
    return n;
  }

  bool pending_writes(const NetThread& t) const {
    for (const auto& c : t.conns) {
      if (c->out_off < c->out.size()) return true;
    }
    return false;
  }

  void close_conn(Conn& conn) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }

  Svc& svc_;
  NetServerConfig cfg_;
  metrics::MetricsSink* sink_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::size_t rr_next_ = 0;  // thread 0 only
  std::vector<std::unique_ptr<NetThread>> threads_;
  std::atomic<bool> stop_flag_{false};
  // The net thread running on this OS thread (null elsewhere).
  static inline thread_local const NetThread* current_ = nullptr;
};

/// The PR 5 spelling: the adapter over one in-process Service.
using NetServer = BasicNetServer<Service>;

#endif  // defined(__linux__)

}  // namespace otb::service
