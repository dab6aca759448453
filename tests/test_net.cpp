// Tier-1 tests of the epoll front end (src/service/net.h): multi-connection
// pipelined round trips across several net threads, POSIX thread naming,
// wire-codec hardening (malformed frames close the connection without
// taking the server down), partial I/O under deliberately tiny socket
// buffers, and the per-connection backpressure pause/resume cycle wired to
// the net_backpressure counter.  The byte path's edge cases: frames
// followed by an EOF in one send, one send larger than a receive buffer,
// and golden response bytes pinning the frame encoder.  Bursts: the answers
// to one read leave only once its last request completes, and the frames
// before a garbage frame are answered before the connection closes.  A
// burst's writes commit on the net thread, as one batch per shard, and a
// service that is not running answers them kOverloaded without logging.
#include <gtest/gtest.h>

#if defined(__linux__)

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/registry.h"
#include "metrics/sink.h"
#include "otb/otb_list_map.h"
#include "service/net.h"
#include "service/service.h"
#include "service/sharding.h"

namespace otb {
namespace {

using metrics::CounterId;
using service::NetServer;
using service::NetServerConfig;
using service::Request;
using service::Service;
using service::ServiceConfig;
using service::Step;
using service::SvcStatus;
using service::Targets;

std::uint64_t counter(const metrics::MetricsSink& sink, CounterId id) {
  return sink.snapshot().counters[static_cast<std::size_t>(id)];
}

/// Holds OTB_MV_VERSIONS at `k` for a scope, so a test that needs inline
/// snapshot reads gets them on every way out, failed assertions included.
struct MvVersionsAt {
  explicit MvVersionsAt(unsigned k) { tx::set_mv_versions(k); }
  ~MvVersionsAt() { tx::set_mv_versions(previous); }
  const unsigned previous = tx::mv_versions();
};

/// Runs `fn` when its scope ends, however it ends.
template <typename Fn>
struct OnExit {
  Fn fn;
  ~OnExit() { fn(); }
};
template <typename Fn>
OnExit(Fn) -> OnExit<Fn>;

/// A batch_fault_hook that holds every batch attempt, mid-run, until the
/// test releases it.
struct BatchGate {
  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};

  void install(ServiceConfig& cfg) {
    cfg.batch_fault_hook = [this](std::size_t) {
      entered.store(true);
      while (!released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
  }

  /// True once a batch is held (gives up after 2 s).
  bool wait_entered() const {
    for (int i = 0; i < 400 && !entered.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return entered.load();
  }
};

/// A batch_fault_hook's record of the batches it saw: the name of the
/// thread that ran each and its size.
struct BatchLog {
  std::mutex mu;
  std::vector<std::pair<std::string, std::size_t>> batches;

  void install(ServiceConfig& cfg) {
    cfg.batch_fault_hook = [this](std::size_t n) {
      char name[16] = {};
      ::pthread_getname_np(::pthread_self(), name, sizeof(name));
      std::lock_guard<std::mutex> g(mu);
      batches.emplace_back(name, n);
    };
  }
};

/// A fresh directory for a write-ahead log, removed with its contents.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/otb_net_wal_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  std::string path;
};

/// Minimal blocking loopback client speaking raw bytes, so the hardening
/// tests can send frames the well-formed helpers in test_service.cpp
/// cannot produce.  A 2 s receive timeout turns "server never answers /
/// never closes" into a test failure instead of a hang.
class RawClient {
 public:
  /// `bufsize` != 0 shrinks SO_SNDBUF/SO_RCVBUF BEFORE connect (so the
  /// window negotiation sees it) to force partial reads and writes on the
  /// server side.
  explicit RawClient(std::uint16_t port, int bufsize = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 && bufsize != 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bufsize, sizeof(bufsize));
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bufsize, sizeof(bufsize));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) {
      timeval tv{2, 0};
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void send_bytes(const std::vector<std::uint8_t>& b) {
    ASSERT_EQ(::send(fd_, b.data(), b.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(b.size()));
  }

  static std::vector<std::uint8_t> v2_frame(std::uint64_t id,
                                            const Request& req) {
    std::vector<std::uint8_t> buf;
    const std::size_t n = req.steps.size();
    service::wire::put<std::uint32_t>(
        buf, static_cast<std::uint32_t>(service::kNetWireV2HeaderLen +
                                        n * service::kNetWireStepLen));
    service::wire::put<std::uint8_t>(buf, service::kNetWireV2);
    service::wire::put<std::uint8_t>(buf, static_cast<std::uint8_t>(n));
    service::wire::put<std::uint32_t>(buf, /*deadline_ms=*/0);
    service::wire::put<std::uint64_t>(buf, id);
    for (const Step& s : req.steps) {
      service::wire::put<std::uint8_t>(buf, s.structure);
      service::wire::put<std::uint8_t>(buf, static_cast<std::uint8_t>(s.verb));
      service::wire::put<std::uint8_t>(
          buf, static_cast<std::uint8_t>((s.required ? 1 : 0) |
                                         (s.has_expect ? 2 : 0)));
      service::wire::put<std::uint8_t>(buf,
                                       static_cast<std::uint8_t>(s.key_from));
      service::wire::put<std::uint8_t>(
          buf, static_cast<std::uint8_t>(s.value_from));
      service::wire::put<std::int64_t>(buf, s.key);
      service::wire::put<std::int64_t>(buf, s.value);
      service::wire::put<std::int64_t>(buf, s.expect);
    }
    return buf;
  }

  struct Response {
    bool got = false;
    std::uint64_t id = 0;
    SvcStatus status = SvcStatus::kPending;
    bool ok = false;
    std::int64_t value = 0;  // step 0's result value
  };

  /// Reads one response frame.
  Response read_response() {
    Response r;
    std::uint8_t hdr[4];
    if (!read_exact(hdr, 4)) return r;
    const auto len = service::wire::get<std::uint32_t>(hdr);
    std::vector<std::uint8_t> body(len);
    if (!read_exact(body.data(), len)) return r;
    r.got = true;
    EXPECT_EQ(body[0], service::kNetWireV2);
    r.id = service::wire::get<std::uint64_t>(body.data() + 1);
    r.status = static_cast<SvcStatus>(body[9]);
    r.ok = body[10] != 0;
    if (body[11] > 0) r.value = service::wire::get<std::int64_t>(body.data() + 14);
    return r;
  }

  /// Reads one response frame's raw bytes, length prefix included (empty
  /// on timeout or EOF).
  std::vector<std::uint8_t> read_frame() {
    std::vector<std::uint8_t> frame(4);
    if (!read_exact(frame.data(), 4)) return {};
    const auto len = service::wire::get<std::uint32_t>(frame.data());
    frame.resize(4 + len);
    if (!read_exact(frame.data() + 4, len)) return {};
    return frame;
  }

  /// True when the server closed the connection (orderly EOF) within the
  /// receive timeout — the required reaction to a malformed frame.
  bool closed_by_server() {
    std::uint8_t b;
    const ssize_t n = ::recv(fd_, &b, 1, 0);
    return n == 0;
  }

 private:
  bool read_exact(std::uint8_t* out, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

class NetServerTest : public ::testing::Test {
 protected:
  Targets targets() { return Targets::standard(&map_); }

  ServiceConfig config() {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.batch_max = 4;
    cfg.queue_capacity = 256;
    cfg.metrics = &svc_sink_;
    return cfg;
  }

  NetServerConfig net_config(unsigned threads) {
    NetServerConfig cfg;
    cfg.net_threads = threads;
    cfg.metrics = &net_sink_;
    return cfg;
  }

  tx::OtbListMap map_;
  metrics::MetricsSink svc_sink_;
  metrics::MetricsSink net_sink_;
};

TEST_F(NetServerTest, MultiConnectionPipelinedRoundTrip) {
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/2));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });

  constexpr int kConns = 8;
  constexpr int kPerConn = 16;
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([c, port = server.bound_port()] {
      RawClient cl(port);
      ASSERT_TRUE(cl.ok());
      // Pipeline every request up front, then read responses back; the
      // server guarantees per-connection FIFO response order.
      for (int i = 0; i < kPerConn; ++i) {
        const std::int64_t key = c * 1000 + i;
        cl.send_bytes(RawClient::v2_frame(static_cast<std::uint64_t>(i + 1),
                                          Request{service::map_put(key, key * 3)}));
      }
      for (int i = 0; i < kPerConn; ++i) {
        const RawClient::Response r = cl.read_response();
        ASSERT_TRUE(r.got);
        EXPECT_EQ(r.id, static_cast<std::uint64_t>(i + 1));
        EXPECT_EQ(r.status, SvcStatus::kOk);
      }
      cl.send_bytes(
          RawClient::v2_frame(99, Request{service::map_get(c * 1000 + 7)}));
      const RawClient::Response g = cl.read_response();
      ASSERT_TRUE(g.got);
      EXPECT_TRUE(g.ok);
      EXPECT_EQ(g.value, (c * 1000 + 7) * 3);
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(counter(net_sink_, CounterId::kNetAccepts),
            static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(counter(net_sink_, CounterId::kNetFramesIn),
            static_cast<std::uint64_t>(kConns * (kPerConn + 1)));

  server.request_stop();
  serve.join();
  EXPECT_FALSE(svc.accepting());  // run() stops the service on exit
}

TEST_F(NetServerTest, NetThreadsCarryPosixNames) {
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/3));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });

  // The names appear once the threads reach their loop; poll briefly.
  int named = 0;
  for (int attempt = 0; attempt < 200 && named < 3; ++attempt) {
    named = 0;
    if (DIR* dir = ::opendir("/proc/self/task")) {
      while (dirent* e = ::readdir(dir)) {
        if (e->d_name[0] == '.') continue;
        const std::string path =
            std::string("/proc/self/task/") + e->d_name + "/comm";
        if (std::FILE* f = std::fopen(path.c_str(), "r")) {
          char comm[32] = {};
          if (std::fgets(comm, sizeof(comm), f) != nullptr &&
              std::strncmp(comm, "otb-net-", 8) == 0) {
            named += 1;
          }
          std::fclose(f);
        }
      }
      ::closedir(dir);
    }
    if (named < 3) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(named, 3);

  server.request_stop();
  serve.join();
}

TEST_F(NetServerTest, MalformedFramesCloseTheConnectionNotTheServer) {
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  const std::uint16_t port = server.bound_port();

  const auto expect_closed = [&](const std::vector<std::uint8_t>& bytes) {
    RawClient cl(port);
    ASSERT_TRUE(cl.ok());
    cl.send_bytes(bytes);
    EXPECT_TRUE(cl.closed_by_server());
  };

  // Length prefix that is not a frame length (cannot resync: close).
  {
    std::vector<std::uint8_t> b;
    service::wire::put<std::uint32_t>(b, 5);
    b.insert(b.end(), 5, 0xab);
    expect_closed(b);
  }
  // Oversized v2 length prefix: more steps than kNetMaxWireSteps.  Rejected
  // from the prefix alone — no body needed, nothing buffered.
  {
    std::vector<std::uint8_t> b;
    service::wire::put<std::uint32_t>(
        b, static_cast<std::uint32_t>(
               service::kNetWireV2HeaderLen +
               (service::kNetMaxWireSteps + 1) * service::kNetWireStepLen));
    expect_closed(b);
  }
  // Garbage length prefix in the gigabytes: same rejection, no allocation.
  {
    std::vector<std::uint8_t> b;
    service::wire::put<std::uint32_t>(b, 0xfffffff0u);
    expect_closed(b);
  }
  // v2-shaped length but wrong version byte.
  {
    Request req{service::map_put(1, 1)};
    std::vector<std::uint8_t> b = RawClient::v2_frame(1, req);
    b[4] = 7;  // version byte
    expect_closed(b);
  }
  // Version/step-count header disagreeing with the length prefix.
  {
    Request req{service::map_put(1, 1)};
    std::vector<std::uint8_t> b = RawClient::v2_frame(1, req);
    b[5] = 2;  // nsteps says 2, length prefix says 1
    expect_closed(b);
  }
  // Step with an out-of-range verb byte.
  {
    Request req{service::map_put(1, 1)};
    std::vector<std::uint8_t> b = RawClient::v2_frame(1, req);
    b[4 + service::kNetWireV2HeaderLen + 1] = 0xee;  // verb byte of step 0
    expect_closed(b);
  }
  // A 29-byte frame (the old single-op layout) is not 14 + 29·n.
  {
    std::vector<std::uint8_t> b;
    service::wire::put<std::uint32_t>(b, 29);
    b.insert(b.end(), 29, 0);
    expect_closed(b);
  }
  // Truncated frame followed by client-side close: the server just reaps.
  {
    RawClient cl(port);
    ASSERT_TRUE(cl.ok());
    std::vector<std::uint8_t> b =
        RawClient::v2_frame(1, Request{service::map_put(1, 1)});
    b.resize(11);
    cl.send_bytes(b);
    // Destructor closes mid-frame; nothing to assert beyond "no crash".
  }

  // The server survived all of it: a fresh connection still round-trips.
  RawClient cl(port);
  ASSERT_TRUE(cl.ok());
  cl.send_bytes(RawClient::v2_frame(10, Request{service::map_put(42, 420)}));
  RawClient::Response r = cl.read_response();
  ASSERT_TRUE(r.got);
  EXPECT_EQ(r.status, SvcStatus::kOk);
  cl.send_bytes(RawClient::v2_frame(11, Request{service::map_get(42)}));
  r = cl.read_response();
  ASSERT_TRUE(r.got);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 420);

  server.request_stop();
  serve.join();
}

TEST_F(NetServerTest, PartialIoUnderTinySocketBuffers) {
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });

  // 4 KB buffers: small enough that the server sees fragmented frames and
  // EAGAIN on writes, large enough to avoid degenerate zero-window TCP
  // states (sndbuf smaller than one loopback segment wedges retransmits).
  RawClient cl(server.bound_port(), /*bufsize=*/4096);
  ASSERT_TRUE(cl.ok());

  // Phase 1 — partial READS: dribble each v2 frame 3 bytes at a time so
  // the server reassembles across every possible split point, reading the
  // response back after each frame (an unread response backlog against a
  // small receive buffer would close the TCP window mid-dribble).
  constexpr int kPuts = 64;
  for (int i = 0; i < kPuts; ++i) {
    const auto f = RawClient::v2_frame(
        static_cast<std::uint64_t>(i + 1),
        Request{service::map_put(i, i * 11)});
    for (std::size_t at = 0; at < f.size(); at += 3) {
      const std::size_t n = std::min<std::size_t>(3, f.size() - at);
      ASSERT_EQ(::send(cl.fd(), f.data() + at, n, MSG_NOSIGNAL),
                static_cast<ssize_t>(n));
    }
    const RawClient::Response r = cl.read_response();
    ASSERT_TRUE(r.got);
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(r.status, SvcStatus::kOk);
  }

  // Phase 2 — partial WRITES: pipeline hundreds of wide-range requests
  // (~1 KB response each, ~400 KB total) without reading; the ~4 KB client
  // window forces the server through its EAGAIN/buffered-flush path, then
  // everything must come back complete and in order as the client drains.
  constexpr int kRanges = 400;
  for (int i = 0; i < kRanges; ++i) {
    cl.send_bytes(RawClient::v2_frame(1000 + i,
                                      Request{service::map_range(0, 63)}));
  }
  for (int i = 0; i < kRanges; ++i) {
    std::uint8_t hdr[4];
    ASSERT_EQ(::recv(cl.fd(), hdr, 4, MSG_WAITALL), 4);
    const auto len = service::wire::get<std::uint32_t>(hdr);
    std::vector<std::uint8_t> body(len);
    std::size_t got = 0;
    while (got < len) {
      const ssize_t n = ::recv(cl.fd(), body.data() + got, len - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(body[0], service::kNetWireV2);
    EXPECT_EQ(service::wire::get<std::uint64_t>(body.data() + 1),
              static_cast<std::uint64_t>(1000 + i));
    // Body: ver id status ok nsteps, one 10-byte step echo, then the u32
    // pair count — all 64 keys come back every time.
    const auto npairs = service::wire::get<std::uint32_t>(body.data() + 22);
    ASSERT_EQ(npairs, 64u);
  }

  server.request_stop();
  serve.join();
}

TEST_F(NetServerTest, BackpressurePausesReadsAndResumesAfterDrain) {
  // A burst holds at most conn_inflight_hw requests: with more frames
  // buffered, the net thread stops decoding, counts the pause and runs the
  // full burst, which the batch gate holds mid-run.  While it is held,
  // exactly the mark's worth of requests has been decoded and admitted;
  // once released, every buffered frame is decoded and answered in order.
  BatchGate gate;
  ServiceConfig cfg = config();
  gate.install(cfg);
  Service svc(targets(), cfg);
  svc.start();
  NetServerConfig ncfg = net_config(/*threads=*/1);
  ncfg.conn_inflight_hw = 4;
  NetServer server(svc, /*port=*/0, ncfg);
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  const OnExit stop{[&] {
    gate.released.store(true);
    server.request_stop();
    serve.join();
  }};

  RawClient cl(server.bound_port());
  ASSERT_TRUE(cl.ok());
  constexpr int kReqs = 32;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < kReqs; ++i) {
    const auto f = RawClient::v2_frame(static_cast<std::uint64_t>(i + 1),
                                       Request{service::map_put(i, i * 5)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  cl.send_bytes(stream);

  ASSERT_TRUE(gate.wait_entered());
  EXPECT_GE(counter(net_sink_, CounterId::kNetBackpressure), 1u);
  EXPECT_EQ(counter(net_sink_, CounterId::kNetFramesIn), 4u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcEnqueued), 4u);

  gate.released.store(true);
  for (int i = 0; i < kReqs; ++i) {
    const RawClient::Response r = cl.read_response();
    ASSERT_TRUE(r.got);
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(r.status, SvcStatus::kOk);
  }
  EXPECT_EQ(counter(net_sink_, CounterId::kNetFramesIn),
            static_cast<std::uint64_t>(kReqs));
}

TEST_F(NetServerTest, InlineReadsAnswerWithoutAWorkerWake) {
  // Snapshot reads run inline on the net thread and wake nothing: every
  // burst is answered before its parse returns, also when the in-flight
  // mark cuts one pipeline into many bursts.
  const unsigned previous_k = tx::mv_versions();
  tx::set_mv_versions(4);
  constexpr std::int64_t kKeys = 256;
  for (std::int64_t k = 0; k < kKeys; ++k) map_.put_seq(k, k * 7);
  Service svc(targets(), config());
  svc.start();
  NetServerConfig ncfg = net_config(/*threads=*/1);
  ncfg.conn_inflight_hw = 8;  // pause and resume many times per pipeline
  NetServer server(svc, /*port=*/0, ncfg);
  if (!server.listening()) {
    tx::set_mv_versions(previous_k);
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });

  // Phase 1: one connection pipelines gets only, nothing else in flight.
  RawClient reads(server.bound_port());
  ASSERT_TRUE(reads.ok());
  std::vector<std::uint8_t> stream;
  for (std::int64_t k = 0; k < kKeys; ++k) {
    const auto f = RawClient::v2_frame(static_cast<std::uint64_t>(k + 1),
                                       Request{service::map_get(k)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  reads.send_bytes(stream);
  for (std::int64_t k = 0; k < kKeys; ++k) {
    const RawClient::Response r = reads.read_response();
    ASSERT_TRUE(r.got) << "get " << k << " never answered";
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(k + 1));
    EXPECT_EQ(r.status, SvcStatus::kOk);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, k * 7);
  }

  // Phase 2: another connection alternates gets and puts, so each burst
  // holds inline reads answered at decode and writes the net thread runs
  // after it.  The puts touch keys the gets never read.
  RawClient mixed(server.bound_port());
  ASSERT_TRUE(mixed.ok());
  stream.clear();
  for (std::int64_t i = 0; i < kKeys; ++i) {
    const Request req = i % 2 == 0
                            ? Request{service::map_get(i)}
                            : Request{service::map_put(1000 + i, i)};
    const auto f = RawClient::v2_frame(static_cast<std::uint64_t>(i + 1), req);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  mixed.send_bytes(stream);
  for (std::int64_t i = 0; i < kKeys; ++i) {
    const RawClient::Response r = mixed.read_response();
    ASSERT_TRUE(r.got) << "request " << i << " never answered";
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(r.status, SvcStatus::kOk);
    EXPECT_TRUE(r.ok);  // gets find preloaded keys, puts insert fresh ones
    EXPECT_EQ(r.value, i % 2 == 0 ? i * 7 : i);
  }

  server.request_stop();
  serve.join();
  tx::set_mv_versions(previous_k);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly),
            static_cast<std::uint64_t>(kKeys + kKeys / 2));
}

TEST_F(NetServerTest, FramesFollowedByEofInOneSendAllGetAnswers) {
  // The frames and the FIN may reach the server in one burst, on an edge
  // that already carries the hangup: every request is answered before the
  // server closes its side.  The gets read preloaded keys: a snapshot read
  // does not wait for an earlier put of the same pipeline.
  for (std::int64_t k = 0; k < 8; ++k) map_.put_seq(1000 + k, 7 * k);
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  for (int round = 0; round < 20; ++round) {
    RawClient cl(server.bound_port());
    ASSERT_TRUE(cl.ok());
    // One round trip first, so the burst below reaches an idle connection
    // through an epoll edge rather than the add-connection read.
    cl.send_bytes(RawClient::v2_frame(99, Request{service::map_get(1000)}));
    ASSERT_TRUE(cl.read_response().got);
    constexpr int kFrames = 8;
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < kFrames; ++i) {
      const auto f = RawClient::v2_frame(
          static_cast<std::uint64_t>(i + 1),
          Request{i % 2 == 0 ? service::map_put(round * 100 + i, i)
                             : service::map_get(1000 + i)});
      stream.insert(stream.end(), f.begin(), f.end());
    }
    cl.send_bytes(stream);
    ASSERT_EQ(::shutdown(cl.fd(), SHUT_WR), 0);
    for (int i = 0; i < kFrames; ++i) {
      const RawClient::Response r = cl.read_response();
      ASSERT_TRUE(r.got) << "round " << round << " frame " << i;
      EXPECT_EQ(r.id, static_cast<std::uint64_t>(i + 1));
      EXPECT_EQ(r.status, SvcStatus::kOk);
      EXPECT_EQ(r.value, i % 2 == 0 ? i : 7 * i);
    }
    EXPECT_TRUE(cl.closed_by_server()) << "round " << round;
  }
  server.request_stop();
  serve.join();
}

TEST_F(NetServerTest, ABurstIsAnsweredOnlyOnceItsLastRequestCompletes) {
  // One send carries a get, a put and a get, and one read decodes them into
  // one burst.  Both gets complete inline as they are decoded; the batch
  // gate then holds the put mid-run.  Nothing is answered until the put
  // commits, then all three answers arrive in order.
  const MvVersionsAt chains(4);
  map_.put_seq(1, 10);
  BatchGate gate;
  ServiceConfig cfg = config();
  gate.install(cfg);
  Service svc(targets(), cfg);
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  const OnExit stop{[&] {
    gate.released.store(true);
    server.request_stop();
    serve.join();
  }};
  RawClient cl(server.bound_port());
  ASSERT_TRUE(cl.ok());
  std::vector<std::uint8_t> stream;
  for (const auto& f : {RawClient::v2_frame(1, Request{service::map_get(1)}),
                        RawClient::v2_frame(2, Request{service::map_put(2, 20)}),
                        RawClient::v2_frame(3, Request{service::map_get(1)})}) {
    stream.insert(stream.end(), f.begin(), f.end());
  }
  cl.send_bytes(stream);

  ASSERT_TRUE(gate.wait_entered());
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), 2u);
  // Give an early answer time to arrive before checking that none did.
  pollfd pfd{cl.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, /*timeout_ms=*/100), 0);
  std::uint8_t b;
  EXPECT_EQ(::recv(cl.fd(), &b, 1, MSG_DONTWAIT), -1);

  gate.released.store(true);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const RawClient::Response r = cl.read_response();
    ASSERT_TRUE(r.got) << "request " << id << " never answered";
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.status, SvcStatus::kOk);
    EXPECT_TRUE(r.ok);
    if (id != 2) {
      EXPECT_EQ(r.value, 10);
    }
  }
}

TEST_F(NetServerTest, ABurstOfWritesCommitsAsOneBatchOnTheNetThread) {
  // Four puts in one send, decoded by one read: one burst of batch_max
  // writes, committed as one batch by the net thread itself, not handed to
  // a service worker.
  BatchLog log;
  ServiceConfig cfg = config();
  log.install(cfg);
  Service svc(targets(), cfg);
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  RawClient cl(server.bound_port());
  ASSERT_TRUE(cl.ok());
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto k = static_cast<std::int64_t>(40 - i);
    const auto f = RawClient::v2_frame(i + 1, Request{service::map_put(k, k)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  cl.send_bytes(stream);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const RawClient::Response r = cl.read_response();
    ASSERT_TRUE(r.got) << "request " << id << " never answered";
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.status, SvcStatus::kOk);
    EXPECT_EQ(r.value, static_cast<std::int64_t>(40 - (id - 1)));
  }
  server.request_stop();
  serve.join();
  std::lock_guard<std::mutex> g(log.mu);
  ASSERT_EQ(log.batches.size(), 1u);
  EXPECT_EQ(log.batches[0].first, "otb-net-0");
  EXPECT_EQ(log.batches[0].second, 4u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcBatches), 1u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcEnqueued), 4u);
}

TEST_F(NetServerTest, ADurableServiceThatIsNotRunningAnswersWritesOverloaded) {
  // Before start() the log is not open, so running a write would
  // acknowledge a record that was never logged; after stop() the log is
  // closed.  Either way a net put completes kOverloaded, the map stays
  // unchanged and nothing is appended.
  const auto expect_overloaded = [&](Service& svc, bool never_started) {
    NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
    ASSERT_TRUE(server.listening());
    std::thread serve([&server] { server.run(); });
    // On every way out: where a write could have been parked in the queue
    // of a service never started, starting it lets that write complete, so
    // the drain ends and a failed assertion fails this test alone.
    const OnExit stop{[&] {
      if (never_started) svc.start();
      server.request_stop();
      serve.join();
    }};
    RawClient cl(server.bound_port());
    ASSERT_TRUE(cl.ok());
    cl.send_bytes(RawClient::v2_frame(1, Request{service::map_put(5, 50)}));
    const RawClient::Response r = cl.read_response();
    ASSERT_TRUE(r.got) << "the put was never answered";
    EXPECT_EQ(r.status, SvcStatus::kOverloaded);
    EXPECT_EQ(map_.size_unsafe(), 0u);
    EXPECT_EQ(svc.wal()->clock().load(), 0u);
  };
  {
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    ServiceConfig cfg = config();
    cfg.wal_dir = dir.path;
    Service svc(targets(), cfg);
    expect_overloaded(svc, /*never_started=*/true);
    EXPECT_EQ(svc.wal()->clock().load(), 0u);
  }
  {
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    ServiceConfig cfg = config();
    cfg.wal_dir = dir.path;
    Service svc(targets(), cfg);
    svc.start();
    svc.stop();
    expect_overloaded(svc, /*never_started=*/false);
    EXPECT_EQ(svc.wal()->clock().load(), 0u);
  }
  EXPECT_EQ(map_.size_unsafe(), 0u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcRejected), 2u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcEnqueued), 0u);
}

TEST_F(NetServerTest, AShardedBurstCommitsOneBatchPerShardOnTheNetThread) {
  // Six puts in one send, three owned by each of two shards: the burst
  // commits one batch per shard on the net thread, and each shard's ledger
  // balances (enqueued == batch_size total + expired).
  constexpr unsigned kShards = 2;
  tx::OtbListMap maps[kShards];
  std::vector<std::int64_t> keys[kShards];
  for (std::int64_t k = 0; keys[0].size() < 3 || keys[1].size() < 3; ++k) {
    std::vector<std::int64_t>& mine = keys[service::shard_of_key(k, kShards)];
    if (mine.size() < 3) mine.push_back(k);
  }
  std::vector<metrics::SinkSnapshot> before;
  for (unsigned s = 0; s < kShards; ++s) {
    before.push_back(metrics::Registry::global()
                         .sink("otb.service.s" + std::to_string(s))
                         .snapshot());
  }
  BatchLog log;
  ServiceConfig cfg = config();
  cfg.metrics = nullptr;  // each shard reports through otb.service.s<i>
  log.install(cfg);
  service::ShardedService svc(
      {Targets::standard(&maps[0]), Targets::standard(&maps[1])}, cfg);
  svc.start();
  service::BasicNetServer<service::ShardedService> server(
      svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  RawClient cl(server.bound_port());
  ASSERT_TRUE(cl.ok());
  std::vector<std::uint8_t> stream;
  std::uint64_t id = 0;
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned s = 0; s < kShards; ++s) {
      const std::int64_t k = keys[s][i];
      const auto f = RawClient::v2_frame(++id, Request{service::map_put(k, 7 * k)});
      stream.insert(stream.end(), f.begin(), f.end());
    }
  }
  cl.send_bytes(stream);
  for (std::uint64_t want = 1; want <= id; ++want) {
    const RawClient::Response r = cl.read_response();
    ASSERT_TRUE(r.got) << "request " << want << " never answered";
    EXPECT_EQ(r.id, want);
    EXPECT_EQ(r.status, SvcStatus::kOk);
  }
  server.request_stop();
  serve.join();

  {
    std::lock_guard<std::mutex> g(log.mu);
    ASSERT_EQ(log.batches.size(), std::size_t{kShards});
    for (const auto& [thread, size] : log.batches) {
      EXPECT_EQ(thread, "otb-net-0");
      EXPECT_EQ(size, 3u);
    }
  }
  for (unsigned s = 0; s < kShards; ++s) {
    EXPECT_EQ(maps[s].size_unsafe(), 3u) << "shard " << s;
    const metrics::SinkSnapshot now =
        metrics::Registry::global()
            .sink("otb.service.s" + std::to_string(s))
            .snapshot();
    const auto d = [&](CounterId c) {
      return now.counter(c) - before[s].counter(c);
    };
    EXPECT_EQ(d(CounterId::kSvcEnqueued), 3u) << "shard " << s;
    EXPECT_EQ(d(CounterId::kSvcBatches), 1u) << "shard " << s;
    EXPECT_EQ(d(CounterId::kSvcEnqueued),
              now.batch_size.total - before[s].batch_size.total +
                  d(CounterId::kSvcExpired))
        << "shard " << s;
  }
}

TEST_F(NetServerTest, FramesBeforeAGarbageFrameAreAnsweredThenClosed) {
  // The garbage frame kills the connection in the same read that decoded
  // the put and the get: that read's burst still ends, so both are answered,
  // the connection is reaped and the drain at stop finishes.  The get reads
  // a preloaded key: a snapshot read does not wait for the put before it.
  map_.put_seq(4, 44);
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::atomic<bool> returned{false};
  std::thread serve([&server, &returned] {
    server.run();
    returned.store(true);
  });
  RawClient cl(server.bound_port());
  ASSERT_TRUE(cl.ok());
  std::vector<std::uint8_t> stream;
  for (const auto& f : {RawClient::v2_frame(1, Request{service::map_put(5, 50)}),
                        RawClient::v2_frame(2, Request{service::map_get(4)})}) {
    stream.insert(stream.end(), f.begin(), f.end());
  }
  service::wire::put<std::uint32_t>(stream, 5);  // not 14 + 29·n: garbage
  stream.insert(stream.end(), 5, 0xab);
  cl.send_bytes(stream);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const RawClient::Response r = cl.read_response();
    ASSERT_TRUE(r.got) << "request " << id << " never answered";
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.status, SvcStatus::kOk);
    EXPECT_EQ(r.value, id == 1 ? 50 : 44);
  }
  EXPECT_TRUE(cl.closed_by_server());

  server.request_stop();
  for (int i = 0; i < 1000 && !returned.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // A drain that never finishes fails here; the joinable thread then ends
  // the test binary rather than hanging it.
  ASSERT_TRUE(returned.load()) << "run() did not return after request_stop()";
  serve.join();
}

TEST_F(NetServerTest, OneSendLargerThanAReceiveBufferDecodesInOrder) {
  // 2,000 one-step frames (94,000 bytes) in one send: frames straddle every
  // receive-buffer boundary, and the 256-request in-flight mark pauses and
  // resumes the reads many times on the way.
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  RawClient cl(server.bound_port());
  ASSERT_TRUE(cl.ok());
  constexpr int kFrames = 2000;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < kFrames; ++i) {
    const auto f = RawClient::v2_frame(static_cast<std::uint64_t>(i + 1),
                                       Request{service::map_put(i % 97, i)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  ASSERT_GT(stream.size(), 65536u);
  // Answers are read on another thread so neither side's socket buffers
  // can stall the send.
  std::thread reader([&] {
    for (int i = 0; i < kFrames; ++i) {
      const RawClient::Response r = cl.read_response();
      ASSERT_TRUE(r.got) << "frame " << i;
      ASSERT_EQ(r.id, static_cast<std::uint64_t>(i + 1));
      EXPECT_EQ(r.status, SvcStatus::kOk);
      EXPECT_EQ(r.value, i);
    }
  });
  cl.send_bytes(stream);
  reader.join();
  EXPECT_EQ(counter(net_sink_, CounterId::kNetFramesIn),
            static_cast<std::uint64_t>(kFrames));
  server.request_stop();
  serve.join();
}

TEST_F(NetServerTest, ResponseFramesMatchGoldenBytes) {
  // The response format byte for byte: a put, a get miss, a range with two
  // pairs and a submit-time kFailed (unregistered slot: no step results).
  Service svc(targets(), config());
  svc.start();
  NetServer server(svc, /*port=*/0, net_config(/*threads=*/1));
  if (!server.listening()) {
    GTEST_SKIP() << "loopback sockets unavailable in this sandbox";
  }
  std::thread serve([&server] { server.run(); });
  RawClient cl(server.bound_port());
  ASSERT_TRUE(cl.ok());
  using Bytes = std::vector<std::uint8_t>;
  const auto exchange = [&](std::uint64_t id, const Request& req) {
    cl.send_bytes(RawClient::v2_frame(id, req));
    return cl.read_frame();
  };
  // u32 len | u8 ver | u64 id | u8 status | u8 ok | u8 nsteps
  // | nsteps x (u8 ran, u8 ok, i64 value) | u32 n | n x (i64 key, i64 value)
  EXPECT_EQ(exchange(0x0102030405060708ull, Request{service::map_put(5, 50)}),
            (Bytes{26, 0, 0, 0, 2, 8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1,
                   1, 1, 50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(exchange(9, Request{service::map_put(7, -2)}).size(), 30u);
  EXPECT_EQ(exchange(0x11, Request{service::map_get(6)}),
            (Bytes{26, 0, 0, 0, 2, 0x11, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1,
                   1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(
      exchange(0x22, Request{service::map_range(0, 10)}),
      (Bytes{58, 0, 0, 0, 2, 0x22, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1,
             1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
             5, 0, 0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0,
             7, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
  EXPECT_EQ(exchange(0x33, Request{service::map_get(1, /*sid=*/9)}),
            (Bytes{16, 0, 0, 0, 2, 0x33, 0, 0, 0, 0, 0, 0, 0,
                   static_cast<std::uint8_t>(SvcStatus::kFailed), 0, 0,
                   0, 0, 0, 0}));
  server.request_stop();
  serve.join();
}

}  // namespace
}  // namespace otb

#else  // !defined(__linux__)

TEST(NetServerTest, SkippedOnThisPlatform) { GTEST_SKIP(); }

#endif
