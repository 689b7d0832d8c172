/// \file test_dist_socket.cpp
/// \brief The TCP transport: a socket fleet backed by real `adept serve
/// --listen` processes must be bit-identical to the local sharded
/// planner for any session count and endpoint mix, and socket faults —
/// refused connections, mid-response disconnects, dribbling writers,
/// garbage, hangs — must cost workers and retries, never the request.
///
/// Real-process tests spawn the built CLI through dist::ServeListener
/// (ADEPT_CLI_BINARY compile definition); fault tests script a
/// dist_test::FakeTcpServer instead — misbehaviour per accepted
/// connection, no subprocess needed.

#include "dist/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "dist/coordinator.hpp"
#include "dist/stats.hpp"
#include "dist/worker_pool.hpp"
#include "dist_test_util.hpp"
#include "io/wire.hpp"
#include "planning_test_util.hpp"

namespace adept {
namespace {

using test_util::run_planner;
using namespace dist;
using namespace dist_test;

// --------------------------------------------------------- bit-identity --

TEST(DistSocket, SocketFleetMatchesShardedForAnySessionCount) {
  // One warm `adept serve --listen` process; 1, 2 and 5 coordinator
  // sessions against it must all match the local sharded planner bit
  // for bit — and every response must have streamed into the stitch.
  const Platform platform = multi_cluster(160);
  const PlanResult sharded =
      run_planner("sharded", platform, dgemm_service(310));
  ServeListener listener(serve_listen_command(2));
  for (const std::size_t sessions : {1u, 2u, 5u}) {
    reset_stats_for_test();
    SocketTransport transport({listener.endpoint()});
    CoordinatorConfig config;
    config.workers = sessions;
    Coordinator coordinator(transport, config);
    const PlanResult distributed = coordinator.plan(make_request(platform));
    expect_identical(distributed, sharded,
                     std::to_string(sessions) + " socket sessions");
    const DistStats stats = stats_snapshot();
    EXPECT_EQ(stats.socket_connects, sessions);
    EXPECT_EQ(stats.socket_connect_failures, 0u);
    EXPECT_EQ(stats.worker_failures, 0u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_GT(stats.streamed, 0u);
  }
}

TEST(DistSocket, EndpointListRoundRobinsAcrossServeProcesses) {
  const Platform platform = multi_cluster(160);
  ServeListener first(serve_listen_command(1));
  ServeListener second(serve_listen_command(1));
  SocketTransport transport({first.endpoint(), second.endpoint()});
  CoordinatorConfig config;
  config.workers = 4;  // two sessions per process
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "two serve processes, four sessions");
}

// ------------------------------------------------------ fault injection --

TEST(DistSocket, ConnectionRefusedBehavesLikeWorkerLossNotAnError) {
  const Platform platform = multi_cluster(120, 5);
  reset_stats_for_test();
  SocketTransport transport({refused_endpoint()}, 500.0);
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "nobody listening on the endpoint");
  const DistStats stats = stats_snapshot();
  EXPECT_EQ(stats.socket_connects, 0u);
  EXPECT_EQ(stats.socket_connect_failures, 2u);
  EXPECT_GT(stats.fallbacks, 0u);
}

TEST(DistSocket, MidResponseDisconnectFailsTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  FakeTcpServer server([](int fd) {
    std::string request;
    if (!read_line(fd, request)) return;
    // Half a response and a hangup: the unterminated line must read as
    // EOF (a dead worker), never parse.
    write_all(fd, R"({"id":0,"ok":tr)");
  });
  SocketTransport transport({server.endpoint()});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "disconnect mid-response");
}

TEST(DistSocket, GarbageOverTheSocketFailsTheWorkerNeverTheRequest) {
  const Platform platform = multi_cluster(120, 5);
  FakeTcpServer server([](int fd) {
    std::string request;
    while (read_line(fd, request))
      if (!write_all(fd, "not-json\n")) return;
  });
  SocketTransport transport({server.endpoint()});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "garbage on the socket");
}

TEST(DistSocket, OversizedResponseFailsTheWorkerNeverTheRequest) {
  // A response line one byte over wire::kMaxLineBytes, streamed in
  // chunks: the receive gives up at the cap (the worker is dead, not
  // hung) and the coordinator's fallback still answers bit-identically.
  const auto stream_oversized = [](int fd) {
    std::string request;
    if (!read_line(fd, request)) return;
    const std::string chunk(1 << 20, 'x');
    std::size_t left = wire::kMaxLineBytes + 1;
    while (left > 0) {
      const std::size_t n = std::min(left, chunk.size());
      if (!write_all(fd, chunk.substr(0, n))) return;  // reader gave up
      left -= n;
    }
    write_all(fd, "\n");
  };
  {
    FakeTcpServer server(stream_oversized);
    SocketTransport transport({server.endpoint()});
    std::unique_ptr<Worker> worker = transport.spawn();
    ASSERT_TRUE(worker->send(R"({"cmd":"stats"})"));
    std::string line;
    EXPECT_FALSE(worker->receive(line, 60000.0));
    EXPECT_FALSE(worker->alive());
    EXPECT_TRUE(line.empty());
  }
  const Platform platform = multi_cluster(120, 5);
  FakeTcpServer server(stream_oversized);
  SocketTransport transport({server.endpoint()});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  expect_identical(coordinator.plan(make_request(platform)),
                   run_planner("sharded", platform, dgemm_service(310)),
                   "oversized response");
}

TEST(DistSocket, DribblingWriterCannotRestartTheReceiveTimeout) {
  // One byte every 50 ms never completes a line; the receive deadline
  // is absolute, so partial reads must not extend it — same contract as
  // the pipe transport, now across a socket.
  FakeTcpServer server([](int fd) {
    while (write_all(fd, "x"))
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  SocketTransport transport({server.endpoint()});
  std::unique_ptr<Worker> worker = transport.spawn();
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(worker->receive(line, 300.0));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 250.0);
  EXPECT_LT(elapsed_ms, 10000.0);
}

TEST(DistSocket, HungSocketWorkerCannotOutliveTheCallersDeadline) {
  // The endpoint accepts and reads but never answers; a 400 ms caller
  // deadline must clip the receive timeout and surface the same
  // deadline error the local planner would — not wait out the
  // two-minute shard timeout.
  const Platform platform = multi_cluster(120, 5);
  FakeTcpServer server([](int fd) {
    std::string request;
    while (read_line(fd, request)) {
    }
  });
  SocketTransport transport({server.endpoint()});
  CoordinatorConfig config;
  config.workers = 2;
  Coordinator coordinator(transport, config);
  PlanOptions options;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(coordinator.plan(make_request(platform, std::move(options))),
               Error);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 20000.0);
}

TEST(DistSocket, KilledSocketWorkerReportsDeadNotHung) {
  // kill() must tear the session down (shutdown both directions) so a
  // pending receive fails fast instead of waiting out its timeout.
  FakeTcpServer server([](int fd) {
    std::string request;
    while (read_line(fd, request)) {
    }
  });
  SocketTransport transport({server.endpoint()});
  std::unique_ptr<Worker> worker = transport.spawn();
  EXPECT_TRUE(worker->alive());
  worker->kill();
  EXPECT_FALSE(worker->alive());
  std::string line;
  EXPECT_FALSE(worker->receive(line, 5000.0));
  EXPECT_FALSE(worker->send("{\"cmd\":\"stats\"}"));
}

// ---------------------------------------------------------- serve layer --

TEST(DistSocket, ServeListenerScrapesTheAnnouncedEphemeralPort) {
  ServeListener listener(serve_listen_command(1));
  // "host:port" with a real (non-zero) port, reachable right away.
  const std::string& endpoint = listener.endpoint();
  const auto colon = endpoint.rfind(':');
  ASSERT_NE(colon, std::string::npos);
  EXPECT_GT(std::stoi(endpoint.substr(colon + 1)), 0);
  SocketTransport transport({endpoint});
  std::unique_ptr<Worker> worker = transport.spawn();
  ASSERT_TRUE(worker->send(R"({"cmd":"stats"})"));
  std::string line;
  ASSERT_TRUE(worker->receive(line, 5000.0));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
}

TEST(DistSocket, ServeListenerAnswersAnOversizedLineBeforeClosing) {
  // A client streams one byte past wire::kMaxLineBytes (and a little
  // more) without a newline. The listener answers one error line and
  // closes the session: the client reads that line, then the end of
  // the connection.
  ServeListener listener(serve_listen_command(1));
  const std::string& endpoint = listener.endpoint();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoi(endpoint.substr(endpoint.rfind(':') + 1))));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::thread writer([fd] {
    const std::string chunk(1 << 20, 'x');
    std::size_t left = wire::kMaxLineBytes + 1 + (1 << 16);
    while (left > 0) {
      const std::size_t n = std::min(left, chunk.size());
      const ssize_t sent = ::send(fd, chunk.data(), n, MSG_NOSIGNAL);
      if (sent <= 0) return;  // the listener closed first
      left -= static_cast<std::size_t>(sent);
    }
    ::shutdown(fd, SHUT_WR);
  });
  std::string received;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  writer.join();
  ::close(fd);
  EXPECT_EQ(received, R"({"id":null,"ok":false,"error":"request line exceeds )" +
                          std::to_string(wire::kMaxLineBytes) + " bytes\"}\n");
}

TEST(DistSocket, ServeListenerDeliversEveryAnswerToAClientThatReadsLast) {
  // The client sends planning lines, an oversized line and some bytes
  // after it, and reads only once it has sent everything, through a
  // small receive window. Every answer must still arrive, the error line
  // last: the listener drains the unread input before closing, so the
  // close cannot reset the connection and drop queued answers.
  ServeListener listener(serve_listen_command(1));
  const std::string& endpoint = listener.endpoint();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int window = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &window, sizeof window);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoi(endpoint.substr(endpoint.rfind(':') + 1))));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const auto send_all = [fd](const std::string& data) {
    for (std::size_t sent = 0; sent < data.size();) {
      const ssize_t n =
          ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "the listener stopped reading";
      sent += static_cast<std::size_t>(n);
    }
  };
  constexpr int kRequests = 200;
  std::string requests;
  for (int i = 0; i < kRequests; ++i)
    requests += R"({"id":)" + std::to_string(i) +
                R"(,"platform":{"bandwidth":1000,"nodes":[{"name":"a","power":1000},)"
                R"({"name":"b","power":900},{"name":"c","power":800}]},"service":"dgemm-310"})"
                "\n";
  send_all(requests);
  const std::string chunk(1 << 20, 'x');
  for (std::size_t left = wire::kMaxLineBytes + 1; left > 0;) {
    const std::size_t n = std::min(left, chunk.size());
    send_all(chunk.substr(0, n));
    left -= n;
  }
  send_all("\n" + std::string(1 << 16, 'y') + "\n");
  ::shutdown(fd, SHUT_WR);

  std::string received;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
    received.append(buffer, static_cast<std::size_t>(n));
  const int recv_errno = errno;
  ::close(fd);
  ASSERT_EQ(n, 0) << "connection ended by an error: "
                  << std::strerror(recv_errno);
  const std::vector<std::string> lines = strings::split(received, '\n');
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests) + 2)
      << "every answer, the error line and the final newline";
  for (int i = 0; i < kRequests; ++i)
    EXPECT_EQ(lines[i].rfind(R"({"id":)" + std::to_string(i) + R"(,"ok":true)", 0),
              0u)
        << lines[i].substr(0, 80);
  EXPECT_EQ(lines[kRequests],
            R"({"id":null,"ok":false,"error":"request line exceeds )" +
                std::to_string(wire::kMaxLineBytes) + " bytes\"}");
  EXPECT_EQ(lines[kRequests + 1], "");
}

}  // namespace
}  // namespace adept
