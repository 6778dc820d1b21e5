// iwserver — standalone InterWeave segment server.
//
// Usage: iwserver [--port=N] [--checkpoint-dir=PATH] [--checkpoint-every=N]
//                 [--revoke-deadline-ms=N] [--verbose]
//
// Serves segments over TCP until SIGINT/SIGTERM; with a checkpoint
// directory it recovers existing segments at startup, checkpoints every N
// versions while running, and writes a final checkpoint on shutdown.
// --revoke-deadline-ms bounds how long a writer waits for cached reader
// locks to ack revocation (default 2000; 0 is refused, since every session
// caches read locks).
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "net/tcp.hpp"
#include "server/server.hpp"
#include "util/logging.hpp"

namespace {
std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
  unsigned port = 7747;  // "IW" on a phone pad, roughly
  unsigned checkpoint_every = 0;
  unsigned revoke_deadline_ms = 0;
  iw::server::SegmentServer::Options options;
  for (int i = 1; i < argc; ++i) {
    char path[4096];
    if (std::sscanf(argv[i], "--port=%u", &port) == 1) continue;
    if (std::sscanf(argv[i], "--checkpoint-every=%u", &checkpoint_every) == 1) {
      continue;
    }
    if (std::sscanf(argv[i], "--checkpoint-dir=%4095s", path) == 1) {
      options.checkpoint_dir = path;
      continue;
    }
    if (std::sscanf(argv[i], "--revoke-deadline-ms=%u", &revoke_deadline_ms) ==
        1) {
      options.revoke_deadline_ms = revoke_deadline_ms;
      continue;
    }
    if (std::strcmp(argv[i], "--verbose") == 0) {
      iw::set_log_level(iw::LogLevel::kDebug);
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--port=N] [--checkpoint-dir=PATH] "
                 "[--checkpoint-every=N] [--revoke-deadline-ms=N] "
                 "[--verbose]\n",
                 argv[0]);
    return 2;
  }
  options.checkpoint_every = checkpoint_every;

  try {
    iw::server::SegmentServer core(options);
    if (!options.checkpoint_dir.empty()) {
      core.recover();
      std::printf("recovered checkpoints from %s\n",
                  options.checkpoint_dir.c_str());
    }
    iw::TcpServer server(core, static_cast<uint16_t>(port));
    std::printf("iwserver listening on 127.0.0.1:%u\n", server.port());

    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = handle_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::printf("shutting down...\n");
    server.shutdown();
    if (!options.checkpoint_dir.empty()) {
      core.checkpoint();
      std::printf("final checkpoint written\n");
    }
    auto stats = core.stats();
    std::printf("served %llu requests (%llu updates, %llu notifications)\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.updates_sent),
                static_cast<unsigned long long>(stats.notifications_sent));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iwserver: %s\n", e.what());
    return 1;
  }
  return 0;
}
