#ifndef HIERGAT_SERVE_SERVER_H_
#define HIERGAT_SERVE_SERVER_H_

/// The long-lived matching server (DESIGN.md §14): a framed-TCP
/// protocol (serve/wire.h) in front of a ModelRegistry, with dynamic
/// batching (serve/batcher.h) and admission control (serve/admission.h)
/// between the socket and the engine. The same listening port also
/// answers a minimal HTTP/1.1 shim — the first four bytes of each
/// connection pick the protocol ("HGSV" = framed, anything else is
/// parsed as HTTP):
///
///   GET /healthz  -> 200 "ok"            (process liveness)
///   GET /readyz   -> 200 / 503           (>= 1 model published)
///   GET /metrics  -> Prometheus text     (MetricsRegistry export)
///
/// Threading: one acceptor thread plus one thread per connection.
/// Connection threads decode frames and block in the batcher while
/// their pairs are scored. The batcher owns no thread: the connection
/// thread that leads a coalesced batch calls Session::Score for it, so
/// the engine sees fewer, larger jobs, and batches run concurrently.

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/status.h"
#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/registry.h"
#include "serve/wire.h"

namespace hiergat {
namespace serve {

struct ServerOptions {
  /// Bind address. Serving is loopback by default; widen deliberately.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  int listen_backlog = 64;
  BatcherOptions batcher;
  AdmissionOptions admission;
};

class Server {
 public:
  /// Binds, listens, and starts the acceptor. The registry must outlive
  /// the server; models may be loaded/reloaded while serving.
  static StatusOr<std::unique_ptr<Server>> Start(ModelRegistry* registry,
                                                 const ServerOptions& options);

  /// Calls Shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (useful with options.port == 0).
  int port() const { return port_; }

  /// Graceful drain: stops accepting, unblocks and joins every
  /// connection thread, then drains the batcher (pending admitted
  /// requests are still scored and answered). Idempotent.
  void Shutdown();

  struct Stats {
    int64_t connections = 0;   ///< Accepted over the lifetime.
    int64_t requests = 0;      ///< Framed requests answered.
    int64_t http_requests = 0; ///< HTTP shim requests answered.
  };
  Stats stats() const;

 private:
  Server(ModelRegistry* registry, const ServerOptions& options);

  /// One accepted socket and the thread serving it.
  struct Connection {
    int fd = -1;  ///< -1 once the handler is done: the thread can be joined.
    std::thread thread;
  };

  void AcceptLoop();
  /// Joins every connection thread whose handler has finished.
  void ReapFinishedConnections();
  /// Serves `fd` until the peer closes or Shutdown; never closes it.
  void HandleConnection(int fd);
  /// Drops `conn`'s fd from the live set, then closes it.
  void FinishConnection(Connection* conn);
  /// One framed request -> one response (never throws, never crashes
  /// the connection loop; protocol errors become error responses).
  Response HandleRequest(const Request& request);
  void HandleHttp(int fd, const std::string& sniffed);

  ModelRegistry* const registry_;  // Not owned.
  const ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  AdmissionController admission_;
  DynamicBatcher batcher_;

  std::atomic<bool> shutdown_{false};
  std::thread acceptor_;

  std::mutex connections_mutex_;
  /// Every connection thread not yet joined. A handler clears its fd
  /// under the mutex before closing it, so Shutdown's shutdown(2) nudge
  /// only touches fds the server still owns; finished threads are
  /// joined by the acceptor on its next accept, and the rest on
  /// Shutdown. List nodes never move, so a handler keeps a pointer to
  /// its own entry.
  std::list<Connection> live_connections_;

  std::atomic<int64_t> connections_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> http_requests_{0};
};

}  // namespace serve
}  // namespace hiergat

#endif  // HIERGAT_SERVE_SERVER_H_
