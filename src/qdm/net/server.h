#ifndef QDM_NET_SERVER_H_
#define QDM_NET_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "qdm/common/status.h"
#include "qdm/net/http.h"
#include "qdm/service/solver_service.h"

namespace qdm {
namespace net {

/// Construction-time configuration of a QdmServer.
struct ServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (read it back from QdmServer::port()).
  int port = 0;

  /// Forwarded to the wrapped SolverService (worker cap, admission
  /// watermarks).
  service::ServiceConfig service;
};

/// The qdmd daemon core: a blocking HTTP/1.1 front end over one
/// SolverService. Endpoints (bodies are the qdm/net wire format, see
/// docs/network.md):
///
///   POST   /v1/jobs           submit | submit_batch | submit_race
///   GET    /v1/jobs/<id>      poll (one JobSnapshot)
///   POST   /v1/jobs/<id>/wait block until terminal, return results
///   DELETE /v1/jobs/<id>      cancel
///   GET    /v1/solvers        exactly-registered backend names
///   GET    /v1/stats          ServiceStats + accepting + num_workers
///   GET    /healthz           liveness probe
///
/// Error contract: every non-2xx response maps the underlying Status
/// through StatusCodeToHttpStatus and carries EncodeErrorBody(status) —
/// the exact (code, message) pair the synchronous in-process path
/// produces, so a remote caller sees byte-identical errors.
///
/// Threading: one acceptor thread plus one thread per live connection
/// (handlers block in SolverService::Wait, so connections cannot share
/// the solver pool without deadlock). The acceptor joins finished
/// connection threads on every loop iteration, so a long-running daemon
/// holds stacks only for live connections. Stop() is graceful: stop
/// accepting, shut the service down (queued jobs resolve Cancelled,
/// running jobs finish), then join every connection at its next request
/// boundary.
class QdmServer {
 public:
  /// Binds, listens, and starts the acceptor. The only expected failure
  /// is the bind (port taken / privileged), reported as Internal.
  static Result<std::unique_ptr<QdmServer>> Start(const ServerConfig& config);

  /// Equivalent to Stop().
  ~QdmServer();

  QdmServer(const QdmServer&) = delete;
  QdmServer& operator=(const QdmServer&) = delete;

  /// The bound port (the kernel's choice when config.port was 0).
  int port() const { return port_; }

  service::SolverService& service() { return *service_; }

  /// Graceful shutdown; idempotent. Returns once every connection thread
  /// has exited and the service is drained.
  void Stop();

  /// Pure routing: maps one parsed request to its response. Public so the
  /// dispatch table is unit-testable without sockets.
  HttpResponse Handle(const HttpRequest& request);

 private:
  QdmServer(int listen_fd, int port, const service::ServiceConfig& config);

  /// One connection thread; `done` is set as its last action, so a done
  /// connection joins without blocking.
  struct Connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void AcceptLoop();
  /// Joins and drops every finished connection. Requires mutex_.
  void ReapFinishedConnections();
  void ServeConnection(int fd);

  HttpResponse HandleSubmit(const std::string& body);
  HttpResponse HandleJobRoute(const std::string& method,
                              const std::string& target);

  int listen_fd_;
  int port_;
  std::unique_ptr<service::SolverService> service_;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::mutex mutex_;  // Guards connections_.
  std::list<Connection> connections_;  // A list: nodes never move.
  bool stopped_ = false;  // Guarded by mutex_; makes Stop() idempotent.
};

}  // namespace net
}  // namespace qdm

#endif  // QDM_NET_SERVER_H_
