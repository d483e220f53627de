// hcsim — client side of the hcsimd protocol (used by hcsim_sweep --connect
// and the service tests).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace hcsim::svc {

class Client {
 public:
  /// Connect to a daemon socket. ok() is false (with error()) on failure.
  static Client connect(const std::string& socket_path);

  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }
  int fd() const { return fd_; }

  /// Per-request deadline for every subsequent round trip (each frame read
  /// and write gets the full budget). -1 (default) blocks forever. A timed
  /// out request poisons the byte stream like any transport failure — the
  /// caller reconnects.
  void set_timeout_ms(int timeout_ms) { timeout_ms_ = timeout_ms; }
  int timeout_ms() const { return timeout_ms_; }

  /// Round-trips. Each returns false with `error` set on a protocol error,
  /// daemon-side failure (kError reply), or connection loss.
  bool ping(std::string& error);
  /// Ask the daemon to exit (waits for the kBye acknowledgement).
  bool shutdown(std::string& error);

  /// How a run_jobs batch ended. kTransport means the connection is dead
  /// (reconnect and re-submit — results already delivered stay delivered);
  /// kRemoteError is a daemon-side verdict retrying cannot change (bad
  /// version, bad sample spec, unrunnable machine config).
  enum class BatchStatus { kDone, kTransport, kRemoteError };

  /// Submit a kRunJobs batch and stream the kJobResult frames into
  /// `on_result` (called once per job, daemon completion order) until
  /// kJobsDone. A result whose job_id was not in `reqs` is treated as
  /// transport corruption.
  BatchStatus run_jobs(const std::vector<JobRequest>& reqs,
                       const std::function<void(const JobResponse&)>& on_result,
                       JobsDone& done, std::string& error);

 private:
  /// Send an empty `type` frame, then read the reply, unwrapping kError.
  bool round_trip(u8 type, u8 expect, std::string& error);

  int fd_ = -1;
  int timeout_ms_ = -1;
  std::string error_;
};

}  // namespace hcsim::svc
