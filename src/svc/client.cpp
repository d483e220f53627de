#include "svc/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_set>
#include <utility>

namespace hcsim::svc {

Client Client::connect(const std::string& socket_path) {
  Client c;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    c.error_ = "bad socket path";
    return c;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    c.error_ = "socket() failed";
    return c;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    c.error_ = "cannot connect to " + socket_path + " (is hcsimd running?)";
    return c;
  }
  c.fd_ = fd;
  return c;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept { *this = std::move(other); }

Client& Client::operator=(Client&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = std::exchange(other.fd_, -1);
  error_ = std::move(other.error_);
  return *this;
}

bool Client::round_trip(u8 type, u8 expect, std::string& error) {
  if (!ok()) {
    error = error_.empty() ? "not connected" : error_;
    return false;
  }
  if (!write_frame(fd_, type, {}, timeout_ms_)) {
    error = "connection lost while sending";
    return false;
  }
  Frame reply;
  std::string frame_err;
  if (!read_frame(fd_, reply, kMaxResponseFrame, &frame_err, timeout_ms_)) {
    error = frame_err.empty() ? "daemon closed the connection" : frame_err;
    return false;
  }
  if (reply.type == kError) {
    wire::Reader r(reply.payload.data(), reply.payload.size());
    if (!r.get_string(error, kMaxResponseFrame)) error = "malformed error reply";
    return false;
  }
  if (reply.type != expect) {
    error = "unexpected reply type " + std::to_string(reply.type);
    return false;
  }
  return true;
}

bool Client::ping(std::string& error) { return round_trip(kPing, kPong, error); }

bool Client::shutdown(std::string& error) { return round_trip(kShutdown, kBye, error); }

Client::BatchStatus Client::run_jobs(
    const std::vector<JobRequest>& reqs,
    const std::function<void(const JobResponse&)>& on_result, JobsDone& done,
    std::string& error) {
  done = JobsDone{};
  if (!ok()) {
    error = error_.empty() ? "not connected" : error_;
    return BatchStatus::kTransport;
  }
  std::unordered_set<u64> expected;
  std::vector<u8> payload;
  wire::put_u32(payload, static_cast<u32>(reqs.size()));
  for (const JobRequest& req : reqs) {
    expected.insert(job_id(req));
    encode(payload, req);
  }
  if (!write_frame(fd_, kRunJobs, payload, timeout_ms_)) {
    error = "connection lost while sending job batch";
    return BatchStatus::kTransport;
  }
  // The daemon streams one kJobResult per job (completion order), then
  // exactly one kJobsDone. Anything else on the wire is either a daemon
  // verdict (kError — not retryable) or a broken stream. The daemon
  // validates the whole batch before streaming, so a kError after results
  // have arrived can only mean the stream broke mid-batch — transport,
  // not verdict.
  bool got_results = false;
  for (;;) {
    Frame reply;
    std::string frame_err;
    if (!read_frame(fd_, reply, kMaxResponseFrame, &frame_err, timeout_ms_)) {
      error = frame_err.empty() ? "daemon closed the connection" : frame_err;
      return BatchStatus::kTransport;
    }
    wire::Reader r(reply.payload.data(), reply.payload.size());
    if (reply.type == kJobResult) {
      JobResponse resp;
      if (!decode(r, resp) || expected.count(resp.job_id) == 0) {
        error = "malformed job result";
        return BatchStatus::kTransport;
      }
      if (on_result) on_result(resp);
      got_results = true;
    } else if (reply.type == kJobsDone) {
      if (!decode(r, done)) {
        error = "malformed batch summary";
        return BatchStatus::kTransport;
      }
      return BatchStatus::kDone;
    } else if (reply.type == kError) {
      if (!r.get_string(error, kMaxResponseFrame)) error = "malformed error reply";
      return got_results ? BatchStatus::kTransport : BatchStatus::kRemoteError;
    } else {
      error = "unexpected reply type " + std::to_string(reply.type);
      return BatchStatus::kTransport;
    }
  }
}

}  // namespace hcsim::svc
