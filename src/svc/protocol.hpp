// hcsim — framed Unix-socket protocol between hcsimd and its clients.
//
// Every message is one frame:
//
//   [u32 len] [u8 type] [len-1 bytes payload]
//
// `len` counts the type byte plus the payload, so len >= 1. Payloads use
// the trace/wire.hpp packing (little-endian, length-prefixed strings), the
// same encoding the v3 trace files use. The full schema lives in
// docs/PROTOCOL.md.
//
// Error handling contract (the daemon must survive hostile clients):
//   - semantic errors (undecodable payload, unsupported version, a job the
//     model cannot run, an unknown frame type) get a kError reply and the
//     connection stays usable;
//   - framing errors (oversized or short frames) poison the byte stream,
//     so the daemon closes the connection — but never exits.
#pragma once

#include <string>
#include <vector>

#include "core/machine_config.hpp"
#include "core/sim_result.hpp"
#include "sample/spec.hpp"
#include "trace/wire.hpp"
#include "util/types.hpp"
#include "wload/profile.hpp"

namespace hcsim::svc {

inline constexpr u32 kProtocolVersion = 1;

/// Client -> daemon frames are small (a batch of job requests).
inline constexpr u32 kMaxRequestFrame = 1u << 16;
/// Daemon -> client frames carry one job result or an error message, a few
/// KiB; the cap bounds what a corrupt length prefix can make a client
/// allocate.
inline constexpr u32 kMaxResponseFrame = 1u << 26;

/// Frame numbers are stable: the types no longer served (0x01, 0x02, 0x04,
/// 0x06 and their replies) stay unassigned, and the daemon answers them
/// with kError "unknown frame type".
enum FrameType : u8 {
  // client -> daemon
  kPing = 0x03,      // answered with kPong (liveness probe)
  kShutdown = 0x05,  // answered with kBye, then the daemon exits
  kRunJobs = 0x07,   // u32 n + n JobRequests; answered with a kJobResult
                     // stream (completion order) closed by kJobsDone

  // daemon -> client
  kPong = 0x83,
  kBye = 0x84,
  kError = 0x85,      // string message
  kJobResult = 0x87,  // JobResponse (one per job, any order)
  kJobsDone = 0x88,   // u64 jobs completed, u64 journal hits in the batch
};

struct Frame {
  u8 type = 0;
  std::vector<u8> payload;
};

/// Read one frame. False on EOF, socket error, a length outside
/// [1, max_frame], or after `timeout_ms` (< 0 = block forever) — the stream
/// is unusable afterwards; `err` (when non-null) distinguishes clean EOF
/// ("") from corruption/timeout.
bool read_frame(int fd, Frame& frame, u32 max_frame, std::string* err = nullptr,
                int timeout_ms = -1);

/// Write one frame (SIGPIPE-safe). False when the peer is gone or the
/// deadline expires mid-frame.
bool write_frame(int fd, u8 type, const std::vector<u8>& payload,
                 int timeout_ms = -1);

/// Convenience: kError frame with a message.
bool write_error(int fd, const std::string& msg, int timeout_ms = -1);

// --- value codecs (kRunJobs payloads + the job journal) ---------------------
// Canonical little-endian encodings of the simulation inputs and outputs.
// Field order is part of the format: job ids are content hashes over these
// bytes, and the journal persists them — change them only with a version
// bump (kProtocolVersion for frames, Journal's file version for the log).
// Doubles travel as IEEE-754 bit patterns, so encode/decode round-trips are
// exact and the bytes are identical on every host.

void encode(std::vector<u8>& buf, const MachineConfig& cfg);
bool decode(wire::Reader& r, MachineConfig& cfg);

void encode(std::vector<u8>& buf, const WorkloadProfile& profile);
bool decode(wire::Reader& r, WorkloadProfile& profile);

void encode(std::vector<u8>& buf, const SimResult& result);
bool decode(wire::Reader& r, SimResult& result);

// --- kRunJobs ---------------------------------------------------------------

/// One simulation job, fully self-contained: the request carries the
/// machine config, the workload profile and the sampling window spec, so
/// any daemon computes the same result — the property that makes jobs
/// journal-addressable and re-submittable anywhere.
struct JobRequest {
  u32 version = kProtocolVersion;
  MachineConfig config;
  WorkloadProfile profile;
  u64 n_records = 0;  // resolved trace length (never 0 on the wire)
  // Sampling window spec (see sample_spec_of); each job carries its own, so
  // one batch may mix specs.
  bool sampled = false;
  u64 warmup = 0;
  u64 measure = 0;
  u64 period = 0;
  u64 max_windows = 0;
};

void encode(std::vector<u8>& buf, const JobRequest& req);
bool decode(wire::Reader& r, JobRequest& req);

/// Stable content-addressed job identity: FNV-1a 64 over the canonical
/// encoding of everything that determines the result (config, profile,
/// n_records, sample spec — not the protocol version). Two processes that
/// would simulate the same point compute the same id, which is what lets a
/// restarted daemon or client recognise already-journaled work.
u64 job_id(const JobRequest& req);

/// The sample spec `req` asks for, resolved into `spec`: disabled unless
/// `sampled`, and a zero warmup or measure means the default. Returns
/// sample::spec_error's message for a spec no run may use (the job is then
/// refused), else "". The daemon and run_sweep_ft's local fallback both
/// resolve jobs here, so they run identical windows.
std::string sample_spec_of(const JobRequest& req, sample::SampleSpec& spec);

struct JobResponse {
  u64 job_id = 0;
  bool from_journal = false;  // served from the journal, not recomputed
  SimResult result;
};

void encode(std::vector<u8>& buf, const JobResponse& resp);
bool decode(wire::Reader& r, JobResponse& resp);

/// kJobsDone payload: how the batch went.
struct JobsDone {
  u64 completed = 0;
  u64 journal_hits = 0;
};

void encode(std::vector<u8>& buf, const JobsDone& done);
bool decode(wire::Reader& r, JobsDone& done);

}  // namespace hcsim::svc
