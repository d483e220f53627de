#include "svc/protocol.hpp"

#include <cstring>

#include "svc/io.hpp"

namespace hcsim::svc {

namespace {

/// IEEE-754 bit pattern — exact round trips, identical bytes on every host.
void put_f64(std::vector<u8>& buf, double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof(bits));
  wire::put_u64(buf, bits);
}

bool get_f64(wire::Reader& r, double& v) {
  u64 bits;
  if (!r.get_u64(bits)) return false;
  std::memcpy(&v, &bits, sizeof(bits));
  return true;
}

void put_unsigned(std::vector<u8>& buf, unsigned v) {
  wire::put_u32(buf, static_cast<u32>(v));
}

bool get_unsigned(wire::Reader& r, unsigned& v) {
  u32 raw;
  if (!r.get_u32(raw)) return false;
  v = raw;
  return true;
}

void put_bool(std::vector<u8>& buf, bool v) { wire::put_u8(buf, v ? 1 : 0); }

bool get_bool(wire::Reader& r, bool& v) {
  u8 raw;
  if (!r.get_u8(raw)) return false;
  v = raw != 0;
  return true;
}

}  // namespace

bool read_frame(int fd, Frame& frame, u32 max_frame, std::string* err,
                int timeout_ms) {
  if (err) err->clear();
  const auto fail = [&](io::Status st, const char* what) {
    if (!err) return false;
    if (st == io::Status::kTimeout) *err = "timed out reading " + std::string(what);
    else if (st != io::Status::kEof) *err = std::string(what) + " read error";
    // EOF before any header byte stays "" (clean EOF); mid-frame EOF is
    // corruption and is labelled by the caller-specific messages below.
    return false;
  };
  u8 len_bytes[sizeof(u32)];
  io::Status st = io::read_exact(fd, len_bytes, sizeof(len_bytes), timeout_ms);
  if (st != io::Status::kOk) return fail(st, "frame header");
  const u32 len = wire::load_u32le(len_bytes);  // same byte order as write_frame
  if (len < 1 || len > max_frame) {
    if (err) *err = "bad frame length " + std::to_string(len);
    return false;
  }
  st = io::read_exact(fd, &frame.type, 1, timeout_ms);
  if (st == io::Status::kEof) {
    if (err) *err = "frame truncated";
    return false;
  }
  if (st != io::Status::kOk) return fail(st, "frame body");
  frame.payload.resize(len - 1);
  if (!frame.payload.empty()) {
    st = io::read_exact(fd, frame.payload.data(), frame.payload.size(), timeout_ms);
    if (st == io::Status::kEof) {
      if (err) *err = "frame truncated";
      return false;
    }
    if (st != io::Status::kOk) return fail(st, "frame body");
  }
  return true;
}

bool write_frame(int fd, u8 type, const std::vector<u8>& payload, int timeout_ms) {
  std::vector<u8> buf;
  buf.reserve(sizeof(u32) + 1 + payload.size());
  wire::put_u32(buf, static_cast<u32>(1 + payload.size()));
  wire::put_u8(buf, type);
  buf.insert(buf.end(), payload.begin(), payload.end());
  return io::write_all(fd, buf.data(), buf.size(), timeout_ms) == io::Status::kOk;
}

bool write_error(int fd, const std::string& msg, int timeout_ms) {
  std::vector<u8> payload;
  wire::put_string(payload, msg);
  return write_frame(fd, kError, payload, timeout_ms);
}

// --- value codecs -----------------------------------------------------------
// Declaration order of each struct is encoding order. These feed job_id()
// hashing and the on-disk journal, so the order is part of the format.

namespace {

void encode_cache(std::vector<u8>& buf, const CacheConfig& c) {
  wire::put_string(buf, c.name);
  wire::put_u32(buf, c.size_bytes);
  wire::put_u32(buf, c.line_bytes);
  wire::put_u32(buf, c.ways);
  wire::put_u32(buf, c.latency_cycles);
  wire::put_u32(buf, c.ports);
}

bool decode_cache(wire::Reader& r, CacheConfig& c) {
  return r.get_string(c.name, 256) && r.get_u32(c.size_bytes) &&
         r.get_u32(c.line_bytes) && r.get_u32(c.ways) &&
         r.get_u32(c.latency_cycles) && r.get_u32(c.ports);
}

}  // namespace

void encode(std::vector<u8>& buf, const MachineConfig& cfg) {
  put_unsigned(buf, cfg.fetch_width);
  put_unsigned(buf, cfg.rename_width);
  put_unsigned(buf, cfg.commit_width);
  put_unsigned(buf, cfg.rob_entries);
  put_unsigned(buf, cfg.frontend_depth);
  put_unsigned(buf, cfg.iq_wide);
  put_unsigned(buf, cfg.issue_wide);
  put_unsigned(buf, cfg.iq_fp);
  put_unsigned(buf, cfg.issue_fp);
  put_unsigned(buf, cfg.iq_helper);
  put_unsigned(buf, cfg.issue_helper);
  put_unsigned(buf, cfg.helper_width_bits);
  put_unsigned(buf, cfg.ticks_per_wide_cycle);
  put_unsigned(buf, cfg.copy_transfer_cycles);
  put_unsigned(buf, cfg.copy_ports);
  encode_cache(buf, cfg.mem.dl0);
  encode_cache(buf, cfg.mem.ul1);
  wire::put_u32(buf, cfg.mem.main_memory_cycles);
  wire::put_u32(buf, cfg.wpred.entries);
  put_bool(buf, cfg.wpred.use_confidence);
  wire::put_u8(buf, cfg.wpred.confidence_threshold);
  wire::put_u32(buf, cfg.bpred.entries);
  wire::put_u32(buf, cfg.bpred.history_bits);
  const SteeringConfig& st = cfg.steer;
  put_bool(buf, st.helper_enabled);
  put_bool(buf, st.p888);
  put_bool(buf, st.br);
  put_bool(buf, st.lr);
  put_bool(buf, st.cr);
  put_bool(buf, st.cp);
  put_bool(buf, st.ir);
  put_bool(buf, st.ir_nodest_only);
  put_f64(buf, st.ir_wide_occ_frac);
  put_f64(buf, st.ir_helper_occ_frac);
  put_bool(buf, st.balance_throttle);
  put_f64(buf, st.helper_overload_frac);
  put_bool(buf, st.ir_block);
  put_unsigned(buf, st.ir_block_len);
}

bool decode(wire::Reader& r, MachineConfig& cfg) {
  if (!get_unsigned(r, cfg.fetch_width) || !get_unsigned(r, cfg.rename_width) ||
      !get_unsigned(r, cfg.commit_width) || !get_unsigned(r, cfg.rob_entries) ||
      !get_unsigned(r, cfg.frontend_depth) || !get_unsigned(r, cfg.iq_wide) ||
      !get_unsigned(r, cfg.issue_wide) || !get_unsigned(r, cfg.iq_fp) ||
      !get_unsigned(r, cfg.issue_fp) || !get_unsigned(r, cfg.iq_helper) ||
      !get_unsigned(r, cfg.issue_helper) ||
      !get_unsigned(r, cfg.helper_width_bits) ||
      !get_unsigned(r, cfg.ticks_per_wide_cycle) ||
      !get_unsigned(r, cfg.copy_transfer_cycles) ||
      !get_unsigned(r, cfg.copy_ports))
    return false;
  if (!decode_cache(r, cfg.mem.dl0) || !decode_cache(r, cfg.mem.ul1) ||
      !r.get_u32(cfg.mem.main_memory_cycles))
    return false;
  if (!r.get_u32(cfg.wpred.entries) || !get_bool(r, cfg.wpred.use_confidence) ||
      !r.get_u8(cfg.wpred.confidence_threshold))
    return false;
  if (!r.get_u32(cfg.bpred.entries) || !r.get_u32(cfg.bpred.history_bits))
    return false;
  SteeringConfig& st = cfg.steer;
  return get_bool(r, st.helper_enabled) && get_bool(r, st.p888) &&
         get_bool(r, st.br) && get_bool(r, st.lr) && get_bool(r, st.cr) &&
         get_bool(r, st.cp) && get_bool(r, st.ir) &&
         get_bool(r, st.ir_nodest_only) && get_f64(r, st.ir_wide_occ_frac) &&
         get_f64(r, st.ir_helper_occ_frac) && get_bool(r, st.balance_throttle) &&
         get_f64(r, st.helper_overload_frac) && get_bool(r, st.ir_block) &&
         get_unsigned(r, st.ir_block_len);
}

void encode(std::vector<u8>& buf, const WorkloadProfile& p) {
  wire::put_string(buf, p.name);
  wire::put_u64(buf, p.seed);
  wire::put_string(buf, p.rv_kernel);
  put_unsigned(buf, p.num_loops);
  put_unsigned(buf, p.body_chains_min);
  put_unsigned(buf, p.body_chains_max);
  put_f64(buf, p.p_nested_loop);
  put_f64(buf, p.w_narrow_chain);
  put_f64(buf, p.w_wide_chain);
  put_f64(buf, p.w_cr_chain);
  put_f64(buf, p.w_muldiv_chain);
  put_f64(buf, p.w_fp_chain);
  put_f64(buf, p.w_branchy_chain);
  put_f64(buf, p.p_cross_width_use);
  put_f64(buf, p.value_stability);
  put_f64(buf, p.p_carry_propagate);
  put_unsigned(buf, p.trip_min);
  put_unsigned(buf, p.trip_max);
  put_f64(buf, p.p_wide_loop);
  put_unsigned(buf, p.byte_footprint_log2);
  put_unsigned(buf, p.word_footprint_log2);
  put_f64(buf, p.p_pointer_chase);
  put_f64(buf, p.p_store);
  put_f64(buf, p.p_narrow_flags);
}

bool decode(wire::Reader& r, WorkloadProfile& p) {
  return r.get_string(p.name, 256) && r.get_u64(p.seed) &&
         r.get_string(p.rv_kernel, 256) && get_unsigned(r, p.num_loops) &&
         get_unsigned(r, p.body_chains_min) && get_unsigned(r, p.body_chains_max) &&
         get_f64(r, p.p_nested_loop) && get_f64(r, p.w_narrow_chain) &&
         get_f64(r, p.w_wide_chain) && get_f64(r, p.w_cr_chain) &&
         get_f64(r, p.w_muldiv_chain) && get_f64(r, p.w_fp_chain) &&
         get_f64(r, p.w_branchy_chain) && get_f64(r, p.p_cross_width_use) &&
         get_f64(r, p.value_stability) && get_f64(r, p.p_carry_propagate) &&
         get_unsigned(r, p.trip_min) && get_unsigned(r, p.trip_max) &&
         get_f64(r, p.p_wide_loop) && get_unsigned(r, p.byte_footprint_log2) &&
         get_unsigned(r, p.word_footprint_log2) && get_f64(r, p.p_pointer_chase) &&
         get_f64(r, p.p_store) && get_f64(r, p.p_narrow_flags);
}

void encode(std::vector<u8>& buf, const SimResult& s) {
  wire::put_string(buf, s.workload);
  wire::put_string(buf, s.config);
  wire::put_u64(buf, s.uops);
  wire::put_u64(buf, s.final_tick);
  put_f64(buf, s.wide_cycles);
  put_f64(buf, s.ipc);
  wire::put_u64(buf, s.to_wide);
  wire::put_u64(buf, s.to_helper);
  wire::put_u64(buf, s.br_steered);
  wire::put_u64(buf, s.cr_steered);
  wire::put_u64(buf, s.split_uops);
  wire::put_u64(buf, s.chunk_uops);
  wire::put_u64(buf, s.replicated_loads);
  wire::put_u64(buf, s.copies);
  wire::put_u64(buf, s.copies_w2n);
  wire::put_u64(buf, s.copies_n2w);
  wire::put_u64(buf, s.copy_prefetches);
  wire::put_u64(buf, s.cp_useful);
  wire::put_u64(buf, s.cp_wasted);
  wire::put_u32(buf, static_cast<u32>(s.copy_wait.bins()));
  for (std::size_t i = 0; i <= s.copy_wait.bins(); ++i)
    wire::put_u64(buf, s.copy_wait.bin(i));
  wire::put_u64(buf, s.copy_wait.sum());
  wire::put_u64(buf, s.wp_correct);
  wire::put_u64(buf, s.wp_nonfatal);
  wire::put_u64(buf, s.wp_fatal);
  wire::put_u64(buf, s.cr_violations);
  wire::put_u64(buf, s.branches);
  wire::put_u64(buf, s.branch_mispredicts);
  wire::put_u64(buf, s.nready_w2n);
  wire::put_u64(buf, s.nready_n2w);
  put_f64(buf, s.dl0_hit_rate);
  put_f64(buf, s.ul1_hit_rate);
  wire::put_u32(buf, static_cast<u32>(kNumCounters));
  for (std::size_t i = 0; i < kNumCounters; ++i)
    wire::put_u64(buf, s.counters.get(static_cast<Counter>(i)));
}

bool decode(wire::Reader& r, SimResult& s) {
  if (!r.get_string(s.workload, 256) || !r.get_string(s.config, 256) ||
      !r.get_u64(s.uops) || !r.get_u64(s.final_tick) ||
      !get_f64(r, s.wide_cycles) || !get_f64(r, s.ipc) ||
      !r.get_u64(s.to_wide) || !r.get_u64(s.to_helper) ||
      !r.get_u64(s.br_steered) || !r.get_u64(s.cr_steered) ||
      !r.get_u64(s.split_uops) || !r.get_u64(s.chunk_uops) ||
      !r.get_u64(s.replicated_loads) || !r.get_u64(s.copies) ||
      !r.get_u64(s.copies_w2n) || !r.get_u64(s.copies_n2w) ||
      !r.get_u64(s.copy_prefetches) || !r.get_u64(s.cp_useful) ||
      !r.get_u64(s.cp_wasted))
    return false;
  u32 n_bins = 0;
  if (!r.get_u32(n_bins) || n_bins > (1u << 16)) return false;
  std::vector<u64> counts(n_bins + 1);
  for (u64& c : counts)
    if (!r.get_u64(c)) return false;
  u64 hist_sum = 0;
  if (!r.get_u64(hist_sum)) return false;
  s.copy_wait.restore(std::move(counts), hist_sum);
  if (!r.get_u64(s.wp_correct) || !r.get_u64(s.wp_nonfatal) ||
      !r.get_u64(s.wp_fatal) || !r.get_u64(s.cr_violations) ||
      !r.get_u64(s.branches) || !r.get_u64(s.branch_mispredicts) ||
      !r.get_u64(s.nready_w2n) || !r.get_u64(s.nready_n2w) ||
      !get_f64(r, s.dl0_hit_rate) || !get_f64(r, s.ul1_hit_rate))
    return false;
  u32 n_counters = 0;
  if (!r.get_u32(n_counters) || n_counters != kNumCounters) return false;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    u64 v = 0;
    if (!r.get_u64(v)) return false;
    s.counters[static_cast<Counter>(i)] = v;
  }
  return true;
}

// --- kRunJobs ---------------------------------------------------------------

namespace {

/// Everything that determines a job's result — the version field stays out
/// so a pure protocol revision does not orphan journaled work.
void encode_job_body(std::vector<u8>& buf, const JobRequest& req) {
  encode(buf, req.config);
  encode(buf, req.profile);
  wire::put_u64(buf, req.n_records);
  put_bool(buf, req.sampled);
  wire::put_u64(buf, req.warmup);
  wire::put_u64(buf, req.measure);
  wire::put_u64(buf, req.period);
  wire::put_u64(buf, req.max_windows);
}

}  // namespace

void encode(std::vector<u8>& buf, const JobRequest& req) {
  wire::put_u32(buf, req.version);
  encode_job_body(buf, req);
}

bool decode(wire::Reader& r, JobRequest& req) {
  return r.get_u32(req.version) && decode(r, req.config) &&
         decode(r, req.profile) && r.get_u64(req.n_records) &&
         get_bool(r, req.sampled) && r.get_u64(req.warmup) &&
         r.get_u64(req.measure) && r.get_u64(req.period) &&
         r.get_u64(req.max_windows);
}

u64 job_id(const JobRequest& req) {
  std::vector<u8> body;
  body.reserve(512);
  encode_job_body(body, req);
  // FNV-1a 64 over a domain-separation tag + the canonical body bytes.
  u64 h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const u8* p = static_cast<const u8*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  static constexpr char kTag[] = "hcsim-job-v1";
  mix(kTag, sizeof(kTag) - 1);
  mix(body.data(), body.size());
  return h;
}

std::string sample_spec_of(const JobRequest& req, sample::SampleSpec& spec) {
  spec = sample::SampleSpec{};
  if (!req.sampled) return "";
  spec.warmup = req.warmup != 0 ? req.warmup : sample::kDefaultWarmup;
  spec.measure = req.measure != 0 ? req.measure : sample::kDefaultMeasure;
  spec.period = req.period;
  spec.max_windows = req.max_windows;
  return sample::spec_error(spec);
}

void encode(std::vector<u8>& buf, const JobResponse& resp) {
  wire::put_u64(buf, resp.job_id);
  put_bool(buf, resp.from_journal);
  encode(buf, resp.result);
}

bool decode(wire::Reader& r, JobResponse& resp) {
  if (!r.get_u64(resp.job_id) || !get_bool(r, resp.from_journal) ||
      !decode(r, resp.result))
    return false;
  return r.remaining() == 0;
}

void encode(std::vector<u8>& buf, const JobsDone& done) {
  wire::put_u64(buf, done.completed);
  wire::put_u64(buf, done.journal_hits);
}

bool decode(wire::Reader& r, JobsDone& done) {
  if (!r.get_u64(done.completed) || !r.get_u64(done.journal_hits)) return false;
  return r.remaining() == 0;
}

}  // namespace hcsim::svc
