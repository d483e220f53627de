#include "core/machine_config.hpp"

#include <bit>

namespace hcsim {

MachineConfig monolithic_baseline() {
  MachineConfig cfg;
  cfg.steer = steering_baseline();
  return cfg;
}

MachineConfig helper_machine(const SteeringConfig& steer) {
  MachineConfig cfg;
  cfg.steer = steer;
  return cfg;
}

namespace {

/// Slot ledgers count reservations per cycle in a byte.
bool slot_width_ok(unsigned w) { return w > 0 && w < 256; }

/// Upper bounds on the fields that size an allocation, so a job cannot ask
/// the daemon for more memory than any modeled machine needs: the ROB ring
/// (and the CP window twice its size) and each predictor table. The
/// largest configs in use are a 128-entry ROB and 4096-entry tables.
constexpr unsigned kMaxRobEntries = 1u << 16;
constexpr u32 kMaxTableEntries = 1u << 20;

/// Cache's constructor checks, then the port ledger's.
std::string cache_error(const CacheConfig& c, const std::string& field) {
  if (std::string e = cache_config_error(c); !e.empty()) return field + "." + e;
  if (!slot_width_ok(c.ports)) return field + ".ports must be in 1..255";
  return "";
}

}  // namespace

std::string machine_config_error(const MachineConfig& cfg) {
  if (cfg.fetch_width == 0) return "fetch_width must be positive";
  if (cfg.rename_width == 0) return "rename_width must be positive";
  if (cfg.commit_width == 0) return "commit_width must be positive";
  if (cfg.rob_entries == 0 || cfg.rob_entries > kMaxRobEntries)
    return "rob_entries must be in 1..65536";
  if (!slot_width_ok(cfg.issue_wide)) return "issue_wide must be in 1..255";
  if (!slot_width_ok(cfg.issue_helper)) return "issue_helper must be in 1..255";
  if (!slot_width_ok(cfg.issue_fp)) return "issue_fp must be in 1..255";
  if (cfg.iq_wide == 0) return "iq_wide must be positive";
  if (cfg.iq_helper == 0) return "iq_helper must be positive";
  if (cfg.iq_fp == 0) return "iq_fp must be positive";
  if (cfg.ticks_per_wide_cycle == 0) return "ticks_per_wide_cycle must be positive";
  if (!slot_width_ok(cfg.copy_ports)) return "copy_ports must be in 1..255";
  if (!std::has_single_bit(cfg.wpred.entries))
    return "wpred.entries must be a power of two";
  if (cfg.wpred.entries > kMaxTableEntries) return "wpred.entries must be at most 2^20";
  if (!std::has_single_bit(cfg.bpred.entries))
    return "bpred.entries must be a power of two";
  if (cfg.bpred.entries > kMaxTableEntries) return "bpred.entries must be at most 2^20";
  if (std::string e = cache_error(cfg.mem.dl0, "mem.dl0"); !e.empty()) return e;
  return cache_error(cfg.mem.ul1, "mem.ul1");
}

}  // namespace hcsim
