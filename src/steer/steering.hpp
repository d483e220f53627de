// hcsim — data-width aware instruction steering policies (the paper's core
// contribution, Section 3).
//
// The pipeline collects a SteerContext for every µop at rename time and asks
// the SteeringPolicy where to send it. Policies are expressed as a feature
// set so the paper's cumulative configurations (8-8-8, +BR, +LR, +CR, +CP,
// +IR, IR-nodest) compose exactly the way the evaluation section stacks
// them.
#pragma once

#include <optional>
#include <string>

#include "isa/uop.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Backend identifiers. The wide cluster owns the FP scheduler; the helper
/// cluster is integer-only (Section 2.1).
enum class Cluster : u8 { kWide = 0, kHelper = 1, kWideFp = 2 };

/// Feature flags mirroring the paper's schemes.
struct SteeringConfig {
  bool helper_enabled = true;  // false = monolithic baseline
  bool p888 = true;    // Section 3.2: all sources + result narrow
  bool br = false;     // Section 3.3: flags-dependent branches follow producer
  bool lr = false;     // Section 3.4: replicate 8-bit loads into the wide RF
  bool cr = false;     // Section 3.5: carry-confined 8+32->32 ops
  bool cp = false;     // Section 3.6: copy prefetching
  bool ir = false;     // Section 3.7: split wide ops on w->n imbalance
  bool ir_nodest_only = false;  // Section 3.7 fine-tune: split only dest-less µops

  /// IR trigger thresholds on issue-queue occupancy discrepancy: split when
  /// wide occupancy fraction exceeds the first and helper occupancy fraction
  /// is below the second.
  double ir_wide_occ_frac = 0.45;
  double ir_helper_occ_frac = 0.30;

  /// Scheme (5) also works in reverse: "if the helper cluster is overloaded,
  /// we steer narrow instructions to the wide cluster until the workload
  /// balance is restored". Enabled together with IR.
  bool balance_throttle = false;
  double helper_overload_frac = 0.85;

  /// The paper's proposed extension (Section 3.7, last paragraph): split at
  /// a looser granularity — once imbalance triggers a split, the next
  /// `ir_block_len` splittable µops are sent to the helper *as a block*,
  /// and split results are not prefetched back (intra-block consumers stay
  /// in the helper; only actual wide consumers pay demand copies). This
  /// minimizes copies while still reducing imbalance.
  bool ir_block = false;
  unsigned ir_block_len = 8;

  std::string describe() const;

  /// Memberwise equality — the decode cache (src/bbcache) keys cached µop
  /// templates on the steering configuration and must detect any change.
  bool operator==(const SteeringConfig&) const = default;
};

/// Canonical configurations used throughout the evaluation.
SteeringConfig steering_baseline();       // monolithic (no helper cluster)
SteeringConfig steering_888();            // Figure 6/7
SteeringConfig steering_888_br();         // Figure 8
SteeringConfig steering_888_br_lr();      // Figure 9
SteeringConfig steering_888_br_lr_cr();   // Figure 12
SteeringConfig steering_cp();             // Section 3.6 (888+BR+LR+CR+CP)
SteeringConfig steering_ir();             // Section 3.7 full splitting
SteeringConfig steering_ir_nodest();      // Section 3.7 fine-tuned variant
SteeringConfig steering_ir_block();       // Section 3.7 proposed extension

/// Parse a scheme name in describe() syntax ("baseline", "8_8_8",
/// "8_8_8+BR+LR", ..., "+IR(nodest)"/"+IR(block)"). Feature suffixes must
/// appear in describe() order. std::nullopt on malformed names — the CLIs
/// turn that into a usage error.
std::optional<SteeringConfig> steering_from_name(const std::string& name);

/// Everything the rename stage knows about a µop when steering it.
struct SteerContext {
  const StaticUop* uop = nullptr;
  bool helper_capable = false;      // op class exists in the helper cluster
  bool all_srcs_narrow = false;     // known-or-predicted narrow sources
  bool result_pred_narrow = false;  // width predictor output
  bool result_confident = false;    // 2-bit confidence says trust it
  // CR shape: exactly one wide source, remaining sources narrow, result
  // predicted wide — an 8+32->32 candidate (loads/adds/subs only).
  bool cr_shape = false;
  bool carry_pred_confined = false;
  bool carry_confident = false;
  // BR: conditional branch whose flags producer was steered to the helper
  // cluster and whose target resolves in the frontend.
  bool flags_producer_in_helper = false;
  bool frontend_resolvable = false;
  // IR trigger inputs.
  unsigned iq_occ_wide = 0;
  unsigned iq_occ_helper = 0;
  unsigned iq_size_wide = 32;
  unsigned iq_size_helper = 32;
};

/// Steering outcome.
enum class SteerDecision : u8 {
  kWide,      // execute in the 32-bit backend
  kHelper,    // execute in the 8-bit backend (8-8-8 or BR path)
  kHelperCr,  // execute in the helper via the carry-confined path
  kSplit,     // crack into 4 chained 8-bit chunks for the helper (IR)
};

class SteeringPolicy {
 public:
  explicit SteeringPolicy(const SteeringConfig& cfg) : cfg_(cfg) {}

  SteerDecision decide(const SteerContext& ctx) const;
  const SteeringConfig& config() const { return cfg_; }

 private:
  bool ir_triggered(const SteerContext& ctx) const;

  SteeringConfig cfg_;
};

}  // namespace hcsim
