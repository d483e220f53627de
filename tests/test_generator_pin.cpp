// Pins the synthetic generator's output: FNV-1a hashes of every field of
// every record the interpreter emits, for every bundled workload profile.
//
// The Streaming.* tests compare ProgramTraceCursor with execute_program, but
// both run the same interpreter, so a fault in the interpreter itself passes
// them. The sweep goldens miss faults in fields the pipeline never reads
// (flags_val). These constants were captured from the interpreter that
// stepped StaticUops directly and kept written words in a std::unordered_map;
// any change to a generated stream, in any field, fails here.
#include <gtest/gtest.h>

#include "wload/executor.hpp"
#include "wload/profile.hpp"

namespace hcsim {
namespace {

constexpr u64 kGenLen = 20000;   // generate_trace(p, kGenLen)
constexpr u64 kSkipLen = 100000; // then a cursor skips this many ...
constexpr u64 kTailLen = 20000;  // ... and delivers this many

/// 64-bit FNV-1a over each record field in turn, little-endian, so struct
/// padding never enters the hash.
class RecordHash {
 public:
  void add(const TraceRecord& r) {
    word(r.pc);
    for (u32 v : r.src_vals) word(v);
    word(r.result);
    word(r.flags_val);
    word(r.mem_addr);
    byte(r.taken ? 1 : 0);
  }
  u64 value() const { return h_; }

 private:
  void byte(u8 b) { h_ = (h_ ^ b) * 0x100000001B3ull; }
  void word(u32 v) {
    for (unsigned i = 0; i < 4; ++i) byte(static_cast<u8>(v >> (8 * i)));
  }
  u64 h_ = 0xCBF29CE484222325ull;
};

/// Folds profile `p`'s two streams into `gen` (generate_trace's records) and
/// `tail` (the records a cursor delivers after skipping kSkipLen).
void hash_streams(const WorkloadProfile& p, RecordHash& gen, RecordHash& tail) {
  const Trace t = generate_trace(p, kGenLen);
  ASSERT_EQ(t.records.size(), kGenLen) << p.name;
  for (const TraceRecord& r : t.records) gen.add(r);

  ProgramTraceCursor cursor(t.program, p, kSkipLen + kTailLen);
  ASSERT_EQ(cursor.skip(kSkipLen), kSkipLen) << p.name;
  u64 n = 0;
  for (auto chunk = cursor.next_chunk(); !chunk.empty(); chunk = cursor.next_chunk()) {
    for (const TraceRecord& r : chunk) tail.add(r);
    n += chunk.size();
  }
  ASSERT_EQ(n, kTailLen) << p.name;
}

struct Pin {
  const char* name;
  u64 generated;
  u64 after_skip;
};

TEST(GeneratorPin, SpecProfiles) {
  static constexpr Pin kPins[] = {
      {"bzip2", 0x1D8B18F1CF9C43C3ull, 0x9CF1FFC887B77C61ull},
      {"crafty", 0xF794FAE08ED0554Aull, 0xC68C0369D14AAAC3ull},
      {"eon", 0x662C60A86CDD818Bull, 0xFA6693E7C575CC17ull},
      {"gap", 0x634B2589C8C38B8Aull, 0xEAC7DE0A9FA0B675ull},
      {"gcc", 0xBB9A66590E1E49ADull, 0x5940F1A75F3D68ABull},
      {"gzip", 0x0F9CC86B1482D224ull, 0xEBFDFE96210AF697ull},
      {"mcf", 0x1BF70DD2031F3B25ull, 0x541B1D8CCCBD5E54ull},
      {"parser", 0x7CED7F117547C2EEull, 0xE3727954D11141A9ull},
      {"perlbmk", 0x56F42F8F53A81BBBull, 0x236C49B71C0D4021ull},
      {"twolf", 0xB90944095F445319ull, 0x13BCE307DE2CEA12ull},
      {"vortex", 0x033578C53DDE62A3ull, 0x2BA107B98F52C772ull},
      {"vpr", 0xD2661666DB4C4392ull, 0x38045F771ED2D21Full},
  };
  ASSERT_EQ(std::size(kPins), spec_int_2000_profiles().size());
  for (const Pin& pin : kPins) {
    RecordHash gen, tail;
    hash_streams(spec_profile(pin.name), gen, tail);
    EXPECT_EQ(gen.value(), pin.generated) << pin.name << " generate_trace";
    EXPECT_EQ(tail.value(), pin.after_skip) << pin.name << " after skip";
  }
}

TEST(GeneratorPin, CategoryApps) {
  // One pair of hashes per category, folded over all of its apps in order.
  static constexpr Pin kPins[] = {
      {"enc", 0x700EBA88CA70FFE1ull, 0xECF7DF4E4D242F6Dull},
      {"sfp", 0x32D901D6CD4B9634ull, 0x0DDA608866D19808ull},
      {"kernels", 0xB2424B00839E6CACull, 0x5A06C43E71FC26F5ull},
      {"mm", 0x57A4AC8C0C9861B7ull, 0x75758C4FD044B7D9ull},
      {"office", 0x94C16331F0AD3E60ull, 0x39A67F846E393C53ull},
      {"prod", 0x8F121B877EC55537ull, 0xD35DD74421538852ull},
      {"ws", 0x25CD8514A6A1A9ABull, 0x2F990AAD0AFE28D1ull},
  };
  const auto& cats = workload_categories();
  ASSERT_EQ(std::size(kPins), cats.size());
  for (std::size_t c = 0; c < cats.size(); ++c) {
    ASSERT_EQ(cats[c].name, kPins[c].name);
    RecordHash gen, tail;
    for (unsigned i = 0; i < cats[c].num_traces; ++i)
      hash_streams(category_app_profile(cats[c], i), gen, tail);
    EXPECT_EQ(gen.value(), kPins[c].generated) << cats[c].name << " generate_trace";
    EXPECT_EQ(tail.value(), kPins[c].after_skip) << cats[c].name << " after skip";
  }
}

}  // namespace
}  // namespace hcsim
