// Tests for binary trace serialization and its little-endian wire packing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "trace/trace.hpp"
#include "trace/wire.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

namespace hcsim {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Trace tiny_trace() {
  WorkloadProfile p;
  p.name = "io-test";
  p.seed = 77;
  p.num_loops = 2;
  return generate_trace(p, 500);
}

TEST(TraceIo, RoundTrip) {
  const Trace original = tiny_trace();
  const std::string path = temp_path("hcsim_roundtrip.trace");
  ASSERT_TRUE(save_trace(original, path));

  Trace loaded;
  ASSERT_TRUE(load_trace(loaded, path));
  EXPECT_EQ(loaded.program.name, original.program.name);
  EXPECT_EQ(loaded.seed, original.seed);
  ASSERT_EQ(loaded.program.uops.size(), original.program.uops.size());
  ASSERT_EQ(loaded.records.size(), original.records.size());
  for (std::size_t i = 0; i < original.program.uops.size(); ++i) {
    EXPECT_EQ(loaded.program.uops[i].opcode, original.program.uops[i].opcode);
    EXPECT_EQ(loaded.program.uops[i].dst, original.program.uops[i].dst);
    EXPECT_EQ(loaded.program.branch_targets[i], original.program.branch_targets[i]);
  }
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].pc, original.records[i].pc);
    EXPECT_EQ(loaded.records[i].result, original.records[i].result);
    EXPECT_EQ(loaded.records[i].mem_addr, original.records[i].mem_addr);
    EXPECT_EQ(loaded.records[i].taken, original.records[i].taken);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails) {
  Trace t;
  EXPECT_FALSE(load_trace(t, "/nonexistent/dir/foo.trace"));
}

TEST(TraceIo, BadMagicRejected) {
  const std::string path = temp_path("hcsim_badmagic.trace");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a trace file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  Trace t;
  EXPECT_FALSE(load_trace(t, path));
  std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFileRejected) {
  const Trace original = tiny_trace();
  const std::string path = temp_path("hcsim_trunc.trace");
  ASSERT_TRUE(save_trace(original, path));
  // Truncate to half size.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  Trace t;
  EXPECT_FALSE(load_trace(t, path));
  std::remove(path.c_str());
}

TEST(TraceIo, SavedFilesAreByteStableAcrossRuns) {
  // v3 serializes field by field: no uninitialized struct padding may leak
  // into the file, so two saves of equal traces are byte-identical.
  const std::string pa = temp_path("hcsim_stable_a.trace");
  const std::string pb = temp_path("hcsim_stable_b.trace");
  ASSERT_TRUE(save_trace(tiny_trace(), pa));
  ASSERT_TRUE(save_trace(tiny_trace(), pb));
  std::ifstream fa(pa, std::ios::binary), fb(pb, std::ios::binary);
  const std::string a((std::istreambuf_iterator<char>(fa)),
                      std::istreambuf_iterator<char>());
  const std::string b((std::istreambuf_iterator<char>(fb)),
                      std::istreambuf_iterator<char>());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(TraceIo, CorruptRegisterIdRejected) {
  // An out-of-range register id would index past the pipeline's fixed
  // register-state array; load_trace must refuse the file.
  Trace t = tiny_trace();
  const std::string path = temp_path("hcsim_badreg.trace");
  t.program.uops[0].dst = 200;  // not kRegNone, >= kNumRegs
  ASSERT_TRUE(save_trace(t, path));
  Trace loaded;
  EXPECT_FALSE(load_trace(loaded, path));
  std::remove(path.c_str());
}

TEST(TraceIo, SaveToUnwritablePathFails) {
  EXPECT_FALSE(save_trace(tiny_trace(), "/nonexistent/dir/foo.trace"));
}

TEST(TraceIo, EmptyRecordsAllowed) {
  Trace t = tiny_trace();
  t.records.clear();
  const std::string path = temp_path("hcsim_empty.trace");
  ASSERT_TRUE(save_trace(t, path));
  Trace loaded;
  ASSERT_TRUE(load_trace(loaded, path));
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.program.uops.size(), t.program.uops.size());
  std::remove(path.c_str());
}

TEST(Wire, IntegersAreLittleEndianOnEveryHost) {
  // The v3 format (and the socket frame length prefix built on it) is
  // little-endian by definition, not host-endian by accident.
  std::vector<u8> buf;
  wire::put_u32(buf, 0x01020304u);
  EXPECT_EQ(buf, (std::vector<u8>{0x04, 0x03, 0x02, 0x01}));
  buf.clear();
  wire::put_u64(buf, 0x0102030405060708ull);
  EXPECT_EQ(buf, (std::vector<u8>{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));

  u64 v64 = 0;
  wire::Reader r(buf.data(), buf.size());
  ASSERT_TRUE(r.get_u64(v64));
  EXPECT_EQ(v64, 0x0102030405060708ull);
  EXPECT_EQ(wire::load_u32le(buf.data()), 0x05060708u);
}

}  // namespace
}  // namespace hcsim
