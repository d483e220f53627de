// src/svc/journal — durable job results, and the job ids that key them.
//
// The recovery contract under test: any prefix-preserving crash (torn tail,
// flipped byte, injected mid-write failure) loses at most the record being
// written — every record before it survives reopen, and the journal stays
// appendable. Plus the identity contract: job ids are a pure function of the
// request content, stable across processes (pinned golden constant) and
// insensitive to the protocol version field.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "svc/journal.hpp"
#include "svc/protocol.hpp"
#include "trace/wire.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {
namespace {

std::string test_path(const char* tag) {
  return "/tmp/hcsim_journal_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".journal";
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<u8>(std::istreambuf_iterator<char>(f),
                         std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<u8>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// A real (tiny) simulation result — journal payloads should exercise the
/// full SimResult codec, histogram and counters included.
SimResult tiny_result(u64 n_records) {
  return simulate_workload(exp::SweepSpec().baseline, rv::rv_workload_profile("crc32"),
                           n_records, sample::SampleSpec{});
}

std::vector<u8> encoded(const SimResult& r) {
  std::vector<u8> buf;
  encode(buf, r);
  return buf;
}

class JournalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::set_schedule("");
    for (const std::string& p : cleanup_) ::unlink(p.c_str());
  }
  std::string make_path(const char* tag) {
    cleanup_.push_back(test_path(tag));
    return cleanup_.back();
  }
  std::vector<std::string> cleanup_;
};

TEST_F(JournalTest, AppendLookupAndReopen) {
  const std::string path = make_path("roundtrip");
  const SimResult r1 = tiny_result(1000);
  const SimResult r2 = tiny_result(2000);
  {
    Journal j;
    ASSERT_TRUE(j.open(path)) << j.error();
    ASSERT_TRUE(j.valid());
    EXPECT_TRUE(j.append(11, r1));
    EXPECT_TRUE(j.append(22, r2));
    EXPECT_EQ(j.size(), 2u);
    EXPECT_TRUE(j.contains(11));
    EXPECT_FALSE(j.contains(33));
  }
  Journal j;
  ASSERT_TRUE(j.open(path)) << j.error();
  EXPECT_EQ(j.recovered(), 2u);
  EXPECT_EQ(j.dropped_bytes(), 0u);
  SimResult back;
  ASSERT_TRUE(j.lookup(11, back));
  EXPECT_EQ(encoded(back), encoded(r1));
  ASSERT_TRUE(j.lookup(22, back));
  EXPECT_EQ(encoded(back), encoded(r2));
  EXPECT_EQ(j.hits(), 2u);
  EXPECT_FALSE(j.lookup(33, back));
  EXPECT_EQ(j.hits(), 2u);  // misses are not hits
}

TEST_F(JournalTest, DuplicateAppendIsADurableNoOp) {
  const std::string path = make_path("dup");
  const SimResult r = tiny_result(1000);
  Journal j;
  ASSERT_TRUE(j.open(path)) << j.error();
  ASSERT_TRUE(j.append(7, r));
  const u64 bytes_after_first = static_cast<u64>(read_file(path).size());
  EXPECT_TRUE(j.append(7, r));  // reports success, writes nothing
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(static_cast<u64>(read_file(path).size()), bytes_after_first);
}

TEST_F(JournalTest, TornTailIsTruncatedAtEveryCut) {
  const std::string path = make_path("torn_src");
  {
    Journal j;
    ASSERT_TRUE(j.open(path)) << j.error();
    ASSERT_TRUE(j.append(1, tiny_result(1000)));
    ASSERT_TRUE(j.append(2, tiny_result(2000)));
  }
  const std::vector<u8> bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);

  // Record boundaries from the length fields (8-byte file header, then
  // [len][crc][payload] records).
  std::vector<std::size_t> boundaries = {8};
  for (std::size_t pos = 8; pos + 8 <= bytes.size();) {
    pos += 8 + wire::load_u32le(bytes.data() + pos);
    boundaries.push_back(pos);
  }
  ASSERT_EQ(boundaries.size(), 3u);
  ASSERT_EQ(boundaries.back(), bytes.size());

  const std::string torn = make_path("torn");
  // Sample every cut of the second record and a spread of cuts of the first
  // (every byte of a multi-KB record would be slow for no extra coverage).
  for (std::size_t cut = 8; cut < bytes.size();
       cut += (cut < boundaries[1] ? 97 : 1)) {
    write_file(torn, std::vector<u8>(bytes.begin(), bytes.begin() + cut));
    Journal j;
    ASSERT_TRUE(j.open(torn)) << "cut at " << cut << ": " << j.error();
    const u64 expect_recovered = cut >= boundaries[1] ? 1u : 0u;
    EXPECT_EQ(j.recovered(), expect_recovered) << "cut at " << cut;
    EXPECT_EQ(j.dropped_bytes(), cut - boundaries[expect_recovered])
        << "cut at " << cut;
    // The truncated journal must stay appendable, and the re-append must be
    // recoverable in turn.
    ASSERT_TRUE(j.append(99, tiny_result(1000))) << "cut at " << cut;
  }
  Journal again;
  ASSERT_TRUE(again.open(torn)) << again.error();
  EXPECT_TRUE(again.contains(99));
}

TEST_F(JournalTest, CorruptRecordDropsItAndEverythingAfter) {
  const std::string path = make_path("corrupt");
  {
    Journal j;
    ASSERT_TRUE(j.open(path)) << j.error();
    ASSERT_TRUE(j.append(1, tiny_result(1000)));
    ASSERT_TRUE(j.append(2, tiny_result(2000)));
  }
  std::vector<u8> bytes = read_file(path);
  const std::size_t second = 8 + 8 + wire::load_u32le(bytes.data() + 8);
  bytes[second + 8 + 3] ^= 0xFF;  // flip a payload byte of record 2
  write_file(path, bytes);

  Journal j;
  ASSERT_TRUE(j.open(path)) << j.error();
  EXPECT_EQ(j.recovered(), 1u);
  EXPECT_TRUE(j.contains(1));
  EXPECT_FALSE(j.contains(2));
  EXPECT_EQ(j.dropped_bytes(), bytes.size() - second);
}

TEST_F(JournalTest, ForeignFileIsRefusedAndNeverTruncated) {
  const std::string path = make_path("foreign");
  const std::vector<u8> foreign = {'p', 'r', 'e', 'c', 'i', 'o', 'u', 's',
                                   'd', 'a', 't', 'a'};
  write_file(path, foreign);
  Journal j;
  EXPECT_FALSE(j.open(path));
  EXPECT_FALSE(j.valid());
  EXPECT_NE(j.error().find("magic"), std::string::npos) << j.error();
  EXPECT_EQ(read_file(path), foreign);  // byte-for-byte untouched
}

TEST_F(JournalTest, InjectedTornAppendIsRecoveredOnReopen) {
  const std::string path = make_path("inject");
  const SimResult keep = tiny_result(1000);
  {
    Journal j;
    ASSERT_TRUE(j.open(path)) << j.error();
    ASSERT_TRUE(j.append(1, keep));
    fault::set_schedule("journal.append.torn:1");
    EXPECT_FALSE(j.append(2, tiny_result(2000)));  // half a record lands
    EXPECT_FALSE(j.valid());
    fault::set_schedule("");
  }
  Journal j;
  ASSERT_TRUE(j.open(path)) << j.error();
  EXPECT_EQ(j.recovered(), 1u);
  EXPECT_GT(j.dropped_bytes(), 0u);
  SimResult back;
  ASSERT_TRUE(j.lookup(1, back));
  EXPECT_EQ(encoded(back), encoded(keep));
}

// --- job ids ---------------------------------------------------------------

JobRequest golden_request() {
  JobRequest req;
  req.config = exp::SweepSpec().baseline;  // monolithic_baseline()
  for (const WorkloadProfile& p : spec_int_2000_profiles())
    if (p.name == "gcc") req.profile = p;
  req.n_records = 100000;
  return req;
}

TEST(JobId, StableAcrossProcessesGoldenConstant) {
  // Computed once and pinned: job ids key on-disk journals, so any codec or
  // hash change that shifts them silently invalidates every existing journal
  // — this test makes that a loud, deliberate decision.
  EXPECT_EQ(job_id(golden_request()), 0x74f1544751967e1dULL);
}

TEST(JobId, IgnoresProtocolVersion) {
  JobRequest req = golden_request();
  const u64 id = job_id(req);
  req.version = 99;  // versioning the transport must not re-key the work
  EXPECT_EQ(job_id(req), id);
}

TEST(JobId, ChangesWithAnyContentField) {
  const JobRequest base = golden_request();
  const u64 id = job_id(base);

  JobRequest req = base;
  req.n_records = 100001;
  EXPECT_NE(job_id(req), id);

  req = base;
  req.profile.seed += 1;
  EXPECT_NE(job_id(req), id);

  req = base;
  req.config.fetch_width += 1;
  EXPECT_NE(job_id(req), id);

  req = base;
  req.sampled = true;
  req.measure = 80000;
  EXPECT_NE(job_id(req), id);
}

}  // namespace
}  // namespace hcsim::svc
