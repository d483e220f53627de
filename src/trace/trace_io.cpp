#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "trace/trace.hpp"
#include "trace/wire.hpp"

namespace hcsim {
namespace {

constexpr u32 kMagic = 0x48435452;  // "HCTR"
// v3: records and µops are serialized field by field (tightly packed) via
// trace/wire.hpp — the same packing the hcsimd protocol uses.
// v2 wrote whole structs, which leaked uninitialized padding bytes into the
// file — same trace, different bytes across runs.
constexpr u32 kVersion = 3;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool write_buf(std::FILE* f, const std::vector<u8>& buf) {
  return buf.empty() || std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
}

/// Read exactly `n` bytes into `buf` (resized). False on short read.
bool read_buf(std::FILE* f, std::vector<u8>& buf, std::size_t n) {
  buf.resize(n);
  return n == 0 || std::fread(buf.data(), 1, n, f) == n;
}

}  // namespace

bool save_trace(const Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;

  std::vector<u8> buf;
  wire::put_u32(buf, kMagic);
  wire::put_u32(buf, kVersion);
  wire::put_program(buf, trace.program, trace.seed);
  wire::put_u64(buf, trace.records.size());
  if (!write_buf(f.get(), buf)) return false;

  // Records stream through a bounded buffer so a 100M-µop trace never
  // materializes a second multi-GB copy of itself.
  constexpr std::size_t kFlushRecords = 1u << 16;
  buf.clear();
  buf.reserve(kFlushRecords * wire::kRecordBytes);
  std::size_t pending = 0;
  for (const TraceRecord& r : trace.records) {
    wire::put_record(buf, r);
    if (++pending == kFlushRecords) {
      if (!write_buf(f.get(), buf)) return false;
      buf.clear();
      pending = 0;
    }
  }
  return write_buf(f.get(), buf);
}

bool load_trace(Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;

  // Header through the µop table: sized by a bounded fixed prefix, re-read
  // incrementally. Simplest correct approach: slurp the whole file (traces
  // load back only at CI sizes; paper-scale runs stream and never hit disk).
  std::vector<u8> head;
  if (!read_buf(f.get(), head, 2 * sizeof(u32))) return false;
  wire::Reader header(head.data(), head.size());
  u32 magic = 0, version = 0;
  if (!header.get_u32(magic) || magic != kMagic) return false;
  if (!header.get_u32(version) || version != kVersion) return false;

  // Rest of the file.
  std::vector<u8> body;
  {
    constexpr std::size_t kChunk = 1u << 20;
    std::size_t used = 0;
    for (;;) {
      body.resize(used + kChunk);
      const std::size_t got = std::fread(body.data() + used, 1, kChunk, f.get());
      used += got;
      if (got < kChunk) break;
    }
    body.resize(used);
  }

  wire::Reader r(body.data(), body.size());
  if (!r.get_program(trace.program, trace.seed)) return false;

  u64 n_dyn = 0;
  if (!r.get_u64(n_dyn) || n_dyn > (1ull << 33)) return false;
  if (r.remaining() != n_dyn * wire::kRecordBytes) return false;  // truncated/overlong
  trace.records.resize(n_dyn);
  for (TraceRecord& rec : trace.records)
    if (!r.get_record(rec)) return false;

  // Validate pcs so downstream code can index without bounds checks.
  const u32 n_static = static_cast<u32>(trace.program.uops.size());
  for (const TraceRecord& rec : trace.records)
    if (rec.pc >= n_static) return false;
  return true;
}

}  // namespace hcsim
