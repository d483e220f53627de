// hcsim — buffer-level v3 trace wire format.
//
// One packed encoding of programs and trace records for the file
// serializer (trace_io.cpp), whose integer and string packing the hcsimd
// protocol (src/svc) shares: every field is written individually in
// little-endian order, so the bytes carry no struct padding and are
// identical across builds and processes. The Reader side is bounds-checked
// and validating — a truncated or corrupt buffer yields `false`, never an
// out-of-range read or a poisoned Program.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/types.hpp"

namespace hcsim::wire {

/// Packed v3 sizes (field-by-field, no padding).
inline constexpr std::size_t kRecordBytes = 7 * sizeof(u32) + 1;  // 29
inline constexpr std::size_t kUopBytes = 2 * sizeof(u32) + 6;     // 14

// --- byte order -------------------------------------------------------------
// The format is little-endian by definition. These helpers spell the byte
// order out (instead of memcpy'ing the host representation) so the encode
// and decode sides agree on every host; on little-endian machines they
// compile down to plain loads and stores.

inline u32 load_u32le(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

inline void store_u32le(u8* p, u32 v) {
  p[0] = static_cast<u8>(v);
  p[1] = static_cast<u8>(v >> 8);
  p[2] = static_cast<u8>(v >> 16);
  p[3] = static_cast<u8>(v >> 24);
}

inline u64 load_u64le(const u8* p) {
  return static_cast<u64>(load_u32le(p)) | static_cast<u64>(load_u32le(p + 4)) << 32;
}

inline void store_u64le(u8* p, u64 v) {
  store_u32le(p, static_cast<u32>(v));
  store_u32le(p + 4, static_cast<u32>(v >> 32));
}

// --- writing ----------------------------------------------------------------

inline void put_u8(std::vector<u8>& buf, u8 v) { buf.push_back(v); }

inline void put_u32(std::vector<u8>& buf, u32 v) {
  const std::size_t off = buf.size();
  buf.resize(off + sizeof(v));
  store_u32le(buf.data() + off, v);
}

inline void put_u64(std::vector<u8>& buf, u64 v) {
  const std::size_t off = buf.size();
  buf.resize(off + sizeof(v));
  store_u64le(buf.data() + off, v);
}

/// u32 length prefix + raw bytes (the v3 string encoding).
void put_string(std::vector<u8>& buf, const std::string& s);

void put_uop(std::vector<u8>& buf, const StaticUop& u);
void put_record(std::vector<u8>& buf, const TraceRecord& r);

/// name, seed, n_uops, then per-µop (uop, branch_target) — the v3 program
/// section layout of save_trace.
void put_program(std::vector<u8>& buf, const Program& program, u64 seed);

// --- reading ----------------------------------------------------------------

/// Bounds-checked sequential reader over a byte buffer. Every getter
/// returns false on truncation (and on semantic violations where noted);
/// the cursor position is unspecified after a failure.
class Reader {
 public:
  Reader(const u8* data, std::size_t size) : p_(data), end_(data + size) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  bool get_u8(u8& v);
  bool get_u32(u32& v);
  bool get_u64(u64& v);
  /// Rejects lengths above `max_len` (corrupt prefix, not a real string).
  bool get_string(std::string& s, u32 max_len = 1u << 20);
  /// Validates opcode range and register ids (they index fixed arrays
  /// downstream) like load_trace does.
  bool get_uop(StaticUop& u);
  bool get_record(TraceRecord& r);
  /// Program section; rejects corrupt µop counts. Record pcs are validated
  /// against the program by the caller (records arrive separately).
  bool get_program(Program& program, u64& seed);

 private:
  const u8* p_;
  const u8* end_;
};

}  // namespace hcsim::wire
