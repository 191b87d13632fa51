// RV64GC machine-code decoder (the paper's Capstone substitute, §3.2.2).
//
// Decodes standard 32-bit encodings via the shared opcode table and
// 16-bit C-extension encodings by expansion to their canonical base-ISA
// form. The decoder is restricted to a profile (ExtensionSet): bytes that
// decode to an instruction outside the profile are reported as invalid,
// mirroring how a real hart without that extension would trap.
//
// Two implementations coexist:
//  - the fast path (decode32/decode16) dispatches through precomputed
//    tables built once at startup (see decode_table.hpp);
//  - the reference path (decode32_linear/decode16_linear) keeps the
//    original popcount-sorted bucket scan and quadrant switch, serving as
//    the oracle for the differential fuzz tests.
// Both must stay bit-identical; tests/test_decode_fastpath.cpp enforces it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "isa/extensions.hpp"
#include "isa/instruction.hpp"
#include "obs/stats.hpp"

namespace rvdyn::isa {

/// True when the first parcel of an encoding indicates a 16-bit
/// (compressed) instruction: the two low bits are not 0b11.
constexpr bool is_compressed_encoding(std::uint16_t first_halfword) {
  return (first_halfword & 0x3) != 0x3;
}

namespace detail {
/// Tag for the table builders' internal Decoder: skips eager table warming
/// (the public constructor triggers it, which would recurse mid-build) and
/// keeps the build's reference decodes out of the registry, since no guest
/// made them.
struct NoTableWarm {};
}  // namespace detail

/// Per-decoder traffic tallies (observability builds only; always zero when
/// RVDYN_OBS_ENABLED=0). Fast = the table dispatch path, linear = the
/// reference match/mask scan kept for differential testing. Plain non-atomic
/// fields so the hot decode loop pays one increment, flushed in bulk into
/// obs::Registry by publish_stats() / the destructor.
#define RVDYN_ISA_DECODE_STATS(X)                                      \
  /* table-path successes, encodings that did not decode, and calls of \
     the reference decode32_linear / decode16_linear */                \
  X(fast32, "rvdyn.isa.decode32.fast")                                 \
  X(fast16, "rvdyn.isa.decode16.fast")                                 \
  X(fail32, "rvdyn.isa.decode32.fail")                                 \
  X(fail16, "rvdyn.isa.decode16.fail")                                 \
  X(linear32, "rvdyn.isa.decode32.linear")                             \
  X(linear16, "rvdyn.isa.decode16.linear")
struct DecodeStats {
  RVDYN_STATS(DecodeStats, RVDYN_ISA_DECODE_STATS)
};

class Decoder {
 public:
  /// `profile` restricts which extensions the decoder accepts. Construction
  /// builds the shared dispatch/RVC tables on first use, so decode latency
  /// is flat from the very first call.
  explicit Decoder(ExtensionSet profile = ExtensionSet::rv64gc());

  Decoder(ExtensionSet profile, detail::NoTableWarm)
      : profile_(profile), publishes_(false) {}

  /// Flushes any unpublished decode tallies into obs::Registry.
  ~Decoder();

  // Copies share the profile but never the tallies (each instance flushes
  // its own counts exactly once).
  Decoder(const Decoder& o) : profile_(o.profile_) {}
  Decoder& operator=(const Decoder& o) {
    profile_ = o.profile_;
    return *this;
  }

  ExtensionSet profile() const { return profile_; }

  /// This decoder's unflushed tallies (zeros when observability is off).
  const DecodeStats& decode_stats() const { return dstats_; }

  /// Add the tallies into the `rvdyn.isa.*` registry counters and zero the
  /// local copy. Called automatically on destruction; call explicitly to
  /// snapshot metrics while a long-lived decoder is still in use.
  void publish_stats() const;

  /// Decode one instruction from `buf`. Returns the number of bytes
  /// consumed (2 or 4); returns 0 if the bytes do not decode to a valid
  /// in-profile instruction or `size` is too small. On success `*out`
  /// holds the decoded instruction.
  unsigned decode(const std::uint8_t* buf, std::size_t size,
                  Instruction* out) const;

  /// Decode a 32-bit standard encoding. Returns false on failure.
  bool decode32(std::uint32_t word, Instruction* out) const;

  /// Decode a 16-bit compressed encoding into its base-ISA expansion
  /// (Instruction::compressed() will be true). Returns false on failure.
  bool decode16(std::uint16_t half, Instruction* out) const;

  /// Reference implementation of decode32: linear match/mask scan over the
  /// popcount-sorted opcode bucket. Slow; kept for differential testing and
  /// as executable documentation of the decode semantics.
  bool decode32_linear(std::uint32_t word, Instruction* out) const;

  /// Reference implementation of decode16: the hand-written quadrant
  /// switch. Slow; kept for differential testing (and used once at startup
  /// to build the 64K predecoded RVC table).
  bool decode16_linear(std::uint16_t half, Instruction* out) const;

  /// Batch-decode consecutive instructions from `buf`. For each decoded
  /// instruction, calls `fn(offset, insn, len)`; when `fn` returns false,
  /// decoding stops after that instruction. Stops at the first undecodable
  /// encoding or when fewer bytes remain than the next instruction needs.
  /// Returns the number of bytes consumed. The per-call overhead of
  /// repeated decode() entry (bounds checks, parcel re-reads) is hoisted
  /// out of the loop, so this is the preferred API for byte scanning
  /// (ParseAPI block parsing, gap scanning).
  template <typename Fn>
  std::size_t decode_range(const std::uint8_t* buf, std::size_t size,
                           Fn&& fn) const {
    std::size_t off = 0;
    Instruction insn;
    while (size - off >= 2) {
      const std::uint16_t half =
          static_cast<std::uint16_t>(buf[off] | (buf[off + 1] << 8));
      unsigned len;
      if (is_compressed_encoding(half)) {
        if (!decode16(half, &insn)) break;
        len = 2;
      } else {
        if (size - off < 4) break;
        const std::uint32_t word =
            static_cast<std::uint32_t>(buf[off]) |
            (static_cast<std::uint32_t>(buf[off + 1]) << 8) |
            (static_cast<std::uint32_t>(buf[off + 2]) << 16) |
            (static_cast<std::uint32_t>(buf[off + 3]) << 24);
        if (!decode32(word, &insn)) break;
        len = 4;
      }
      const bool keep_going = fn(off, std::as_const(insn), len);
      off += len;
      if (!keep_going) break;
    }
    return off;
  }

 private:
  ExtensionSet profile_;
  bool publishes_ = true;  ///< false for the table builders' decoder
  mutable DecodeStats dstats_;
};

}  // namespace rvdyn::isa
