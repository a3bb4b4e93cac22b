// Versioned binary serialization for checkpoint/restore (docs/SHARDING.md).
//
// Chain checkpoints carry a 0-ULP resume guarantee: a restored run must
// produce bit-identical likelihoods to the uninterrupted one. That rules out
// any text round-trip (decimal formatting is lossy) and any "recompute it on
// load" shortcut for accumulated floating-point state, so every writer in the
// project goes through this one pair of classes (enforced by the plf_lint
// `checkpoint-serializer` rule):
//
//   - integers and IEEE-754 doubles/floats are written as their exact
//     little-endian bit patterns (memcpy through uint64/uint32 — never a
//     value-changing conversion);
//   - every section starts with a 32-bit tag so a reader that drifts out of
//     sync fails loudly instead of reinterpreting garbage;
//   - the stream starts with a magic number plus a format version, checked on
//     open, so an old binary refuses a new checkpoint (and vice versa) with a
//     real error message instead of undefined behavior.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace plf::util {

/// Stream magic: "PLFCKPT\0" as a little-endian u64.
inline constexpr std::uint64_t kCheckpointMagic = 0x00545048'43464C50ull;

/// Format version of the whole checkpoint container. Bump on ANY layout
/// change and document the delta in docs/SHARDING.md.
///   v2: MC3C gained a trailing "TDIA" section (streaming-ESS accumulator +
///       per-pair swap tallies) so live telemetry resumes bit-consistently.
///   v3: engine NODE entries carry the active cumulative log-scaler row
///       (f64) instead of the f32 scaler row; SCLR keeps only the cached
///       likelihood and its validity flag.
///   v4: engine NODE entries carry the active buffer's stored row count
///       (u64) and only that many cumulative-scaler and CLV rows — one per
///       repeat class when the node is compacted; ENGI gains the effective
///       site-repeats policy (u8) those row layouts follow.
///   v5: engine NODE entries carry the cumulative scaler-count row as i32
///       (the exact power-of-two rescale counts exponents) instead of f64
///       log scalers.
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// Writes length-prefixed, tag-framed little-endian binary. All `u64`/`f64`
/// writes are exact bit copies; the header (magic + version) is written by
/// the constructor.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os);

  /// Open a tagged section. Tags are 4-char codes ("TREE", "RNGS", ...);
  /// readers must consume sections in the same order.
  void section(const char (&tag)[5]);

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Exact IEEE-754 bit pattern, never a formatted value.
  void f64(double v);
  void f32(float v);
  void str(const std::string& s);

  void f32_array(const float* data, std::size_t n);
  void f64_array(const double* data, std::size_t n);
  void i32_array(const std::int32_t* data, std::size_t n);
  void u64_array(const std::uint64_t* data, std::size_t n);

 private:
  void raw(const void* data, std::size_t n);
  std::ostream& os_;
};

/// Mirror of BinaryWriter. Construction validates magic + version and throws
/// plf::Error on mismatch; every accessor throws on truncated input, and
/// `section` throws if the next tag is not the expected one.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is);

  void section(const char (&tag)[5]);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  float f32();
  std::string str();

  std::vector<float> f32_array();
  std::vector<double> f64_array();
  std::vector<std::int32_t> i32_array();
  std::vector<std::uint64_t> u64_array();

  /// Container format version read from the header.
  std::uint32_t version() const { return version_; }

 private:
  void raw(void* data, std::size_t n);
  std::istream& is_;
  std::uint32_t version_ = 0;
};

}  // namespace plf::util
