#include "util/serialize.hpp"

#include <cstring>
#include <istream>
#include <ostream>

#include "util/error.hpp"

namespace plf::util {

namespace {

std::uint32_t tag_code(const char (&tag)[5]) {
  std::uint32_t code = 0;
  std::memcpy(&code, tag, 4);
  return code;
}

std::string tag_name(std::uint32_t code) {
  char buf[5] = {};
  std::memcpy(buf, &code, 4);
  return std::string(buf, 4);
}

}  // namespace

// --- writer ---

BinaryWriter::BinaryWriter(std::ostream& os) : os_(os) {
  u64(kCheckpointMagic);
  u32(kCheckpointVersion);
}

void BinaryWriter::raw(const void* data, std::size_t n) {
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!os_) throw Error("checkpoint write failed (stream error)");
}

void BinaryWriter::section(const char (&tag)[5]) { u32(tag_code(tag)); }

void BinaryWriter::u8(std::uint8_t v) { raw(&v, sizeof v); }
void BinaryWriter::u32(std::uint32_t v) { raw(&v, sizeof v); }
void BinaryWriter::u64(std::uint64_t v) { raw(&v, sizeof v); }
void BinaryWriter::i64(std::int64_t v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}
void BinaryWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}
void BinaryWriter::f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}
void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  if (!s.empty()) raw(s.data(), s.size());
}

void BinaryWriter::f32_array(const float* data, std::size_t n) {
  u64(n);
  if (n != 0) raw(data, n * sizeof(float));
}
void BinaryWriter::f64_array(const double* data, std::size_t n) {
  u64(n);
  if (n != 0) raw(data, n * sizeof(double));
}
void BinaryWriter::i32_array(const std::int32_t* data, std::size_t n) {
  u64(n);
  if (n != 0) raw(data, n * sizeof(std::int32_t));
}
void BinaryWriter::u64_array(const std::uint64_t* data, std::size_t n) {
  u64(n);
  if (n != 0) raw(data, n * sizeof(std::uint64_t));
}

// --- reader ---

BinaryReader::BinaryReader(std::istream& is) : is_(is) {
  const std::uint64_t magic = u64();
  if (magic != kCheckpointMagic) {
    throw Error("checkpoint: bad magic (not a plf checkpoint file)");
  }
  version_ = u32();
  if (version_ != kCheckpointVersion) {
    throw Error("checkpoint: format version " + std::to_string(version_) +
                " unsupported (this build reads version " +
                std::to_string(kCheckpointVersion) + ")");
  }
}

void BinaryReader::raw(void* data, std::size_t n) {
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_.gcount()) != n) {
    throw Error("checkpoint: truncated stream");
  }
}

void BinaryReader::section(const char (&tag)[5]) {
  const std::uint32_t expect = tag_code(tag);
  const std::uint32_t got = u32();
  if (got != expect) {
    throw Error("checkpoint: expected section '" + tag_name(expect) +
                "', found '" + tag_name(got) + "' (corrupt or out-of-order)");
  }
}

std::uint8_t BinaryReader::u8() {
  std::uint8_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint32_t BinaryReader::u32() {
  std::uint32_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint64_t BinaryReader::u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::int64_t BinaryReader::i64() {
  const std::uint64_t bits = u64();
  std::int64_t v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}
double BinaryReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}
float BinaryReader::f32() {
  const std::uint32_t bits = u32();
  float v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}
std::string BinaryReader::str() {
  const std::uint64_t n = u64();
  std::string s(n, '\0');
  if (n != 0) raw(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::f32_array() {
  const std::uint64_t n = u64();
  std::vector<float> v(n);
  if (n != 0) raw(v.data(), n * sizeof(float));
  return v;
}
std::vector<double> BinaryReader::f64_array() {
  const std::uint64_t n = u64();
  std::vector<double> v(n);
  if (n != 0) raw(v.data(), n * sizeof(double));
  return v;
}
std::vector<std::int32_t> BinaryReader::i32_array() {
  const std::uint64_t n = u64();
  std::vector<std::int32_t> v(n);
  if (n != 0) raw(v.data(), n * sizeof(std::int32_t));
  return v;
}
std::vector<std::uint64_t> BinaryReader::u64_array() {
  const std::uint64_t n = u64();
  std::vector<std::uint64_t> v(n);
  if (n != 0) raw(v.data(), n * sizeof(std::uint64_t));
  return v;
}

}  // namespace plf::util
