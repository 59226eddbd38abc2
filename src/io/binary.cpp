#include "io/binary.hpp"

#include <cstring>
#include <fstream>

#include "io/write_file.hpp"
#include "support/failpoint.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace bin {

namespace detail {

void fail(const std::string& message) { throw CheckError(message); }

void maybe_inject_read(const char* what, std::optional<std::uint64_t> at) {
  if (fail::inject("io.bin.read")) {
    fail_section("truncated (injected fault)", what, at);
  }
}

void fail_section(const char* reason, const char* section,
                  std::optional<std::uint64_t> offset) {
  std::string message = std::string(reason) + ' ' + section;
  if (offset.has_value()) {
    message += " at byte offset " + std::to_string(*offset);
  }
  throw FormatError(message, section, offset);
}

std::optional<std::uint64_t> tell(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  return static_cast<std::uint64_t>(pos);
}

std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return std::nullopt;
  return static_cast<std::uint64_t>(end - pos);
}

}  // namespace detail

void write_header(std::ostream& os, std::string_view magic,
                  std::uint32_t version) {
  EIMM_CHECK(magic.size() <= 8, "binary magic longer than 8 bytes");
  char padded[8] = {};
  std::memcpy(padded, magic.data(), magic.size());
  os.write(padded, sizeof padded);
  write_pod(os, version);
}

void read_header(std::istream& is, std::string_view magic,
                 std::uint32_t expected_version, const char* what) {
  EIMM_CHECK(magic.size() <= 8, "binary magic longer than 8 bytes");
  char expected[8] = {};
  std::memcpy(expected, magic.data(), magic.size());
  char found[8] = {};
  const auto at = detail::tell(is);
  is.read(found, sizeof found);
  if (!is.good() || std::memcmp(found, expected, sizeof found) != 0) {
    detail::fail_section("not a recognized", what, at);
  }
  std::uint32_t version = 0;
  read_pod(is, version, what);
  if (version != expected_version) {
    const auto ver_at = detail::tell(is);
    throw FormatError(std::string("unsupported version ") +
                          std::to_string(version) + " of " + what,
                      what, ver_at);
  }
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is, const char* what) {
  std::uint64_t size = 0;
  read_pod(is, size, what);
  const auto at = detail::tell(is);
  const auto left = detail::remaining_bytes(is);
  if (left.has_value() && size > *left) {
    detail::fail_section("truncated string in", what, at);
  }
  std::string s;
  detail::read_into(is, s, size, left.has_value(), "truncated string in",
                    what, at);
  return s;
}

}  // namespace bin

namespace {

constexpr std::string_view kCsrMagic = "EIMMCSR";
constexpr std::uint32_t kCsrVersion = 1;
constexpr const char* kCsrWhat = "EfficientIMM binary graph file";

}  // namespace

void write_binary_csr(std::ostream& os, const CSRGraph& g) {
  bin::write_header(os, kCsrMagic, kCsrVersion);
  bin::write_pod(os, static_cast<std::uint8_t>(g.has_weights() ? 1 : 0));
  bin::write_vec(os, g.offsets());
  bin::write_vec(os, g.targets());
  if (g.has_weights()) bin::write_vec(os, g.raw_weights());
}

void write_binary_csr_file(const std::string& path, const CSRGraph& g) {
  write_file(path, "binary graph file",
             [&](std::ostream& os) { write_binary_csr(os, g); });
}

CSRGraph read_binary_csr(std::istream& is) {
  bin::read_header(is, kCsrMagic, kCsrVersion, kCsrWhat);
  std::uint8_t weighted = 0;
  bin::read_pod(is, weighted, kCsrWhat);
  auto offsets = bin::read_vec<EdgeId>(is, "graph offsets");
  auto targets = bin::read_vec<VertexId>(is, "graph targets");
  std::vector<float> weights;
  if (weighted != 0) weights = bin::read_vec<float>(is, "graph weights");
  return CSRGraph(std::move(offsets), std::move(targets), std::move(weights));
}

CSRGraph read_binary_csr_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EIMM_CHECK(is.good(), "cannot open binary graph file");
  return read_binary_csr(is);
}

}  // namespace eimm
