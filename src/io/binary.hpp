// Binary serialization — load big graphs (and sketch-store snapshots)
// without re-parsing text. Little-endian, versioned headers.
//
// The eimm::bin helpers are the shared on-disk vocabulary: every binary
// format in the project (CSR graphs here, sketch-store snapshots in
// src/serve) is an 8-byte magic + u32 version header followed by PODs
// and length-prefixed POD vectors. Failures throw FormatError (a
// CheckError subclass) naming the section being read and, on seekable
// streams, the byte offset where the failing read began — never UB and
// never a partially populated object: these reads are load-bearing for
// the mmap'ed snapshot path, where a corrupt length field must not turn
// into a multi-exabyte allocation or an out-of-bounds pointer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/csr.hpp"
#include "support/macros.hpp"

namespace eimm {

namespace bin {

/// Thrown on every malformed-input path: carries the section name and
/// the byte offset of the failing read (nullopt on non-seekable
/// streams). Derives CheckError so existing catch sites keep working.
class FormatError : public CheckError {
 public:
  FormatError(const std::string& message, std::string section,
              std::optional<std::uint64_t> offset)
      : CheckError(message),
        section_(std::move(section)),
        offset_(offset) {}

  [[nodiscard]] const std::string& section() const noexcept {
    return section_;
  }
  [[nodiscard]] const std::optional<std::uint64_t>& offset() const noexcept {
    return offset_;
  }

 private:
  std::string section_;
  std::optional<std::uint64_t> offset_;
};

namespace detail {
/// Throws CheckError (EIMM_CHECK only takes literal messages; the bin
/// helpers want the format name in the text).
[[noreturn]] void fail(const std::string& message);
/// Throws FormatError: "<reason> <section> at byte offset N".
[[noreturn]] void fail_section(const char* reason, const char* section,
                               std::optional<std::uint64_t> offset);
inline void require(bool ok, const char* prefix, const char* what) {
  if (!ok) fail(std::string(prefix) + what);
}
/// Failpoint hook for the `io.bin.read` site (defined out of line so the
/// templated readers need not include the failpoint registry): kError
/// throws InjectedFault, kTrunc surfaces as a truncated-read
/// FormatError, exactly like a real short file.
void maybe_inject_read(const char* what, std::optional<std::uint64_t> at);
/// Current read position, or nullopt when the stream is not seekable.
std::optional<std::uint64_t> tell(std::istream& is);
/// Bytes left between the read position and EOF, or nullopt when the
/// stream is not seekable. Guards length-prefixed reads: a corrupted
/// length field must raise FormatError, not a multi-exabyte allocation.
std::optional<std::uint64_t> remaining_bytes(std::istream& is);

/// Reads `size` elements into `out` (a std::vector of PODs or a
/// std::string). When `proven` — a seekable stream showed the bytes are
/// there — the whole length is allocated at once. Otherwise it grows in
/// doubling steps from 64 KiB as bytes arrive, so a corrupt length on a
/// pipe costs about twice the bytes actually read before the short read
/// throws FormatError("<reason> <what>"), never the declared length.
template <typename Container>
void read_into(std::istream& is, Container& out, std::uint64_t size,
               bool proven, const char* reason, const char* what,
               std::optional<std::uint64_t> at) {
  using T = typename Container::value_type;
  constexpr std::uint64_t kChunk = (std::uint64_t{1} << 16) / sizeof(T);
  const std::uint64_t growth_floor = proven ? size : kChunk;
  while (out.size() < size) {
    const std::uint64_t have = out.size();
    const std::uint64_t want = std::min(size, std::max(2 * have, growth_floor));
    out.reserve(want);  // exact: capacity tracks the elements read
    out.resize(want);
    is.read(reinterpret_cast<char*>(out.data() + have),
            static_cast<std::streamsize>((want - have) * sizeof(T)));
    // A payload ending exactly at EOF reads clean (eofbit is only set by
    // reading PAST the end); anything short of the declared length fails.
    if (!is.good()) fail_section(reason, what, at);
  }
}
}  // namespace detail

/// Writes the 8-byte magic (shorter tags are NUL-padded) + version.
void write_header(std::ostream& os, std::string_view magic,
                  std::uint32_t version);

/// Reads and validates a header written by write_header. Returns the
/// stored version; throws FormatError on bad magic or a version not in
/// `accepted` (version negotiation for formats with several live
/// revisions — the caller dispatches on the return value). `what` names
/// the format in error messages ("sketch-store snapshot").
std::uint32_t read_header_any(std::istream& is, std::string_view magic,
                              std::span<const std::uint32_t> accepted,
                              const char* what);

/// Single-version convenience over read_header_any.
std::uint32_t read_header(std::istream& is, std::string_view magic,
                          std::uint32_t expected_version, const char* what);

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void read_pod(std::istream& is, T& v, const char* what = "binary file") {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto at = detail::tell(is);
  detail::maybe_inject_read(what, at);
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is.good()) detail::fail_section("truncated", what, at);
}

template <typename T>
void write_span(std::ostream& os, std::span<const T> v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  write_span(os, std::span<const T>(v));
}

template <typename T>
std::vector<T> read_vec(std::istream& is, const char* what = "binary file") {
  std::uint64_t size = 0;
  read_pod(is, size, what);
  const auto at = detail::tell(is);
  const auto left = detail::remaining_bytes(is);
  // Divide, don't multiply: size * sizeof(T) can wrap u64 for a corrupt
  // length field, silently passing the bound it should fail.
  if (left.has_value() && size > *left / sizeof(T)) {
    detail::fail_section("truncated payload in", what, at);
  }
  std::vector<T> v;
  detail::read_into(is, v, size, left.has_value(), "truncated payload in",
                    what, at);
  return v;
}

void write_string(std::ostream& os, const std::string& s);
std::string read_string(std::istream& is, const char* what = "binary file");

}  // namespace bin

/// Writes the CSR arrays with a magic/version header.
void write_binary_csr(std::ostream& os, const CSRGraph& g);
void write_binary_csr_file(const std::string& path, const CSRGraph& g);

/// Reads a graph previously written by write_binary_csr. Throws
/// FormatError on bad magic, version, or truncated payload.
CSRGraph read_binary_csr(std::istream& is);
CSRGraph read_binary_csr_file(const std::string& path);

}  // namespace eimm
