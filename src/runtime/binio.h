#ifndef CREW_RUNTIME_BINIO_H_
#define CREW_RUNTIME_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace crew::runtime {

/// Low-level primitives of the binary payload codec (see DESIGN.md §5i):
/// LEB128 varints, zigzag-mapped signed ints, length-prefixed byte
/// slices and little-endian fixed64 doubles.
///
/// BinWriter writes through a raw cursor into a caller-owned string that
/// was presized to an upper bound — the serialize hot path does exactly
/// one allocation and no per-field bounds checks. Writing past the bound
/// is UB, so no message computes its bound by hand: each wire message
/// lists its layout once (runtime/fields.h), and the same list drives
/// the bound, the writes and the reads.
///
/// BinReader is a bounds-checked cursor over a string_view; every Read*
/// returns false on overrun instead of throwing, and byte-slice reads
/// return views into the input (zero-copy — the caller interns or copies
/// only where an owned string is genuinely needed).

inline constexpr size_t kMaxVarintBytes = 10;

/// Upper bound for a length-prefixed byte slice.
inline size_t BytesBound(std::string_view s) { return 5 + s.size(); }

class BinWriter {
 public:
  /// Presizes *out to `bound` bytes (contents uninitialized past the
  /// cursor until written). Finish() trims to what was actually written.
  BinWriter(std::string* out, size_t bound) : out_(out) {
    out_->resize(bound);
    p_ = out_->data();
  }

  void U8(uint8_t v) { *p_++ = static_cast<char>(v); }

  void Varint(uint64_t v) {
    while (v >= 0x80) {
      *p_++ = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    *p_++ = static_cast<char>(v);
  }

  void Zig(int64_t v) {
    Varint((static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63));
  }

  void Raw(const void* data, size_t n) {
    std::memcpy(p_, data, n);
    p_ += n;
  }

  void Bytes(std::string_view s) {
    Varint(s.size());
    Raw(s.data(), s.size());
  }

  void F64(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    for (int i = 0; i < 8; ++i) {
      *p_++ = static_cast<char>(bits & 0xff);
      bits >>= 8;
    }
  }

  size_t Finish() {
    size_t n = static_cast<size_t>(p_ - out_->data());
    out_->resize(n);
    return n;
  }

 private:
  std::string* out_;
  char* p_ = nullptr;
};

class BinReader {
 public:
  explicit BinReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  bool done() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  bool U8(uint8_t* v) {
    if (p_ == end_) return false;
    *v = static_cast<uint8_t>(*p_++);
    return true;
  }

  bool Varint(uint64_t* v) {
    // Fast path: single byte (the overwhelmingly common case for field
    // tags, counts, small ids).
    if (p_ != end_ && !(*p_ & 0x80)) {
      *v = static_cast<uint8_t>(*p_++);
      return true;
    }
    uint64_t result = 0;
    int shift = 0;
    while (p_ != end_ && shift < 64) {
      uint8_t byte = static_cast<uint8_t>(*p_++);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) {
        *v = result;
        return true;
      }
      shift += 7;
    }
    return false;
  }

  bool Zig(int64_t* v) {
    uint64_t raw;
    if (!Varint(&raw)) return false;
    *v = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }

  /// Zero-copy: *out views into the underlying buffer.
  bool Bytes(std::string_view* out) {
    uint64_t n;
    if (!Varint(&n)) return false;
    if (n > remaining()) return false;
    *out = std::string_view(p_, static_cast<size_t>(n));
    p_ += n;
    return true;
  }

  bool F64(double* d) {
    if (remaining() < 8) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(p_[i])) << (8 * i);
    }
    p_ += 8;
    std::memcpy(d, &bits, 8);
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_BINIO_H_
