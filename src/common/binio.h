#ifndef CREW_COMMON_BINIO_H_
#define CREW_COMMON_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/value.h"

namespace crew {

/// The binary primitives of every record the program writes and reads
/// back — wire payloads, frames, trace shards, WAL and snapshot rows
/// (see DESIGN.md §5i): LEB128 varints, zigzag-mapped signed ints,
/// length-prefixed byte slices, little-endian fixed64 doubles, and a
/// Value as a kind byte and its payload.
///
/// BinWriter writes through a raw cursor into a caller-owned string that
/// was presized to an upper bound — the serialize hot path does exactly
/// one allocation and no per-field bounds checks. Writing past the bound
/// is UB, so each encoder derives its bound from the same walk that
/// writes: wire messages and trace shards from one field list
/// (runtime/fields.h), storage rows from their fields in order.
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


// ---- Value as a binary composite: [kind byte][payload] ----
// Kinds: 0 null, 1 false, 2 true, 3 int (zigzag varint), 4 double
// (fixed64), 5 string (length-prefixed bytes).

inline size_t ValueBound(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
    case Value::Kind::kBool:
      return 1;
    case Value::Kind::kInt:
      return 1 + kMaxVarintBytes;
    case Value::Kind::kDouble:
      return 1 + 8;
    case Value::Kind::kString:
      return 1 + BytesBound(v.AsString());
  }
  return 1;
}

inline void WriteValue(BinWriter& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      w.U8(0);
      break;
    case Value::Kind::kBool:
      w.U8(v.AsBool() ? 2 : 1);
      break;
    case Value::Kind::kInt:
      w.U8(3);
      w.Zig(v.AsInt());
      break;
    case Value::Kind::kDouble:
      w.U8(4);
      w.F64(v.AsDouble());
      break;
    case Value::Kind::kString:
      w.U8(5);
      w.Bytes(v.AsString());
      break;
  }
}

inline bool ReadValue(BinReader& r, Value* out) {
  uint8_t kind;
  if (!r.U8(&kind)) return false;
  switch (kind) {
    case 0:
      *out = Value();
      return true;
    case 1:
      *out = Value(false);
      return true;
    case 2:
      *out = Value(true);
      return true;
    case 3: {
      int64_t i;
      if (!r.Zig(&i)) return false;
      *out = Value(i);
      return true;
    }
    case 4: {
      double d;
      if (!r.F64(&d)) return false;
      *out = Value(d);
      return true;
    }
    case 5: {
      std::string_view s;
      if (!r.Bytes(&s)) return false;
      *out = Value(std::string(s));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace crew

#endif  // CREW_COMMON_BINIO_H_
