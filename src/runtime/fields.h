#ifndef CREW_RUNTIME_FIELDS_H_
#define CREW_RUNTIME_FIELDS_H_

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "runtime/codec.h"
#include "runtime/packet.h"

namespace crew::runtime {

/// The field-list codec (DESIGN.md §5i). Every wire message describes
/// its layout once, in a static `Fields(m, f)` next to its struct
/// (runtime/wire.h, runtime/packet.h): one call per field, in wire
/// order,
///
///   f.Int(n, m.x)        zigzag varint
///   f.Enum(n, m.s, max)  zigzag varint; Parse reads a value outside
///                        [0, max] as the enum's zero (kUnknown)
///   f.Flag(n, m.b)       varint 0 or 1; Parse reads non-zero as true
///   f.Ppm(n, m.d)        a fraction as whole parts per million
///   f.Str(n, m.s)        length-prefixed bytes
///   f.Map(n, m.table)    counted section of key/value entries
///   f.List(n, m.items)   counted section of entries
///   f.Packet(n, m.p)     a nested WorkflowPacket as length-prefixed bytes
///
/// where n is the field number, and `if (f.Has(cond)) { ... }` around
/// fields that stay off the wire unless `cond` holds. Map and List
/// sections stay off the wire when empty. A trailing kRequired makes
/// Parse reject a payload without the field, kNonEmpty one whose field
/// is absent or empty.
///
/// Four visitors walk a list: SizeBound (the BinWriter bound),
/// FieldWriter (the bytes), FieldReader (one tag at a time) and
/// RuleCheck (kRequired / kNonEmpty, after the last tag). The list is a
/// template, so every message gets a straight-line encoder with one
/// allocation and a decoder with no table lookups.

/// A field tag is one byte: (field number << 2) | wire type.
enum WireType : uint8_t { kVarint = 0, kBytes = 1 };

constexpr uint8_t Tag(int field, WireType type) {
  return static_cast<uint8_t>((field << 2) | type);
}

/// Longest zigzag varint of an integer of type T.
template <class T>
constexpr size_t VarintBound() {
  return (sizeof(T) * 8 + 6) / 7;
}

// ---- Section entries: untagged values in a fixed order ----
//
// Scalars are strings (length-prefixed bytes), bools (one byte), other
// integers and enums (zigzag varints), Values (common/binio.h) and
// event tokens (their name as bytes). Compound entries list their
// scalars in EntryFields.

/// An interned event token that travels as its name.
template <class T>
struct TokenName {
  T& token;
};

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Integers and enums: section entries as zigzag varints.
template <class T>
concept IntLike = std::integral<T> || std::is_enum_v<T>;

template <Is<InstanceId> E, class F>
void EntryFields(E& id, F&& f) {
  f(id.workflow);
  f(id.number);
}
template <Is<EventOcc> E, class F>
void EntryFields(E& e, F&& f) {
  f(TokenName{e.token});
  f(e.occ);
  f(e.epoch);
}
template <Is<RoLink> E, class F>
void EntryFields(E& link, F&& f) {
  f(link.other.workflow);
  f(link.other.number);
  f(link.my_step);
  f(link.other_step);
  f(link.leading);
}
template <Is<RdLink> E, class F>
void EntryFields(E& link, F&& f) {
  f(link.other.workflow);
  f(link.other.number);
  f(link.my_step);
  f(link.other_step);
}
/// A key/value entry of a Map section.
template <class P, class F>
  requires requires { typename P::second_type; }
void EntryFields(P& entry, F&& f) {
  f(entry.first);
  f(entry.second);
}

template <class E>
concept Compound = requires(E& e) { EntryFields(e, [](auto&&) {}); };

inline size_t EntryBound(const std::string& s) { return BytesBound(s); }
inline size_t EntryBound(bool) { return 1; }
template <IntLike T>
size_t EntryBound(T) {
  return VarintBound<T>();
}
inline size_t EntryBound(const Value& v) { return ValueBound(v); }
template <class T>
size_t EntryBound(TokenName<T> t) {
  return BytesBound(rules::TokenName(t.token));
}
template <Compound E>
size_t EntryBound(const E& e) {
  size_t n = 0;
  EntryFields(e, [&](const auto& x) { n += EntryBound(x); });
  return n;
}

inline void WriteEntry(BinWriter& w, const std::string& s) { w.Bytes(s); }
inline void WriteEntry(BinWriter& w, bool b) { w.U8(b ? 1 : 0); }
template <IntLike T>
void WriteEntry(BinWriter& w, T v) {
  w.Zig(static_cast<int64_t>(v));
}
inline void WriteEntry(BinWriter& w, const Value& v) { WriteValue(w, v); }
template <class T>
void WriteEntry(BinWriter& w, TokenName<T> t) {
  w.Bytes(rules::TokenName(t.token));
}
template <Compound E>
void WriteEntry(BinWriter& w, const E& e) {
  EntryFields(e, [&](const auto& x) { WriteEntry(w, x); });
}

/// Map keys are read as views into the payload, so each is copied once,
/// straight into its table.
inline bool ReadEntry(BinReader& r, std::string_view* s) {
  return r.Bytes(s);
}
inline bool ReadEntry(BinReader& r, std::string* s) {
  std::string_view bytes;
  if (!r.Bytes(&bytes)) return false;
  s->assign(bytes);
  return true;
}
inline bool ReadEntry(BinReader& r, bool* b) {
  uint8_t byte;
  if (!r.U8(&byte)) return false;
  *b = byte != 0;
  return true;
}
/// An enum entry may read as a value the enum does not name.
template <IntLike T>
bool ReadEntry(BinReader& r, T* v) {
  int64_t x;
  if (!r.Zig(&x)) return false;
  *v = static_cast<T>(x);
  return true;
}
inline bool ReadEntry(BinReader& r, Value* v) { return ReadValue(r, v); }
template <class T>
bool ReadEntry(BinReader& r, TokenName<T>* t) {
  std::string_view name;
  if (!r.Bytes(&name)) return false;
  t->token = rules::InternToken(name);
  return true;
}
template <Compound E>
bool ReadEntry(BinReader& r, E* e) {
  bool ok = true;
  EntryFields(*e, [&](auto&& x) { ok = ok && ReadEntry(r, &x); });
  return ok;
}

/// Reads a section's entry count. Every entry takes at least one byte,
/// so a count past the bytes left is malformed (and never reserved).
inline bool ReadCount(BinReader& r, uint64_t* count) {
  return r.Varint(count) && *count <= r.remaining();
}

template <class C>
void Reserve(C* c, uint64_t count) {
  if constexpr (requires { c->reserve(size_t{0}); }) {
    c->reserve(c->size() + count);
  }
}

// ---- Field kinds: how one tagged field is bounded, written and read ----

template <class Msg>
size_t EncodedBound(const Msg& m);
template <class Msg>
std::string EncodeFields(const Msg& m);
template <class Msg>
Result<Msg> DecodeFields(std::string_view payload, const char* name);

struct AlwaysWritten {
  template <class T>
  static bool Omitted(const T&) {
    return false;
  }
};

/// An integer or a string, encoded as a section entry of its type.
template <WireType type>
struct ScalarKind : AlwaysWritten {
  static constexpr WireType kType = type;
  template <class T>
  static size_t Bound(const T& v) {
    return EntryBound(v);
  }
  template <class T>
  static void Write(BinWriter& w, const T& v) {
    WriteEntry(w, v);
  }
  template <class T>
  static bool Read(BinReader& r, T* v) {
    return ReadEntry(r, v);
  }
};
using IntKind = ScalarKind<kVarint>;
using StrKind = ScalarKind<kBytes>;

template <class E>
struct EnumKind : AlwaysWritten {
  static constexpr WireType kType = kVarint;
  E max;
  static size_t Bound(E) { return kMaxVarintBytes; }
  static void Write(BinWriter& w, E v) { w.Zig(static_cast<int64_t>(v)); }
  bool Read(BinReader& r, E* v) const {
    int64_t x;
    if (!r.Zig(&x)) return false;
    *v = x >= 0 && x <= static_cast<int64_t>(max) ? static_cast<E>(x) : E{};
    return true;
  }
};

struct FlagKind : AlwaysWritten {
  static constexpr WireType kType = kVarint;
  static size_t Bound(bool) { return 1; }
  static void Write(BinWriter& w, bool v) { w.Zig(v ? 1 : 0); }
  static bool Read(BinReader& r, bool* v) {
    int64_t x;
    if (!r.Zig(&x)) return false;
    *v = x != 0;
    return true;
  }
};

/// Rounded to the nearest ppm, so a parsed fraction re-encodes to the
/// same bytes; the clamp keeps |ppm| <= 1e15, where ppm -> double ->
/// ppm is exact even for a hostile input.
struct PpmKind : AlwaysWritten {
  static constexpr WireType kType = kVarint;
  static size_t Bound(double) { return kMaxVarintBytes; }
  static void Write(BinWriter& w, double v) {
    w.Zig(std::llround(std::clamp(v, -1e9, 1e9) * 1'000'000));
  }
  static bool Read(BinReader& r, double* v) {
    int64_t ppm;
    if (!r.Zig(&ppm)) return false;
    *v = static_cast<double>(ppm) / 1'000'000.0;
    return true;
  }
};

/// A counted section: tag, entry count, then that many entries.
struct ListKind {
  static constexpr WireType kType = kVarint;
  template <class C>
  static bool Omitted(const C& c) {
    return c.empty();
  }
  template <class C>
  static size_t Bound(const C& c) {
    size_t n = 5;
    for (const auto& e : c) n += EntryBound(e);
    return n;
  }
  template <class C>
  static void Write(BinWriter& w, const C& c) {
    w.Varint(c.size());
    for (const auto& e : c) WriteEntry(w, e);
  }
  template <class C>
  static bool Read(BinReader& r, C* c) {
    uint64_t count;
    if (!ReadCount(r, &count)) return false;
    Reserve(c, count);
    for (uint64_t i = 0; i < count; ++i) {
      typename C::value_type e;
      if (!ReadEntry(r, &e)) return false;
      c->push_back(std::move(e));
    }
    return true;
  }
};

/// A section of key/value entries. Parse inserts them into the table:
/// std::map keeps the first of two equal keys, FlatMap the last.
struct MapKind : ListKind {
  template <class C>
  static bool Read(BinReader& r, C* c) {
    using Key = std::remove_const_t<typename C::value_type::first_type>;
    using KeyView = std::conditional_t<std::is_same_v<Key, std::string>,
                                       std::string_view, Key>;
    uint64_t count;
    if (!ReadCount(r, &count)) return false;
    Reserve(c, count);
    for (uint64_t i = 0; i < count; ++i) {
      KeyView key;
      typename C::value_type::second_type value;
      if (!ReadEntry(r, &key) || !ReadEntry(r, &value)) return false;
      // Honest encoders write keys in order, so both inserts append.
      if constexpr (requires { c->emplace_hint(c->end(), Key(key), value); }) {
        c->emplace_hint(c->end(), Key(key), std::move(value));
      } else {
        (*c)[key] = std::move(value);
      }
    }
    return true;
  }
};

struct PacketKind : AlwaysWritten {
  static constexpr WireType kType = kBytes;
  template <class P>
  static size_t Bound(const P& p) {
    return 5 + EncodedBound(p);
  }
  template <class P>
  static void Write(BinWriter& w, const P& p) {
    w.Bytes(EncodeFields(p));
  }
  template <class P>
  static bool Read(BinReader& r, P* p) {
    std::string_view bytes;
    if (!r.Bytes(&bytes)) return false;
    Result<P> nested = DecodeFields<P>(bytes, "nested packet");
    if (!nested.ok()) return false;
    *p = std::move(nested).value();
    return true;
  }
};

// ---- Visitors ----

/// The calls a field list makes; each forwards to the visitor's
/// Field(kind, field number, value, rule).
template <class Visitor>
class FieldList {
 public:
  template <class T>
  void Int(int field, T& v, FieldRule rule = kOptional) {
    self().Field(IntKind{}, field, v, rule);
  }
  template <class E>
  void Enum(int field, E& v, std::remove_const_t<E> max) {
    self().Field(EnumKind<std::remove_const_t<E>>{{}, max}, field, v,
                 kOptional);
  }
  template <class T>
  void Flag(int field, T& v) {
    self().Field(FlagKind{}, field, v, kOptional);
  }
  template <class T>
  void Ppm(int field, T& v) {
    self().Field(PpmKind{}, field, v, kOptional);
  }
  template <class T>
  void Str(int field, T& v, FieldRule rule = kOptional) {
    self().Field(StrKind{}, field, v, rule);
  }
  template <class T>
  void Map(int field, T& v) {
    self().Field(MapKind{}, field, v, kOptional);
  }
  template <class T>
  void List(int field, T& v) {
    self().Field(ListKind{}, field, v, kOptional);
  }
  template <class T>
  void Packet(int field, T& v, FieldRule rule = kOptional) {
    self().Field(PacketKind{}, field, v, rule);
  }

 private:
  Visitor& self() { return static_cast<Visitor&>(*this); }
};

/// Upper bound of the encoded size: magic, id and every written field.
class SizeBound : public FieldList<SizeBound> {
 public:
  bool Has(bool present) const { return present; }
  template <class Kind, class T>
  void Field(const Kind& kind, int, const T& v, FieldRule) {
    if (!kind.Omitted(v)) bound += 1 + kind.Bound(v);
  }
  size_t bound = 2;
};

class FieldWriter : public FieldList<FieldWriter> {
 public:
  explicit FieldWriter(BinWriter& w) : w_(w) {}
  bool Has(bool present) const { return present; }
  template <class Kind, class T>
  void Field(const Kind& kind, int field, const T& v, FieldRule) {
    if (kind.Omitted(v)) return;
    w_.U8(Tag(field, Kind::kType));
    kind.Write(w_, v);
  }

 private:
  BinWriter& w_;
};

/// Decodes the field whose tag was read last. A repeated field
/// overwrites, except that a repeated section appends.
class FieldReader : public FieldList<FieldReader> {
 public:
  explicit FieldReader(std::string_view fields) : r_(fields) {}
  /// Reads the next tag; false once the payload is consumed.
  bool Next() {
    matched_ = false;
    return r_.U8(&tag_);
  }
  /// False after a tag no field has, or a field that did not decode.
  bool matched() const { return matched_; }
  uint64_t seen() const { return seen_; }

  bool Has(bool) const { return true; }
  template <class Kind, class T>
  void Field(const Kind& kind, int field, T& v, FieldRule) {
    if (tag_ != Tag(field, Kind::kType)) return;
    matched_ = kind.Read(r_, &v);
    seen_ |= uint64_t{1} << field;
  }

 private:
  BinReader r_;
  uint8_t tag_ = 0;
  bool matched_ = false;
  uint64_t seen_ = 0;  ///< bit n: field n appeared
};

/// Finds the first kRequired field that never appeared, or kNonEmpty
/// field that is empty.
class RuleCheck : public FieldList<RuleCheck> {
 public:
  explicit RuleCheck(uint64_t seen) : seen_(seen) {}
  int missing() const { return missing_; }

  bool Has(bool) const { return true; }
  template <class Kind, class T>
  void Field(const Kind&, int field, const T& v, FieldRule rule) {
    bool absent = !(seen_ >> field & 1);
    if constexpr (requires { v.empty(); }) {
      if (rule == kNonEmpty) absent = v.empty();
    }
    if (rule != kOptional && absent && missing_ == 0) missing_ = field;
  }

 private:
  uint64_t seen_;
  int missing_ = 0;
};

// ---- Whole messages: [kBinaryMagic][Msg::kWireId][fields] ----

// Flattened, so that the field list and its visitor inline into one
// straight-line body per message and the BinWriter cursor stays in a
// register instead of being reloaded after every byte it writes.

template <class Msg>
[[gnu::flatten]] size_t EncodedBound(const Msg& m) {
  SizeBound size;
  Msg::Fields(m, size);
  return size.bound;
}

template <class Msg>
[[gnu::flatten]] std::string EncodeFields(const Msg& m) {
  std::string out;
  BinWriter w(&out, EncodedBound(m));
  w.U8(kBinaryMagic);
  w.U8(static_cast<uint8_t>(Msg::kWireId));
  FieldWriter writer(w);
  Msg::Fields(m, writer);
  w.Finish();
  return out;
}

/// Rejects a payload of another type, a tag the message has no field
/// for, a field that does not decode, and a missing required field.
template <class Msg>
[[gnu::flatten]] Result<Msg> DecodeFields(std::string_view payload,
                                          const char* name) {
  if (payload.size() < 2 ||
      static_cast<unsigned char>(payload[0]) != kBinaryMagic ||
      static_cast<uint8_t>(payload[1]) !=
          static_cast<uint8_t>(Msg::kWireId)) {
    return Status::Corruption(std::string("binary payload is not ") + name);
  }
  Msg m;
  FieldReader reader(payload.substr(2));
  while (reader.Next()) {
    Msg::Fields(m, reader);
    if (!reader.matched()) {
      return Status::Corruption(std::string("malformed binary ") + name +
                                " payload");
    }
  }
  RuleCheck check(reader.seen());
  Msg::Fields(m, check);
  if (check.missing() != 0) {
    return Status::Corruption(std::string(name) + " payload missing field " +
                              std::to_string(check.missing()));
  }
  return m;
}

/// Defines Msg::Serialize() and Msg::Parse() from Msg::Fields.
#define CREW_FIELD_CODEC(Msg)                                        \
  std::string Msg::Serialize() const { return EncodeFields(*this); } \
  Result<Msg> Msg::Parse(const std::string& payload) {               \
    return DecodeFields<Msg>(payload, #Msg);                         \
  }

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_FIELDS_H_
