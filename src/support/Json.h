//===- support/Json.h - Minimal JSON emission and validation ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little JSON the observability layer needs: a streaming writer used
/// by the stats registry, the Chrome-trace emitter and the fleet event
/// log; a syntax validator the tests (and `amopt --trace` smoke checks)
/// use to assert that emitted artifacts are well-formed; and a small
/// value parser for the consumers that must read artifacts back (the
/// run-history reader, support/History.h, reads amhist-v1 records).
/// Deliberately not a general JSON library — no pointer/patch, no
/// serialization framework.
///
/// The writer sinks either into a caller-owned std::string (the original
/// interface) or directly into a std::ostream, so large documents — a
/// 100k-job event log, a corpus aggregate — stream to disk instead of
/// being assembled in memory first and spiking `mem.peak_rss_bytes`.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_JSON_H
#define AM_SUPPORT_JSON_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace am::json {

/// Appends \p S to \p Out as a quoted JSON string with escapes.
void appendEscaped(std::string &Out, const std::string &S);

/// Returns \p S as a quoted JSON string literal.
std::string quoted(const std::string &S);

/// A streaming writer for objects/arrays with automatic comma placement.
/// Scopes must be closed in LIFO order; keys are only legal inside
/// objects, bare values only inside arrays.  Construct over a string to
/// build the document in memory, or over an ostream to stream it out as
/// it is produced (nothing document-sized is ever buffered; the ostream's
/// own buffering applies).
class Writer {
public:
  explicit Writer(std::string &Out) : Str(&Out) {}
  explicit Writer(std::ostream &OS) : OS(&OS) {}

  Writer &beginObject();
  Writer &endObject();
  Writer &beginArray();
  Writer &endArray();

  /// Starts `"key":` inside an object; follow with a value or begin*.
  Writer &key(const std::string &K);

  Writer &value(const std::string &V);
  Writer &value(const char *V);
  Writer &value(int64_t V);
  Writer &value(uint64_t V);
  Writer &value(double V);
  Writer &value(bool V);

private:
  void comma();
  void put(char C);
  void append(const std::string &S);

  std::string *Str = nullptr;
  std::ostream *OS = nullptr;
  // One char per open scope: 'o' (object, no member yet), 'O' (object,
  // needs comma), 'a'/'A' likewise for arrays, 'k' (after key).
  std::string Stack;
};

/// True if \p Text is exactly one well-formed JSON value (RFC 8259
/// syntax; no trailing garbage).  \p Error, when non-null, receives a
/// short description with a byte offset on failure.
bool validate(const std::string &Text, std::string *Error = nullptr);

//===----------------------------------------------------------------------===//
// Value parser
//===----------------------------------------------------------------------===//

/// One parsed JSON value.  Object members keep document order; lookups
/// are linear (the records this is for — event-log lines, aggregate
/// entries — have a handful of keys).  Numbers carry both the double
/// rendering and, when the token was integral and in range, the exact
/// unsigned value, so 64-bit counters survive a round trip.
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }
  bool isBool() const { return K == Kind::Bool; }

  bool boolean() const { return B; }
  double number() const { return Num; }
  /// The exact unsigned value when the number token was a non-negative
  /// integer that fits uint64_t; otherwise the (possibly lossy) double,
  /// clamped at 0 for negatives.
  uint64_t asU64() const;
  const std::string &str() const { return S; }

  const std::vector<Value> &array() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// Member lookup on objects; nullptr when absent or not an object.
  const Value *find(const std::string &Key) const;
  /// Convenience accessors returning a fallback when the member is
  /// absent or of the wrong kind.
  uint64_t getU64(const std::string &Key, uint64_t Default = 0) const;
  std::string getString(const std::string &Key,
                        const std::string &Default = std::string()) const;

  // Construction is the parser's business; default is null.
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  bool Integral = false;
  uint64_t UInt = 0;
  std::string S;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses exactly one JSON value from \p Text (no trailing garbage).
/// Returns nullptr and fills \p Error on malformed input.  String
/// escapes are decoded (\uXXXX becomes UTF-8; surrogate pairs combine).
std::unique_ptr<Value> parse(const std::string &Text,
                             std::string *Error = nullptr);

} // namespace am::json

#endif // AM_SUPPORT_JSON_H
