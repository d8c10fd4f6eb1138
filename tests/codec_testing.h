// Helpers for codec tests: golden bytes written as hex literals, and seeded
// byte-level mutants of a valid encoding for whole-or-nothing decoder checks.
#ifndef P2PDB_TESTS_CODEC_TESTING_H_
#define P2PDB_TESTS_CODEC_TESTING_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/system.h"
#include "src/util/rng.h"
#include "src/util/serde.h"

namespace p2pdb::testing_codec {

/// The bytes a hex literal spells; whitespace is ignored, so a golden can be
/// laid out one field per string piece.
inline std::vector<uint8_t> HexBytes(std::string_view hex) {
  std::vector<uint8_t> out;
  int high = -1;
  for (char c : hex) {
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      continue;
    }
    if (high < 0) {
      high = nibble;
    } else {
      out.push_back(static_cast<uint8_t>(high << 4 | nibble));
      high = -1;
    }
  }
  return out;
}

/// Owned copies of viewed byte strings, such as the records ReadWalFile
/// views in the one buffer it read.
inline std::vector<std::vector<uint8_t>> Copies(
    const std::vector<ByteView>& views) {
  std::vector<std::vector<uint8_t>> out;
  for (ByteView v : views) out.emplace_back(v.data, v.data + v.size);
  return out;
}

/// Lower-case hex, two digits per byte, no separators: what a failed golden
/// comparison prints.
inline std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// A rule with a field of every kind the rule codec writes: string,
/// negative-int and null constants, node ids of 128 and more, a cross-part
/// built-in, and a domain map whose target needs a three-byte varint.
inline core::CoordinationRule RichRule() {
  using rel::Term;
  using rel::Value;
  core::CoordinationRule rule;
  rule.id = "r1";
  rule.head_node = 200;
  rule.head_atoms = {{"h", {Term::Var("X"), Term::Var("Y"), Term::Var("W")}}};
  rule.body.push_back(
      {130,
       {{"a", {Term::Var("X"), Term::Const(Value::Str("s"))}}},
       {{rel::BuiltinOp::kNe, Term::Var("X"), Term::Const(Value::Int(-3))}}});
  rule.body.push_back(
      {1, {{"b", {Term::Var("Y"), Term::Const(Value::Null(0x1000005))}}}, {}});
  rule.cross_builtins = {{rel::BuiltinOp::kLt, Term::Var("X"), Term::Var("Y")}};
  rule.domain_map.Add(Value::Str("s"), Value::Str("t"));
  rule.domain_map.Add(Value::Int(-1), Value::Int(20000));
  return rule;
}

/// RichRule()'s bytes: id, head node, head atoms, then each body part's
/// node, atoms and built-ins, the cross-part built-ins and the domain map.
inline constexpr std::string_view kRichRuleGolden =
    "027231 c8000000"                                   // "r1", head node 200
    " 01 0168 03 000158 000159 000157"                  // h(X, Y, W)
    " 02 82000000 01 0161 02 000158 01010173"           // node 130: a(X, "s"),
    " 01 01 000158 010005"                              //   X != -3
    " 01000000 01 0162 02 000159 01020500000100000000"  // node 1: b(Y, _N),
    " 00"                                               //   no built-ins
    " 01 02 000158 000159"                              // cross-part X < Y
    " 02 0001 00c0b802 010173 010174";                  // -1 -> 20000, s -> t

/// `count` mutants of `valid`, the same ones for the same seed. Each applies
/// one edit: flip a byte, cut the tail, insert a byte, or duplicate a span.
inline std::vector<std::vector<uint8_t>> Mutants(
    const std::vector<uint8_t>& valid, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> out;
  for (size_t i = 0; i < count; ++i) {
    std::vector<uint8_t> m = valid;
    const size_t pos = static_cast<size_t>(rng.NextBelow(valid.size() + 1));
    switch (rng.NextBelow(4)) {
      case 0:
        if (pos < m.size()) {
          m[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
        }
        break;
      case 1:
        m.resize(pos);
        break;
      case 2:
        m.insert(m.begin() + static_cast<ptrdiff_t>(pos),
                 static_cast<uint8_t>(rng.NextBelow(256)));
        break;
      default: {
        const size_t len =
            static_cast<size_t>(rng.NextBelow(valid.size() - pos + 1));
        m.insert(m.begin() + static_cast<ptrdiff_t>(pos + len),
                 valid.begin() + static_cast<ptrdiff_t>(pos),
                 valid.begin() + static_cast<ptrdiff_t>(pos + len));
        break;
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// Decodes its input and returns the decoded value's encoding, or nullopt
/// when decoding fails.
using Recode = std::function<std::optional<std::vector<uint8_t>>(
    const std::vector<uint8_t>&)>;

/// The whole-or-nothing property, on `count` seeded mutants of `valid`: each
/// mutant fails to decode, or decodes to a value whose encoding decodes again
/// to the same bytes. A decoder that half-accepted a mutant would keep state
/// its own encoder cannot reproduce.
inline void ExpectMutantsDecodeWholeOrNotAtAll(
    const std::vector<uint8_t>& valid, const Recode& recode, size_t count,
    uint64_t seed) {
  size_t i = 0;
  for (const std::vector<uint8_t>& mutant : Mutants(valid, count, seed)) {
    SCOPED_TRACE("mutant " + std::to_string(i++) + ": " + Hex(mutant));
    std::optional<std::vector<uint8_t>> once = recode(mutant);
    if (!once.has_value()) continue;
    std::optional<std::vector<uint8_t>> twice = recode(*once);
    ASSERT_TRUE(twice.has_value()) << "re-encoding " << Hex(*once)
                                   << " does not decode";
    EXPECT_EQ(Hex(*twice), Hex(*once));
  }
}

}  // namespace p2pdb::testing_codec

#endif  // P2PDB_TESTS_CODEC_TESTING_H_
