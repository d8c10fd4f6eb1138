#include "src/relational/tuple.h"

#include <algorithm>

namespace p2pdb::rel {

bool Row::HasNull() const {
  return std::any_of(begin(), end(),
                     [](const Value& v) { return v.is_null(); });
}

size_t Row::Hash() const {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : *this) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

std::string Row::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < arity_; ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

bool operator==(Row a, Row b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool operator<(Row a, Row b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace p2pdb::rel
