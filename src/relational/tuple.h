// Tuples and rows: an ordered list of values with set-semantics comparison.
//
// A Tuple owns its values; API callers build and keep tuples (SortedTuples,
// CertainTuples, EvaluateQuery, tests). A Row is a borrowed view of values
// stored back to back elsewhere: a TupleLog entry, a row of a RowList, a
// scratch buffer or a Tuple. The update path reads and copies rows, so no
// tuple it handles costs a heap object of its own. A Row must never outlive
// the buffer it views. Rows and tuples with the same values compare and hash
// alike.
#ifndef P2PDB_RELATIONAL_TUPLE_H_
#define P2PDB_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/relational/value.h"

namespace p2pdb::rel {

class Tuple;

/// A view of `arity` values stored back to back. Cheap to copy; valid while
/// the buffer it views is unchanged.
class Row {
 public:
  Row() = default;
  Row(const Value* values, size_t arity) : values_(values), arity_(arity) {}
  /// Views a tuple's values (implicit: a Tuple reads as a Row wherever one is
  /// taken). The tuple must outlive the row.
  Row(const Tuple& tuple);  // NOLINT(google-explicit-constructor)

  size_t arity() const { return arity_; }
  const Value& at(size_t i) const { return values_[i]; }
  const Value* begin() const { return values_; }
  const Value* end() const { return values_ + arity_; }

  /// True if any component is a labeled null.
  bool HasNull() const;
  size_t Hash() const;
  /// "(v1, v2, ...)".
  std::string ToString() const;

  friend bool operator==(Row a, Row b);
  /// Lexicographic, a proper prefix first.
  friend bool operator<(Row a, Row b);

 private:
  const Value* values_ = nullptr;
  size_t arity_ = 0;
};

/// A database tuple that owns its values. Ordered lexicographically so
/// relations iterate deterministically.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}
  /// Copies a row's values.
  explicit Tuple(Row row) : values_(row.begin(), row.end()) {}

  size_t arity() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>* mutable_values() { return &values_; }

  bool HasNull() const { return Row(*this).HasNull(); }

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const { return Row(*this) < Row(other); }

  size_t Hash() const { return Row(*this).Hash(); }
  std::string ToString() const { return Row(*this).ToString(); }

 private:
  std::vector<Value> values_;
};

inline Row::Row(const Tuple& tuple)
    : values_(tuple.values().data()), arity_(tuple.arity()) {}

/// Rows stored back to back in one value buffer, each with its own arity:
/// what the tuple-list codec decodes into (codec.h). A list of any length
/// costs two allocations, and the rows it hands out view its buffer, so they
/// are valid until the list next changes.
class RowList {
 public:
  /// Yields each row in order.
  class const_iterator {
   public:
    const_iterator(const RowList* list, size_t i) : list_(list), i_(i) {}
    Row operator*() const { return (*list_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }

   private:
    const RowList* list_;
    size_t i_;
  };
  using value_type = Row;
  using iterator = const_iterator;

  RowList() = default;
  RowList(std::initializer_list<Tuple> tuples) {
    assign(tuples.begin(), tuples.end());
  }
  /// Implicit, so a vector of tuples serves wherever a list is taken.
  RowList(const std::vector<Tuple>& tuples) {  // NOLINT
    assign(tuples.begin(), tuples.end());
  }

  size_t size() const { return ends_.size(); }
  Row operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return Row(values_.data() + begin, ends_[i] - begin);
  }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  /// Every value of every row, in order, for translating values in place.
  std::span<Value> values() { return values_; }

  /// Room for `rows` rows holding `values` values in all.
  void Reserve(size_t rows, size_t values) {
    ends_.reserve(rows);
    values_.reserve(values);
  }
  /// Builds a row in place: AddValue() each of its values, then EndRow().
  void AddValue(const Value& v) { values_.push_back(v); }
  void EndRow() { ends_.push_back(values_.size()); }

  /// `row` must not view this list.
  void push_back(Row row) {
    values_.insert(values_.end(), row.begin(), row.end());
    EndRow();
  }
  template <class It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }
  void clear() {
    values_.clear();
    ends_.clear();
  }

  friend bool operator==(const RowList& a, const RowList& b) {
    return a.values_ == b.values_ && a.ends_ == b.ends_;
  }

 private:
  std::vector<Value> values_;
  std::vector<size_t> ends_;  // One past each row's last value.
};

}  // namespace p2pdb::rel

namespace std {
template <>
struct hash<p2pdb::rel::Tuple> {
  size_t operator()(const p2pdb::rel::Tuple& t) const { return t.Hash(); }
};
}  // namespace std

#endif  // P2PDB_RELATIONAL_TUPLE_H_
