#ifndef TSWARP_SUFFIXTREE_SYMBOL_DATABASE_H_
#define TSWARP_SUFFIXTREE_SYMBOL_DATABASE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace tswarp::suffixtree {

/// A sequence of discrete symbols (a categorized or dictionary-encoded
/// sequence, the paper's CS_j).
using SymbolSequence = std::vector<Symbol>;

/// Collection of symbol sequences that a suffix tree is built from.
/// Parallel to the seqdb::SequenceDatabase it was converted from: SeqIds
/// and positions coincide.
class SymbolDatabase {
 public:
  SymbolDatabase() = default;
  explicit SymbolDatabase(std::vector<SymbolSequence> sequences)
      : sequences_(std::move(sequences)) {
    for (const SymbolSequence& s : sequences_) total_symbols_ += s.size();
  }

  SymbolDatabase(const SymbolDatabase&) = delete;
  SymbolDatabase& operator=(const SymbolDatabase&) = delete;
  SymbolDatabase(SymbolDatabase&&) = default;
  SymbolDatabase& operator=(SymbolDatabase&&) = default;

  SeqId Add(SymbolSequence seq) {
    TSW_CHECK(!seq.empty());
    total_symbols_ += seq.size();
    sequences_.push_back(std::move(seq));
    return static_cast<SeqId>(sequences_.size() - 1);
  }

  std::size_t size() const { return sequences_.size(); }
  std::size_t TotalSymbols() const { return total_symbols_; }

  const SymbolSequence& sequence(SeqId id) const {
    TSW_CHECK(id < sequences_.size());
    return sequences_[id];
  }

  std::span<const Symbol> Suffix(SeqId id, Pos start) const {
    const SymbolSequence& s = sequence(id);
    TSW_CHECK(start < s.size());
    return std::span<const Symbol>(s.data() + start, s.size() - start);
  }

  /// Length of the run of equal symbols starting at (id, pos): the largest
  /// N with s[pos] == s[pos+1] == ... == s[pos+N-1]. Drives the sparse
  /// suffix selection rule and D_tw-lb2 (paper Section 6).
  Pos RunLength(SeqId id, Pos pos) const {
    const SymbolSequence& s = sequence(id);
    TSW_CHECK(pos < s.size());
    Pos n = 1;
    while (pos + n < s.size() && s[pos + n] == s[pos]) ++n;
    return n;
  }

  /// True if the suffix starting at (id, pos) is stored by the sparse rule:
  /// pos == 0 or the symbol differs from its predecessor (paper 6.1).
  bool IsRunStart(SeqId id, Pos pos) const {
    const SymbolSequence& s = sequence(id);
    TSW_CHECK(pos < s.size());
    return pos == 0 || s[pos] != s[pos - 1];
  }

 private:
  std::vector<SymbolSequence> sequences_;
  std::size_t total_symbols_ = 0;
};

/// The symbol text of a SymbolDatabase: its sequences concatenated in id
/// order, plus the offset where each one begins. Suffix-tree edge labels
/// are (offset, length) references into `symbols`; trees share the text
/// through a shared_ptr, so it outlives the database it was copied from.
struct SymbolText {
  explicit SymbolText(const SymbolDatabase& db) {
    symbols.reserve(db.TotalSymbols());
    begin.reserve(db.size() + 1);
    for (SeqId id = 0; id < db.size(); ++id) {
      begin.push_back(symbols.size());
      const SymbolSequence& s = db.sequence(id);
      symbols.insert(symbols.end(), s.begin(), s.end());
    }
    begin.push_back(symbols.size());
  }

  std::size_t num_sequences() const { return begin.size() - 1; }

  /// Symbols of sequence `id`, as a span of the text.
  std::span<const Symbol> sequence(SeqId id) const {
    TSW_CHECK(id < num_sequences());
    return std::span<const Symbol>(symbols).subspan(
        begin[id], begin[id + 1] - begin[id]);
  }

  std::vector<Symbol> symbols;
  /// num_sequences() + 1 entries: sequence id spans
  /// symbols[begin[id], begin[id + 1]).
  std::vector<std::uint64_t> begin;
};

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_SYMBOL_DATABASE_H_
