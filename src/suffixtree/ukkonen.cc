#include "suffixtree/ukkonen.h"

#include <limits>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace tswarp::suffixtree {
namespace {

/// Terminator symbol appended during construction. Real symbols are
/// non-negative (category ids / dictionary codes), so this cannot collide.
constexpr Symbol kTerminator = std::numeric_limits<Symbol>::min();

/// Ukkonen working representation: implicit suffix tree over x[0..m).
/// Edge into node v is x[start_[v], end(v)); leaves are open-ended.
class Ukkonen {
 public:
  explicit Ukkonen(std::vector<Symbol> x) : x_(std::move(x)) {
    // A suffix tree over m symbols has at most 2m nodes; sizing the
    // tables once keeps rehashing off the linear-time path.
    const std::size_t max_nodes = 2 * x_.size() + 1;
    start_.reserve(max_nodes);
    end_.reserve(max_nodes);
    slink_.reserve(max_nodes);
    child_index_.reserve(max_nodes);
    children_.reserve(max_nodes);
    // Node 0 is the root.
    NewNode(0, 0);
    start_[0] = 0;
    end_[0] = 0;
  }

  void Build() {
    const auto m = static_cast<std::int32_t>(x_.size());
    for (std::int32_t i = 0; i < m; ++i) Extend(i);
  }

  /// Converts to the library SuffixTree representation, stripping the
  /// terminator and attaching one occurrence per suffix of sequence `id`
  /// (with run lengths taken from `db`, matching the insertion builder).
  /// The tree's text is the sequence itself; Ukkonen's (start, end) edge
  /// pairs carry over as label references.
  SuffixTree ToSuffixTree(const SymbolDatabase& db, SeqId id) const {
    SuffixTree out;
    const auto m = static_cast<std::int32_t>(x_.size());  // Includes T.
    out.SetText(std::span<const Symbol>(x_.data(), x_.size() - 1));
    struct Frame {
      std::int32_t node;
      NodeId out_node;
      std::int32_t depth;  // Path length in symbols (terminator included).
    };
    std::vector<Frame> stack = {{0, out.Root(), 0}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      auto range = children_.equal_range(f.node);
      for (auto it = range.first; it != range.second; ++it) {
        const std::int32_t child = it->second;
        const std::int32_t lo = start_[child];
        const std::int32_t hi = End(child);
        const bool is_leaf = !HasChildren(child);
        std::int32_t label_len = hi - lo;
        if (is_leaf) {
          TSW_DCHECK(x_[static_cast<std::size_t>(hi) - 1] == kTerminator);
          --label_len;  // Strip the terminator.
          const std::int32_t depth = f.depth + label_len;
          const std::int32_t suffix = m - 1 - depth;  // m-1 real symbols.
          if (label_len == 0) {
            // Suffix is a prefix of a longer suffix: occurrence at parent.
            if (suffix < m - 1) {
              out.AddOccurrence(
                  f.out_node,
                  {id, static_cast<Pos>(suffix),
                   db.RunLength(id, static_cast<Pos>(suffix))});
            }
            continue;
          }
          const NodeId leaf = out.AddNode(
              f.out_node, {static_cast<std::uint64_t>(lo),
                           static_cast<std::uint32_t>(label_len)});
          out.AddOccurrence(leaf,
                            {id, static_cast<Pos>(suffix),
                             db.RunLength(id, static_cast<Pos>(suffix))});
          continue;
        }
        const NodeId inner = out.AddNode(
            f.out_node, {static_cast<std::uint64_t>(lo),
                         static_cast<std::uint32_t>(label_len)});
        stack.push_back({child, inner, f.depth + label_len});
      }
    }
    out.Finalize();
    return out;
  }

 private:
  std::int32_t NewNode(std::int32_t start, std::int32_t end_or_open) {
    const auto v = static_cast<std::int32_t>(start_.size());
    start_.push_back(start);
    end_.push_back(end_or_open);
    slink_.push_back(0);
    return v;
  }

  static constexpr std::int32_t kOpen = -1;

  std::int32_t End(std::int32_t v) const {
    return end_[static_cast<std::size_t>(v)] == kOpen
               ? static_cast<std::int32_t>(x_.size())
               : end_[static_cast<std::size_t>(v)];
  }

  std::int32_t EdgeLength(std::int32_t v) const {
    return End(v) - start_[static_cast<std::size_t>(v)];
  }

  static std::uint64_t Key(std::int32_t node, Symbol s) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(s);
  }

  std::int32_t Child(std::int32_t node, Symbol s) const {
    auto it = child_index_.find(Key(node, s));
    return it == child_index_.end() ? -1 : it->second;
  }

  void SetChild(std::int32_t node, Symbol s, std::int32_t child) {
    auto [it, inserted] = child_index_.try_emplace(Key(node, s), child);
    if (!inserted) {
      // Replacing (edge split): update the multimap entry as well.
      auto range = children_.equal_range(node);
      for (auto cit = range.first; cit != range.second; ++cit) {
        if (cit->second == it->second) {
          cit->second = child;
          break;
        }
      }
      it->second = child;
      return;
    }
    children_.emplace(node, child);
  }

  bool HasChildren(std::int32_t node) const {
    return children_.find(node) != children_.end();
  }

  /// One Ukkonen phase: extend the implicit tree with x_[i].
  void Extend(std::int32_t i) {
    const Symbol c = x_[static_cast<std::size_t>(i)];
    ++remainder_;
    last_internal_ = -1;
    while (remainder_ > 0) {
      if (active_len_ == 0) active_edge_ = i;
      const Symbol edge_sym = x_[static_cast<std::size_t>(active_edge_)];
      const std::int32_t next = Child(active_node_, edge_sym);
      if (next == -1) {
        // Rule 2: new leaf from the active node.
        const std::int32_t leaf = NewNode(i, kOpen);
        SetChild(active_node_, edge_sym, leaf);
        AddSuffixLink(active_node_);
      } else {
        if (active_len_ >= EdgeLength(next)) {
          // Observation 2: walk down.
          active_edge_ += EdgeLength(next);
          active_len_ -= EdgeLength(next);
          active_node_ = next;
          continue;
        }
        const Symbol on_edge = x_[static_cast<std::size_t>(
            start_[static_cast<std::size_t>(next)] + active_len_)];
        if (on_edge == c) {
          // Observation 3: already present; the phase ends.
          ++active_len_;
          AddSuffixLink(active_node_);
          break;
        }
        // Rule 2 with an edge split.
        const std::int32_t split =
            NewNode(start_[static_cast<std::size_t>(next)],
                    start_[static_cast<std::size_t>(next)] + active_len_);
        SetChild(active_node_, edge_sym, split);
        const std::int32_t leaf = NewNode(i, kOpen);
        SetChild(split, c, leaf);
        start_[static_cast<std::size_t>(next)] += active_len_;
        SetChild(split,
                 x_[static_cast<std::size_t>(
                     start_[static_cast<std::size_t>(next)])],
                 next);
        AddSuffixLink(split);
      }
      --remainder_;
      if (active_node_ == 0 && active_len_ > 0) {  // Rule 1.
        --active_len_;
        active_edge_ = i - remainder_ + 1;
      } else if (active_node_ != 0) {  // Rule 3.
        active_node_ = slink_[static_cast<std::size_t>(active_node_)];
      }
    }
  }

  void AddSuffixLink(std::int32_t node) {
    if (last_internal_ != -1) {
      slink_[static_cast<std::size_t>(last_internal_)] = node;
    }
    last_internal_ = node;
  }

  std::vector<Symbol> x_;
  std::vector<std::int32_t> start_;
  std::vector<std::int32_t> end_;
  std::vector<std::int32_t> slink_;
  std::unordered_map<std::uint64_t, std::int32_t> child_index_;
  std::unordered_multimap<std::int32_t, std::int32_t> children_;
  std::int32_t active_node_ = 0;
  std::int32_t active_edge_ = 0;
  std::int32_t active_len_ = 0;
  std::int32_t remainder_ = 0;
  std::int32_t last_internal_ = -1;
};

}  // namespace

SuffixTree BuildSuffixTreeUkkonen(const SymbolDatabase& db, SeqId id) {
  const SymbolSequence& s = db.sequence(id);
  std::vector<Symbol> x(s.begin(), s.end());
  x.push_back(kTerminator);
  Ukkonen builder(std::move(x));
  builder.Build();
  return builder.ToSuffixTree(db, id);
}

}  // namespace tswarp::suffixtree
