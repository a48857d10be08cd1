#ifndef TSWARP_SUFFIXTREE_MERGE_H_
#define TSWARP_SUFFIXTREE_MERGE_H_

#include <atomic>

#include "common/types.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/tree_view.h"

namespace tswarp::suffixtree {

/// Merges two generalized suffix trees into `out` by synchronized pre-order
/// traversal, combining the paths of common subsequences (the disk-based
/// incremental construction of Bieganski et al. used by the paper,
/// Section 4.1). The sources are only read through the TreeView interface,
/// so disk-resident trees stream through their mappings; `out` is a fresh
/// (root-only) SuffixTree, written once, which WriteTreeToDisk can then
/// publish as a bundle.
///
/// Labels are carried through as references, never copied. How the
/// output's text relates to the inputs' is the caller's statement:
///   kConcatenate  the output's text is a's text followed by b's, and b's
///                 label references are shifted by the length of a's text
///                 (tier compaction, memtable appends);
///   kShared       a and b reference equal texts (disk construction: every
///                 batch tree references the one database text), and the
///                 output references a copy of that text.
/// Likewise `b_seq_offset` is added to the sequence id of every occurrence
/// taken from b: tiers number their sequences from 0, so merging two tiers
/// passes a's sequence count to make the merged ids local to the
/// concatenated fragment.
///
/// Complexity O(|A| + |B|) tree operations plus the symbol comparisons on
/// shared label prefixes. Finalize() is called on `out`; a merge that
/// outgrows the tree's 32-bit ids or text offsets latches OutOfRange in
/// `out->status()`.
///
/// `cancel` (optional) is polled periodically; when it becomes true the
/// merge unwinds and returns false WITHOUT finalizing `out` — the caller
/// must discard the partial tree (background tier compactions abort this
/// way on shutdown). Returns true on a completed, finalized merge.
enum class MergeText { kConcatenate, kShared };

bool MergeTrees(const TreeView& a, const TreeView& b, SuffixTree* out,
                const std::atomic<bool>* cancel = nullptr,
                MergeText text = MergeText::kConcatenate,
                SeqId b_seq_offset = 0);

/// Structural copy of `view` into the fresh tree `out` (pre-order; each
/// node's children come out in reverse order, as AddNode prepends). `out`
/// gets a copy of the view's text, so labels keep their references.
/// Finalize() is called on `out`.
void CopyTree(const TreeView& view, SuffixTree* out);

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_MERGE_H_
