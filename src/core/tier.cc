#include "core/tier.h"

namespace tswarp::core {

Tier::~Tier() {
  if (owns_disk_files && !disk_base.empty()) {
    // Close the buffer managers before unlinking so the bundle is not
    // touched again (unlink-while-open is fine on POSIX, but the order
    // keeps the intent obvious).
    disk_tree.reset();
    suffixtree::RemoveDiskTree(disk_base);
  }
}

TierInfo ComputeTierInfo(const Tier& tier) {
  TierInfo info;
  info.first_seq = tier.first_seq;
  info.sequences = tier.db->size();
  info.elements = tier.db->TotalElements();
  const suffixtree::TreeView* view = tier.view();
  info.nodes = view->NumNodes();
  info.occurrences = view->NumOccurrences();
  info.index_bytes = view->SizeBytes();
  info.table1_bytes = view->Table1Bytes();
  info.on_disk = tier.disk_tree != nullptr;
  info.memtable = tier.is_memtable;
  if (tier.disk_tree != nullptr) {
    info.io_mode = tier.disk_tree->io_mode();
    info.mapped_bytes = tier.disk_tree->MappedBytes();
  }
  info.has_summaries = !tier.summaries().empty();
  return info;
}

std::vector<suffixtree::SymbolHull> TierSymbolHulls(const Tier& tier) {
  std::vector<suffixtree::SymbolHull> hulls;
  if (tier.alphabet.has_value()) {
    hulls.reserve(tier.alphabet->size());
    for (std::size_t s = 0; s < tier.alphabet->size(); ++s) {
      const dtw::Interval iv =
          tier.alphabet->ToInterval(static_cast<Symbol>(s));
      hulls.push_back({iv.lb, iv.ub});
    }
  } else {
    hulls.reserve(tier.symbol_values.size());
    for (const Value v : tier.symbol_values) hulls.push_back({v, v});
  }
  return hulls;
}

}  // namespace tswarp::core
