#include "core/tier.h"

namespace tswarp::core {

Tier::~Tier() {
  if (owns_disk_files && !disk_base.empty()) {
    // Unmap before unlinking so the bundle is not touched again
    // (unlink-while-mapped is fine on POSIX, but the order keeps the
    // intent obvious).
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
    info.mapped_bytes = tier.disk_tree->MappedBytes();
  }
  return info;
}

}  // namespace tswarp::core
