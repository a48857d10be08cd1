#include "suffixtree/disk_tree.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "suffixtree/merge.h"

namespace tswarp::suffixtree {

namespace internal {

// On-disk node record: 32 bytes, no padding.
struct NodeRecord {
  std::uint64_t label_offset;  // Symbol index into the text (.labels).
  std::uint32_t label_len;
  std::uint32_t first_child;
  std::uint32_t next_sibling;
  std::uint32_t first_occ;
  std::uint32_t subtree_occ;
  std::uint32_t max_run;
};
static_assert(sizeof(NodeRecord) == 32);

}  // namespace internal

namespace {

using internal::kNilOcc;
using internal::NodeRecord;
using internal::OccRecord;

constexpr std::uint64_t kMetaMagic = 0x545357545245451ull;  // "TSWTREE"+1

// Format versions. v1 (PR 3) is the bare MetaRecord and is no longer
// read; v2 adds the section table below.
constexpr std::uint32_t kMetaVersionV1 = 1;
constexpr std::uint32_t kMetaVersionV2 = 2;

// v2 alignment contract: record sizes divide the cache line, so no record
// straddles a cache-line (or page) boundary and mapped cursors never split
// a read across lines.
constexpr std::uint32_t kRecordAlignment = 64;
static_assert(kRecordAlignment % sizeof(NodeRecord) == 0);
static_assert(kRecordAlignment % sizeof(OccRecord) == 0);
static_assert(kRecordAlignment % sizeof(Symbol) == 0);

// v1 meta page: just this record. The v2 page appends the section table.
struct MetaRecord {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t finalized;
  std::uint64_t num_nodes;
  std::uint64_t num_occs;
  std::uint64_t num_label_symbols;
};
static_assert(sizeof(MetaRecord) == 40);

// One v2 section-table entry per region file, in region-id order. The
// table makes the bundle self-describing: the opener validates record
// sizes and byte lengths against the actual files before handing out any
// pointer, so truncation fails cleanly at Open.
enum RegionId : std::uint32_t {
  kRegionNodes = 0,
  kRegionOccs = 1,
  kRegionLabels = 2,
};
constexpr std::uint32_t kNumSections = 3;
// Bundles written while the node-summary screen existed may announce a
// fourth, trailing section (`.sums`). Readers accept the table and ignore
// that section; writers never produce it.
constexpr std::uint32_t kLegacySections = 4;

struct SectionEntry {
  std::uint32_t region;       // RegionId
  std::uint32_t record_size;  // bytes per fixed record
  std::uint64_t record_count;
  std::uint64_t byte_length;  // record_count * record_size
};
static_assert(sizeof(SectionEntry) == 24);

// The meta file is one zero-padded page: the MetaRecord, the section
// table header (count, alignment), then the entries.
constexpr std::size_t kMetaPageSize = 4096;
constexpr std::size_t kSectionTableOffset = sizeof(MetaRecord);
constexpr std::size_t kSectionEntriesOffset =
    kSectionTableOffset + 2 * sizeof(std::uint32_t);
static_assert(kSectionEntriesOffset +
                  kLegacySections * sizeof(SectionEntry) <=
              kMetaPageSize);

std::string NodesPath(const std::string& base) { return base + ".nodes"; }
std::string OccsPath(const std::string& base) { return base + ".occs"; }
std::string LabelsPath(const std::string& base) { return base + ".labels"; }
std::string MetaPath(const std::string& base) { return base + ".meta"; }
std::string SumsPath(const std::string& base) { return base + ".sums"; }

std::string ParentDir(const std::string& base_path) {
  return std::filesystem::path(base_path).parent_path().string();
}

/// Counts recovered from a validated v2 meta page.
struct ParsedMeta {
  std::uint64_t num_nodes;
  std::uint64_t num_occs;
  std::uint64_t num_label_symbols;
};

StatusOr<ParsedMeta> ReadMeta(const std::string& base_path) {
  const std::string path = MetaPath(base_path);
  TSW_ASSIGN_OR_RETURN(const storage::MappedFile file,
                       storage::MappedFile::Open(path));
  const std::span<const std::byte> page = file.bytes();
  MetaRecord meta{};
  if (page.size() >= sizeof(meta)) {
    std::memcpy(&meta, page.data(), sizeof(meta));
  }
  if (meta.magic != kMetaMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  if (meta.version == kMetaVersionV1) {
    return Status::Corruption(
        "bundle " + base_path +
        " is format v1 (no section table), which this build no longer "
        "reads: rebuild the index");
  }
  if (meta.version != kMetaVersionV2) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(meta.version) + " in " + path);
  }
  if (meta.finalized != 1) {
    return Status::Corruption("unreadable tree bundle " + base_path);
  }
  if (page.size() < kMetaPageSize) {
    return Status::Corruption("truncated meta page " + path);
  }
  std::uint32_t section_count = 0;
  std::uint32_t alignment = 0;
  std::memcpy(&section_count, page.data() + kSectionTableOffset,
              sizeof(section_count));
  std::memcpy(&alignment,
              page.data() + kSectionTableOffset + sizeof(section_count),
              sizeof(alignment));
  // 3 sections is a v2 bundle; 4 is a legacy bundle that also carries
  // `.sums`, whose entry is not read. Anything else is not a bundle this
  // build can describe.
  if ((section_count != kNumSections && section_count != kLegacySections) ||
      alignment != kRecordAlignment) {
    return Status::Corruption("bad section table header in " + path);
  }
  const std::uint64_t expect_count[kNumSections] = {
      meta.num_nodes, meta.num_occs, meta.num_label_symbols};
  const std::uint32_t expect_size[kNumSections] = {
      sizeof(NodeRecord), sizeof(OccRecord), sizeof(Symbol)};
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    SectionEntry entry{};
    std::memcpy(&entry,
                page.data() + kSectionEntriesOffset + i * sizeof(entry),
                sizeof(entry));
    if (entry.region != i || entry.record_size != expect_size[i] ||
        entry.record_count != expect_count[i] ||
        entry.byte_length != entry.record_count * entry.record_size) {
      return Status::Corruption("bad section table entry " +
                                std::to_string(i) + " in " + path);
    }
  }
  return ParsedMeta{meta.num_nodes, meta.num_occs, meta.num_label_symbols};
}

/// Checks every node and occurrence record of a bundle: child, sibling and
/// occurrence ids must be nil or below their counts, and every non-root
/// label must be non-empty and lie inside the text (searches and merges
/// read each edge's first symbol). After it, no accessor can read outside
/// a region, whatever the records say. Returns the sum of the label
/// lengths (MaterializedLabelSymbols) on success. `node_at(i)` and
/// `occ_at(i)` return record i by value.
template <typename NodeAt, typename OccAt>
StatusOr<std::uint64_t> ValidateRecords(const std::string& base_path,
                                        const ParsedMeta& meta,
                                        NodeAt node_at, OccAt occ_at) {
  // An id is valid when nil (0xFFFFFFFF) or below its count: adding 1 maps
  // nil to 0 and every valid id to at most the count.
  static_assert(kNilNode == 0xFFFFFFFFu && kNilOcc == 0xFFFFFFFFu);
  const auto id_ok = [](std::uint32_t id, std::uint64_t count) {
    return std::uint64_t{static_cast<std::uint32_t>(id + 1)} <= count;
  };
  const std::uint64_t text = meta.num_label_symbols;
  const auto label_ok = [&](const NodeRecord& rec, std::uint64_t i) {
    return (rec.label_offset <= text) &
           (rec.label_len <= text - rec.label_offset) &
           ((rec.label_len != 0) | (i == 0));
  };

  // Pass 1 only decides, without branches: this pass is most of Open.
  bool ok = true;
  std::uint64_t label_symbols = 0;
  for (std::uint64_t i = 0; i < meta.num_nodes; ++i) {
    const NodeRecord rec = node_at(i);
    ok &= label_ok(rec, i) & id_ok(rec.first_child, meta.num_nodes) &
          id_ok(rec.next_sibling, meta.num_nodes) &
          id_ok(rec.first_occ, meta.num_occs);
    label_symbols += rec.label_len;
  }
  for (std::uint64_t i = 0; i < meta.num_occs; ++i) {
    ok &= id_ok(occ_at(i).next, meta.num_occs);
  }
  if (ok) return label_symbols;

  // Pass 2 names the first bad field.
  const auto bad = [&](const char* what, std::uint64_t index,
                       std::uint64_t value) {
    return Status::Corruption(std::string(what) + " " +
                              std::to_string(value) + " of record " +
                              std::to_string(index) + " out of range in " +
                              base_path);
  };
  for (std::uint64_t i = 0; i < meta.num_nodes; ++i) {
    const NodeRecord rec = node_at(i);
    if (!label_ok(rec, i)) {
      return rec.label_len == 0 ? bad("label length", i, 0)
                                : bad("label offset", i, rec.label_offset);
    }
    if (!id_ok(rec.first_child, meta.num_nodes)) {
      return bad("child id", i, rec.first_child);
    }
    if (!id_ok(rec.next_sibling, meta.num_nodes)) {
      return bad("sibling id", i, rec.next_sibling);
    }
    if (!id_ok(rec.first_occ, meta.num_occs)) {
      return bad("occurrence id", i, rec.first_occ);
    }
  }
  for (std::uint64_t i = 0; i < meta.num_occs; ++i) {
    const std::uint32_t next = occ_at(i).next;
    if (!id_ok(next, meta.num_occs)) return bad("occurrence id", i, next);
  }
  return Status::Corruption("inconsistent records in " + base_path);
}


}  // namespace

// ---------------------------------------------------------------------------
// DiskSuffixTree
// ---------------------------------------------------------------------------

DiskSuffixTree::~DiskSuffixTree() = default;

StatusOr<std::unique_ptr<DiskSuffixTree>> DiskSuffixTree::Open(
    const std::string& base_path) {
  TSW_ASSIGN_OR_RETURN(const ParsedMeta meta, ReadMeta(base_path));
  std::unique_ptr<DiskSuffixTree> tree(new DiskSuffixTree());
  TSW_ASSIGN_OR_RETURN(tree->nodes_file_,
                       storage::MappedFile::Open(NodesPath(base_path)));
  TSW_ASSIGN_OR_RETURN(tree->occs_file_,
                       storage::MappedFile::Open(OccsPath(base_path)));
  TSW_ASSIGN_OR_RETURN(tree->labels_file_,
                       storage::MappedFile::Open(LabelsPath(base_path)));
  TSW_ASSIGN_OR_RETURN(
      tree->nodes_,
      storage::MappedRegion::Create(tree->nodes_file_, sizeof(NodeRecord),
                                    meta.num_nodes, "nodes"));
  TSW_ASSIGN_OR_RETURN(
      tree->occs_,
      storage::MappedRegion::Create(tree->occs_file_, sizeof(OccRecord),
                                    meta.num_occs, "occs"));
  TSW_ASSIGN_OR_RETURN(
      const storage::MappedRegion labels,
      storage::MappedRegion::Create(tree->labels_file_, sizeof(Symbol),
                                    meta.num_label_symbols, "labels"));
  tree->text_ = std::span<const Symbol>(
      reinterpret_cast<const Symbol*>(labels.data()),
      static_cast<std::size_t>(meta.num_label_symbols));
  // Kick off asynchronous population of the whole bundle; queries that
  // arrive before it completes just fault their pages on demand.
  tree->nodes_file_.Advise(storage::AccessHint::kWillNeed);
  tree->occs_file_.Advise(storage::AccessHint::kWillNeed);
  tree->labels_file_.Advise(storage::AccessHint::kWillNeed);
  // The region extents are checked; now every id and label range, after
  // which no accessor below can read outside a mapping.
  const auto* node_records =
      reinterpret_cast<const NodeRecord*>(tree->nodes_.data());
  const auto* occ_records =
      reinterpret_cast<const OccRecord*>(tree->occs_.data());
  TSW_ASSIGN_OR_RETURN(
      tree->materialized_label_symbols_,
      ValidateRecords(
          base_path, meta, [&](std::uint64_t i) { return node_records[i]; },
          [&](std::uint64_t i) { return occ_records[i]; }));
  return tree;
}

const NodeRecord& DiskSuffixTree::Node(NodeId id) const {
  return *reinterpret_cast<const NodeRecord*>(nodes_.RecordAt(id));
}

void DiskSuffixTree::GetChildren(NodeId node, Children* out) const {
  out->text = text_;
  out->edges.clear();
  for (NodeId c = Node(node).first_child; c != kNilNode;) {
    const NodeRecord& crec = Node(c);
    out->edges.push_back({c, crec.label_len, crec.label_offset});
    c = crec.next_sibling;
  }
}

void DiskSuffixTree::GetOccurrences(NodeId node,
                                    std::vector<OccurrenceRec>* out) const {
  for (std::uint32_t o = Node(node).first_occ; o != kNilOcc;) {
    const auto& orec = *reinterpret_cast<const OccRecord*>(occs_.RecordAt(o));
    out->push_back({orec.seq, orec.pos, orec.run});
    o = orec.next;
  }
}

std::uint32_t DiskSuffixTree::SubtreeOccCount(NodeId node) const {
  return Node(node).subtree_occ;
}

Pos DiskSuffixTree::MaxRun(NodeId node) const { return Node(node).max_run; }

std::uint64_t DiskSuffixTree::SizeBytes() const {
  return kMetaPageSize + NumNodes() * sizeof(NodeRecord) +
         NumOccurrences() * sizeof(OccRecord) + text_.size() * sizeof(Symbol);
}

void DiskSuffixTree::HintSequentialScan() const {
  // Only the records are scanned front to back; labels are read at
  // wherever each edge references the text.
  nodes_file_.Advise(storage::AccessHint::kSequential);
  occs_file_.Advise(storage::AccessHint::kSequential);
}

std::uint64_t DiskSuffixTree::MappedBytes() const {
  return nodes_file_.size_bytes() + occs_file_.size_bytes() +
         labels_file_.size_bytes();
}

std::uint64_t DiskSuffixTree::ResidentBytes() const {
  return nodes_file_.ResidentBytes() + occs_file_.ResidentBytes() +
         labels_file_.ResidentBytes();
}

// ---------------------------------------------------------------------------
// High-level build
// ---------------------------------------------------------------------------

Status WriteTreeToDisk(const SuffixTree& tree, const std::string& base_path) {
  if (!tree.finalized()) {
    return Status::FailedPrecondition("writing an unfinalized tree to " +
                                      base_path);
  }
  TSW_RETURN_IF_ERROR(tree.status());
  const std::span<const Symbol> text = tree.Text();
  const std::span<const OccRecord> occs(tree.occurrences_);
  const std::span<const SuffixTree::Node> nodes(tree.nodes_);
  TSW_RETURN_IF_ERROR(
      storage::WriteFile(LabelsPath(base_path), std::as_bytes(text)));
  TSW_RETURN_IF_ERROR(
      storage::WriteFile(OccsPath(base_path), std::as_bytes(occs)));
  // The in-memory node is 28 bytes, the record 32: convert a bounded
  // chunk at a time, never the whole region at once.
  constexpr std::size_t kNodesPerChunk = 2048;  // 64 KiB of records.
  std::vector<NodeRecord> chunk;
  chunk.reserve(std::min(kNodesPerChunk, nodes.size()));
  std::size_t next = 0;
  TSW_RETURN_IF_ERROR(storage::WriteFile(NodesPath(base_path), [&] {
    const std::size_t n = std::min(kNodesPerChunk, nodes.size() - next);
    chunk.clear();
    for (const SuffixTree::Node& node : nodes.subspan(next, n)) {
      chunk.push_back({node.label_begin, node.label_len, node.first_child,
                       node.next_sibling, node.first_occ, node.subtree_occ,
                       node.max_run});
    }
    next += n;
    return std::as_bytes(std::span<const NodeRecord>(chunk));
  }));
  // The meta page goes last: a finalized meta names regions that are
  // already durable.
  const std::uint64_t num_nodes = nodes.size();
  const std::uint64_t num_occs = occs.size();
  const std::uint64_t num_label_symbols = text.size();
  std::vector<std::byte> page(kMetaPageSize);
  const MetaRecord meta{kMetaMagic, kMetaVersionV2, 1u, num_nodes, num_occs,
                        num_label_symbols};
  std::memcpy(page.data(), &meta, sizeof(meta));
  const std::uint32_t table_header[2] = {kNumSections, kRecordAlignment};
  std::memcpy(page.data() + kSectionTableOffset, table_header,
              sizeof(table_header));
  const SectionEntry sections[kNumSections] = {
      {kRegionNodes, static_cast<std::uint32_t>(sizeof(NodeRecord)),
       num_nodes, num_nodes * sizeof(NodeRecord)},
      {kRegionOccs, static_cast<std::uint32_t>(sizeof(OccRecord)), num_occs,
       num_occs * sizeof(OccRecord)},
      {kRegionLabels, static_cast<std::uint32_t>(sizeof(Symbol)),
       num_label_symbols, num_label_symbols * sizeof(Symbol)},
  };
  std::memcpy(page.data() + kSectionEntriesOffset, sections,
              sizeof(sections));
  TSW_RETURN_IF_ERROR(storage::WriteFile(MetaPath(base_path), page));
  // The bundle's directory entries must survive power loss too: without
  // this, a crash after the write could leave a tier whose files simply
  // never existed as far as the recovered filesystem is concerned.
  return storage::SyncDir(ParentDir(base_path));
}

void RemoveDiskTree(const std::string& base_path) {
  std::remove(NodesPath(base_path).c_str());
  std::remove(OccsPath(base_path).c_str());
  std::remove(LabelsPath(base_path).c_str());
  std::remove(MetaPath(base_path).c_str());
  std::remove(SumsPath(base_path).c_str());
}

StatusOr<std::unique_ptr<DiskSuffixTree>> BuildDiskTree(
    const SymbolDatabase& db, const std::string& base_path,
    DiskBuildOptions options) {
  TSW_CHECK(options.batch_sequences >= 1);
  if (db.size() == 0) {
    return Status::InvalidArgument("empty symbol database");
  }
  // Every batch tree references this one text, so every intermediate
  // bundle stores the same .labels and merges share it.
  const auto shared_text = std::make_shared<const SymbolText>(db);

  // The intermediate bundles, in creation order (bundle i is `.tmp<i>`);
  // pending[head..] are still on disk.
  std::vector<std::string> pending;
  std::size_t head = 0;
  const auto next_tmp = [&] {
    pending.push_back(base_path + ".tmp" + std::to_string(pending.size()));
    return pending.back();
  };
  const Status built = [&]() -> Status {
    // Phase 1: spill batch trees. The copy fixes each spill's node order.
    for (SeqId begin = 0; begin < db.size();
         begin += static_cast<SeqId>(options.batch_sequences)) {
      const SeqId end = static_cast<SeqId>(
          std::min<std::size_t>(db.size(), begin + options.batch_sequences));
      SuffixTreeBuilder builder(shared_text, options.build);
      for (SeqId id = begin; id < end; ++id) builder.InsertSequence(id);
      const SuffixTree batch = builder.Build();
      TSW_RETURN_IF_ERROR(batch.status());
      SuffixTree spill;
      CopyTree(batch, &spill);
      TSW_RETURN_IF_ERROR(WriteTreeToDisk(spill, next_tmp()));
    }

    // Phase 2: binary merges of trees of increasing size (FIFO pairing).
    while (pending.size() - head > 1) {
      {
        TSW_ASSIGN_OR_RETURN(auto view_a, DiskSuffixTree::Open(pending[head]));
        TSW_ASSIGN_OR_RETURN(auto view_b,
                             DiskSuffixTree::Open(pending[head + 1]));
        SuffixTree merged;
        MergeTrees(*view_a, *view_b, &merged, nullptr, MergeText::kShared);
        TSW_RETURN_IF_ERROR(WriteTreeToDisk(merged, next_tmp()));
      }
      RemoveDiskTree(pending[head++]);
      RemoveDiskTree(pending[head++]);
    }

    // Rename the survivor into place, then persist the renames.
    const std::string& last = pending[head];
    RemoveDiskTree(base_path);
    for (const char* suffix : {".meta", ".nodes", ".occs", ".labels"}) {
      const std::string from = last + suffix;
      const std::string to = base_path + suffix;
      if (std::rename(from.c_str(), to.c_str()) != 0) {
        return Status::IOError("rename " + from + " -> " + to + " failed");
      }
    }
    return storage::SyncDir(ParentDir(base_path));
  }();
  if (!built.ok()) {
    for (std::size_t i = head; i < pending.size(); ++i) {
      RemoveDiskTree(pending[i]);
    }
    return built;
  }
  return DiskSuffixTree::Open(base_path);
}

Status DowngradeBundleToV1ForTest(const std::string& base_path) {
  std::vector<std::byte> page(kMetaPageSize);
  {
    TSW_ASSIGN_OR_RETURN(const storage::MappedFile file,
                         storage::MappedFile::Open(MetaPath(base_path)));
    if (file.size_bytes() < sizeof(MetaRecord)) {
      return Status::Corruption("truncated meta page " + MetaPath(base_path));
    }
    std::memcpy(page.data(), file.bytes().data(), sizeof(MetaRecord));
  }
  MetaRecord meta{};
  std::memcpy(&meta, page.data(), sizeof(meta));
  if (meta.magic != kMetaMagic) {
    return Status::Corruption("bad magic in " + MetaPath(base_path));
  }
  // A v1 writer never emitted anything past the MetaRecord.
  meta.version = kMetaVersionV1;
  std::memcpy(page.data(), &meta, sizeof(meta));
  return storage::WriteFile(MetaPath(base_path), page);
}

}  // namespace tswarp::suffixtree
