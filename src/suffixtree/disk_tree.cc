#include "suffixtree/disk_tree.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "suffixtree/merge.h"

namespace tswarp::suffixtree {

namespace {

using internal::kNilOcc;
using internal::NodeRecord;
using internal::OccRecord;

constexpr std::uint64_t kMetaMagic = 0x545357545245451ull;  // "TSWTREE"+1

// Format versions. v1 is the bare MetaRecord; v2 added the section table
// below, with 32-byte node records. Neither is read any more: v3 stores
// the 28-byte node record a SuffixTree holds.
constexpr std::uint32_t kMetaVersionV1 = 1;
constexpr std::uint32_t kMetaVersionV2 = 2;
constexpr std::uint32_t kMetaVersionV3 = 3;

// Every record field is a u32, so every record is 4-byte aligned in its
// mapping (which starts on a page). A 28-byte node record may straddle a
// cache line, as the in-memory node always has.
constexpr std::uint32_t kRecordAlignment = 4;
static_assert(alignof(NodeRecord) == kRecordAlignment);
static_assert(alignof(OccRecord) == kRecordAlignment);
static_assert(alignof(Symbol) == kRecordAlignment);

// v1 meta page: just this record. Later pages append the section table.
struct MetaRecord {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t finalized;
  std::uint64_t num_nodes;
  std::uint64_t num_occs;
  std::uint64_t num_label_symbols;
};
static_assert(sizeof(MetaRecord) == 40);

// One section-table entry per region file, in region-id order. The
// table makes the bundle self-describing: the opener validates record
// sizes and byte lengths against the actual files before handing out any
// pointer, so truncation fails cleanly at Open.
enum RegionId : std::uint32_t {
  kRegionNodes = 0,
  kRegionOccs = 1,
  kRegionLabels = 2,
};
constexpr std::uint32_t kNumSections = 3;

struct SectionEntry {
  std::uint32_t region;       // RegionId
  std::uint32_t record_size;  // bytes per fixed record
  std::uint64_t record_count;
  std::uint64_t byte_length;  // record_count * record_size
};
static_assert(sizeof(SectionEntry) == 24);

// The meta file is one zero-padded page: the MetaRecord, the section
// table header (count, alignment), then the entries.
constexpr std::size_t kMetaPageSize = internal::kMetaPageBytes;
constexpr std::size_t kSectionTableOffset = sizeof(MetaRecord);
constexpr std::size_t kSectionEntriesOffset =
    kSectionTableOffset + 2 * sizeof(std::uint32_t);
static_assert(kSectionEntriesOffset + kNumSections * sizeof(SectionEntry) <=
              kMetaPageSize);

// The files of a bundle, in the order RenameDiskTree moves them.
constexpr const char* kBundleFiles[] = {".meta", ".nodes", ".occs",
                                        ".labels"};

std::string NodesPath(const std::string& base) { return base + ".nodes"; }
std::string OccsPath(const std::string& base) { return base + ".occs"; }
std::string LabelsPath(const std::string& base) { return base + ".labels"; }
std::string MetaPath(const std::string& base) { return base + ".meta"; }
std::string SumsPath(const std::string& base) { return base + ".sums"; }

std::string ParentDir(const std::string& base_path) {
  return std::filesystem::path(base_path).parent_path().string();
}

/// Counts recovered from a validated meta page.
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
  if (meta.version == kMetaVersionV1 || meta.version == kMetaVersionV2) {
    return Status::Corruption(
        "bundle " + base_path + " is format v" +
        std::to_string(meta.version) +
        (meta.version == kMetaVersionV1 ? " (no section table)"
                                        : " (32-byte node records)") +
        ", which this build no longer reads: rebuild the index");
  }
  if (meta.version != kMetaVersionV3) {
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
  if (section_count != kNumSections || alignment != kRecordAlignment) {
    return Status::Corruption("bad section table header in " + path);
  }
  const std::uint64_t expect_count[kNumSections] = {
      meta.num_nodes, meta.num_occs, meta.num_label_symbols};
  const std::uint32_t expect_size[kNumSections] = {
      sizeof(NodeRecord), sizeof(OccRecord), sizeof(Symbol)};
  // Records address nodes, occurrences and text positions with u32
  // fields, so no count can exceed 2^32 - 1. Refusing larger ones also
  // keeps the byte lengths checked below from wrapping a u64.
  constexpr const char* kCountNames[kNumSections] = {
      "node count", "occurrence count", "label symbol count"};
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    if (expect_count[i] > 0xFFFFFFFFull) {
      return Status::Corruption(std::string(kCountNames[i]) + " " +
                                std::to_string(expect_count[i]) +
                                " exceeds the 32-bit record fields in " +
                                path);
    }
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

/// Checks every node and occurrence record of a bundle: the root must exist,
/// child, sibling and
/// occurrence ids must be nil or below their counts, and every non-root
/// label must be non-empty and lie inside the text (searches and merges
/// read each edge's first symbol). After it, no accessor can read outside
/// a region, whatever the records say. Returns the sum of the label
/// lengths (MaterializedLabelSymbols) on success.
StatusOr<std::uint64_t> ValidateRecords(const std::string& base_path,
                                        const ParsedMeta& meta,
                                        std::span<const NodeRecord> nodes,
                                        std::span<const OccRecord> occs) {
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

  // Every reader starts at the root, record 0.
  if (meta.num_nodes == 0) {
    return Status::Corruption("no root node record in " + base_path);
  }
  // Pass 1 only decides, without branches: this pass is most of Open.
  bool ok = true;
  std::uint64_t label_symbols = 0;
  for (std::uint64_t i = 0; i < meta.num_nodes; ++i) {
    const NodeRecord& rec = nodes[i];
    ok &= label_ok(rec, i) & id_ok(rec.first_child, meta.num_nodes) &
          id_ok(rec.next_sibling, meta.num_nodes) &
          id_ok(rec.first_occ, meta.num_occs);
    label_symbols += rec.label_len;
  }
  for (const OccRecord& occ : occs) ok &= id_ok(occ.next, meta.num_occs);
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
    const NodeRecord& rec = nodes[i];
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
    const std::uint32_t next = occs[i].next;
    if (!id_ok(next, meta.num_occs)) return bad("occurrence id", i, next);
  }
  return Status::Corruption("inconsistent records in " + base_path);
}


}  // namespace

// ---------------------------------------------------------------------------
// DiskSuffixTree
// ---------------------------------------------------------------------------

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
      const std::span<const NodeRecord> nodes,
      tree->nodes_file_.Records<NodeRecord>(meta.num_nodes, "nodes"));
  TSW_ASSIGN_OR_RETURN(
      const std::span<const OccRecord> occs,
      tree->occs_file_.Records<OccRecord>(meta.num_occs, "occs"));
  TSW_ASSIGN_OR_RETURN(const std::span<const Symbol> labels,
                       tree->labels_file_.Records<Symbol>(
                           meta.num_label_symbols, "labels"));
  // Kick off asynchronous population of the whole bundle; queries that
  // arrive before it completes just fault their pages on demand.
  tree->nodes_file_.Advise(storage::AccessHint::kWillNeed);
  tree->occs_file_.Advise(storage::AccessHint::kWillNeed);
  tree->labels_file_.Advise(storage::AccessHint::kWillNeed);
  // The region extents are checked; now every id and label range, after
  // which no accessor can read outside a mapping.
  TSW_ASSIGN_OR_RETURN(const std::uint64_t label_symbols,
                       ValidateRecords(base_path, meta, nodes, occs));
  tree->SetRecords(nodes, occs, labels, label_symbols);
  return tree;
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
  const std::span<const OccRecord> occs = tree.OccRecords();
  const std::span<const NodeRecord> nodes = tree.NodeRecords();
  TSW_RETURN_IF_ERROR(
      storage::WriteFile(LabelsPath(base_path), std::as_bytes(text)));
  TSW_RETURN_IF_ERROR(
      storage::WriteFile(OccsPath(base_path), std::as_bytes(occs)));
  TSW_RETURN_IF_ERROR(
      storage::WriteFile(NodesPath(base_path), std::as_bytes(nodes)));
  // The meta page goes last: a finalized meta names regions that are
  // already durable.
  const std::uint64_t num_nodes = nodes.size();
  const std::uint64_t num_occs = occs.size();
  const std::uint64_t num_label_symbols = text.size();
  std::vector<std::byte> page(kMetaPageSize);
  const MetaRecord meta{kMetaMagic, kMetaVersionV3, 1u, num_nodes, num_occs,
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
  for (const char* ext : kBundleFiles) {
    std::remove((base_path + ext).c_str());
  }
  std::remove(SumsPath(base_path).c_str());
}

Status RenameDiskTree(const std::string& from, const std::string& to) {
  RemoveDiskTree(to);
  for (const char* ext : kBundleFiles) {
    const std::string source = from + ext;
    const std::string target = to + ext;
    if (std::rename(source.c_str(), target.c_str()) != 0) {
      return Status::IOError("rename " + source + " -> " + target + ": " +
                             std::strerror(errno));
    }
  }
  return storage::SyncDir(ParentDir(to));
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
    // A merge visits both inputs roughly front to back (node ids are
    // allocated in creation order), so their mappings stream.
    while (pending.size() - head > 1) {
      {
        TSW_ASSIGN_OR_RETURN(auto view_a, DiskSuffixTree::Open(pending[head]));
        TSW_ASSIGN_OR_RETURN(auto view_b,
                             DiskSuffixTree::Open(pending[head + 1]));
        view_a->HintSequentialScan();
        view_b->HintSequentialScan();
        SuffixTree merged;
        MergeTrees(*view_a, *view_b, &merged, nullptr, MergeText::kShared);
        TSW_RETURN_IF_ERROR(WriteTreeToDisk(merged, next_tmp()));
      }
      RemoveDiskTree(pending[head++]);
      RemoveDiskTree(pending[head++]);
    }

    // Rename the survivor into place.
    return RenameDiskTree(pending[head], base_path);
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
