#include "suffixtree/disk_tree.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>

#include "common/logging.h"
#include "suffixtree/merge.h"

namespace tswarp::suffixtree {

namespace {

using internal::kNilOcc;
using internal::NodeRecord;
using internal::OccRecord;

constexpr std::uint64_t kMagic = 0x545357545245451ull;  // "TSWTREE"+1

// Format v4 is one file. v1-v3 were a `.meta` page over four region
// files; none of them is read any more.
constexpr std::uint32_t kVersion = 4;

// Every record field is a u32, so every record is 4-byte aligned in the
// mapping (which starts on a page) when its section starts on a multiple
// of 4. A 28-byte node record may straddle a cache line, as the in-memory
// node always has.
constexpr std::uint32_t kRecordAlignment = 4;
static_assert(alignof(NodeRecord) == kRecordAlignment);
static_assert(alignof(OccRecord) == kRecordAlignment);
static_assert(alignof(Symbol) == kRecordAlignment);

// One section-table entry per section, in this order. The table makes the
// file self-describing: the opener checks record sizes and extents
// against the file before handing out any pointer, so truncation fails
// cleanly at Open.
enum SectionId : std::uint32_t {
  kSectionNodes = 0,
  kSectionOccs = 1,
  kSectionLabels = 2,
};
constexpr std::uint32_t kNumSections = 3;

struct SectionEntry {
  std::uint32_t section;      // SectionId
  std::uint32_t record_size;  // bytes per fixed record
  std::uint64_t record_count;
  std::uint64_t byte_offset;  // from the start of the file
};
static_assert(sizeof(SectionEntry) == 24);

// The start of the zero-padded header page; the fingerprint follows it.
struct Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t fingerprint_bytes;
  SectionEntry sections[kNumSections];
};
static_assert(sizeof(Header) == 88);
constexpr std::size_t kHeaderBytes = internal::kHeaderBytes;
static_assert(sizeof(Header) + kMaxFingerprintBytes <= kHeaderBytes);

std::string BundlePath(const std::string& base) { return base + ".tsw"; }

std::string ParentDir(const std::string& base_path) {
  const std::string dir = std::filesystem::path(base_path).parent_path();
  return dir.empty() ? "." : dir;
}

/// The header of the mapped bundle `file`, its section table checked:
/// each section has its id, its record size and a count the 32-bit record
/// fields can address, and starts aligned past the header. Extents are
/// checked when the sections are mapped (MappedFile::Records).
StatusOr<Header> ReadHeader(const storage::MappedFile& file) {
  const std::string& path = file.path();
  const std::span<const std::byte> bytes = file.bytes();
  Header header{};
  if (bytes.size() >= sizeof(header)) {
    std::memcpy(&header, bytes.data(), sizeof(header));
  }
  if (header.magic != kMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  if (header.version != kVersion) {
    return Status::Corruption("bundle " + path + " is format v" +
                              std::to_string(header.version) +
                              ", which this build does not read: rebuild "
                              "the index");
  }
  if (bytes.size() < kHeaderBytes) {
    return Status::Corruption("truncated header in " + path);
  }
  if (header.fingerprint_bytes > kMaxFingerprintBytes) {
    return Status::Corruption("bad fingerprint length " +
                              std::to_string(header.fingerprint_bytes) +
                              " in " + path);
  }
  constexpr std::uint32_t kRecordSize[kNumSections] = {
      sizeof(NodeRecord), sizeof(OccRecord), sizeof(Symbol)};
  // Records address nodes, occurrences and text positions with u32
  // fields, so no count can exceed 2^32 - 1. Refusing larger ones also
  // keeps the byte lengths below from wrapping a u64.
  constexpr const char* kCountNames[kNumSections] = {
      "node count", "occurrence count", "label symbol count"};
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    const SectionEntry& entry = header.sections[i];
    if (entry.record_count > 0xFFFFFFFFull) {
      return Status::Corruption(std::string(kCountNames[i]) + " " +
                                std::to_string(entry.record_count) +
                                " exceeds the 32-bit record fields in " +
                                path);
    }
    if (entry.section != i || entry.record_size != kRecordSize[i] ||
        entry.byte_offset < kHeaderBytes ||
        entry.byte_offset % kRecordAlignment != 0) {
      return Status::Corruption("bad section table entry " +
                                std::to_string(i) + " in " + path);
    }
  }
  return header;
}

/// Checks every node and occurrence record of a bundle: the root must exist,
/// child, sibling and occurrence ids must be nil or below their counts, and every non-root
/// label must be non-empty and lie inside the text (searches and merges
/// read each edge's first symbol). After it, no accessor can read outside
/// a region, whatever the records say. Returns the sum of the label
/// lengths (MaterializedLabelSymbols) on success.
StatusOr<std::uint64_t> ValidateRecords(const std::string& path,
                                        std::span<const NodeRecord> nodes,
                                        std::span<const OccRecord> occs,
                                        std::uint64_t text) {
  // An id is valid when nil (0xFFFFFFFF) or below its count: adding 1 maps
  // nil to 0 and every valid id to at most the count.
  static_assert(kNilNode == 0xFFFFFFFFu && kNilOcc == 0xFFFFFFFFu);
  const auto id_ok = [](std::uint32_t id, std::uint64_t count) {
    return std::uint64_t{static_cast<std::uint32_t>(id + 1)} <= count;
  };
  const std::uint64_t num_nodes = nodes.size();
  const std::uint64_t num_occs = occs.size();
  const auto label_ok = [&](const NodeRecord& rec, std::uint64_t i) {
    return (rec.label_offset <= text) &
           (rec.label_len <= text - rec.label_offset) &
           ((rec.label_len != 0) | (i == 0));
  };

  // Every reader starts at the root, record 0.
  if (num_nodes == 0) {
    return Status::Corruption("no root node record in " + path);
  }
  // Pass 1 only decides, without branches: this pass is most of Open.
  bool ok = true;
  std::uint64_t label_symbols = 0;
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    const NodeRecord& rec = nodes[i];
    ok &= label_ok(rec, i) & id_ok(rec.first_child, num_nodes) &
          id_ok(rec.next_sibling, num_nodes) &
          id_ok(rec.first_occ, num_occs);
    label_symbols += rec.label_len;
  }
  for (const OccRecord& occ : occs) ok &= id_ok(occ.next, num_occs);
  if (ok) return label_symbols;

  // Pass 2 names the first bad field.
  const auto bad = [&](const char* what, std::uint64_t index,
                       std::uint64_t value) {
    return Status::Corruption(std::string(what) + " " +
                              std::to_string(value) + " of record " +
                              std::to_string(index) + " out of range in " +
                              path);
  };
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    const NodeRecord& rec = nodes[i];
    if (!label_ok(rec, i)) {
      return rec.label_len == 0 ? bad("label length", i, 0)
                                : bad("label offset", i, rec.label_offset);
    }
    if (!id_ok(rec.first_child, num_nodes)) {
      return bad("child id", i, rec.first_child);
    }
    if (!id_ok(rec.next_sibling, num_nodes)) {
      return bad("sibling id", i, rec.next_sibling);
    }
    if (!id_ok(rec.first_occ, num_occs)) {
      return bad("occurrence id", i, rec.first_occ);
    }
  }
  for (std::uint64_t i = 0; i < num_occs; ++i) {
    const std::uint32_t next = occs[i].next;
    if (!id_ok(next, num_occs)) return bad("occurrence id", i, next);
  }
  return Status::Corruption("inconsistent records in " + path);
}

/// The header page of `tree`'s bundle, carrying `fingerprint`. An
/// unfinalized tree, a failed tree or an oversized fingerprint is refused
/// before anything is written to `where`.
StatusOr<std::array<std::byte, kHeaderBytes>> MakeHeaderPage(
    const SuffixTree& tree, std::span<const std::byte> fingerprint,
    const std::string& where) {
  if (!tree.finalized()) {
    return Status::FailedPrecondition("writing an unfinalized tree to " +
                                      where);
  }
  TSW_RETURN_IF_ERROR(tree.status());
  if (fingerprint.size() > kMaxFingerprintBytes) {
    return Status::InvalidArgument(
        "fingerprint of " + std::to_string(fingerprint.size()) +
        " bytes exceeds the bundle header's " +
        std::to_string(kMaxFingerprintBytes));
  }
  const std::uint64_t nodes = tree.NumNodes();
  const std::uint64_t occs = tree.NumOccurrences();
  const std::uint64_t occs_offset = kHeaderBytes + nodes * sizeof(NodeRecord);
  const std::uint64_t labels_offset = occs_offset + occs * sizeof(OccRecord);
  const Header header{
      kMagic,
      kVersion,
      static_cast<std::uint32_t>(fingerprint.size()),
      {{kSectionNodes, sizeof(NodeRecord), nodes, kHeaderBytes},
       {kSectionOccs, sizeof(OccRecord), occs, occs_offset},
       {kSectionLabels, sizeof(Symbol), tree.Text().size(), labels_offset}}};
  std::array<std::byte, kHeaderBytes> page{};
  std::memcpy(page.data(), &header, sizeof(header));
  if (!fingerprint.empty()) {
    std::memcpy(page.data() + sizeof(header), fingerprint.data(),
                fingerprint.size());
  }
  return page;
}

/// Writes `tree` to `<base_path>.tmp.tsw`, renames it over `<base_path>.tsw`
/// and fsyncs the directory. A failure removes the `.tmp` file.
Status PublishTree(const SuffixTree& tree, const std::string& base_path,
                   std::span<const std::byte> fingerprint) {
  const std::string tmp = base_path + ".tmp";
  Status status = WriteTreeToDisk(tree, tmp, fingerprint);
  if (status.ok() && std::rename(BundlePath(tmp).c_str(),
                                 BundlePath(base_path).c_str()) != 0) {
    status = Status::IOError("rename " + BundlePath(tmp) + ": " +
                             std::strerror(errno));
  }
  if (status.ok()) return storage::SyncDir(ParentDir(base_path));
  RemoveDiskTree(tmp);
  return status;
}

}  // namespace

// ---------------------------------------------------------------------------
// DiskSuffixTree
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<DiskSuffixTree>> DiskSuffixTree::Open(
    const std::string& base_path, const FingerprintCheck& check_fingerprint) {
  const std::string path = BundlePath(base_path);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    // Formats v1-v3 kept a `.meta` page next to four region files.
    if (std::filesystem::exists(base_path + ".meta", ec)) {
      return Status::Corruption(
          "bundle " + base_path + " is an older format (" + base_path +
          ".meta and its region files), which this build no longer reads: "
          "rebuild the index");
    }
    return Status::NotFound("no index bundle at " + path);
  }
  return FromFile(storage::MappedFile::Open(path), check_fingerprint);
}

StatusOr<std::unique_ptr<DiskSuffixTree>> DiskSuffixTree::FromFile(
    StatusOr<storage::MappedFile> mapped,
    const FingerprintCheck& check_fingerprint) {
  std::unique_ptr<DiskSuffixTree> tree(new DiskSuffixTree());
  TSW_ASSIGN_OR_RETURN(tree->file_, std::move(mapped));
  const storage::MappedFile& file = tree->file_;
  TSW_ASSIGN_OR_RETURN(const Header header, ReadHeader(file));
  if (check_fingerprint) {
    TSW_RETURN_IF_ERROR(check_fingerprint(
        file.bytes().subspan(sizeof(Header), header.fingerprint_bytes)));
  }
  const SectionEntry* sections = header.sections;
  TSW_ASSIGN_OR_RETURN(
      const std::span<const NodeRecord> nodes,
      file.Records<NodeRecord>(sections[kSectionNodes].record_count, "nodes",
                               sections[kSectionNodes].byte_offset));
  TSW_ASSIGN_OR_RETURN(
      const std::span<const OccRecord> occs,
      file.Records<OccRecord>(sections[kSectionOccs].record_count, "occs",
                              sections[kSectionOccs].byte_offset));
  TSW_ASSIGN_OR_RETURN(
      const std::span<const Symbol> labels,
      file.Records<Symbol>(sections[kSectionLabels].record_count, "labels",
                           sections[kSectionLabels].byte_offset));
  // Kick off asynchronous population of the whole bundle; queries that
  // arrive before it completes just fault their pages on demand.
  file.Advise(storage::AccessHint::kWillNeed);
  // The section extents are checked; now every id and label range, after
  // which no accessor can read outside the mapping.
  TSW_ASSIGN_OR_RETURN(
      const std::uint64_t label_symbols,
      ValidateRecords(file.path(), nodes, occs, labels.size()));
  tree->SetRecords(nodes, occs, labels, label_symbols);
  return tree;
}

void DiskSuffixTree::HintSequentialScan() const {
  file_.Advise(storage::AccessHint::kSequential);
}

std::uint64_t DiskSuffixTree::MappedBytes() const {
  return file_.size_bytes();
}

std::uint64_t DiskSuffixTree::ResidentBytes() const {
  return file_.ResidentBytes();
}

// ---------------------------------------------------------------------------
// High-level build
// ---------------------------------------------------------------------------

Status WriteTreeToDisk(const SuffixTree& tree, const std::string& base_path,
                       std::span<const std::byte> fingerprint) {
  TSW_ASSIGN_OR_RETURN(const auto page,
                       MakeHeaderPage(tree, fingerprint, base_path));
  return storage::WriteFile(
      BundlePath(base_path),
      {page, std::as_bytes(tree.NodeRecords()),
       std::as_bytes(tree.OccRecords()), std::as_bytes(tree.Text())});
}

StatusOr<std::unique_ptr<DiskSuffixTree>> WriteScratchTree(
    const SuffixTree& tree, const std::string& base_path) {
  TSW_ASSIGN_OR_RETURN(const auto page,
                       MakeHeaderPage(tree, {}, "a scratch file"));
  return DiskSuffixTree::FromFile(
      storage::MappedFile::WriteScratch(
          ParentDir(base_path),
          {page, std::as_bytes(tree.NodeRecords()),
           std::as_bytes(tree.OccRecords()), std::as_bytes(tree.Text())}),
      nullptr);
}

void RemoveDiskTree(const std::string& base_path) {
  std::remove(BundlePath(base_path).c_str());
}

StatusOr<std::unique_ptr<DiskSuffixTree>> BuildDiskTree(
    const SymbolDatabase& db, const std::string& base_path,
    DiskBuildOptions options, std::span<const std::byte> fingerprint) {
  TSW_CHECK(options.batch_sequences >= 1);
  if (db.size() == 0) {
    return Status::InvalidArgument("empty symbol database");
  }
  // Every batch tree references this one text, so every scratch tree
  // stores the same labels section and merges share it.
  const auto shared_text = std::make_shared<const SymbolText>(db);

  // n spills and n - 1 merges write 2n - 1 trees. The last is published;
  // the others are scratch trees waiting for their merge, oldest first.
  std::size_t to_write = 2 * ((db.size() + options.batch_sequences - 1) /
                              options.batch_sequences) - 1;
  std::deque<std::unique_ptr<DiskSuffixTree>> pending;
  const auto write = [&](const SuffixTree& tree) -> Status {
    if (--to_write == 0) return PublishTree(tree, base_path, fingerprint);
    TSW_ASSIGN_OR_RETURN(pending.emplace_back(),
                         WriteScratchTree(tree, base_path));
    return Status::OK();
  };

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
    TSW_RETURN_IF_ERROR(write(spill));
  }

  // Phase 2: binary merges of trees of increasing size (FIFO pairing).
  // A merge visits both inputs roughly front to back (node ids are
  // allocated in creation order), so their mappings stream. The inputs
  // are dropped, and their files freed, before the result is written.
  while (pending.size() > 1) {
    SuffixTree merged;
    {
      const std::unique_ptr<DiskSuffixTree> a = std::move(pending[0]);
      const std::unique_ptr<DiskSuffixTree> b = std::move(pending[1]);
      pending.erase(pending.begin(), pending.begin() + 2);
      a->HintSequentialScan();
      b->HintSequentialScan();
      MergeTrees(*a, *b, &merged, nullptr, MergeText::kShared);
    }
    TSW_RETURN_IF_ERROR(write(merged));
  }
  return DiskSuffixTree::Open(base_path);
}

}  // namespace tswarp::suffixtree
