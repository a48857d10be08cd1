#include "suffixtree/disk_tree.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
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
  return std::filesystem::path(base_path).parent_path().string();
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
  std::unique_ptr<DiskSuffixTree> tree(new DiskSuffixTree());
  TSW_ASSIGN_OR_RETURN(tree->file_, storage::MappedFile::Open(path));
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
  TSW_ASSIGN_OR_RETURN(const std::uint64_t label_symbols,
                       ValidateRecords(path, nodes, occs, labels.size()));
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
  if (!tree.finalized()) {
    return Status::FailedPrecondition("writing an unfinalized tree to " +
                                      base_path);
  }
  TSW_RETURN_IF_ERROR(tree.status());
  if (fingerprint.size() > kMaxFingerprintBytes) {
    return Status::InvalidArgument(
        "fingerprint of " + std::to_string(fingerprint.size()) +
        " bytes exceeds the bundle header's " +
        std::to_string(kMaxFingerprintBytes));
  }
  const std::span<const NodeRecord> nodes = tree.NodeRecords();
  const std::span<const OccRecord> occs = tree.OccRecords();
  const std::span<const Symbol> text = tree.Text();
  const std::uint64_t occs_offset = kHeaderBytes + nodes.size_bytes();
  const std::uint64_t labels_offset = occs_offset + occs.size_bytes();
  const Header header{
      kMagic,
      kVersion,
      static_cast<std::uint32_t>(fingerprint.size()),
      {{kSectionNodes, sizeof(NodeRecord), nodes.size(), kHeaderBytes},
       {kSectionOccs, sizeof(OccRecord), occs.size(), occs_offset},
       {kSectionLabels, sizeof(Symbol), text.size(), labels_offset}}};
  std::array<std::byte, kHeaderBytes> page{};
  std::memcpy(page.data(), &header, sizeof(header));
  if (!fingerprint.empty()) {
    std::memcpy(page.data() + sizeof(header), fingerprint.data(),
                fingerprint.size());
  }
  return storage::WriteFile(BundlePath(base_path),
                            {page, std::as_bytes(nodes), std::as_bytes(occs),
                             std::as_bytes(text)});
}

void RemoveDiskTree(const std::string& base_path) {
  std::remove(BundlePath(base_path).c_str());
}

Status RenameDiskTree(const std::string& from, const std::string& to) {
  const std::string source = BundlePath(from);
  const std::string target = BundlePath(to);
  if (std::rename(source.c_str(), target.c_str()) != 0) {
    return Status::IOError("rename " + source + " -> " + target + ": " +
                           std::strerror(errno));
  }
  return storage::SyncDir(ParentDir(to));
}

StatusOr<std::unique_ptr<DiskSuffixTree>> BuildDiskTree(
    const SymbolDatabase& db, const std::string& base_path,
    DiskBuildOptions options, std::span<const std::byte> fingerprint) {
  TSW_CHECK(options.batch_sequences >= 1);
  if (db.size() == 0) {
    return Status::InvalidArgument("empty symbol database");
  }
  // Every batch tree references this one text, so every intermediate
  // bundle stores the same labels section and merges share it.
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
      TSW_RETURN_IF_ERROR(WriteTreeToDisk(spill, next_tmp(), fingerprint));
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
        TSW_RETURN_IF_ERROR(WriteTreeToDisk(merged, next_tmp(), fingerprint));
      }
      RemoveDiskTree(pending[head++]);
      RemoveDiskTree(pending[head++]);
    }

    // Publish the survivor: the one rename replaces any older bundle.
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

}  // namespace tswarp::suffixtree
