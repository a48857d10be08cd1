#include "suffixtree/disk_tree.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "suffixtree/merge.h"

namespace tswarp::suffixtree {
namespace {

constexpr std::uint64_t kMetaMagic = 0x545357545245451ull;  // "TSWTREE"+1

// Format versions. v1 (PR 3) is the bare MetaRecord; v2 adds the section
// table below and is required by the mmap read path. The buffered path
// reads both.
constexpr std::uint32_t kMetaVersionV1 = 1;
constexpr std::uint32_t kMetaVersionV2 = 2;

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

// On-disk occurrence record: 16 bytes.
struct OccRecord {
  std::uint32_t seq;
  std::uint32_t pos;
  std::uint32_t run;
  std::uint32_t next;
};
static_assert(sizeof(OccRecord) == 16);

constexpr std::uint32_t kNilOcc = 0xFFFFFFFFu;

// Records must never straddle a page boundary or the zero-copy cursors
// below could not hand out direct pointers into pinned frames.
static_assert(storage::PagedFile::kPageSize % sizeof(NodeRecord) == 0);
static_assert(storage::PagedFile::kPageSize % sizeof(OccRecord) == 0);
static_assert(storage::PagedFile::kPageSize % sizeof(Symbol) == 0);

// v2 alignment contract: record sizes divide the cache line, so no record
// straddles a cache-line (or page) boundary and mapped cursors never split
// a read across lines.
constexpr std::uint32_t kRecordAlignment = 64;
static_assert(kRecordAlignment % sizeof(NodeRecord) == 0);
static_assert(kRecordAlignment % sizeof(OccRecord) == 0);
static_assert(kRecordAlignment % sizeof(Symbol) == 0);
static_assert(kRecordAlignment % sizeof(NodeSummaryRecord) == 0);
static_assert(storage::PagedFile::kPageSize % sizeof(NodeSummaryRecord) == 0);

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
// table is what makes the bundle self-describing for the mmap path: the
// opener validates record sizes and byte lengths against the actual files
// before handing out any pointer, so truncation fails cleanly at Open.
enum RegionId : std::uint32_t {
  kRegionNodes = 0,
  kRegionOccs = 1,
  kRegionLabels = 2,
  // Optional trailing section (node summaries). A 3-section bundle is a
  // plain v2 bundle; a 4-section bundle additionally carries `.sums`.
  kRegionSummaries = 3,
};
constexpr std::uint32_t kNumSections = 3;
constexpr std::uint32_t kMaxSections = 4;

struct SectionEntry {
  std::uint32_t region;       // RegionId
  std::uint32_t record_size;  // bytes per fixed record
  std::uint64_t record_count;
  std::uint64_t byte_length;  // record_count * record_size
};
static_assert(sizeof(SectionEntry) == 24);

constexpr std::size_t kSectionTableOffset = sizeof(MetaRecord);
static_assert(kSectionTableOffset + 2 * sizeof(std::uint32_t) +
                  kMaxSections * sizeof(SectionEntry) <=
              storage::PagedFile::kPageSize);

std::string NodesPath(const std::string& base) { return base + ".nodes"; }
std::string OccsPath(const std::string& base) { return base + ".occs"; }
std::string LabelsPath(const std::string& base) { return base + ".labels"; }
std::string MetaPath(const std::string& base) { return base + ".meta"; }
std::string SumsPath(const std::string& base) { return base + ".sums"; }

std::string ParentDir(const std::string& base_path) {
  return std::filesystem::path(base_path).parent_path().string();
}

/// Counts + format version recovered from a validated meta page.
struct ParsedMeta {
  std::uint32_t version;
  std::uint64_t num_nodes;
  std::uint64_t num_occs;
  std::uint64_t num_label_symbols;
  bool has_summaries = false;
};

StatusOr<ParsedMeta> ReadMeta(const std::string& base_path) {
  TSW_ASSIGN_OR_RETURN(auto meta_file,
                       storage::PagedFile::Open(MetaPath(base_path), false));
  std::vector<std::byte> page(storage::PagedFile::kPageSize);
  TSW_RETURN_IF_ERROR(meta_file.ReadPage(0, page));
  MetaRecord meta;
  std::memcpy(&meta, page.data(), sizeof(meta));
  if (meta.magic != kMetaMagic) {
    return Status::Corruption("bad magic in " + MetaPath(base_path));
  }
  if (meta.version != kMetaVersionV1 && meta.version != kMetaVersionV2) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(meta.version) + " in " +
                              MetaPath(base_path));
  }
  if (meta.finalized != 1) {
    return Status::Corruption("unreadable tree bundle " + base_path);
  }
  bool has_summaries = false;
  if (meta.version == kMetaVersionV2) {
    std::size_t off = kSectionTableOffset;
    std::uint32_t section_count = 0;
    std::uint32_t alignment = 0;
    std::memcpy(&section_count, page.data() + off, sizeof(section_count));
    off += sizeof(section_count);
    std::memcpy(&alignment, page.data() + off, sizeof(alignment));
    off += sizeof(alignment);
    // The summary section is optional: 3 sections is a plain v2 bundle,
    // 4 announces a trailing node-summary region. Anything else is not a
    // bundle this build can describe.
    if ((section_count != kNumSections && section_count != kMaxSections) ||
        alignment != kRecordAlignment) {
      return Status::Corruption("bad section table header in " +
                                MetaPath(base_path));
    }
    const std::uint64_t expect_count[kMaxSections] = {
        meta.num_nodes, meta.num_occs, meta.num_label_symbols,
        meta.num_nodes};
    const std::uint32_t expect_size[kMaxSections] = {
        sizeof(NodeRecord), sizeof(OccRecord), sizeof(Symbol),
        sizeof(NodeSummaryRecord)};
    for (std::uint32_t i = 0; i < section_count; ++i) {
      SectionEntry entry;
      std::memcpy(&entry, page.data() + off, sizeof(entry));
      off += sizeof(entry);
      if (entry.region != i || entry.record_size != expect_size[i] ||
          entry.record_count != expect_count[i] ||
          entry.byte_length != entry.record_count * entry.record_size) {
        return Status::Corruption("bad section table entry " +
                                  std::to_string(i) + " in " +
                                  MetaPath(base_path));
      }
    }
    has_summaries = section_count == kMaxSections;
  }
  return ParsedMeta{meta.version, meta.num_nodes, meta.num_occs,
                    meta.num_label_symbols, has_summaries};
}

/// Zero-copy access to fixed-size records of one region. Get() pins the
/// record's page and returns a pointer straight into the frame; the pin
/// (a read guard) is held until the next Get() on a different page or the
/// cursor dies. Holding a read guard across further pins is explicitly
/// allowed by the manager, so cursors for several regions can be live at
/// once (GetOccurrences walks nodes and occs together) — but to keep the
/// latch-order graph acyclic, accessors must only pin in the region
/// order nodes -> occs while a guard is held.
template <typename T>
class RecordCursor {
 public:
  explicit RecordCursor(storage::BufferManager* mgr) : mgr_(mgr) {}

  /// Pointer valid until the next Get() on this cursor.
  const T* Get(std::uint64_t index) {
    const std::uint64_t offset = index * sizeof(T);
    const std::uint64_t page_no = offset / storage::PagedFile::kPageSize;
    if (!guard_.valid() || guard_.page_no() != page_no) {
      guard_.Release();
      auto pinned = mgr_->Pin(page_no, storage::PinIntent::kRead);
      TSW_CHECK(pinned.ok()) << pinned.status();
      guard_ = std::move(pinned).value();
    }
    return reinterpret_cast<const T*>(
        guard_.bytes().data() + offset % storage::PagedFile::kPageSize);
  }

 private:
  storage::BufferManager* mgr_;
  storage::PageGuard guard_;
};

// Writer-side helpers on the byte-copy shim (records are patched in
// place, and the writer is single-threaded, so guards buy nothing here).

Status ReadNode(storage::BufferManager& mgr, NodeId id, NodeRecord* out) {
  return mgr.Read(static_cast<std::uint64_t>(id) * sizeof(NodeRecord), out,
                  sizeof(NodeRecord));
}

Status WriteNode(storage::BufferManager& mgr, NodeId id,
                 const NodeRecord& rec) {
  return mgr.Write(static_cast<std::uint64_t>(id) * sizeof(NodeRecord), &rec,
                   sizeof(NodeRecord));
}

Status ReadOcc(storage::BufferManager& mgr, std::uint32_t id,
               OccRecord* out) {
  return mgr.Read(static_cast<std::uint64_t>(id) * sizeof(OccRecord), out,
                  sizeof(OccRecord));
}

/// Writes `bytes` as a fresh region file at `path` (the last page
/// zero-padded) and syncs it.
Status WriteRegionFile(const std::string& path,
                       std::span<const std::byte> bytes) {
  TSW_ASSIGN_OR_RETURN(auto file, storage::PagedFile::Create(path));
  std::vector<std::byte> page(storage::PagedFile::kPageSize);
  std::uint64_t written = 0;
  for (std::uint64_t page_no = 0; written < bytes.size(); ++page_no) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(bytes.size() - written, page.size());
    std::memcpy(page.data(), bytes.data() + written, chunk);
    if (chunk < page.size()) {
      std::fill(page.begin() + static_cast<std::ptrdiff_t>(chunk), page.end(),
                std::byte{0});
    }
    TSW_RETURN_IF_ERROR(file.WritePage(page_no, page));
    written += chunk;
  }
  return file.Sync();
}

/// Fills `out` from the start of region file `path`; Corruption when the
/// file is shorter than the section table claims.
Status ReadRegionFile(const std::string& path, std::span<std::byte> out,
                      const char* what) {
  TSW_ASSIGN_OR_RETURN(auto file, storage::PagedFile::Open(path, false));
  if (file.SizeBytes() < out.size()) {
    return Status::Corruption(
        std::string(what) + " section truncated: " + path + " holds " +
        std::to_string(file.SizeBytes()) + " bytes, section table claims " +
        std::to_string(out.size()));
  }
  std::vector<std::byte> page(storage::PagedFile::kPageSize);
  std::uint64_t copied = 0;
  for (std::uint64_t page_no = 0; copied < out.size(); ++page_no) {
    TSW_RETURN_IF_ERROR(file.ReadPage(page_no, page));
    const std::uint64_t chunk =
        std::min<std::uint64_t>(out.size() - copied, page.size());
    std::memcpy(out.data() + copied, page.data(), chunk);
    copied += chunk;
  }
  return Status::OK();
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

  // Pass 1 only decides, without branches: on the mmap path this pass is
  // most of Open.
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
// Node-access layer
// ---------------------------------------------------------------------------

namespace internal {

/// Backend behind DiskSuffixTree's read accessors. Implementations must
/// be safe for concurrent reads from many threads.
class TreeAccess {
 public:
  virtual ~TreeAccess() = default;

  /// Fills out->edges only; the caller supplies the text.
  virtual void GetChildren(NodeId node, Children* out) const = 0;
  virtual void GetOccurrences(NodeId node,
                              std::vector<OccurrenceRec>* out) const = 0;
  /// The bundle's text.
  virtual std::span<const Symbol> Text() const = 0;
  /// ValidateRecords over this backend's records.
  virtual StatusOr<std::uint64_t> Validate(const std::string& base_path,
                                           const ParsedMeta& meta) const = 0;
  virtual std::uint32_t SubtreeOccCount(NodeId node) const = 0;
  virtual Pos MaxRun(NodeId node) const = 0;
  virtual void HintSequentialScan() const = 0;
  virtual RegionStats PoolStats() const = 0;
  virtual storage::IoMode io_mode() const = 0;
  virtual std::size_t pool_shards() const = 0;
  virtual storage::EvictionPolicyKind pool_eviction() const = 0;
  virtual std::uint64_t MappedBytes() const = 0;
  virtual std::uint64_t ResidentBytes() const = 0;
  /// Records of the bundle's summary section; empty when absent or not
  /// loaded. Stable for the backend's lifetime.
  virtual std::span<const NodeSummaryRecord> NodeSummaries() const = 0;
};

}  // namespace internal

namespace {

/// The buffered read path: sharded BufferManagers with a bounded frame budget
/// for the node and occurrence records. Handles bundles larger than RAM
/// and v1 bundles; also the only backend usable while a writer still
/// exists (construction, merges). The text is read into memory at Open.
class BufferedTreeAccess : public internal::TreeAccess {
 public:
  static StatusOr<std::unique_ptr<internal::TreeAccess>> Open(
      const std::string& base_path, const DiskTreeOptions& options,
      const ParsedMeta& meta) {
    auto access = std::unique_ptr<BufferedTreeAccess>(new BufferedTreeAccess);
    access->readahead_pages_ = options.readahead_pages;
    if (meta.has_summaries && options.load_node_summaries) {
      access->summaries_.resize(static_cast<std::size_t>(meta.num_nodes));
      TSW_RETURN_IF_ERROR(ReadRegionFile(
          SumsPath(base_path), std::as_writable_bytes(std::span(
                                   access->summaries_)),
          "summary"));
    }
    access->text_.resize(static_cast<std::size_t>(meta.num_label_symbols));
    TSW_RETURN_IF_ERROR(ReadRegionFile(
        LabelsPath(base_path),
        std::as_writable_bytes(std::span(access->text_)), "labels"));
    TSW_ASSIGN_OR_RETURN(
        auto nodes_file, storage::PagedFile::Open(NodesPath(base_path), false));
    TSW_ASSIGN_OR_RETURN(
        auto occs_file, storage::PagedFile::Open(OccsPath(base_path), false));
    access->node_file_ =
        std::make_unique<storage::PagedFile>(std::move(nodes_file));
    access->occ_file_ =
        std::make_unique<storage::PagedFile>(std::move(occs_file));
    const storage::BufferManagerOptions mgr_options =
        options.ToManagerOptions();
    access->nodes_ = std::make_unique<storage::BufferManager>(
        access->node_file_.get(), mgr_options);
    access->occs_ = std::make_unique<storage::BufferManager>(
        access->occ_file_.get(), mgr_options);
    return std::unique_ptr<internal::TreeAccess>(std::move(access));
  }

  void GetChildren(NodeId node, Children* out) const override {
    out->edges.clear();
    RecordCursor<NodeRecord> nodes(nodes_.get());
    // Copy out scalars before the next cursor call invalidates the pointer.
    const NodeId first_child = nodes.Get(node)->first_child;
    for (NodeId c = first_child; c != kNilNode;) {
      const NodeRecord* crec = nodes.Get(c);
      out->edges.push_back({c, crec->label_len, crec->label_offset});
      c = crec->next_sibling;
    }
  }

  void GetOccurrences(NodeId node,
                      std::vector<OccurrenceRec>* out) const override {
    RecordCursor<NodeRecord> nodes(nodes_.get());
    RecordCursor<OccRecord> occs(occs_.get());
    const std::uint32_t first_occ = nodes.Get(node)->first_occ;
    for (std::uint32_t o = first_occ; o != kNilOcc;) {
      const OccRecord* orec = occs.Get(o);
      out->push_back({orec->seq, orec->pos, orec->run});
      o = orec->next;
    }
  }

  std::span<const Symbol> Text() const override { return text_; }

  StatusOr<std::uint64_t> Validate(const std::string& base_path,
                                   const ParsedMeta& meta) const override {
    RecordCursor<NodeRecord> nodes(nodes_.get());
    RecordCursor<OccRecord> occs(occs_.get());
    return ValidateRecords(
        base_path, meta, [&](std::uint64_t i) { return *nodes.Get(i); },
        [&](std::uint64_t i) { return *occs.Get(i); });
  }

  std::uint32_t SubtreeOccCount(NodeId node) const override {
    RecordCursor<NodeRecord> nodes(nodes_.get());
    return nodes.Get(node)->subtree_occ;
  }

  Pos MaxRun(NodeId node) const override {
    RecordCursor<NodeRecord> nodes(nodes_.get());
    return nodes.Get(node)->max_run;
  }

  void HintSequentialScan() const override {
    const std::size_t window = readahead_pages_;
    if (window == 0) return;
    // Prime the first window of each region; once the scan reaches the end
    // of a primed run, the managers' sequential fault detection takes over.
    nodes_->ReadAhead(0, window);
    occs_->ReadAhead(0, window);
  }

  RegionStats PoolStats() const override {
    RegionStats stats;
    stats.nodes = nodes_->stats();
    stats.occs = occs_->stats();
    return stats;
  }

  storage::IoMode io_mode() const override {
    return storage::IoMode::kBuffered;
  }
  std::size_t pool_shards() const override { return nodes_->num_shards(); }
  storage::EvictionPolicyKind pool_eviction() const override {
    return nodes_->eviction_policy();
  }
  std::uint64_t MappedBytes() const override { return 0; }
  std::uint64_t ResidentBytes() const override { return 0; }

  std::span<const NodeSummaryRecord> NodeSummaries() const override {
    return summaries_;
  }

 private:
  BufferedTreeAccess() = default;

  std::size_t readahead_pages_ = 0;
  // Summaries are consulted on every edge of every query, and labels on
  // every edge, so the buffered path reads both sections into owned arrays
  // at Open (64 B/node and 4 B/text symbol) instead of pinning pages per
  // probe. These are the deliberate exceptions to the bounded-pool
  // promise; open with load_node_summaries=false to drop the larger one.
  std::vector<NodeSummaryRecord> summaries_;
  std::vector<Symbol> text_;
  std::unique_ptr<storage::PagedFile> node_file_;
  std::unique_ptr<storage::PagedFile> occ_file_;
  // Managers are mutable in effect: reads fault pages in and move policy
  // state; BufferManager is internally synchronized.
  mutable std::unique_ptr<storage::BufferManager> nodes_;
  mutable std::unique_ptr<storage::BufferManager> occs_;
};

/// The zero-copy read path: every region file is mapped read-only at Open
/// and accessors dereference records straight out of the mapping. No pins,
/// no locks, no private cache — the kernel page cache is the only cache
/// and is shared with every other process serving the same bundle.
/// MappedRegion::Create validated the byte lengths up front and Validate()
/// every record id and label range, so every RecordAt below and every
/// label span handed out is in-bounds.
class MappedTreeAccess : public internal::TreeAccess {
 public:
  static StatusOr<std::unique_ptr<internal::TreeAccess>> Open(
      const std::string& base_path, const ParsedMeta& meta,
      bool load_summaries) {
    auto access = std::unique_ptr<MappedTreeAccess>(new MappedTreeAccess);
    TSW_ASSIGN_OR_RETURN(access->nodes_file_,
                         storage::MappedFile::Open(NodesPath(base_path)));
    TSW_ASSIGN_OR_RETURN(access->occs_file_,
                         storage::MappedFile::Open(OccsPath(base_path)));
    TSW_ASSIGN_OR_RETURN(access->labels_file_,
                         storage::MappedFile::Open(LabelsPath(base_path)));
    TSW_ASSIGN_OR_RETURN(
        access->nodes_,
        storage::MappedRegion::Create(access->nodes_file_, sizeof(NodeRecord),
                                      meta.num_nodes, "nodes"));
    TSW_ASSIGN_OR_RETURN(
        access->occs_,
        storage::MappedRegion::Create(access->occs_file_, sizeof(OccRecord),
                                      meta.num_occs, "occs"));
    TSW_ASSIGN_OR_RETURN(
        const storage::MappedRegion labels,
        storage::MappedRegion::Create(access->labels_file_, sizeof(Symbol),
                                      meta.num_label_symbols, "labels"));
    access->text_ = std::span<const Symbol>(
        reinterpret_cast<const Symbol*>(labels.data()),
        static_cast<std::size_t>(meta.num_label_symbols));
    if (meta.has_summaries && load_summaries) {
      // The summary section maps like any other region: extents are
      // validated before any pointer is handed out, so a truncated
      // `.sums` is a clean Corruption here, never a SIGBUS mid-query.
      TSW_ASSIGN_OR_RETURN(access->sums_file_,
                           storage::MappedFile::Open(SumsPath(base_path)));
      TSW_ASSIGN_OR_RETURN(
          access->sums_,
          storage::MappedRegion::Create(access->sums_file_,
                                        sizeof(NodeSummaryRecord),
                                        meta.num_nodes, "sums"));
      access->sums_file_.Advise(storage::AccessHint::kWillNeed);
    }
    // Kick off asynchronous population of the whole bundle; queries that
    // arrive before it completes just fault their pages on demand.
    access->nodes_file_.Advise(storage::AccessHint::kWillNeed);
    access->occs_file_.Advise(storage::AccessHint::kWillNeed);
    access->labels_file_.Advise(storage::AccessHint::kWillNeed);
    return std::unique_ptr<internal::TreeAccess>(std::move(access));
  }

  void GetChildren(NodeId node, Children* out) const override {
    out->edges.clear();
    for (NodeId c = Node(node).first_child; c != kNilNode;) {
      const NodeRecord& crec = Node(c);
      out->edges.push_back({c, crec.label_len, crec.label_offset});
      c = crec.next_sibling;
    }
  }

  void GetOccurrences(NodeId node,
                      std::vector<OccurrenceRec>* out) const override {
    for (std::uint32_t o = Node(node).first_occ; o != kNilOcc;) {
      const auto& orec =
          *reinterpret_cast<const OccRecord*>(occs_.RecordAt(o));
      out->push_back({orec.seq, orec.pos, orec.run});
      o = orec.next;
    }
  }

  std::span<const Symbol> Text() const override { return text_; }

  StatusOr<std::uint64_t> Validate(const std::string& base_path,
                                   const ParsedMeta& meta) const override {
    // Index the mapped arrays directly (their extents were checked when
    // the regions were created): this pass is most of an mmap Open.
    const auto* nodes = reinterpret_cast<const NodeRecord*>(nodes_.data());
    const auto* occs = reinterpret_cast<const OccRecord*>(occs_.data());
    return ValidateRecords(
        base_path, meta, [&](std::uint64_t i) { return nodes[i]; },
        [&](std::uint64_t i) { return occs[i]; });
  }

  std::uint32_t SubtreeOccCount(NodeId node) const override {
    return Node(node).subtree_occ;
  }

  Pos MaxRun(NodeId node) const override { return Node(node).max_run; }

  void HintSequentialScan() const override {
    // Only the records are scanned front to back; labels are read at
    // wherever each edge references the text.
    nodes_file_.Advise(storage::AccessHint::kSequential);
    occs_file_.Advise(storage::AccessHint::kSequential);
  }

  RegionStats PoolStats() const override { return RegionStats{}; }

  storage::IoMode io_mode() const override { return storage::IoMode::kMmap; }
  std::size_t pool_shards() const override { return 0; }
  storage::EvictionPolicyKind pool_eviction() const override {
    return storage::EvictionPolicyKind::kLru;
  }

  std::uint64_t MappedBytes() const override {
    return nodes_file_.size_bytes() + occs_file_.size_bytes() +
           labels_file_.size_bytes() + sums_file_.size_bytes();
  }

  std::uint64_t ResidentBytes() const override {
    return nodes_file_.ResidentBytes() + occs_file_.ResidentBytes() +
           labels_file_.ResidentBytes() + sums_file_.ResidentBytes();
  }

  std::span<const NodeSummaryRecord> NodeSummaries() const override {
    if (sums_.record_count() == 0) return {};
    return {reinterpret_cast<const NodeSummaryRecord*>(sums_.data()),
            static_cast<std::size_t>(sums_.record_count())};
  }

 private:
  MappedTreeAccess() = default;

  const NodeRecord& Node(std::uint64_t id) const {
    return *reinterpret_cast<const NodeRecord*>(nodes_.RecordAt(id));
  }

  storage::MappedFile nodes_file_;
  storage::MappedFile occs_file_;
  storage::MappedFile labels_file_;
  storage::MappedFile sums_file_;
  storage::MappedRegion nodes_;
  storage::MappedRegion occs_;
  storage::MappedRegion sums_;
  std::span<const Symbol> text_;
};

}  // namespace

storage::BufferManagerOptions DiskTreeOptions::ToManagerOptions() const {
  storage::BufferManagerOptions o;
  o.capacity_pages = pool_pages;
  o.num_shards = pool_shards;
  o.eviction = eviction;
  o.readahead_pages = readahead_pages;
  return o;
}

storage::BufferManager::Stats RegionStats::Total() const {
  storage::BufferManager::Stats total;
  total += nodes;
  total += occs;
  return total;
}

// ---------------------------------------------------------------------------
// DiskTreeWriter
// ---------------------------------------------------------------------------

DiskTreeWriter::DiskTreeWriter(const std::string& base_path,
                               DiskTreeOptions options)
    : base_path_(base_path), options_(options) {}

StatusOr<std::unique_ptr<DiskTreeWriter>> DiskTreeWriter::Create(
    const std::string& base_path, DiskTreeOptions options) {
  std::unique_ptr<DiskTreeWriter> writer(
      new DiskTreeWriter(base_path, options));
  TSW_RETURN_IF_ERROR(writer->Init());
  return writer;
}

Status DiskTreeWriter::Init() {
  TSW_ASSIGN_OR_RETURN(auto nodes_file,
                       storage::PagedFile::Create(NodesPath(base_path_)));
  TSW_ASSIGN_OR_RETURN(auto occs_file,
                       storage::PagedFile::Create(OccsPath(base_path_)));
  // An empty text until SetText: a root-only tree is a complete bundle.
  TSW_RETURN_IF_ERROR(WriteRegionFile(LabelsPath(base_path_), {}));
  node_file_ = std::make_unique<storage::PagedFile>(std::move(nodes_file));
  occ_file_ = std::make_unique<storage::PagedFile>(std::move(occs_file));
  const storage::BufferManagerOptions mgr_options =
      options_.ToManagerOptions();
  nodes_ = std::make_unique<storage::BufferManager>(node_file_.get(),
                                                    mgr_options);
  occs_ = std::make_unique<storage::BufferManager>(occ_file_.get(),
                                                   mgr_options);
  return Status::OK();
}

void DiskTreeWriter::SetText(std::span<const Symbol> text) {
  TSW_CHECK(num_nodes_ <= 1) << "the text must precede every edge";
  num_label_symbols_ = text.size();
  Latch(WriteRegionFile(LabelsPath(base_path_), std::as_bytes(text)));
}

NodeId DiskTreeWriter::AddNode(NodeId parent, LabelRef label) {
  if (!status_.ok()) return 0;  // Failed: Close() reports it.
  const StatusOr<std::uint32_t> checked_id =
      CheckedU32(num_nodes_, "node count");
  if (!checked_id.ok()) {
    Latch(checked_id.status());
    return 0;
  }
  const NodeId id = *checked_id;
  NodeRecord rec{};
  rec.first_child = kNilNode;
  rec.next_sibling = kNilNode;
  rec.first_occ = kNilOcc;
  if (parent == kNilNode) {
    TSW_CHECK(num_nodes_ == 0) << "root must be the first node";
  } else {
    TSW_CHECK(label.len > 0 &&
              label.offset + label.len <= num_label_symbols_)
        << "label [" << label.offset << ", +" << label.len
        << ") outside a text of " << num_label_symbols_ << " symbols";
    rec.label_offset = label.offset;
    rec.label_len = label.len;
    // Prepend into the parent's child chain.
    NodeRecord parent_rec;
    Latch(ReadNode(*nodes_, parent, &parent_rec));
    rec.next_sibling = parent_rec.first_child;
    parent_rec.first_child = id;
    Latch(WriteNode(*nodes_, parent, parent_rec));
  }
  Latch(WriteNode(*nodes_, id, rec));
  ++num_nodes_;
  return id;
}

void DiskTreeWriter::AddOccurrence(NodeId node, const OccurrenceRec& occ) {
  if (!status_.ok()) return;
  const StatusOr<std::uint32_t> checked_id =
      CheckedU32(num_occs_, "occurrence count");
  if (!checked_id.ok()) {
    Latch(checked_id.status());
    return;
  }
  const std::uint32_t id = *checked_id;
  NodeRecord node_rec;
  Latch(ReadNode(*nodes_, node, &node_rec));
  OccRecord rec{occ.seq, occ.pos, occ.run, node_rec.first_occ};
  Latch(occs_->Write(num_occs_ * sizeof(OccRecord), &rec, sizeof(OccRecord)));
  node_rec.first_occ = id;
  Latch(WriteNode(*nodes_, node, node_rec));
  ++num_occs_;
}

void DiskTreeWriter::Finalize() {
  TSW_CHECK(!finalized_);
  if (num_nodes_ == 0) {
    finalized_ = true;
    return;
  }
  // Iterative post-order pass patching subtree_occ / max_run.
  struct Frame {
    NodeId node;
    bool processed;
  };
  std::vector<Frame> stack = {{0, false}};
  while (!stack.empty() && status_.ok()) {
    Frame f = stack.back();
    stack.pop_back();
    NodeRecord rec;
    Latch(ReadNode(*nodes_, f.node, &rec));
    if (!f.processed) {
      stack.push_back({f.node, true});
      for (NodeId c = rec.first_child; c != kNilNode;) {
        stack.push_back({c, false});
        NodeRecord crec;
        Latch(ReadNode(*nodes_, c, &crec));
        if (!status_.ok()) break;
        c = crec.next_sibling;
      }
      continue;
    }
    std::uint32_t count = 0;
    std::uint32_t max_run = 0;
    for (std::uint32_t o = rec.first_occ; o != kNilOcc;) {
      OccRecord orec;
      Latch(ReadOcc(*occs_, o, &orec));
      if (!status_.ok()) break;
      ++count;
      max_run = std::max(max_run, orec.run);
      o = orec.next;
    }
    for (NodeId c = rec.first_child; c != kNilNode;) {
      NodeRecord crec;
      Latch(ReadNode(*nodes_, c, &crec));
      if (!status_.ok()) break;
      count += crec.subtree_occ;
      max_run = std::max(max_run, crec.max_run);
      c = crec.next_sibling;
    }
    rec.subtree_occ = count;
    rec.max_run = max_run;
    Latch(WriteNode(*nodes_, f.node, rec));
  }
  finalized_ = true;
}

Status DiskTreeWriter::Close() {
  if (closed_) return status_;
  closed_ = true;
  Latch(CloseInternal());
  return status_;
}

Status DiskTreeWriter::CloseInternal() {
  TSW_RETURN_IF_ERROR(status_);
  if (!finalized_) {
    return Status::FailedPrecondition("Close() before Finalize() on " +
                                      base_path_);
  }
  TSW_RETURN_IF_ERROR(nodes_->Flush());
  TSW_RETURN_IF_ERROR(occs_->Flush());
  TSW_ASSIGN_OR_RETURN(auto meta_file,
                       storage::PagedFile::Create(MetaPath(base_path_)));
  MetaRecord meta{kMetaMagic, kMetaVersionV2, 1u, num_nodes_, num_occs_,
                  num_label_symbols_};
  std::vector<std::byte> page(storage::PagedFile::kPageSize);
  std::memcpy(page.data(), &meta, sizeof(meta));
  std::size_t off = kSectionTableOffset;
  const std::uint32_t section_count = kNumSections;
  const std::uint32_t alignment = kRecordAlignment;
  std::memcpy(page.data() + off, &section_count, sizeof(section_count));
  off += sizeof(section_count);
  std::memcpy(page.data() + off, &alignment, sizeof(alignment));
  off += sizeof(alignment);
  const SectionEntry sections[kNumSections] = {
      {kRegionNodes, static_cast<std::uint32_t>(sizeof(NodeRecord)),
       num_nodes_, num_nodes_ * sizeof(NodeRecord)},
      {kRegionOccs, static_cast<std::uint32_t>(sizeof(OccRecord)), num_occs_,
       num_occs_ * sizeof(OccRecord)},
      {kRegionLabels, static_cast<std::uint32_t>(sizeof(Symbol)),
       num_label_symbols_, num_label_symbols_ * sizeof(Symbol)},
  };
  std::memcpy(page.data() + off, sections, sizeof(sections));
  TSW_RETURN_IF_ERROR(meta_file.WritePage(0, page));
  TSW_RETURN_IF_ERROR(meta_file.Sync());
  // The bundle's directory entries must survive power loss too: without
  // this, a crash after Close() could leave a tier whose files simply
  // never existed as far as the recovered filesystem is concerned.
  return storage::SyncDir(ParentDir(base_path_));
}

// ---------------------------------------------------------------------------
// DiskSuffixTree
// ---------------------------------------------------------------------------

DiskSuffixTree::~DiskSuffixTree() = default;

StatusOr<std::unique_ptr<DiskSuffixTree>> DiskSuffixTree::Open(
    const std::string& base_path, DiskTreeOptions options) {
  TSW_ASSIGN_OR_RETURN(const ParsedMeta meta, ReadMeta(base_path));
  if (options.io_mode == storage::IoMode::kMmap &&
      meta.version < kMetaVersionV2) {
    return Status::Corruption(
        "bundle " + base_path + " is format v" + std::to_string(meta.version) +
        " (no section table): the mmap read path needs v2 — open with "
        "io_mode=buffered or rebuild the index");
  }
  std::unique_ptr<DiskSuffixTree> tree(new DiskSuffixTree());
  tree->base_path_ = base_path;
  tree->options_ = options;
  tree->num_nodes_ = meta.num_nodes;
  tree->num_occs_ = meta.num_occs;
  tree->num_label_symbols_ = meta.num_label_symbols;
  tree->format_version_ = meta.version;
  if (options.io_mode == storage::IoMode::kMmap) {
    TSW_ASSIGN_OR_RETURN(
        tree->access_,
        MappedTreeAccess::Open(base_path, meta, options.load_node_summaries));
  } else {
    TSW_ASSIGN_OR_RETURN(tree->access_,
                         BufferedTreeAccess::Open(base_path, options, meta));
  }
  tree->text_ = tree->access_->Text();
  TSW_ASSIGN_OR_RETURN(tree->materialized_label_symbols_,
                       tree->access_->Validate(base_path, meta));
  return tree;
}

std::span<const NodeSummaryRecord> DiskSuffixTree::node_summaries() const {
  return access_->NodeSummaries();
}

void DiskSuffixTree::GetChildren(NodeId node, Children* out) const {
  out->text = text_;
  access_->GetChildren(node, out);
}

void DiskSuffixTree::GetOccurrences(NodeId node,
                                    std::vector<OccurrenceRec>* out) const {
  access_->GetOccurrences(node, out);
}

std::uint32_t DiskSuffixTree::SubtreeOccCount(NodeId node) const {
  return access_->SubtreeOccCount(node);
}

Pos DiskSuffixTree::MaxRun(NodeId node) const {
  return access_->MaxRun(node);
}

std::uint64_t DiskSuffixTree::SizeBytes() const {
  return storage::PagedFile::kPageSize +  // meta page
         num_nodes_ * sizeof(NodeRecord) + num_occs_ * sizeof(OccRecord) +
         num_label_symbols_ * sizeof(Symbol);
}

void DiskSuffixTree::HintSequentialScan() const {
  access_->HintSequentialScan();
}

RegionStats DiskSuffixTree::PoolStats() const { return access_->PoolStats(); }

std::size_t DiskSuffixTree::pool_shards() const {
  return access_->pool_shards();
}

storage::EvictionPolicyKind DiskSuffixTree::pool_eviction() const {
  return access_->pool_eviction();
}

storage::IoMode DiskSuffixTree::io_mode() const { return access_->io_mode(); }

std::uint64_t DiskSuffixTree::MappedBytes() const {
  return access_->MappedBytes();
}

std::uint64_t DiskSuffixTree::ResidentBytes() const {
  return access_->ResidentBytes();
}

// ---------------------------------------------------------------------------
// High-level build
// ---------------------------------------------------------------------------

Status WriteTreeToDisk(const TreeView& view, const std::string& base_path,
                       DiskTreeOptions options) {
  TSW_ASSIGN_OR_RETURN(auto writer,
                       DiskTreeWriter::Create(base_path, options));
  CopyTree(view, writer.get());
  return writer->Close();
}

Status AttachNodeSummaries(const std::string& base_path,
                           std::span<const NodeSummaryRecord> records) {
  TSW_ASSIGN_OR_RETURN(const ParsedMeta meta, ReadMeta(base_path));
  if (meta.version < kMetaVersionV2) {
    return Status::InvalidArgument(
        "bundle " + base_path + " is format v" + std::to_string(meta.version) +
        ": node summaries need the v2 section table");
  }
  if (records.size() != meta.num_nodes) {
    return Status::InvalidArgument(
        "summary count " + std::to_string(records.size()) +
        " != node count " + std::to_string(meta.num_nodes) + " of " +
        base_path);
  }
  // Write and sync the section data before announcing it in the meta
  // page: a crash in between leaves a 3-section meta plus an
  // unreferenced .sums file, which reopens cleanly without summaries.
  TSW_RETURN_IF_ERROR(
      WriteRegionFile(SumsPath(base_path), std::as_bytes(records)));
  TSW_ASSIGN_OR_RETURN(auto meta_file,
                       storage::PagedFile::Open(MetaPath(base_path), true));
  std::vector<std::byte> page(storage::PagedFile::kPageSize);
  TSW_RETURN_IF_ERROR(meta_file.ReadPage(0, page));
  // ReadMeta validated the first three entries and the alignment header;
  // only the count and the trailing entry change.
  std::size_t off = kSectionTableOffset;
  const std::uint32_t section_count = kMaxSections;
  std::memcpy(page.data() + off, &section_count, sizeof(section_count));
  off += 2 * sizeof(std::uint32_t) + kNumSections * sizeof(SectionEntry);
  const SectionEntry entry{
      kRegionSummaries, static_cast<std::uint32_t>(sizeof(NodeSummaryRecord)),
      meta.num_nodes, meta.num_nodes * sizeof(NodeSummaryRecord)};
  std::memcpy(page.data() + off, &entry, sizeof(entry));
  TSW_RETURN_IF_ERROR(meta_file.WritePage(0, page));
  TSW_RETURN_IF_ERROR(meta_file.Sync());
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
  // Intermediate trees are written, scanned once in a merge, and deleted;
  // they are always accessed buffered (the mmap path would remap every
  // short-lived tmp bundle for no reuse).
  DiskTreeOptions scratch = options.tree;
  scratch.io_mode = storage::IoMode::kBuffered;

  // Every batch tree references this one text, so every intermediate
  // bundle stores the same .labels and merges share it.
  const auto shared_text = std::make_shared<const SymbolText>(db);

  // Phase 1: spill batch trees.
  std::vector<std::string> pending;
  int next_tmp = 0;
  for (SeqId begin = 0; begin < db.size();
       begin += static_cast<SeqId>(options.batch_sequences)) {
    const SeqId end = static_cast<SeqId>(
        std::min<std::size_t>(db.size(), begin + options.batch_sequences));
    SuffixTreeBuilder builder(shared_text, options.build);
    for (SeqId id = begin; id < end; ++id) builder.InsertSequence(id);
    const SuffixTree batch = builder.Build();
    TSW_RETURN_IF_ERROR(batch.status());
    const std::string tmp = base_path + ".tmp" + std::to_string(next_tmp++);
    TSW_ASSIGN_OR_RETURN(auto writer, DiskTreeWriter::Create(tmp, scratch));
    CopyTree(batch, writer.get());
    TSW_RETURN_IF_ERROR(writer->Close());
    pending.push_back(tmp);
  }

  // Phase 2: binary merges of trees of increasing size (FIFO pairing).
  std::size_t head = 0;
  while (pending.size() - head > 1) {
    const std::string a = pending[head++];
    const std::string b = pending[head++];
    TSW_ASSIGN_OR_RETURN(auto view_a, DiskSuffixTree::Open(a, scratch));
    TSW_ASSIGN_OR_RETURN(auto view_b, DiskSuffixTree::Open(b, scratch));
    const std::string out = base_path + ".tmp" + std::to_string(next_tmp++);
    TSW_ASSIGN_OR_RETURN(auto writer, DiskTreeWriter::Create(out, scratch));
    MergeTrees(*view_a, *view_b, writer.get(), nullptr, MergeText::kShared);
    TSW_RETURN_IF_ERROR(writer->Close());
    RemoveDiskTree(a);
    RemoveDiskTree(b);
    pending.push_back(out);
  }

  // Rename the survivor into place, then persist the renames.
  const std::string last = pending[head];
  RemoveDiskTree(base_path);
  for (const char* suffix : {".meta", ".nodes", ".occs", ".labels"}) {
    const std::string from = last + suffix;
    const std::string to = base_path + suffix;
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError("rename " + from + " -> " + to + " failed");
    }
  }
  TSW_RETURN_IF_ERROR(storage::SyncDir(ParentDir(base_path)));
  return DiskSuffixTree::Open(base_path, options.tree);
}

Status DowngradeBundleToV1ForTest(const std::string& base_path) {
  TSW_ASSIGN_OR_RETURN(auto meta_file,
                       storage::PagedFile::Open(MetaPath(base_path), true));
  std::vector<std::byte> page(storage::PagedFile::kPageSize);
  TSW_RETURN_IF_ERROR(meta_file.ReadPage(0, page));
  MetaRecord meta;
  std::memcpy(&meta, page.data(), sizeof(meta));
  if (meta.magic != kMetaMagic) {
    return Status::Corruption("bad magic in " + MetaPath(base_path));
  }
  meta.version = kMetaVersionV1;
  // A v1 writer never emitted anything past the MetaRecord.
  std::fill(page.begin() + sizeof(meta), page.end(), std::byte{0});
  std::memcpy(page.data(), &meta, sizeof(meta));
  TSW_RETURN_IF_ERROR(meta_file.WritePage(0, page));
  return meta_file.Sync();
}

}  // namespace tswarp::suffixtree
