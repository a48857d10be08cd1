#!/usr/bin/env bash
# Layering checks: each one greps the tree for code that a deleted or
# confined layer must not grow back. Run from the repository root:
#
#   tools/check_layering.sh
#
# Exits 1 after the first failing check, naming it and printing the
# offending lines; exits 0 when every check passes.
set -u
cd "$(dirname "$0")/.."

fail() {
  echo "layering check failed: $1"
  echo "$2"
  exit 1
}

# forbid CHECK MESSAGE GREP_ARGS...: fails CHECK when `grep -rn GREP_ARGS`
# finds a line. The patterns name what must not come back, so this
# script itself is skipped.
forbid() {
  local check=$1 message=$2
  shift 2
  if grep -rn --exclude=check_layering.sh "$@"; then fail "$check" "$message"; fi
}

# --- one verification tail
# Exact verification is one per-start scan, core::ScanStart in
# src/core/seq_scan.h, shared by SeqScan and every tree search.
# Outside src/core it may only be called (qualified); a ScanStart
# defined elsewhere, or a per-candidate tail (PostProcess /
# VerifyExact) coming back, is a second verification pipeline.
check="one verification tail"
if grep -rnE '\b(PostProcess|VerifyExact)\(' src --include='*.h' --include='*.cc'; then
  fail "$check" "per-candidate verification found — resolve starts with core::ScanStart instead"
fi
if grep -rnE '\bScanStart\(' src --include='*.h' --include='*.cc' \
    | grep -v '^src/core/' | grep -v 'core::ScanStart('; then
  fail "$check" "ScanStart( outside src/core that is not a call to core::ScanStart — verify through the shared scan"
fi
grep -q 'ScanStart(' src/core/distance_models.h || {
  fail "$check" "the tree search models no longer verify through core::ScanStart"
}

# --- no node-summary screen
# The subtree-hull screen was removed once subtree resolution made
# it a net loss; its kernel, record, dial and request field must
# not come back in the library or the tools.
forbid "no node-summary screen" \
  "node-summary screen code found — it was deleted; see docs/algorithms.md" \
  -E 'summary_lb|NodeSummaryRecord|approx_factor|use_node_summaries' \
  src tools --include='*.h' --include='*.cc'

# --- ISA code stays in the kernel layer
# Intrinsics and ISA feature tests are confined to src/dtw/simd*;
# anywhere else they bypass the runtime dispatch and break the
# one-binary-all-machines property.
check="ISA code stays in the kernel layer"
if grep -rnE '__AVX2__|__SSE2__|__ARM_NEON|immintrin\.h|arm_neon\.h' \
    src tests tools bench examples --include='*.h' --include='*.cc' \
    | grep -v '^src/dtw/simd'; then
  fail "$check" "ISA-specific code found outside src/dtw/simd* — add a kernel to the dispatch table instead"
fi

# --- one disk read path
# Bundles are written from memory and read through read-only
# mappings only; the buffer pool, its paged files, the buffered
# tree backend, the io-mode and eviction knobs and the ThreadPool
# shim were deleted and must not come back.
forbid "one disk read path" \
  "buffer-pool / second-read-path code found — bundles are read mapped only; see docs/file_formats.md" \
  -E 'BufferManager|PagedFile|BufferedTreeAccess|IoMode|EvictionPolicyKind|ThreadPool|pool_pages' \
  src tools bench

# --- one suffix-tree builder
# Trees are built by suffix insertion (SuffixTreeBuilder) and
# combined by MergeTrees; the second, Ukkonen builder was deleted
# and must not come back.
forbid "one suffix-tree builder" \
  "second suffix-tree builder found — build with SuffixTreeBuilder; see docs/algorithms.md" \
  'Ukkonen' src tools bench tests

# --- one tree builder
# SuffixTree is the only class that builds a tree, and every bundle
# is written from a finalized SuffixTree by WriteTreeToDisk. The
# disk writer, the sink interface, the sequence-offset view, the
# category-count cost model and the transforms were deleted and
# must not come back.
forbid "one tree builder" \
  "second tree builder or deleted helper found — merge into a SuffixTree and write it with WriteTreeToDisk; see docs/file_formats.md" \
  -E 'DiskTreeWriter|TreeSink|SeqOffsetTreeView|SelectNumCategories|ZNormalize' \
  src tools bench tests

# --- one node record
# A SuffixTree's node and occurrence vectors are the bundle's node
# and occurrence sections byte for byte, and TreeView is one concrete
# reader over them. The record conversion on write, the chunked
# WriteFile it needed, the legacy `.sums` section table and a
# virtual TreeView were deleted and must not come back.
forbid "one node record" \
  "node-record conversion or legacy section code found — write the SuffixTree's records as they are; see docs/file_formats.md" \
  -E 'WriteChunks|kLegacySections|kNodesPerChunk' src tools bench tests
forbid "one node record" \
  "virtual member in TreeView — it is one concrete reader over the record spans; see docs/file_formats.md" \
  -w 'virtual' src/suffixtree/tree_view.h

# --- one bundle file
# A disk index is one file, `<base>.tsw`: the header with the section
# table and the index fingerprint, then the sections, published by one
# rename. The per-region files, the separate `.index` fingerprint and
# their path helpers were deleted and must not come back. The one probe
# for an older format's `.meta` page stays in the opener.
forbid "one bundle file" \
  "per-region bundle file or separate fingerprint found — write one <base>.tsw with the fingerprint in its header; see docs/file_formats.md" \
  -E '"\.(nodes|occs|labels|index)"|kBundleFiles|FingerprintPath' \
  src tools bench
check="one bundle file"
if grep -rn '"\.meta"' src tools bench | grep -v '^src/suffixtree/disk_tree\.cc:'; then
  fail "$check" "\".meta\" outside the opener's older-format probe — a bundle is one <base>.tsw; see docs/file_formats.md"
fi

# --- scratch bundles have no name
# Only the bundle a build publishes is named, fsynced and renamed.
# Spills, intermediate merges and merged tiers are unnamed files that
# die with their mapping, so no crash leaves one behind. The merge
# temporary and tier names, their sweep and the tier-owned files were
# deleted and must not come back, and O_TMPFILE stays behind
# storage::MappedFile::WriteScratch.
forbid "scratch bundles have no name" \
  "named scratch bundle or its clean-up found — write it with WriteScratchTree; see docs/file_formats.md" \
  -E 'tmp-merge|\.tier-|CleanupOrphanedMergeFiles|owns_disk_files|merge_generation_' \
  src tools bench
check="scratch bundles have no name"
if grep -rn 'O_TMPFILE' src tools bench examples \
    --include='*.h' --include='*.cc' --include='*.cpp' \
    | grep -v '^src/storage/'; then
  fail "$check" "O_TMPFILE outside src/storage — write scratch data with storage::MappedFile::WriteScratch"
fi

# --- one query path
# Every univariate query reaches SearchDriver through
# core::SearchTiers, and every tswarpd search through RunSearch.
# The single-tree entry, the per-tier copies of the query knobs,
# the second sparse model and the server's coalescer were deleted
# and must not come back.
forbid "one query path" \
  "second query path found — search through core::SearchTiers / Server RunSearch; see docs/algorithms.md" \
  -E 'TreeSearchConfig|TierSearchEntry|TreeSearchKnn|RunSearchDriver|SparseCategoryModel|RunGroup' \
  src tools bench tests

# --- one search path in tswarpd
# A search runs on the connection thread that parsed it once it holds
# a run slot. The dispatcher thread, its job queue with a promise per
# reply, its batch pop and the dispatch-round size were deleted and
# must not come back.
forbid "one search path in tswarpd" \
  "dispatcher code found — run the search on its connection thread; see docs/server.md" \
  -E 'std::promise|PopBatch|DispatchLoop|dispatch_thread|max_batch' \
  src tools bench tests

# --- one parallel split
# A parallel search fans out once, over contiguous ranges of root
# edges, on one FIFO queue. The lazy DFS splitting, its prefix replay
# and replay counter, the idle-thread poll and the steal-probe counter
# of the work-stealing deques were deleted and must not come back.
forbid "one parallel split" \
  "lazy-splitting or work-stealing code found — fan out over root-edge ranges; see docs/parallel_search.md" \
  -E 'MaterializePrefix|TrySplit|WantsWork|HasHungryThreads|replayed_rows|steal_attempts' \
  src tools bench

# --- one JSON serializer
# tswarpd writes every response body with JsonWriter, straight from
# the data it reports; JsonValue is the parse result only. The DOM
# builders, the recursive Dump and the per-match and per-stats
# documents were deleted and must not come back.
forbid "one JSON serializer" \
  "JSON document building found — write the body with server::JsonWriter; see docs/server.md" \
  -E 'JsonValue::Make|(\.|->)Dump\(|MatchesToJson|StatsToJson' \
  src tools bench

# --- one continuous-query registry
# A standing query is registered on the TieredIndex, which buffers its
# matches until a poll drains them. The callback API with its
# re-entrant lock and the server's second per-id buffer map were
# deleted and must not come back.
forbid "one continuous-query registry" \
  "continuous-query callback or second registry found — register, poll and unregister on TieredIndex; see docs/streaming.md" \
  -E 'ContinuousCallback|ContinuousChannel|recursive_mutex' \
  src tools bench

# --- one index path in the tools
# Both CLIs open a persisted bundle through OpenOrBuildIndex in
# tools/cli_flags.h, which builds only a missing one. A second
# Index::Open in a command drifts from it: knn once rebuilt, and so
# overwrote, any bundle it was given.
forbid "one index path in the tools" \
  "Index::Open( in a tool — open or build through OpenOrBuildIndex in tools/cli_flags.h" \
  'Index::Open(' tools/*.cc

# --- mapping syscalls stay in src/storage
# mmap/munmap/madvise/mincore are confined to storage::MappedFile;
# a raw mapping call anywhere else bypasses the validated,
# SIGBUS-proof choke point.
check="mapping syscalls stay in src/storage"
if grep -rnE '(mmap|munmap|madvise|mincore)\(' \
    src tests tools bench examples --include='*.h' --include='*.cc' \
    | grep -v '^src/storage/'; then
  fail "$check" "raw mapping call found outside src/storage — go through storage::MappedFile"
fi

echo "layering checks passed"
