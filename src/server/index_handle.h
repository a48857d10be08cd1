#ifndef TSWARP_SERVER_INDEX_HANDLE_H_
#define TSWARP_SERVER_INDEX_HANDLE_H_

#include <memory>
#include <mutex>
#include <utility>

#include "core/index.h"
#include "core/tiered_index.h"

namespace tswarp::server {

/// Publication point for the index a long-lived server is serving.
///
/// The server never reads a mutable index object: every request takes one
/// immutable core::IndexSnapshot up front and uses it throughout, so a
/// concurrent Replace() or a TieredIndex append/merge publishing a newer
/// snapshot cannot pull tiers out from under an in-flight handler (the
/// snapshot pins its tiers — trees, mappings, database fragments —
/// until the last holder drops the pointer). This generalizes the PR 7
/// race fix: core::Index move-assignment is deleted outright, and this
/// handle (or the TieredIndex behind it) is the only sanctioned swap path.
///
/// Two modes:
///   - static: constructed from a core::Index; Snapshot() returns the
///     published snapshot and Replace() hot-swaps it (reload path).
///   - tiered: constructed from a core::TieredIndex; Snapshot() returns
///     the tiered index's live snapshot, and tiered() exposes the mutable
///     face for /append and continuous queries. Replace() is not
///     meaningful in this mode (TieredIndex::Append is the mutation path).
class IndexHandle {
 public:
  explicit IndexHandle(core::Index index) : current_(index.snapshot()) {}

  explicit IndexHandle(std::shared_ptr<core::TieredIndex> tiered)
      : tiered_(std::move(tiered)) {}

  IndexHandle(const IndexHandle&) = delete;
  IndexHandle& operator=(const IndexHandle&) = delete;

  /// The currently published snapshot, pinned for as long as the caller
  /// holds the pointer. Requests take one snapshot up front and use it for
  /// every access.
  std::shared_ptr<const core::IndexSnapshot> Snapshot() const {
    if (tiered_ != nullptr) return tiered_->Snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Publishes `next` atomically with respect to Snapshot() (static mode
  /// only). The previous snapshot stays alive until its last holder
  /// releases it; tier destructors run on whichever thread drops the pin.
  void Replace(core::Index next) {
    auto fresh = next.snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(fresh);
  }

  /// The mutable tiered index behind this handle, or nullptr in static
  /// mode (appends unsupported).
  core::TieredIndex* tiered() const { return tiered_.get(); }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const core::IndexSnapshot> current_;
  std::shared_ptr<core::TieredIndex> tiered_;
};

}  // namespace tswarp::server

#endif  // TSWARP_SERVER_INDEX_HANDLE_H_
