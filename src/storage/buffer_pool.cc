#include "storage/buffer_pool.h"

#include "common/failpoint.h"

namespace xia {

namespace {

/// The storage.bufferpool.fetch hook for one page (hit argument = page id).
Status FetchHook(uint64_t page_id) {
  XIA_FAILPOINT_ARG("storage.bufferpool.fetch",
                    static_cast<int64_t>(page_id));
  return Status::Ok();
}

}  // namespace

Result<bool> BufferPool::Fetch(uint64_t page_id) {
  XIA_RETURN_IF_ERROR(FetchHook(page_id));
  return Touch(page_id);
}

Status BufferPool::FetchRun(std::span<const uint64_t> page_ids) {
  // Hooks run first, outside the lock (a sleep: spec must not stall
  // other sessions), and only the prefix before a trip is touched.
  size_t admitted = 0;
  Status status;
  for (; admitted < page_ids.size(); ++admitted) {
    status = FetchHook(page_ids[admitted]);
    if (!status.ok()) break;
  }
  TouchPages(page_ids.first(admitted));
  return status;
}

bool BufferPool::Touch(uint64_t page_id) {
  return TouchPages({&page_id, 1}) == 1;
}

size_t BufferPool::TouchPages(std::span<const uint64_t> page_ids) {
  if (page_ids.empty()) return 0;
  if (capacity_ == 0) {
    misses_.Add(page_ids.size());
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  size_t hits = 0;
  size_t evictions = 0;
  for (uint64_t page_id : page_ids) {
    auto it = map_.find(page_id);
    if (it != map_.end()) {
      ++hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      continue;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++evictions;
    }
    lru_.push_front(page_id);
    map_[page_id] = lru_.begin();
  }
  hits_.Add(hits);
  misses_.Add(page_ids.size() - hits);
  evictions_.Add(evictions);
  return hits;
}

void BufferPool::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  // Rewind only the instance view; the registry counters keep counting
  // so "bufferpool.*" snapshots stay monotonic across mid-run resets.
  hits_base_ = hits_.Value();
  misses_base_ = misses_.Value();
  evictions_base_ = evictions_.Value();
}

}  // namespace xia
