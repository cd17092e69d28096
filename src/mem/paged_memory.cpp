#include "mem/paged_memory.hpp"

#include <algorithm>
#include <utility>

namespace la::mem {
namespace {

/// What every never-written page reads as.
const Page kZeroPage{};

}  // namespace

PagedMemory::PagedMemory(u32 size, u32 parity_word)
    : size_(size),
      parity_word_(parity_word),
      pages_((static_cast<u64>(size) + kPageBytes - 1) / kPageBytes),
      rd_(pages_.size(), kZeroPage.data()),
      wr_(pages_.size(), nullptr) {}

u8* PagedMemory::unshare(u32 page) {
  auto own = std::make_shared<Page>(pages_[page] ? *pages_[page] : kZeroPage);
  u8* p = own->data();
  pages_[page] = std::move(own);
  rd_[page] = p;
  wr_[page] = p;
  dirty_.push_back(page);
  return p;
}

void PagedMemory::read(u32 off, std::span<u8> out) const {
  for (std::size_t done = 0; done < out.size();) {
    const u32 o = off + static_cast<u32>(done);
    const std::size_t n =
        std::min<std::size_t>(out.size() - done, kPageBytes - (o & kPageMask));
    std::copy_n(rd_[o >> kPageBits] + (o & kPageMask), n, out.data() + done);
    done += n;
  }
}

void PagedMemory::write(u32 off, std::span<const u8> in) {
  for (std::size_t done = 0; done < in.size();) {
    const u32 o = off + static_cast<u32>(done);
    const std::size_t n =
        std::min<std::size_t>(in.size() - done, kPageBytes - (o & kPageMask));
    std::copy_n(in.data() + done, n, writable(o >> kPageBits) + (o & kPageMask));
    done += n;
  }
}

void PagedMemory::erase_bad(u32 off, u64 len) {
  const u64 last = (off + len - 1) / parity_word_;
  bad_words_.erase(bad_words_.lower_bound(off / parity_word_),
                   bad_words_.upper_bound(static_cast<u32>(last)));
}

bool PagedMemory::parity_ok(u32 off, u64 len) const {
  if (bad_words_.empty() || len == 0) return true;
  const auto it = bad_words_.lower_bound(off / parity_word_);
  return it == bad_words_.end() || *it > (off + len - 1) / parity_word_;
}

std::size_t PagedMemory::resident_pages() const {
  return static_cast<std::size_t>(
      std::count_if(pages_.begin(), pages_.end(),
                    [](const PageRef& p) { return p != nullptr; }));
}

void PagedMemory::save(SnapWriter& w) const {
  w.u32v(size_);
  w.u32v(static_cast<u32>(resident_pages()));
  for (u32 i = 0; i < pages_.size(); ++i) {
    if (pages_[i] == nullptr) continue;
    w.u32v(i);
    w.page(pages_[i]);
  }
  w.u64v(bad_words_.size());
  for (u32 word : bad_words_) w.u32v(word);
  // The snapshot now shares the dirty pages: the next store must copy.
  for (u32 i : dirty_) wr_[i] = nullptr;
  dirty_.clear();
}

bool PagedMemory::load(SnapReader& r) {
  if (r.u32v() != size_) return false;
  // Parse and validate everything before touching the live state.
  const u32 n = r.u32v();
  if (n > pages_.size()) return false;
  std::vector<std::pair<u32, PageRef>> resident(n);
  for (u32 k = 0; k < n; ++k) {
    resident[k].first = r.u32v();
    resident[k].second = r.page();
    const bool ascending = k == 0 || resident[k].first > resident[k - 1].first;
    if (!r.ok() || !ascending || resident[k].first >= pages_.size()) return false;
  }
  std::set<u32> bad;
  for (u64 k = 0, m = r.u64v(); k < m && r.ok(); ++k) bad.insert(r.u32v());
  if (!r.ok()) return false;

  auto next = resident.begin();
  for (u32 i = 0; i < pages_.size(); ++i) {
    PageRef want;
    if (next != resident.end() && next->first == i) want = (next++)->second;
    if (pages_[i] == want) continue;  // already shared with the snapshot
    rd_[i] = want ? want->data() : kZeroPage.data();
    pages_[i] = std::move(want);
  }
  for (u32 i : dirty_) wr_[i] = nullptr;
  dirty_.clear();
  bad_words_ = std::move(bad);
  return true;
}

}  // namespace la::mem
