// Byte-for-byte memory regions with volatility semantics.
//
// The MSP430FR5994 pairs 8 KB of volatile SRAM (fast, cheap accesses,
// contents lost at brown-out) with 256 KB of non-volatile FRAM (slower,
// pricier writes, survives power loss). Getting the *loss* right is the
// whole game for intermittent computing, so regions store real words: a
// reboot scrambles SRAM (deterministically, from a seed, so tests can
// prove that a runtime never silently relies on dead state) and leaves
// FRAM intact.
//
// The scramble is deferred. scramble() draws one 64-bit key and marks
// the region stale; the garbage words it stands for are written only
// when something next looks at the region, through any accessor below.
// A device that reboots again before touching SRAM (a recharge storm, or
// a runtime that stages its work in host scratch) just replaces the key,
// so it pays for one draw instead of a whole-region fill. Observably this
// is an eager fill keyed per reboot: every accessor sees the same words
// whichever of them runs first.
//
// Zeroing is deferred the same way. A region's storage is allocated (or
// recycled from a retired device) without initialising it; the words a
// fresh region holds are zeros, written a page at a time when an access
// first reaches past the materialised prefix. That is the slow arm the
// scramble uses: the prefix length is the one bound each accessor already
// compares against, so the hot path gains no branch. A deployment-sized
// FRAM (8M words for a dense twin) whose model touches a few percent of
// it zeroes, and faults in, only those pages. A scramble pending at the
// first access still fills the whole region.
//
// Word addressing: all ehdnn device data is 16-bit, so addresses index
// q15 words. Cost accounting happens in Device, not here; peek/poke are
// the cost-free accessors used for programming-time setup and test
// assertions only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fixed/q15.h"
#include "util/check.h"
#include "util/rng.h"

namespace ehdnn::dev {

using Addr = std::size_t;  // word address within a region

enum class MemKind { kSram, kFram };

// An allocator whose argument-free construct() default-initialises, so
// growing a vector of q15 words leaves them indeterminate instead of
// zeroing them. MemoryRegion zeroes its words on demand instead.
template <class T>
struct UninitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// A region's backing word array (see DeviceSlabs for its recycling).
using WordStorage = std::vector<fx::q15_t, UninitAllocator<fx::q15_t>>;

class MemoryRegion {
 public:
  // Words are zeroed on demand in pages of this many (8 KB).
  static constexpr std::size_t kZeroPageWords = 4096;

  MemoryRegion(MemKind kind, std::size_t words) : kind_(kind), words_(words) {}

  // Arena construction: adopt `storage` as the backing buffer (its
  // capacity is reused; the region reads as the `words` zeros a fresh
  // region holds, whatever the buffer held before). Each fleet worker
  // hands a finished device's buffers to its next device this way, so the
  // big word arrays are allocated once per worker instead of once per
  // device.
  MemoryRegion(MemKind kind, std::size_t words, WordStorage storage)
      : kind_(kind), words_(std::move(storage)) {
    words_.clear();  // a reallocation below then copies nothing
    words_.resize(words);
  }

  // Arena hand-off: steal the backing storage for recycling. The region
  // is left empty and must not be used afterwards (its owner is being
  // torn down). A pending scramble is dropped unfilled: nothing can read
  // it any more.
  WordStorage take_storage() {
    fresh_words_ = 0;
    fill_pending_ = false;
    brk_ = 0;
    segments_.clear();
    return std::move(words_);
  }

  MemKind kind() const { return kind_; }
  bool is_volatile() const { return kind_ == MemKind::kSram; }
  std::size_t size_words() const { return words_.size(); }
  std::size_t size_bytes() const { return words_.size() * sizeof(fx::q15_t); }

  fx::q15_t peek(Addr a) const {
    if (a >= fresh_words_) [[unlikely]] {
      refresh(a < words_.size(), a + 1, "MemoryRegion: address out of range");
    }
    return words_[a];
  }
  void poke(Addr a, fx::q15_t v) {
    if (a >= fresh_words_) [[unlikely]] {
      refresh(a < words_.size(), a + 1, "MemoryRegion: address out of range");
    }
    words_[a] = v;
  }

  // Bounds-checked block views: one range check for a whole [a, a+n)
  // window, then raw storage access. These back the device's bulk
  // fast paths; like peek/poke they carry no cost accounting.
  std::span<const fx::q15_t> view(Addr a, std::size_t n) const {
    if (a > fresh_words_ || n > fresh_words_ - a) [[unlikely]] {
      refresh(a <= words_.size() && n <= words_.size() - a, a + n,
              "MemoryRegion: block out of range");
    }
    return {words_.data() + a, n};
  }
  std::span<fx::q15_t> mut_view(Addr a, std::size_t n) {
    if (a > fresh_words_ || n > fresh_words_ - a) [[unlikely]] {
      refresh(a <= words_.size() && n <= words_.size() - a, a + n,
              "MemoryRegion: block out of range");
    }
    return {words_.data() + a, n};
  }

  // Volatile loss at reboot. Draws one key from `rng` and marks the
  // region stale; its contents are from then on the fill of Rng(key),
  // four words per draw, written at the first access (see the header
  // comment). A second scramble before any access replaces the key. A
  // runtime that reads un-reinitialized SRAM after reboot computes
  // garbage and fails the bit-exactness tests — by design. FRAM never
  // loses its contents, so scrambling it is an error.
  void scramble(Rng& rng) {
    check(is_volatile(), "MemoryRegion: only volatile memory is scrambled");
    fill_key_ = rng.next_u64();
    fill_pending_ = true;
    fresh_words_ = 0;
  }

  // Deferred scrambles this region has materialized so far (zeroing is
  // not counted).
  long fills() const { return fills_; }

  // Image cloning: replace this region's contents AND allocator state
  // with a copy of `other`'s. Cost-free like peek/poke — this is a
  // programming-time operation (the fleet engine stamps each device's
  // FRAM from its group's compiled template instead of re-running
  // ace::compile per device; compile's image writes are cost-free too,
  // so the clone is observationally identical). Only
  // `other`'s materialised prefix is copied; the rest of this region then
  // stands for the same zeros or pending fill as `other`'s. `other` is
  // only read, so fleet workers may clone one shared template at once.
  void clone_from(const MemoryRegion& other) {
    check(kind_ == other.kind_ && words_.size() == other.words_.size(),
          "MemoryRegion: clone_from geometry mismatch");
    std::copy_n(other.words_.data(), other.fresh_words_, words_.data());
    fresh_words_ = other.fresh_words_;
    fill_pending_ = other.fill_pending_;
    fill_key_ = other.fill_key_;
    brk_ = other.brk_;
    segments_ = other.segments_;
  }

  // --- bump allocator (named segments, word granular) -------------------
  struct Segment {
    std::string name;
    Addr base = 0;
    std::size_t words = 0;
  };

  Addr alloc(std::size_t words, const std::string& name) {
    check(brk_ + words <= words_.size(),
          "MemoryRegion: out of memory allocating '" + name + "' (" +
              std::to_string(words) + " words, brk=" + std::to_string(brk_) + "/" +
              std::to_string(words_.size()) + ")");
    segments_.push_back({name, brk_, words});
    const Addr base = brk_;
    brk_ += words;
    return base;
  }

  std::size_t allocated_words() const { return brk_; }
  std::size_t free_words() const { return words_.size() - brk_; }
  const std::vector<Segment>& segments() const { return segments_; }

  void reset_allocator() {
    brk_ = 0;
    segments_.clear();
  }

 private:
  // The slow arm of every accessor: the range check, then the pending
  // scramble fill or, without one, zeros up to the end of the page that
  // holds word `end - 1`. A stale region has fresh_words_ == 0, so each
  // accessor's one range comparison against fresh_words_ also catches
  // staleness.
  void refresh(bool in_range, std::size_t end, const char* msg) const {
    check(in_range, msg);
    if (fill_pending_) {
      fill();
    } else {
      const std::size_t page_end = (end + kZeroPageWords - 1) / kZeroPageWords * kZeroPageWords;
      const std::size_t to = std::min(words_.size(), page_end);
      std::fill(words_.begin() + static_cast<std::ptrdiff_t>(fresh_words_),
                words_.begin() + static_cast<std::ptrdiff_t>(to), fx::q15_t{0});
      fresh_words_ = to;
    }
  }
  void fill() const {
    Rng rng(fill_key_);
    const std::size_t n = words_.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const std::uint64_t r = rng.next_u64();
      for (std::size_t k = 0; k < 4; ++k) {
        words_[i + k] = static_cast<fx::q15_t>(r >> (16 * k));
      }
    }
    if (i < n) {  // tail of a region whose size is not a multiple of 4
      const std::uint64_t r = rng.next_u64();
      for (std::size_t k = 0; k < 3 && i < n; ++k, ++i) {
        words_[i] = static_cast<fx::q15_t>(r >> (16 * k));
      }
    }
    fresh_words_ = n;
    fill_pending_ = false;
    ++fills_;
  }

  MemKind kind_;
  // The words and the deferred zero/fill state are mutable so the const
  // accessors (peek, view) can materialize them. That write is not
  // synchronized: a region read through its accessors must not be shared
  // across threads. The regions fleet workers share (group template
  // images) are read only through clone_from, which writes nothing to
  // its source.
  mutable WordStorage words_;
  // The materialised prefix: words [0, fresh_words_) are readable as
  // stored; the rest are zeros or, while fill_pending_, the scramble's
  // fill, written by the slow arm. 0 while a scramble is pending.
  mutable std::size_t fresh_words_ = 0;
  mutable bool fill_pending_ = false;
  mutable long fills_ = 0;
  std::uint64_t fill_key_ = 0;
  Addr brk_ = 0;
  std::vector<Segment> segments_;
};

}  // namespace ehdnn::dev
