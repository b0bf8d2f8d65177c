#ifndef SETREC_CORE_CHUNKED_SET_H_
#define SETREC_CORE_CHUNKED_SET_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace setrec {

/// Entries per chunk of a ChunkedSet. A write inside a chunk moves half a
/// chunk on average, and a write to a shared chunk copies all of it, so
/// smaller chunks make edits cheaper and the chunk list longer. 64 was
/// chosen by measurement (DESIGN.md §11): on the §7 payroll edit shape
/// (4,096 times erase (e, old), insert (e, new)) capacities 32 / 64 / 128 /
/// 256 took 0.91 / 0.95 / 1.12 / 1.40 times std::set's time, while copying
/// 20,000 pairs and toggling one took 14 / 5.8 / 3.7 / 2.3 µs.
inline constexpr std::size_t kChunkCapacity = 64;

/// Adds `items` to InstanceCosts().cloned_items (core/instance.h): every
/// chunk a write clones is counted there, whichever set it belongs to.
void CountClonedItems(std::size_t items);

/// A sorted set of plain values (trivially copy-constructible and
/// destructible) held in chunks of at most kChunkCapacity entries, with
/// copy-on-write sharing.
///
/// Copying a set copies one pointer: the copy shares the chunk list and
/// every chunk. The first write to a set whose chunk list another copy
/// shares clones that list (pointers only); a write then clones the one
/// chunk it touches if another list still holds it, and writes in place
/// otherwise. So copies never see each other's writes, and a write costs
/// O(chunks + kChunkCapacity) however many copies exist.
///
/// Iteration is in ascending order; equality is by contents, whatever the
/// chunk boundaries. Iterators (forward, read-only) are invalidated by any
/// write to the set they came from, never by writes to a copy.
///
/// Thread safety: distinct ChunkedSet objects may be read and written from
/// different threads even when they share chunks; one object follows the
/// usual rules (concurrent const use, or one writer alone). Taking a copy
/// must not race a write to the source, which is what a store's mutex
/// around both gives. A write happens in place only after an acquire load
/// of the owner count reads 1, and copies drop their hold with acq_rel,
/// so every read a dropped copy made happens before the in-place write.
template <typename T>
class ChunkedSet {
  static_assert(std::is_trivially_copy_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "chunks copy entries into raw storage and never destroy them");

  struct Chunk {
    std::atomic<std::uint32_t> owners{1};
    std::uint32_t size = 0;
    alignas(T) unsigned char storage[kChunkCapacity * sizeof(T)];

    T* items() { return std::launder(reinterpret_cast<T*>(storage)); }
    const T* items() const {
      return std::launder(reinterpret_cast<const T*>(storage));
    }
    const T* end() const { return items() + size; }
  };

  /// The chunk list: non-empty chunks in ascending, disjoint order, with
  /// each chunk's greatest entry beside it for the binary search.
  struct Spine {
    std::atomic<std::uint32_t> owners{1};
    std::size_t size = 0;
    std::vector<Chunk*> chunks;
    std::vector<T> lasts;
  };

 public:
  using value_type = T;
  using size_type = std::size_t;

  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;

    reference operator*() const { return *item_; }
    pointer operator->() const { return item_; }

    const_iterator& operator++() {
      if (++item_ == chunk_end_) {
        if (++chunk_ == last_chunk_) {
          item_ = chunk_end_ = nullptr;
        } else {
          item_ = (*chunk_)->items();
          chunk_end_ = (*chunk_)->end();
        }
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.item_ == b.item_;
    }

   private:
    friend class ChunkedSet;
    const_iterator(Chunk* const* chunk, Chunk* const* last_chunk,
                   const T* item)
        : chunk_(chunk),
          last_chunk_(last_chunk),
          item_(item),
          chunk_end_((*chunk)->end()) {}

    Chunk* const* chunk_ = nullptr;
    Chunk* const* last_chunk_ = nullptr;
    const T* item_ = nullptr;  // null at the end
    const T* chunk_end_ = nullptr;
  };
  using iterator = const_iterator;

  ChunkedSet() = default;
  ChunkedSet(const ChunkedSet& other) noexcept : spine_(other.spine_) {
    if (spine_ != nullptr) {
      spine_->owners.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ChunkedSet(ChunkedSet&& other) noexcept
      : spine_(std::exchange(other.spine_, nullptr)) {}
  ChunkedSet& operator=(const ChunkedSet& other) noexcept {
    ChunkedSet copy(other);
    std::swap(spine_, copy.spine_);
    return *this;
  }
  ChunkedSet& operator=(ChunkedSet&& other) noexcept {
    if (this != &other) {
      Release(spine_);
      spine_ = std::exchange(other.spine_, nullptr);
    }
    return *this;
  }
  ~ChunkedSet() { Release(spine_); }

  const_iterator begin() const {
    if (empty()) return end();
    return At(0, spine_->chunks[0]->items());
  }
  const_iterator end() const { return const_iterator(); }

  std::size_t size() const { return spine_ == nullptr ? 0 : spine_->size; }
  bool empty() const { return size() == 0; }
  /// Chunks currently holding the entries (for tests and diagnostics).
  std::size_t num_chunks() const {
    return spine_ == nullptr ? 0 : spine_->chunks.size();
  }

  bool contains(const T& value) const {
    const std::size_t c = ChunkFor(value);
    if (c == num_chunks()) return false;
    const Chunk* chunk = spine_->chunks[c];
    return std::binary_search(chunk->items(), chunk->end(), value);
  }

  /// The first entry not less than `value`.
  const_iterator lower_bound(const T& value) const {
    const std::size_t c = ChunkFor(value);
    if (c == num_chunks()) return end();
    const Chunk* chunk = spine_->chunks[c];
    return At(c, std::lower_bound(chunk->items(), chunk->end(), value));
  }
  /// The first entry greater than `value`.
  const_iterator upper_bound(const T& value) const {
    if (empty()) return end();
    const std::vector<T>& lasts = spine_->lasts;
    const auto c = static_cast<std::size_t>(
        std::upper_bound(lasts.begin(), lasts.end(), value) - lasts.begin());
    if (c == lasts.size()) return end();
    const Chunk* chunk = spine_->chunks[c];
    return At(c, std::upper_bound(chunk->items(), chunk->end(), value));
  }

  /// Inserts `value`; false (and no write) when it is already present.
  bool insert(const T& value) {
    if (empty()) {
      Spine& s = MutableSpine();
      InsertChunk(s, 0, NewChunk(&value, 1));
      s.size = 1;
      return true;
    }
    std::size_t c = ChunkFor(value);
    std::size_t pos;
    if (c == num_chunks()) {
      --c;
      pos = spine_->chunks[c]->size;  // past every entry
    } else {
      const Chunk* chunk = spine_->chunks[c];
      const T* it = std::lower_bound(chunk->items(), chunk->end(), value);
      if (!(value < *it)) return false;
      pos = static_cast<std::size_t>(it - chunk->items());
    }
    Spine& s = MutableSpine();
    InsertAt(s, c, pos, value);
    ++s.size;
    return true;
  }

  /// Erases `value`; returns how many entries went (0 or 1).
  std::size_t erase(const T& value) {
    const std::size_t c = ChunkFor(value);
    if (c == num_chunks()) return 0;
    const Chunk* chunk = spine_->chunks[c];
    const T* it = std::lower_bound(chunk->items(), chunk->end(), value);
    if (value < *it) return 0;
    const auto pos = static_cast<std::size_t>(it - chunk->items());
    EraseAt(MutableSpine(), c, pos, pos + 1);
    return 1;
  }

  /// Erases the run of entries that starts at lower_bound(first) and ends
  /// before the first entry for which `in_run` is false, calling `in_run`
  /// once per entry in order. Only the chunks the run covers are written.
  template <typename Pred>
  std::size_t erase_run(const T& first, Pred in_run) {
    std::size_t c = ChunkFor(first);
    if (c == num_chunks()) return 0;
    const Chunk* start = spine_->chunks[c];
    std::size_t from = static_cast<std::size_t>(
        std::lower_bound(start->items(), start->end(), first) - start->items());
    std::size_t erased = 0;
    while (c < num_chunks()) {
      const Chunk* chunk = spine_->chunks[c];
      std::size_t to = from;
      while (to < chunk->size && in_run(chunk->items()[to])) ++to;
      const bool whole_tail = to == chunk->size;
      const bool whole_chunk = from == 0 && whole_tail;
      if (to != from) {
        erased += to - from;
        EraseAt(MutableSpine(), c, from, to);
      }
      if (!whole_tail) break;
      if (!whole_chunk) ++c;  // else the next chunk moved up to c
      from = 0;
    }
    return erased;
  }

  /// Erases every entry for which `pred` holds, calling it once per entry
  /// in order. Only the chunks that lose an entry are written.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t c = 0; c < num_chunks();) {
      const Chunk* chunk = spine_->chunks[c];
      std::size_t hit = 0;
      while (hit < chunk->size && !pred(chunk->items()[hit])) ++hit;
      if (hit == chunk->size) {
        ++c;
        continue;
      }
      Spine& s = MutableSpine();
      Chunk* mine = MutableChunk(s, c);
      T* items = mine->items();
      std::size_t kept = hit;
      for (std::size_t i = hit + 1; i < mine->size; ++i) {
        if (!pred(items[i])) items[kept++] = items[i];
      }
      erased += mine->size - kept;
      s.size -= mine->size - kept;
      mine->size = static_cast<std::uint32_t>(kept);
      if (kept == 0) {
        DropChunk(s, c);
      } else {
        s.lasts[c] = items[kept - 1];
        ++c;
      }
    }
    return erased;
  }

  friend bool operator==(const ChunkedSet& a, const ChunkedSet& b) {
    if (a.size() != b.size()) return false;
    if (a.spine_ == b.spine_ || a.empty()) return true;
    const std::vector<Chunk*>& ac = a.spine_->chunks;
    const std::vector<Chunk*>& bc = b.spine_->chunks;
    std::size_t ca = 0, cb = 0, ia = 0, ib = 0;
    while (ca < ac.size()) {
      if (ia == 0 && ib == 0 && ac[ca] == bc[cb]) {  // a shared chunk
        ++ca;
        ++cb;
        continue;
      }
      const std::size_t n = std::min(ac[ca]->size - ia, bc[cb]->size - ib);
      if (!std::equal(ac[ca]->items() + ia, ac[ca]->items() + ia + n,
                      bc[cb]->items() + ib)) {
        return false;
      }
      ia += n;
      ib += n;
      if (ia == ac[ca]->size) {
        ++ca;
        ia = 0;
      }
      if (ib == bc[cb]->size) {
        ++cb;
        ib = 0;
      }
    }
    return true;
  }

 private:
  static std::unique_ptr<Chunk> NewChunk(const T* items, std::size_t n) {
    std::unique_ptr<Chunk> chunk(new Chunk);  // entries left uninitialized
    std::uninitialized_copy_n(items, n, chunk->items());
    chunk->size = static_cast<std::uint32_t>(n);
    return chunk;
  }

  /// Puts `chunk` at index `c` of the list `s`, which then owns it. Room
  /// is made first, so a failed allocation leaves `s` as it was.
  static void InsertChunk(Spine& s, std::size_t c,
                          std::unique_ptr<Chunk> chunk) {
    if (s.chunks.size() == s.chunks.capacity() ||
        s.lasts.size() == s.lasts.capacity()) {
      const std::size_t room = std::max<std::size_t>(2 * s.chunks.size(), 4);
      s.chunks.reserve(room);
      s.lasts.reserve(room);
    }
    const auto at = static_cast<std::ptrdiff_t>(c);
    s.lasts.insert(s.lasts.begin() + at, chunk->items()[chunk->size - 1]);
    s.chunks.insert(s.chunks.begin() + at, chunk.release());
  }

  static void Release(Chunk* chunk) {
    if (chunk->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete chunk;
    }
  }
  static void Release(Spine* spine) {
    if (spine == nullptr ||
        spine->owners.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    for (Chunk* chunk : spine->chunks) Release(chunk);
    delete spine;
  }

  /// The first chunk whose greatest entry is not less than `value`
  /// (num_chunks() when there is none).
  std::size_t ChunkFor(const T& value) const {
    if (spine_ == nullptr) return 0;
    const std::vector<T>& lasts = spine_->lasts;
    return static_cast<std::size_t>(
        std::lower_bound(lasts.begin(), lasts.end(), value) - lasts.begin());
  }

  const_iterator At(std::size_t c, const T* item) const {
    Chunk* const* chunks = spine_->chunks.data();
    return const_iterator(chunks + c, chunks + spine_->chunks.size(), item);
  }

  /// This set's chunk list, cloned first (pointers only) when another copy
  /// shares it.
  Spine& MutableSpine() {
    if (spine_ == nullptr) {
      spine_ = new Spine;
    } else if (spine_->owners.load(std::memory_order_acquire) != 1) {
      auto copy = std::make_unique<Spine>();
      copy->size = spine_->size;
      copy->chunks = spine_->chunks;
      copy->lasts = spine_->lasts;
      for (Chunk* chunk : copy->chunks) {
        chunk->owners.fetch_add(1, std::memory_order_relaxed);
      }
      Release(spine_);
      spine_ = copy.release();
    }
    return *spine_;
  }

  /// Chunk `c` of the (unshared) list `s`, cloned first when another list
  /// holds it.
  static Chunk* MutableChunk(Spine& s, std::size_t c) {
    Chunk*& chunk = s.chunks[c];
    if (chunk->owners.load(std::memory_order_acquire) != 1) {
      std::unique_ptr<Chunk> copy = NewChunk(chunk->items(), chunk->size);
      CountClonedItems(chunk->size);
      Release(chunk);
      chunk = copy.release();
    }
    return chunk;
  }

  static void DropChunk(Spine& s, std::size_t c) {
    Release(s.chunks[c]);
    s.chunks.erase(s.chunks.begin() + static_cast<std::ptrdiff_t>(c));
    s.lasts.erase(s.lasts.begin() + static_cast<std::ptrdiff_t>(c));
  }

  /// Inserts `value` at position `pos` of chunk `c`. A full chunk splits in
  /// halves, except that a value past the last entry of the last chunk
  /// starts a new chunk, so loads in ascending order fill their chunks.
  static void InsertAt(Spine& s, std::size_t c, std::size_t pos,
                       const T& value) {
    if (s.chunks[c]->size == kChunkCapacity) {
      if (pos == kChunkCapacity && c + 1 == s.chunks.size()) {
        InsertChunk(s, c + 1, NewChunk(&value, 1));
        return;
      }
      // Split: the upper half moves to a new chunk; the lower half stays,
      // in a clone when another list holds the full chunk.
      constexpr std::size_t kHalf = kChunkCapacity / 2;
      Chunk* full = s.chunks[c];
      std::unique_ptr<Chunk> right =
          NewChunk(full->items() + kHalf, kChunkCapacity - kHalf);
      std::unique_ptr<Chunk> left;
      if (full->owners.load(std::memory_order_acquire) != 1) {
        left = NewChunk(full->items(), kHalf);
      }
      InsertChunk(s, c + 1, std::move(right));
      if (left != nullptr) {
        CountClonedItems(kChunkCapacity);
        Release(full);
        s.chunks[c] = left.release();
      } else {
        full->size = static_cast<std::uint32_t>(kHalf);
      }
      s.lasts[c] = s.chunks[c]->items()[kHalf - 1];
      if (pos > kHalf) {
        ++c;
        pos -= kHalf;
      }
    }
    Chunk* chunk = MutableChunk(s, c);
    T* items = chunk->items();
    if (pos == chunk->size) {
      std::uninitialized_copy_n(&value, 1, items + pos);
      s.lasts[c] = value;
    } else {
      std::uninitialized_copy_n(items + chunk->size - 1, 1,
                                items + chunk->size);
      std::copy_backward(items + pos, items + chunk->size - 1,
                         items + chunk->size);
      items[pos] = value;
    }
    ++chunk->size;
  }

  /// Erases positions [from, to) of chunk `c` of the (unshared) list `s`.
  /// A chunk that loses every entry leaves the list without being cloned.
  static void EraseAt(Spine& s, std::size_t c, std::size_t from,
                      std::size_t to) {
    s.size -= to - from;
    if (to - from == s.chunks[c]->size) {
      DropChunk(s, c);
      return;
    }
    Chunk* chunk = MutableChunk(s, c);
    T* items = chunk->items();
    std::copy(items + to, items + chunk->size, items + from);
    chunk->size = static_cast<std::uint32_t>(chunk->size - (to - from));
    s.lasts[c] = items[chunk->size - 1];
  }

  Spine* spine_ = nullptr;  // null for a set that was never written
};

}  // namespace setrec

#endif  // SETREC_CORE_CHUNKED_SET_H_
