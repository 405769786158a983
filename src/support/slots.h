// Fixed-capacity slot storage for the monitoring layers' bounded rings
// (telemetry::Ring, obsplane's per-rank staging rings).
//
// The capacity is allocated but never value-initialised: records are
// trivially copyable and memcpy'd into and out of raw slots, so building a
// ring touches no page and its resident size grows only with the records
// actually stored. A zero-filled std::vector would cost capacity x np bytes
// up front (1 MiB of spans per rank at the default capacity), however few
// records a run stages. Callers never load a slot they have not stored.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

namespace mpim {

template <typename T>
class Slots {
  static_assert(std::is_trivially_copyable_v<T>,
                "slots are filled and read with memcpy");

 public:
  /// `n` slots (at least one), uninitialised.
  explicit Slots(std::size_t n)
      : n_(n == 0 ? 1 : n), mem_(std::allocator<T>().allocate(n_)) {}
  ~Slots() { std::allocator<T>().deallocate(mem_, n_); }
  Slots(const Slots&) = delete;
  Slots& operator=(const Slots&) = delete;

  std::size_t size() const { return n_; }

  void store(std::size_t i, const T& v) {
    std::memcpy(static_cast<void*>(mem_ + i), &v, sizeof(T));
  }
  T load(std::size_t i) const {
    T v{};
    std::memcpy(&v, static_cast<const void*>(mem_ + i), sizeof(T));
    return v;
  }

 private:
  std::size_t n_;
  T* mem_;
};

}  // namespace mpim
