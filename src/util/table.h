// A dense rows x cols table in one row-major allocation: the storage of every
// n x n (and n x |DOM|) table in the system — distances, next hops, S-SP
// deltas and parent indices, distance labels.
//
// Tables are node-major: row v is what node v stores (Remark 4: each node
// keeps its own distances and BFS-tree parents), so t[v][u] reads the way
// the per-node rows it models are indexed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dapsp {

template <class T>
class Table {
 public:
  Table() = default;
  Table(std::size_t rows, std::size_t cols, const T& fill = T{})
      : rows_(rows), cols_(cols), cells_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  const T& at(std::size_t r, std::size_t c) const {
    return cells_[r * cols_ + c];
  }
  void set(std::size_t r, std::size_t c, const T& value) {
    cells_[r * cols_ + c] = value;
  }

  std::span<T> row(std::size_t r) { return {cells_.data() + r * cols_, cols_}; }
  std::span<const T> row(std::size_t r) const {
    return {cells_.data() + r * cols_, cols_};
  }
  std::span<T> operator[](std::size_t r) { return row(r); }
  std::span<const T> operator[](std::size_t r) const { return row(r); }

  // Every cell, row after row.
  std::span<T> data() noexcept { return cells_; }
  std::span<const T> data() const noexcept { return cells_; }

  friend bool operator==(const Table&, const Table&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> cells_;
};

}  // namespace dapsp
