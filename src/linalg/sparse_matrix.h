// Immutable symmetric sparse matrix in one compressed-row layout.
//
// This is the adjacency matrix of a transit network. Every whole-network
// Lanczos run (the precompute's tr_0 anchor, Lemma 4's eigenvalues) and
// every local-increment ball walk reads it. It is built once from an entry
// list and never changes: each row is stored in ascending column order, so
// the matrix, and the floating-point order of every matvec over it, is a
// function of the entry set alone, not of the order the entries arrived in.
#ifndef CTBUS_LINALG_SPARSE_MATRIX_H_
#define CTBUS_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matvec.h"

namespace ctbus::linalg {

/// Symmetric matrix with zero diagonal (a weighted undirected adjacency
/// matrix). Entries are stored twice, once per incident row.
class SymmetricSparseMatrix : public MatVec {
 public:
  /// One stored entry of a row.
  struct Entry {
    int col = 0;
    double value = 0.0;
  };

  /// One input pair: A[u][v] = A[v][u] = value.
  struct Triplet {
    int u;
    int v;
    double value;
  };

  /// Read-only view of one row's entries, in ascending column order.
  class RowView {
   public:
    RowView(const Entry* begin, const Entry* end) : begin_(begin), end_(end) {}
    const Entry* begin() const { return begin_; }
    const Entry* end() const { return end_; }
    int size() const { return static_cast<int>(end_ - begin_); }
    const Entry& operator[](std::size_t i) const { return begin_[i]; }

   private:
    const Entry* begin_;
    const Entry* end_;
  };

  /// Builds the n x n matrix holding `entries`, each pair listed once in
  /// either orientation, and sorts every row by column. Every entry is
  /// validated before anything is stored: throws std::invalid_argument for
  /// n < 0, a diagonal entry (u == v), a non-finite value, or a pair listed
  /// twice (as (u, v) and (u, v), or as (u, v) and (v, u)), and
  /// std::out_of_range for an index outside [0, n).
  SymmetricSparseMatrix(int n, const std::vector<Triplet>& entries);

  int dim() const override { return static_cast<int>(row_start_.size()) - 1; }

  /// Number of stored symmetric entries (each off-diagonal pair counts once).
  std::int64_t num_entries() const {
    return static_cast<std::int64_t>(entries_.size() / 2);
  }

  /// Returns A[u][v] (0.0 if no stored entry). Binary search of row u.
  double At(int u, int v) const;

  /// True if a (u, v) entry is stored. Binary search of row u.
  bool Contains(int u, int v) const;

  /// Number of stored entries in row u.
  int RowDegree(int u) const {
    return static_cast<int>(row_start_[u + 1] - row_start_[u]);
  }

  /// Stored entries of row u, ascending by column.
  RowView Row(int u) const {
    return {entries_.data() + row_start_[u],
            entries_.data() + row_start_[u + 1]};
  }

  /// y = A x, each row accumulated in ascending column order.
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;

  /// Y = A X for `batch` lane-interleaved right-hand sides (see
  /// MatVec::ApplyBatch for the layout), lanes innermost: each stored
  /// entry feeds up to four lanes, and each lane accumulates its row in
  /// stored entry order, so every lane is bit-identical to Apply.
  void ApplyBatch(const double* x, int batch, double* y) const override;

  /// Approximate resident footprint in bytes (row offsets + stored
  /// entries), deterministic and O(1) — each symmetric entry is stored
  /// twice.
  std::size_t ApproxBytes() const {
    return sizeof(SymmetricSparseMatrix) +
           row_start_.size() * sizeof(std::size_t) +
           entries_.size() * sizeof(Entry);
  }

 private:
  // Row u is entries_[row_start_[u], row_start_[u + 1]).
  std::vector<std::size_t> row_start_;
  std::vector<Entry> entries_;
};

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_SPARSE_MATRIX_H_
