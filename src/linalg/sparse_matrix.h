// Symmetric sparse matrix stored as per-row adjacency lists.
//
// This is the adjacency-matrix representation used for transit networks: the
// CT-Bus search adds and removes candidate edges thousands of times, so the
// storage is optimized for O(deg) edge insertion/removal plus fast
// matrix-vector products, rather than for a frozen CSR layout.
#ifndef CTBUS_LINALG_SPARSE_MATRIX_H_
#define CTBUS_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matvec.h"

namespace ctbus::linalg {

class CsrMatrix;

/// Symmetric matrix with zero diagonal (a weighted undirected adjacency
/// matrix). Entries are stored twice, once per incident row.
class SymmetricSparseMatrix : public MatVec {
 public:
  struct Entry {
    int col = 0;
    double value = 0.0;
  };

  SymmetricSparseMatrix() = default;
  explicit SymmetricSparseMatrix(int n) : rows_(n) {}

  int dim() const override { return static_cast<int>(rows_.size()); }

  /// Number of stored symmetric entries (each off-diagonal pair counts once).
  std::int64_t num_entries() const { return num_entries_; }

  /// Sets A[u][v] = A[v][u] = value. Overwrites an existing entry.
  /// Throws std::invalid_argument if u == v (a diagonal entry would
  /// silently break the zero-diagonal invariant that Remove and
  /// num_entries() rely on) and std::out_of_range if either index is
  /// outside [0, dim()). Validation is always on — asserts compile out in
  /// release builds, and a corrupted matrix poisons every cached
  /// Precompute table built from it.
  void Set(int u, int v, double value);

  /// Adds `delta` to A[u][v] (creating the entry if absent). Same
  /// always-on precondition validation as Set.
  void Add(int u, int v, double delta);

  /// Removes the (u, v) entry if present; returns true if it existed.
  /// Same always-on precondition validation as Set.
  bool Remove(int u, int v);

  /// Returns A[u][v] (0.0 if no stored entry).
  double At(int u, int v) const;

  /// True if a (u, v) entry is stored.
  bool Contains(int u, int v) const;

  /// Number of stored entries in row u.
  int RowDegree(int u) const { return static_cast<int>(rows_[u].size()); }

  /// Stored entries of row u.
  const std::vector<Entry>& Row(int u) const { return rows_[u]; }

  /// y = A x.
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;

  /// Y = A X for `batch` lane-interleaved right-hand sides (see
  /// MatVec::ApplyBatch for the layout), lanes innermost: each stored
  /// entry feeds up to four lanes, and each lane accumulates its row in
  /// stored entry order, so every lane is bit-identical to Apply.
  void ApplyBatch(const double* x, int batch, double* y) const override;

  /// Freezes the current contents into a contiguous CSR matrix (see
  /// csr_matrix.h for its remaining users). Per-row entry order is
  /// preserved, so CSR matvec results are bit-identical to Apply.
  CsrMatrix Freeze() const;

  /// Cheap upper bound on the spectral norm: max over rows of the row sum of
  /// absolute values (the infinity norm, which dominates ||A||_2 for
  /// symmetric A).
  double SpectralNormUpperBound() const;

  /// Approximate resident footprint in bytes (rows + stored entries),
  /// deterministic and O(1) — each symmetric entry is stored twice.
  std::size_t ApproxBytes() const {
    return sizeof(SymmetricSparseMatrix) +
           rows_.size() * sizeof(std::vector<Entry>) +
           2 * static_cast<std::size_t>(num_entries_) * sizeof(Entry);
  }

 private:
  // Returns the index of `col` in rows_[row], or -1.
  int FindInRow(int row, int col) const;

  std::vector<std::vector<Entry>> rows_;
  std::int64_t num_entries_ = 0;
};

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_SPARSE_MATRIX_H_
