// Packed, register-blocked micro-kernel engine for the host-side BLAS.
//
// Every irregular-batch kernel in this reproduction executes its numerics
// for real on the host, so host GEMM/TRSM throughput is the wall-clock
// floor of the whole project (tests, every bench figure, the multifrontal
// solver). This layer provides the GotoBLAS-style machinery the generic
// loops in blas.cpp lack:
//
//  - MC/KC/NC cache blocking with explicit packing of op(A) and op(B)
//    into contiguous, zero-padded panels (thread-local buffers, reused
//    across calls), so all four transpose combinations run at unit
//    stride;
//  - an MR x NR register tile held in GCC vector-extension accumulators
//    whose width follows the ISA microkernel.cpp is compiled for, written
//    back once; edge tiles compute the full padded tile and store only
//    the valid part;
//  - unrolled multi-column fast paths for the level-2 kernels (ger/gemv)
//    that dominate the column-wise panel fallback of irrLU.
//
// Tile geometry per ISA (vector_bytes() and tile_geometry() report it).
// A tile column is one vector register but at least 8 elements, and the
// tile holds eight accumulator registers, which leaves room for the A
// column and the B broadcast in the register file of every ISA (32
// registers on AVX-512, 16 otherwise):
//
//   ISA (vector bytes)    float MR x NR   double MR x NR
//   AVX-512 (64)          16 x 8          8 x 8
//   AVX, AVX2 (32)        8 x 8           8 x 4
//   portable SSE2 (16)    8 x 4           8 x 2
//
// std::complex<double> keeps a scalar 4 x 2 tile. KC, the k-block, is
// fixed per element type on every ISA: each C element gets one
// k-ascending `acc += a * b` chain per KC block and one `c += alpha *
// acc` writeback, so MR, NR, MC and NC never change a result bit. Under
// -march=native the compiler fuses those multiply-adds wherever the ISA
// has FMA (the portable build has none).
//
// None of this changes simulated device time: the gpusim cost model is
// driven exclusively by LaunchConfig and BlockCtx::record(), never by how
// fast the host happens to execute a kernel body (DESIGN.md, "Host
// execution performance").
#pragma once

#include "lapack/types.hpp"

namespace irrlu::la::mk {

/// Bytes per vector register of the engine's register tile: 64 when
/// microkernel.cpp is compiled for AVX-512, 32 for AVX, 16 otherwise.
int vector_bytes();

/// True when microkernel.cpp is compiled for an ISA with fused
/// multiply-adds (native builds on FMA hosts): the engine's results then
/// round differently from a build without them.
bool fused_multiply_add();

/// Register-tile and cache-block sizes of the engine for one element
/// type. MC is a multiple of MR and NC a multiple of NR; KC*(MR+NR)
/// elements (one A panel + one B panel) are sized to stay resident in L1
/// while a packed MC x KC block of A stays in L2.
struct TileGeometry {
  int mr, nr, mc, kc, nc;
};

/// The geometry gemm_packed<T> runs with in this build (T is float,
/// double or std::complex<double>).
template <typename T>
TileGeometry tile_geometry();

/// C (m x n, leading dimension ldc) += alpha * op(A) * op(B), inner
/// dimension k, for any of the four transpose combinations. Assumes the
/// caller has already applied beta to C and screened out alpha == 0 /
/// degenerate extents. Deterministic: repeated calls with the same inputs
/// produce bit-identical results (packing buffers are fully rewritten,
/// padding included, on every pack).
template <typename T>
void gemm_packed(Trans transa, Trans transb, int m, int n, int k, T alpha,
                 const T* a, int lda, const T* b, int ldb, T* c, int ldc);

/// Rank-1 update fast path, A += alpha * x * y^T with unit-stride x:
/// processes four columns of A per pass so x is loaded once per pass
/// instead of once per column. Column results are bit-identical to the
/// one-column-at-a-time reference (zero columns of y are skipped there
/// and here).
template <typename T>
void ger_unit(int m, int n, T alpha, const T* x, const T* y, int incy, T* a,
              int lda);

/// y = alpha*op(A)*x + beta*y with unit strides on x and y; four-column
/// blocking in both transpose modes. beta == 0 overwrites y (BLAS
/// semantics, NaN-safe). Per-element accumulation order matches the
/// column-ascending reference loop exactly.
template <typename T>
void gemv_unit(Trans trans, int m, int n, T alpha, const T* a, int lda,
               const T* x, T beta, T* y);

/// Small-triangle substitution solve op(A) X = B with alpha already
/// applied: the base case of the blocked trsm. Triangles of order <= 16
/// with Trans::No dispatch to fully-unrolled fixed-size forward/back-
/// substitution kernels (the triangle staged once into a contiguous
/// stack tile, each rhs solved in registers) with bit-identical results;
/// larger orders and Trans::Yes use generic loops whose orders keep the
/// stored triangle contiguous (right-looking axpy for Trans::No,
/// left-looking row dots for Trans::Yes) with four right-hand-side
/// columns sharing each triangle load.
template <typename T>
void trsm_left_small(Uplo uplo, Trans trans, Diag diag, int m, int n,
                     const T* a, int lda, T* b, int ldb);

/// Small-triangle substitution solve X op(A) = B with alpha already
/// applied (A is n x n): column-axpy form, each update contiguous over
/// the m rows of B.
template <typename T>
void trsm_right_small(Uplo uplo, Trans trans, Diag diag, int m, int n,
                      const T* a, int lda, T* b, int ldb);

}  // namespace irrlu::la::mk
