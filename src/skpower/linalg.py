"""Dense matrix kernels: orthonormalization, thin SVD, pseudoinverse, Frobenius norm.

Everything operates on 2-D float64 numpy arrays.  ``as_matrix`` is the single
entry point that enforces the operand contract (two-dimensional, non-empty,
all entries finite); public operations validate their inputs through it.
The two structural checks live next to it: ``orthonormal_projection`` for a
basis and ``psd_eigenvalues`` for a symmetric psd input.

Decompositions go through ``numpy.linalg``, so they run on the same BLAS
runtime as every ``@`` product.  No module of the package uses scipy's dense
linear algebra: scipy links its own OpenBLAS, whose idle threads keep
spinning after each call and take the cores away from numpy's pool, which
stalls a loop that alternates the two (a power pair and its stabilization
QR).  scipy is used only for the sparse matrix containers (``scipy.sparse``):
``scipy.special`` and scipy's dense and sparse linear algebra would map its
OpenBLAS into the process on import.  Rank
handling follows the conventions documented on each function.

Skinny factorizations (``orthonormalize``, ``thin_svd`` and ``pinv`` of a
non-square input, and the residual QR of :mod:`skpower.diagnostics`) run one
kernel, :func:`_cholesky_qr2`: two Gram-Cholesky passes, all GEMMs and
c x c factorizations.  LAPACK's Householder panels are slow on such shapes
at the package's default of 2 BLAS threads (2-vCPU Xeon, scipy-openblas
0.3.31, medians of 40): the SVD of randsvd's 80 x 1000 ``Q.T A`` took
18 ms (7-9 ms at one thread) against 4-5 ms through the kernel (4-5 ms at
one thread), ``pinv`` of a 400 x 80 block 6.7 ms (3-4 ms) against 2 ms, and
a Householder QR of a 4000 x 40 left factor 10-12 ms (6-7 ms) against
2 ms.  Its one condition bound admits only inputs of full numerical rank
(:func:`_default_rel_tol`).  Householder QR and LAPACK's SVD run where it
rejects the input (rank-deficient or nearly so; the rank is then counted
from singular values), on square inputs, which have no small factor, and
in the Krylov estimator's extension of a 4-row block, where LAPACK's fixed
cost is lower.  ``data_io`` draws its Haar bases by
Householder QR on purpose, so every seeded dataset stays the same.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class SvdResult(NamedTuple):
    """Thin SVD ``A = U @ diag(sigma) @ V.T``.

    ``U`` is m-by-p and ``V`` is n-by-p with orthonormal columns, ``sigma``
    is descending and nonnegative, p = min(m, n).
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a non-empty, finite, 2-D float64 array."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not _all_finite(out):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, in one BLAS dot where ``a`` is contiguous.

    A sum of squares is finite only if every square is, since squares
    cannot cancel; a non-finite sum (a NaN or inf entry, or an overflow of
    entries near 1e154 and above) is settled by the elementwise scan.
    """
    if a.flags.c_contiguous or a.flags.f_contiguous:
        flat = a.ravel(order="K")
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.dot(flat, flat)
        if np.isfinite(total):
            return True
    return bool(np.isfinite(a).all())


def orthonormal_projection(a, q_basis) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, Q.T @ a)``, raising unless Q's columns are orthonormal within 1e-6 and it has ``a``'s rows."""
    return _projection(as_matrix(a, "a"), as_matrix(q_basis, "q_basis"))[:2]


def _deviation(q: np.ndarray) -> float:
    """``max |Q.T Q - I|``: how far the columns of ``q`` are from orthonormal."""
    return np.abs(q.T @ q - np.eye(q.shape[1])).max()


def _projection(a: np.ndarray, q_basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`orthonormal_projection` of checked operands, plus the :func:`_deviation` of Q its check formed."""
    dev = _deviation(q_basis)
    if dev > 1e-6:
        raise ValueError(f"Q is not orthonormal (deviation {dev:.3e})")
    if q_basis.shape[0] != a.shape[0]:
        raise ValueError(f"Q and a must have the same number of rows, got {q_basis.shape[0]} and {a.shape[0]}")
    return q_basis, q_basis.T @ a, dev


def psd_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of the symmetric psd matrix ``a``.

    Raises unless ``a`` is square, symmetric within ``tol`` = 1e-8 times its
    largest entry, and has no eigenvalue below ``-tol`` times the largest
    in magnitude.  ``a`` is taken as a validated matrix.
    """
    tol = 1e-8
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"psd input must be square, got {a.shape}")
    if np.abs(a - a.T).max() > tol * np.abs(a).max():
        raise ValueError("matrix is not symmetric within tolerance")
    w = np.linalg.eigvalsh((a + a.T) / 2.0)
    floor = -tol * np.abs(w).max()
    if w.min() < floor:
        raise ValueError(f"matrix is not psd: min eigenvalue {w.min():.3e} < {floor:.3e}")
    return w


def _default_rel_tol(shape) -> float:
    # max(rows, cols) * machine epsilon, applied relative to the largest
    # singular value; the standard numerical-rank convention.
    return max(shape) * np.finfo(np.float64).eps


def orthonormalize(y) -> np.ndarray:
    """Orthonormal basis for the range of ``y``.

    The basis has exactly the numerical rank of ``y``: the number of
    singular values at or above ``max(m, c) * eps`` times the largest,
    possibly fewer columns than ``y``.  A ``y`` that :func:`_cholesky_qr2`
    accepts has full rank by that rule and takes its ``Q``.  The general
    path is a Householder QR ``y = Q R`` followed by an SVD of the small
    ``R``; the rank is counted from R's singular values and the basis is
    ``Q`` times R's leading left singular vectors.  :func:`span_basis` is
    its span-only sibling, run between power steps: one pass, with this
    function as the fallback.

    Parameters
    ----------
    y : array_like, shape (m, c)
        Non-empty matrix.  Raises ``ValueError`` if all entries are zero.
    """
    y = as_matrix(y, "y")
    qr = _cholesky_qr2(y)
    return _qr_svd_basis(y) if qr is None else qr[0]


def span_basis(y) -> np.ndarray:
    """Well-conditioned basis of the range of ``y``, for use between power steps.

    One CholeskyQR pass ``Q = y R^-1``, kept when ``max |Q.T Q - I| <= 0.1``
    (a pass leaves about ``cond(y)^2 eps``); otherwise ``orthonormalize(y)``,
    which drops the columns of rank-deficient and ill-conditioned blocks.
    """
    y = as_matrix(y, "y")
    q = _cholesky_qr_pass(y)
    if q is not None and _deviation(q) <= 0.1:
        return q
    return orthonormalize(y)


# CholeskyQR squares the condition number in the Gram matrix; beyond
# eps^(-1/2) the Gram's rounding swamps its smallest eigenvalue.
_CHOLQR_MAX_COND = np.finfo(np.float64).eps ** -0.5


def _gram_cholesky(y: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``y.T y``, or None where the factorization fails."""
    try:
        return np.linalg.cholesky(y.T @ y)
    except np.linalg.LinAlgError:
        return None


def _cholesky_qr_pass(y: np.ndarray) -> np.ndarray | None:
    """``y R^-1`` with ``R.T R = y.T y``; None if the Cholesky fails."""
    lower = _gram_cholesky(y)
    return None if lower is None else y @ np.linalg.inv(lower).T


def _cholesky_qr2(y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015) of a checked ``y`` (m x c, m >= c).

    Returns ``(Q, R)`` with ``y = Q R``, ``Q`` orthonormal to working
    precision and ``R`` c x c, from two passes ``R_i = chol(Q_{i-1}.T Q_{i-1})``,
    ``Q_i = Q_{i-1} R_i^-1``, ``R = R_2 R_1``.  The one acceptance rule: both
    Cholesky factorizations succeed and each factor has
    ``||R_i||_F ||R_i^-1||_F <= min(eps^(-1/2), 1 / (max(m, c) eps))``, an
    upper bound on its 2-norm condition number that costs no SVD.
    Otherwise it returns None, and the caller falls back to Householder QR
    or the SVD.  In exact arithmetic the second pass is the identity, so an
    accepted ``y`` has no singular value below ``max(m, c) eps sigma_1``:
    full rank by the rule of :func:`orthonormalize` and :func:`pinv`.  The
    passes are GEMMs and c x c factorizations: no Householder panel.
    """
    max_cond = min(_CHOLQR_MAX_COND, 1.0 / _default_rel_tol(y.shape))
    q, r = y, None
    for _ in range(2):
        lower = _gram_cholesky(q)
        if lower is None:
            return None
        r_inv = np.linalg.inv(lower).T
        if not np.linalg.norm(lower) * np.linalg.norm(r_inv) <= max_cond:
            return None
        q, r = q @ r_inv, lower.T if r is None else lower.T @ r
    return q, r


def _qr_svd_basis(y: np.ndarray) -> np.ndarray:
    """Rank-revealing basis: Householder QR, then the SVD of the small R."""
    q, r = np.linalg.qr(y)
    u, sv, _ = np.linalg.svd(r)
    if sv[0] == 0.0:
        raise ValueError("cannot orthonormalize an all-zero matrix")
    rank = int(np.count_nonzero(sv >= _default_rel_tol(y.shape) * sv[0]))
    return q @ u[:, :rank]


def _tall_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_cholesky_qr2` of a non-square ``a`` on its long side (``a.T`` when wide).

    None for a square ``a``, which has no small factor to gain, or a rejected one.
    """
    m, n = a.shape
    return None if m == n else _cholesky_qr2(a if m > n else a.T)


def _lapack_svd(a: np.ndarray) -> SvdResult:
    """LAPACK's thin SVD (``gesdd``) of a checked ``a``."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(U=u, sigma=s, V=vh.T.copy())


def thin_svd(a) -> SvdResult:
    """Thin (economy) SVD of ``a`` with descending singular values.

    A non-square ``a`` is factored on its long side by CholeskyQR2,
    ``a = Q R`` (``a.T = Q R`` when wide, where U and V swap roles), and the
    SVD runs on the small square ``R``.  A square input, and one the
    CholeskyQR2 rule rejects, takes LAPACK's SVD of ``a`` itself.
    """
    a = as_matrix(a, "a")
    qr = _tall_qr(a)
    if qr is None:
        return _lapack_svd(a)
    q, r = qr
    u, s, vh = np.linalg.svd(r)
    if a.shape[0] > a.shape[1]:
        return SvdResult(U=q @ u, sigma=s, V=vh.T.copy())
    return SvdResult(U=vh.T.copy(), sigma=s, V=q @ u)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values at or below ``max(rows, cols) * eps * sigma_max`` are
    treated as zero.  A non-square ``m`` that CholeskyQR2 accepts has none
    (see :func:`_cholesky_qr2`), so its pseudoinverse is ``R^-1 Q.T`` of
    ``m = Q R`` (the transpose of that of ``m.T`` when wide); any other
    input takes LAPACK's SVD.
    """
    m = as_matrix(m, "m")
    qr = _tall_qr(m)
    if qr is not None:
        q, r = qr
        inv = np.linalg.inv(r) @ q.T
        return inv if m.shape[0] > m.shape[1] else inv.T
    u, s, v = _lapack_svd(m)
    if s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    keep = s > _default_rel_tol(m.shape) * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (v * inv) @ u.T


def frobenius_norm(a) -> float:
    """Frobenius norm of ``a``."""
    return float(np.linalg.norm(as_matrix(a, "a")))
