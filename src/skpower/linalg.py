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
QR).  scipy is used only for sparse matrices and special functions.  Rank
handling follows the conventions documented on each function.
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
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def orthonormal_projection(a, q_basis) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, Q.T @ a)``, raising unless Q's columns are orthonormal within 1e-6 and it has ``a``'s rows."""
    a = as_matrix(a, "a")
    q_basis = as_matrix(q_basis, "q_basis")
    dev = np.abs(q_basis.T @ q_basis - np.eye(q_basis.shape[1])).max()
    if dev > 1e-6:
        raise ValueError(f"Q is not orthonormal (deviation {dev:.3e})")
    if q_basis.shape[0] != a.shape[0]:
        raise ValueError(f"Q and a must have the same number of rows, got {q_basis.shape[0]} and {a.shape[0]}")
    return q_basis, q_basis.T @ a


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


def orthonormalize(y, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis for the range of ``y``.

    The basis has exactly the numerical rank of ``y``: the number of
    singular values at or above ``tol`` times the largest, possibly fewer
    columns than ``y``.  The general path is a Householder QR ``y = Q R``
    followed by an SVD of the small ``R``; the rank is counted from R's
    singular values and the basis is ``Q`` times R's leading left singular
    vectors.

    When ``y`` is well conditioned, CholeskyQR2 (Yamamoto, Nakatsukasa,
    Yanagisawa & Fukaya, ETNA 2015) is used instead: ``R = chol(y.T y)``,
    ``Q = y R^-1``, done twice.  It is taken only when both Cholesky
    factorizations succeed and each ``cond(R) <= min(eps^(-1/2), 1/tol)``;
    in that range the general path keeps every column, and two passes give
    orthogonality to working precision.  Both paths return a basis of the
    same span.  :func:`span_basis` is its span-only sibling, run between
    power steps: one pass, with this function as the fallback.

    Parameters
    ----------
    y : array_like, shape (m, c)
        Non-empty matrix.  Raises ``ValueError`` if all entries are zero.
    tol : float, optional
        Relative singular-value threshold.  Defaults to ``max(m, c) * eps``.
    """
    y = as_matrix(y, "y")
    if tol is None:
        tol = _default_rel_tol(y.shape)
    max_cond = min(_CHOLQR_MAX_COND, 1.0 / tol)
    q = _cholesky_qr_pass(y, max_cond)
    q = None if q is None else _cholesky_qr_pass(q, max_cond)
    return _qr_svd_basis(y, tol) if q is None else q


def span_basis(y) -> np.ndarray:
    """Well-conditioned basis of the range of ``y``, for use between power steps.

    One CholeskyQR pass ``Q = y R^-1``, kept when ``max |Q.T Q - I| <= 0.1``
    (a pass leaves about ``cond(y)^2 eps``); otherwise ``orthonormalize(y)``,
    which drops the columns of rank-deficient and ill-conditioned blocks.
    """
    y = as_matrix(y, "y")
    q = _cholesky_qr_pass(y)
    if q is not None and np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 0.1:
        return q
    return orthonormalize(y)


# CholeskyQR squares the condition number in the Gram matrix; beyond
# eps^(-1/2) the Gram's rounding swamps its smallest eigenvalue.
_CHOLQR_MAX_COND = np.finfo(np.float64).eps ** -0.5


def _cholesky_qr_pass(y: np.ndarray, max_cond: float | None = None) -> np.ndarray | None:
    """``y R^-1`` with ``R.T R = y.T y``; None if the Cholesky fails or cond(R) > max_cond."""
    try:
        lower = np.linalg.cholesky(y.T @ y)
    except np.linalg.LinAlgError:
        return None
    if max_cond is not None:
        sv = np.linalg.svd(lower, compute_uv=False)
        if not (np.isfinite(sv[0]) and sv[0] <= max_cond * sv[-1]):
            return None
    return y @ np.linalg.inv(lower).T


def _qr_svd_basis(y: np.ndarray, tol: float) -> np.ndarray:
    """Rank-revealing basis: Householder QR, then the SVD of the small R."""
    q, r = np.linalg.qr(y)
    u, sv, _ = np.linalg.svd(r)
    if sv[0] == 0.0:
        raise ValueError("cannot orthonormalize an all-zero matrix")
    rank = int(np.count_nonzero(sv >= tol * sv[0]))
    return q @ u[:, :rank]


def thin_svd(a) -> SvdResult:
    """Thin (economy) SVD of ``a`` with descending singular values."""
    a = as_matrix(a, "a")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(U=u, sigma=s, V=vh.T.copy())


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the thin SVD.

    Singular values at or below ``max(rows, cols) * eps * sigma_max`` are
    treated as zero.
    """
    m = as_matrix(m, "m")
    u, s, v = thin_svd(m)
    if s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    keep = s > _default_rel_tol(m.shape) * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (v * inv) @ u.T


def frobenius_norm(a) -> float:
    """Frobenius norm of ``a``."""
    return float(np.linalg.norm(as_matrix(a, "a")))
