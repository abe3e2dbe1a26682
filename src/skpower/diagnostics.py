"""Spectral profiles, error metrics, and evaluable error bounds.

This module is the single source of truth for every error number the
package reports: the norms (exact and estimated) of the residual
``A - L R`` of a method's factors, the regularized-spectral-approximation
certifier, and closed-form evaluators for the error bounds that the
sketched power method is expected to meet.

The certifier and the residual norms work on the Gram ``A.T A`` of the
matrix's smaller side, which only :func:`matrix_gram` forms.  Each residual
function checks its operands once and does not form the m x n residual: a
QR factorization of the left factor (CholeskyQR2, Householder where its
one bound rejects the factor) gives its Frobenius norm from three sums of
squares, and its spectral norm from ``A.T A - B.T B + D.T D``, exactly by
``eigvalsh`` or estimated to the fixed relative tolerance ``_ESTIMATOR_TOL``.
Where those differences would cancel beyond that tolerance, the residual is
formed after all.  Every estimate, :func:`estimate_spectral_norm` included,
is one run of block Lanczos (:func:`_lanczos`, the one reader of
``_ESTIMATOR_TOL`` and ``_KRYLOV_MAX_STEPS``) on a symmetric psd operator
whose top eigenvalue is the squared norm: ``A.T A - B.T B + D.T D`` on the
thin form, ``X X.T`` for a matrix X given whole.  A left factor already
orthonormal to working precision (``max |L.T L - I| <= _BASIS_DEV``, as
every engine basis is) is not factored again: it is its own Q, and for a
projection ``Q Q.T A`` the right factor is ``B`` itself.  An estimate can
start from the Ritz directions of the previous point of its series
(:class:`WarmStart`).  A profile of an exactly symmetric matrix comes from its
eigenvalues instead of a full SVD, taken from the psd check where it ran.
Bound evaluations are returned as :class:`BoundReport` rows so the
constants actually used are recorded next to the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linalg import _cholesky_qr2, _default_rel_tol, _deviation, _projected, as_matrix, frobenius_norm
from .power import choose_q
from .sketching import SketchOperator, _rng

# spectral-norm estimator: block rows (a single start vector misses the
# top singular vector too often) and the relative size below which a new
# Krylov direction counts as breakdown (the estimate's error is quadratic
# in the directions dropped)
_KRYLOV_BLOCK = 4
_DEFLATION = np.sqrt(np.finfo(np.float64).eps)
_ESTIMATOR_TOL = 1e-6  # relative change between steps at which the estimate stops
_KRYLOV_MAX_STEPS = 1000
# the thin form of a residual is used while its cancellation, about eps ||A||_F^2,
# is at most tol^2 of the squared Frobenius norm: that norm then moves by rounding
# only, and the spectral norm by at most tol^2 min(m, n) relative, below tol
_EPS = np.finfo(np.float64).eps
_THIN_LOSS = _ESTIMATOR_TOL**2
# a left factor L with max |L.T L - I| <= _BASIS_DEV is its own Q (T = I): the deviation
# E moves the thin form's squared norms by about ||E|| ||A||_F^2, the eps ||A||_F^2 order
# of rounding _THIN_LOSS counts, and a QR of L would leave a Q no more orthonormal
# (Householder and CholeskyQR2 Qs of the engine's shapes, like its bases, measure 1-5 eps)
_BASIS_DEV = 16 * _EPS


@dataclass(frozen=True)
class SpectralProfile:
    """Descending nonnegative spectrum of a matrix plus its shape.

    ``values`` holds singular values; every bound evaluator consumes one of
    these.
    """

    values: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("profile values must be a non-empty 1-D sequence")
        if np.any(vals < 0.0) or np.any(np.diff(vals) > 0.0):
            raise ValueError("profile values must be sorted descending and nonnegative")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size

    @classmethod
    def from_matrix(cls, a, eigenvalues: np.ndarray | None = None) -> "SpectralProfile":
        """Singular-value profile of a dense matrix.

        An exactly symmetric matrix takes its absolute eigenvalues, sorted
        descending (about half the time of the full SVD every other matrix
        takes); the rule reads ``a`` alone, so every caller gets the same values.
        ``eigenvalues``, where given, are those the psd check
        (:func:`~skpower.linalg.psd_eigenvalues`) took of ``a``: for an exactly
        symmetric ``a`` its ``(a + a.T) / 2`` is ``a`` bit for bit, so they are
        the values ``eigvalsh(a)`` would give, and ``a`` is not decomposed
        again.  Any other matrix ignores them.
        """
        a = as_matrix(a, "a")
        if a.shape[0] == a.shape[1] and np.array_equal(a, a.T):
            w = np.linalg.eigvalsh(a) if eigenvalues is None else eigenvalues
            values = np.sort(np.abs(w))[::-1]
        else:
            values = np.linalg.svd(a, compute_uv=False)
        return cls(values=values, shape=a.shape)


@dataclass
class BoundReport:
    """One evaluated bound: measured quantity vs right-hand side.

    ``holds`` is always ``measured <= rhs``.  ``params`` records every
    constant that entered the evaluation (k, l, eps, q, regularization
    levels, calibrated multipliers), so a report is a self-contained row.
    """

    name: str
    rhs: float
    measured: float
    params: dict[str, float] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.measured <= self.rhs

    def as_row(self) -> dict:
        """Flat dict form, one CSV/JSON row."""
        row = {
            "name": self.name,
            "measured": self.measured,
            "rhs": self.rhs,
            "holds": self.holds,
        }
        row.update({str(k): v for k, v in sorted(self.params.items())})
        return row


def regularization_level(profile: SpectralProfile, k: int) -> float:
    """Natural regularization level at rank ``k``: (1/k) * sum_{i>k} v_i^2.

    Zero when ``k`` reaches the profile length (empty tail).
    """
    if not 1 <= k <= len(profile):
        raise ValueError(f"k must be in [1, {len(profile)}], got {k}")
    tail = profile.values[k:]
    return float(np.dot(tail, tail) / k)


def certify_spectral_approx(a, sketch, lam: float, eps: float) -> BoundReport:
    """Certify that ``A S`` is a lam-regularized eps-spectral approximation of ``a``.

    ``sketch`` is the :class:`~skpower.sketching.SketchOperator` S.  Measures
    the whitened sketching error

        || (A A.T + lam I)^(-1/2) (A S (A S).T - A A.T) (A A.T + lam I)^(-1/2) ||

    which is at most ``eps`` exactly when the two-sided Loewner sandwich
    (1 +- eps)(A A.T + lam I) around A S (A S).T + lam I holds.  The error
    lives in the span of A's left singular vectors U; with the Gram of the
    smaller side ``V diag(w) V.T``, the whitened ``W = (w + lam)^(-1/2) U.T A``
    is ``V.T A`` scaled for a wide A (U = V), else ``sqrt(w / (w + lam)) V.T``,
    and the norm is that of the min(m, n)-square ``(W S)(W S).T - W W.T``
    (exactly 0 for an identity sketch).  lam = 0 raises for a tall ``a``.
    """
    return _certifier(a, lam)(sketch, eps)


def _certifier(a, lam: float) -> Callable[[SketchOperator, float], BoundReport]:
    """:func:`certify_spectral_approx` of ``a`` at ``lam``, as a function of ``(sketch, eps)``.

    The Gram's ``eigh``, ``W`` and ``W W.T`` depend on ``a`` and ``lam`` only,
    so they are formed once here and shared by every sketch certified.
    """
    a = as_matrix(a, "a")
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    m, n = a.shape
    w, v = np.linalg.eigh(_gram(a).gram)
    w = np.clip(w, 0.0, None)
    if lam == 0.0 and (m > n or w.min() <= w.max() * m * _EPS):
        raise ValueError("lam=0 with singular a a.T: whitening is undefined")
    if m < n:
        whitened = (v.T @ a) / np.sqrt(w + lam)[:, None]
    else:
        whitened = np.sqrt(w / (w + lam))[:, None] * v.T
    reference = whitened @ whitened.T

    def certify(sketch: SketchOperator, eps: float) -> BoundReport:
        if eps < 0.0:
            raise ValueError(f"eps must be >= 0, got {eps}")
        sketched = sketch.apply_right(whitened)
        error = sketched @ sketched.T - reference
        measured = float(np.abs(np.linalg.eigvalsh(error)).max())
        return BoundReport(
            name="regularized-spectral-approximation",
            rhs=float(eps),
            measured=measured,
            params={"lambda": float(lam), "eps": float(eps), "m": float(m), "r": float(sketch.r)},
        )

    return certify


def _extend(basis, y) -> np.ndarray:
    """Orthonormal rows spanning the part of ``y``'s row space that the
    orthonormal rows of ``basis`` miss.

    Directions below ``_DEFLATION`` times ``||y||`` are dropped, so the
    result may have fewer rows than ``y``, or none.  Projecting out
    ``basis`` once before and once after the SVD keeps the kept rows
    orthogonal to it to working precision.
    """
    size = np.linalg.norm(y)
    y = y - (y @ basis.T) @ basis
    _, s, vt = np.linalg.svd(y, full_matrices=False)
    rows = vt[s > _DEFLATION * size]
    return rows - (rows @ basis.T) @ basis


@dataclass
class WarmStart:
    """The Ritz directions one residual estimate of a series hands the next.

    Consecutive points of an error curve approximate nearly the same
    residual, so each estimate can restart from its predecessor's Ritz
    vectors (Saad, *Numerical Methods for Large Eigenvalue Problems*, 2011).
    Pass one holder to every estimated residual of one series on one
    matrix: each call replaces the first ``_KRYLOV_BLOCK - 1`` rows of its
    seeded Gaussian start block by the held directions (the last row stays
    Gaussian, so the block still meets every direction), then holds the
    Ritz vectors of its own top ``_KRYLOV_BLOCK - 1`` Ritz values.  A fresh
    holder starts cold, and a call that forms its residual leaves it empty.
    """

    directions: np.ndarray | None = None  # unit rows on the Gram's side, at most _KRYLOV_BLOCK - 1


def _lanczos(rows, start: np.ndarray, warm: WarmStart | None = None) -> float:
    """Square root of the largest eigenvalue of a symmetric psd operator M by block Lanczos iteration.

    Golub & Underwood (1977), fully reorthogonalized: ``rows(q)`` is
    ``q @ M`` for rows q (r x n), and step j, one application of M, adds a
    block of rows to an orthonormal basis ``Q`` of the Krylov space of
    ``start``, ``start M``, ..., ``start M^(j-1)``.  The estimate is read
    from the projected ``T = (Q M) Q.T`` and stops by the rules of
    :func:`estimate_spectral_norm`.  ``warm``, where given, receives the
    Ritz vectors ``u.T Q`` of the top ``_KRYLOV_BLOCK - 1`` eigenvectors u
    of ``T`` (see :class:`WarmStart`).
    """
    # the basis is kept as rows, so each reorthogonalization reads a contiguous block
    basis, t, sigma, y = start[:0], np.empty((0, 0)), 0.0, start
    for _ in range(_KRYLOV_MAX_STEPS):
        q = _extend(basis, y)
        if len(q) == 0:
            break
        y = rows(q)
        basis = np.concatenate((basis, q))
        new = y @ basis.T  # the new rows of T, whose transpose is its new columns
        t = np.concatenate((np.concatenate((t, new[:, : len(t)].T), axis=1), new))
        estimate = math.sqrt(max(np.linalg.eigvalsh(t)[-1], 0.0))
        converged = abs(estimate - sigma) <= _ESTIMATOR_TOL * estimate
        sigma = estimate
        if converged:
            break
    if warm is not None:
        warm.directions = np.linalg.eigh(t)[1][:, -(_KRYLOV_BLOCK - 1) :].T @ basis
    return sigma


def estimate_spectral_norm(a, seed: int = 0) -> float:
    """Spectral norm of ``a`` by block Lanczos iteration on ``a a.T`` (block Krylov).

    As analysed by Musco & Musco (NeurIPS 2015): from a seeded Gaussian
    block ``Omega`` of ``_KRYLOV_BLOCK`` columns, step j adds one block to an
    orthonormal basis ``Q`` of the Krylov space spanned by ``A Omega``,
    ``(A A.T) A Omega``, ..., ``(A A.T)^(j-1) A Omega``, fully
    reorthogonalized.  The estimate is the largest singular value of
    ``Q.T a``, read from the small projected matrix ``Q.T A A.T Q``; it is a
    lower bound on ``||a||_2`` (up to rounding) that never decreases with
    j.  The block makes the estimate independent of any single start
    vector: from one vector the iteration can settle on sigma_2 for many
    steps when that vector barely meets the top singular vector.

    Stops at the first of: the estimate changes by at most
    ``_ESTIMATOR_TOL`` = 1e-6 relative between steps; breakdown, where every
    new direction falls below ``_DEFLATION`` of its block's norm, so the
    Krylov space is invariant and the estimate exact (at the latest once the
    basis spans the column space of ``a``); ``_KRYLOV_MAX_STEPS`` = 1000
    steps.  The zero matrix returns 0.0.  Deterministic for a fixed seed.
    Each step costs one product of ``a`` and one of ``a.T`` with a block.
    """
    return _norm_estimate(as_matrix(a, "a"), seed)


def _norm_estimate(a: np.ndarray, seed: int) -> float:
    """:func:`estimate_spectral_norm` of a checked ``a``."""
    # blocks are products with a on the left: at this width ``x @ a.T``
    # takes about twice as long as ``a @ x.T`` with x.T contiguous
    rows = lambda q: (a @ np.ascontiguousarray((q @ a).T)).T
    start = (a @ _rng(seed).standard_normal((a.shape[1], _KRYLOV_BLOCK))).T
    return _lanczos(rows, start)


class MatrixGram(NamedTuple):
    """The Gram of a matrix's smaller side and its squared Frobenius norm (:func:`matrix_gram`)."""

    gram: np.ndarray  # A.T @ A (n x n) when m >= n, else A @ A.T (m x m)
    frob2: float  # ||A||_F^2


def _squared_norm(a: np.ndarray) -> float:
    return float(np.vdot(a, a))


def matrix_gram(a) -> MatrixGram:
    """:class:`MatrixGram` of ``a``: formed once per matrix, it serves every
    :func:`estimated_approximation_residuals` call on it."""
    return _gram(as_matrix(a, "a"))


def _gram(a: np.ndarray) -> MatrixGram:
    """:func:`matrix_gram` of a checked matrix."""
    side = a.T if a.shape[0] < a.shape[1] else a
    return MatrixGram(side.T @ side, _squared_norm(a))


def _operands(a, left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, left, right)`` checked once, for every routine below that takes them."""
    a = as_matrix(a, "a")
    left, right = as_matrix(left, "left"), as_matrix(right, "right")
    if left.shape[0] != a.shape[0] or right.shape[1] != a.shape[1] or left.shape[1] != right.shape[0]:
        raise ValueError(f"shape mismatch: a is {a.shape}, factors are {left.shape} and {right.shape}")
    return a, left, right


class _Thin(NamedTuple):
    b: np.ndarray  # Q.T A, with L = Q T
    d: np.ndarray  # B - T R
    frob: float  # ||A - L R||_F


def _residual(a, left, right) -> np.ndarray:
    """``a - left @ right`` of checked operands, formed only where :func:`_thin` cancels."""
    return a - left @ right


def _thin(a, left, right, frob2: float, basis_dev: float | None = None) -> _Thin | None:
    """``A - L R`` from its thin factors, or None where that form cancels too much.

    On the side of the Gram (a wide A is transposed, and L and R swap to
    R.T and L.T), a factorization ``L = Q T`` with orthonormal ``Q`` splits
    the residual into the orthogonal parts ``(I - Q Q.T) A`` and ``Q D``,
    with ``B = Q.T A`` and ``D = B - T R``.  So ``||A - L R||_F^2 =
    ||A||_F^2 - ||B||_F^2 + ||D||_F^2`` and ``(A - L R).T (A - L R) =
    A.T A - B.T B + D.T D``, and neither needs the m x n residual.  An
    ``L`` within ``_BASIS_DEV`` of orthonormal, such as an engine basis, is
    its own ``Q`` (``T = I``); any other is factored by the CholeskyQR2 of
    :mod:`skpower.linalg`, or by Householder QR where its rule rejects
    ``L`` (a rank-deficient one, say).  A projection, ``R = L.T A``, passes
    ``basis_dev``, the ``max |L.T L - I|`` its basis check formed, so
    ``L.T L`` is not formed again; an orthonormal ``L`` then has ``B = R``
    and ``D = 0``, and ``B`` is not formed again either.  Both differences
    lose about ``eps ||A||_F^2``; returns None unless that is at most
    ``_THIN_LOSS`` of the squared residual.  The operands are checked, and
    ``frob2`` is ``||A||_F^2``.
    """
    if a.shape[0] < a.shape[1]:
        a, left, right, basis_dev = a.T, right.T, left.T, None
    projection = basis_dev is not None
    if (basis_dev if projection else _deviation(left)) <= _BASIS_DEV:
        b = right if projection else left.T @ a
        d = b[:0] if projection else b - right  # D = 0 has no rows to multiply by
    else:
        qr = _cholesky_qr2(left)
        q, t = np.linalg.qr(left) if qr is None else qr
        b = q.T @ a
        d = b - t @ right
    resid2 = frob2 - _squared_norm(b) + _squared_norm(d)
    if not _EPS * frob2 <= _THIN_LOSS * resid2:  # also a non-positive resid2
        return None
    return _Thin(b, d, math.sqrt(resid2))


def approximation_residuals(a, left, right) -> tuple[float, float]:
    """Exact (spectral, Frobenius) norms of ``a - left @ right``: on the thin
    form of :func:`_thin`, ``eigvalsh`` of ``A.T A - B.T B + D.T D`` and the
    Frobenius norm :func:`estimated_approximation_residuals` gives; where it
    cancels, both from the formed residual."""
    return _exact_residuals(*_operands(a, left, right), None)


def _exact_residuals(a, left, right, basis_dev: float | None) -> tuple[float, float]:
    """:func:`approximation_residuals` of checked operands, the triple a method's ``operands`` hook
    gives: a projection passes its basis check's ``max |Q.T Q - I|``, any other pair None (see :func:`_thin`)."""
    gram = _gram(a)
    thin = _thin(a, left, right, gram.frob2, basis_dev)
    if thin is None:
        resid = _residual(a, left, right)
        return float(np.linalg.norm(resid, 2)), frobenius_norm(resid)
    top = np.linalg.eigvalsh(gram.gram - thin.b.T @ thin.b + thin.d.T @ thin.d)[-1]
    return math.sqrt(max(top, 0.0)), thin.frob


def estimated_approximation_residuals(
    a, left, right, seed: int = 0, gram: MatrixGram | None = None, warm: WarmStart | None = None
) -> tuple[float, float]:
    """(spectral, Frobenius) norms of ``a - left @ right`` without forming it.

    Both come from the thin form of :func:`_thin`.  The spectral norm is the
    square root of the largest eigenvalue of the symmetric operator
    ``A.T A - B.T B + D.T D``, estimated by block Lanczos (:func:`_lanczos`,
    at the relative tolerance ``_ESTIMATOR_TOL`` of
    :func:`estimate_spectral_norm`; a lower bound) with the Gram ``gram``
    (``matrix_gram(a)``, formed here when not given), from the seeded
    Gaussian block of :func:`estimate_spectral_norm` with the directions
    ``warm`` holds, if any, in its first rows (see :class:`WarmStart`).
    Where the thin form would cancel, the residual is formed instead, its
    norms are the :func:`estimate_spectral_norm` of the formed residual
    (which is not checked again) and the exact Frobenius norm, and ``warm``
    is emptied.
    """
    return _estimated_residuals(*_operands(a, left, right), None, seed, gram, warm)


def _estimated_residuals(
    a, left, right, basis_dev: float | None, seed: int, gram: MatrixGram | None, warm: WarmStart | None
) -> tuple[float, float]:
    """:func:`estimated_approximation_residuals` of checked operands, on the
    ``(left, right, basis_dev)`` triple of :func:`_exact_residuals`."""
    gram = _gram(a) if gram is None else gram
    g = gram.gram
    if g.shape != (min(a.shape),) * 2:
        raise ValueError(f"gram is {g.shape}, the Gram of the smaller side of a {a.shape} matrix is not")
    thin = _thin(a, left, right, gram.frob2, basis_dev)
    if thin is None:
        if warm is not None:
            warm.directions = None
        resid = _residual(a, left, right)
        return _norm_estimate(resid, seed), frobenius_norm(resid)
    b, d = thin.b, thin.d
    start = _rng(seed).standard_normal((g.shape[0], _KRYLOV_BLOCK)).T
    if warm is not None and warm.directions is not None:
        start[: len(warm.directions)] = warm.directions
    rows = lambda q: q @ g - (q @ b.T) @ b + (q @ d.T) @ d
    return _lanczos(rows, start, warm), thin.frob


def projection_residuals(a, q_basis) -> tuple[float, float]:
    """Exact (spectral, Frobenius) norms of ``a - Q Q.T a``."""
    return _exact_residuals(*_projected(a, q_basis))


def estimated_projection_residuals(
    a, q_basis, seed: int = 0, gram: MatrixGram | None = None, warm: WarmStart | None = None
) -> tuple[float, float]:
    """Like :func:`projection_residuals` with the spectral norm estimated,
    as :func:`estimated_approximation_residuals` estimates it (``gram`` and
    ``warm`` alike); ``Q.T a`` and ``Q.T Q`` are formed once."""
    return _estimated_residuals(*_projected(a, q_basis), seed, gram, warm)


def approximation_error_bound(
    profile: SpectralProfile, k: int, l: int, eps: float, squared: bool = True
) -> float:
    """Predicted approximation error (1+eps) * v[k+1] + (eps/l) * tail(l).

    With ``squared=True`` (singular-value profiles) the profile entries are
    squared and the value bounds the squared residual norm; with
    ``squared=False`` (eigenvalue profiles of psd inputs) the entries are
    used as-is and the value bounds the unsquared residual.
    """
    if not 1 <= k <= l <= len(profile):
        raise ValueError(
            f"need 1 <= k <= l <= {len(profile)}, got k={k}, l={l}"
        )
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    vals = profile.values**2 if squared else profile.values
    return float((1.0 + eps) * vals[k] + eps / l * vals[l:].sum())


def gaussian_rangefinder_bound(profile: SpectralProfile, k: int) -> tuple[float, float]:
    """Squared-error bounds for the unpowered Gaussian range finder at rank ``k``.

    Returns ``((2/k) * tail, 4 * tail)`` with ``tail = sum_{i>k} v_i^2``:
    the squared spectral and squared Frobenius residual bounds.

    Premise: the bounds cover ``Q = orth(A Omega)`` with a Gaussian start
    block ``Omega`` and no power iterations (q = 0).  They hold
    deterministically whenever ``A Omega`` certifies as a lambda-regularized
    1/2-spectral approximation of ``A`` (see ``certify_spectral_approx``).
    As an ensemble claim (>= 90% of draws) they need a block of about
    ``4k`` columns; at the default ``r2 = 2k`` the measured per-trial rate
    on polydecay 400x200 (k = 10) is only about 0.7.
    """
    if not 1 <= k < len(profile):
        raise ValueError(f"k must be in [1, {len(profile) - 1}], got {k}")
    tail = float(np.square(profile.values[k:]).sum())
    return 2.0 / k * tail, 4.0 * tail


def powered_rangefinder_bound(
    lambda1: float,
    lambda2: float,
    eps: float,
    q: int,
    profile: SpectralProfile,
) -> tuple[float, float]:
    """Squared-error bounds for the powered, doubly sketched range finder.

    Given the regularization levels of the two sketching stages,

    * squared spectral:  (1 + 2 eps) * ((2 lambda2)^(1/(2q+1)) + eps lambda1)
    * squared Frobenius: min over r of
      8 r (lambda2^(1/(2q+1)) + lambda1) + sum_{i>r} v_i^2,
      minimized by exhaustive scan over r.
    """
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ValueError("regularization levels must be >= 0")
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps must be in [0, 1/2], got {eps}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    root = 1.0 / (2 * q + 1)
    spectral_sq = (1.0 + 2.0 * eps) * ((2.0 * lambda2) ** root + eps * lambda1)
    level = lambda2**root + lambda1
    sq = np.square(profile.values)
    # tails[r] = sum_{i > r} v_i^2 for r = 0..len
    tails = np.concatenate((np.cumsum(sq[::-1])[::-1], [0.0]))
    r_grid = np.arange(len(profile) + 1)
    frob_sq = float((8.0 * r_grid * level + tails).min())
    return float(spectral_sq), frob_sq


def powered_tail_level(sketched_profile: SpectralProfile, k: int, q: int) -> float:
    """Effective tail level of the powered sketch spectrum at rank ``k``.

    Computes ((2/k) * sum_{i>k} v_i^(2(2q+1)))^(1/(2q+1)) in the log
    domain, so the high powers that arise for q in the tens do not
    overflow.
    """
    if not 1 <= k <= len(sketched_profile):
        raise ValueError(f"k must be in [1, {len(sketched_profile)}], got {k}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    t = 2 * q + 1
    tail = sketched_profile.values[k:]
    tail = tail[tail > 0.0]
    if tail.size == 0:
        return 0.0
    logs = 2.0 * t * np.log(tail)
    top = logs.max()  # shifted to the largest term, so the sum of exponentials cannot overflow
    log_sum = top + np.log(np.exp(logs - top).sum()) + np.log(2.0 / k)
    return float(np.exp(log_sum / t))


def powered_tail_report(
    sketched_profile: SpectralProfile,
    k: int,
    q: int,
    sigma_kp1: float,
    lambda1: float,
    eps: float,
) -> BoundReport:
    """Check the powered-tail estimate against its predicted ceiling.

    The measured side is :func:`powered_tail_level` of the sketched
    spectrum; the right-hand side is (1 + 4 eps) sigma_{k+1}^2 + 2 lambda1
    eps in terms of the unsketched matrix.  The prediction is valid when
    the sketch is a certified lambda1-regularized eps-spectral
    approximation and q is at least ``choose_q(eps, rank)``; ``q`` below
    that threshold is rejected.
    """
    if sigma_kp1 < 0.0 or lambda1 < 0.0:
        raise ValueError("sigma_kp1 and lambda1 must be >= 0")
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    vals = sketched_profile.values
    cutoff = _default_rel_tol(sketched_profile.shape) * vals[0]  # linalg's numerical-rank rule
    rank = int(np.count_nonzero(vals > cutoff))
    q_min = choose_q(eps, max(rank, 1))
    if q < q_min:
        raise ValueError(f"q={q} below choose_q(eps, rank)={q_min}")
    measured = powered_tail_level(sketched_profile, k, q)
    rhs = (1.0 + 4.0 * eps) * sigma_kp1**2 + 2.0 * lambda1 * eps
    return BoundReport(
        name="powered-tail-level",
        rhs=float(rhs),
        measured=measured,
        params={
            "k": float(k),
            "q": float(q),
            "eps": float(eps),
            "lambda1": float(lambda1),
            "sigma_kp1": float(sigma_kp1),
            "rank": float(rank),
        },
    )


def relative_error(residual_spectral: float, profile: SpectralProfile, k: int) -> float:
    """Relative spectral error ``residual / v[k+1] - 1``; raises when v[k+1] is missing or zero."""
    if not 1 <= k < len(profile):
        raise ValueError(f"rel_err needs sigma_(k+1): k must be in [1, {len(profile) - 1}], got {k}")
    sigma = float(profile.values[k])
    if sigma <= 0.0:
        raise ValueError(f"reference singular value sigma_(k+1) is zero for k={k}")
    return float(residual_spectral) / sigma - 1.0


__all__ = [
    "BoundReport",
    "MatrixGram",
    "SpectralProfile",
    "WarmStart",
    "approximation_error_bound",
    "approximation_residuals",
    "certify_spectral_approx",
    "estimate_spectral_norm",
    "estimated_approximation_residuals",
    "estimated_projection_residuals",
    "gaussian_rangefinder_bound",
    "matrix_gram",
    "powered_rangefinder_bound",
    "powered_tail_level",
    "powered_tail_report",
    "projection_residuals",
    "regularization_level",
    "relative_error",
]
