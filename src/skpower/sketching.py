"""Seeded randomized sketching operators with fast apply paths.

Four sketch families are provided, all realized as immutable operators
mapping an ``n``-dimensional coordinate space down to ``r`` dimensions:

``gaussian``
    i.i.d. N(0, 1/r) entries.
``sign``
    i.i.d. +-1/sqrt(r) entries (the sub-Gaussian sign variant).
``countsketch``
    sparse matrix with exactly ``s`` non-zeros of +-1/sqrt(s) per row, at
    distinct column positions drawn without replacement; applying it costs
    O(nnz(A) * s) and never materializes a dense n-by-r matrix.  Both
    applies run scipy's sparse kernel; ``A @ S`` runs it on 256-row blocks
    of A, each transposed in cache, which gives scipy's ``A @ S`` bit for
    bit without its transposed copy of all of A.  It is the only family
    that needs scipy: the first CountSketch :func:`check_sketch` imports
    ``scipy.sparse``, so ``import skpower`` does not, a process that builds
    no CountSketch never loads it, and a caller that checks its sketches
    before it starts a clock (the engine does) times no import.
``srht``
    subsampled randomized Hadamard transform (1/sqrt(r)) * D * H * I[:, T]
    with a random sign diagonal D, an unnormalized Hadamard matrix H of the
    next power-of-two dimension n_pad, and a uniformly random size-r column
    subset T; never materialized, and the input is never padded.  H is the
    Kronecker product ``H_big kron H_small`` (:func:`_kron_split`), so
    coordinate j is a pair (j1, j2) and kept index t a pair (bt, lt); both
    applies and ``densify`` work on the two factors alone.  A
    subsampled transform need only compute the outputs it keeps (Woolfe,
    Liberty, Rokhlin and Tygert, ACHA 2008), and both applies run the same
    two stages on BLAS: stage 1 contracts j2 in each of the nb blocks j1 that
    hold real coordinates, through ``h_small diag(d_j1)`` with the signs and
    1/sqrt(r) folded in when the operator is built, in one stacked GEMM that
    reads A in place; stage 2 contracts j1 for the r kept pairs only, one
    GEMM per kept lt.  That is n * small + r * nb multiply-adds per column
    of ``S.T @ A`` (row of ``A @ S``), about 90M on 2000 x 1000 at r = 400,
    against 131-144M for a padded two-GEMM transform followed by a gather.
    ``A @ S`` runs on row blocks of A so that stage 1's buffer stays at
    ``_SRHT_BLOCK_ENTRIES``; ``S.T @ A`` holds one input-sized buffer.

An extra ``identity`` family (square, r == n) is included as a baseline
hook: power iteration on an identity sketch is exactly the classical,
unsketched method.

Operators are deterministic functions of ``(kind, n, r, seed)``.  Seeds for
the several independent operators used inside one algorithm are derived from
a root seed with :func:`substream`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import as_matrix

SKETCH_KINDS = ("gaussian", "sign", "countsketch", "srht", "identity")

_DENSIFY_CAP = 10**7  # desk-scale guard for explicit n-by-r materialization
_BLOCK_ROWS = 256  # rows of A per block in the CountSketch ``A @ S``
_SRHT_BLOCK_ENTRIES = 1 << 21  # entries of the stage-1 buffer per row block of the SRHT ``A @ S``

_MASK64 = (1 << 64) - 1


def substream(seed: int, *indices: int) -> int:
    """Derive an independent 64-bit seed from a root seed and stream indices.

    Deterministic: the same ``(seed, indices)`` always yields the same
    value.  Used to split one root seed into the independent streams for
    S1, S2, Omega, per-trial seeds, and so on.
    """
    entropy = [int(seed) & _MASK64] + [int(i) & _MASK64 for i in indices]
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed) & _MASK64]))


def _gaussian_block(rows: int, cols: int, seed: int) -> np.ndarray:
    """i.i.d. N(0, 1/cols) entries: the Gaussian operator's matrix, and the power method's start block."""
    return _rng(seed).standard_normal((rows, cols)) / math.sqrt(cols)


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


@functools.lru_cache(maxsize=16)  # every SRHT build asks for its two factors; a fresh one takes 50-150 us
def _sylvester(size: int) -> np.ndarray:
    """Unnormalized +-1 Sylvester Hadamard matrix of a power-of-two ``size`` (shared, read-only)."""
    h = np.ones((1, 1))
    while h.shape[0] < size:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _kron_split(n: int) -> tuple[int, int]:
    """``(big, small)`` with ``H_n = H_big kron H_small`` for a power-of-two ``n``.

    ``big = 2^ceil(log2(n) / 2)`` and ``small = 2^floor(log2(n) / 2)``; index
    ``i`` of H_n is ``(i // small, i % small)`` in the two factors.
    """
    log_n = n.bit_length() - 1
    return 1 << (log_n + 1) // 2, 1 << log_n // 2


def _check_kind(kind: str) -> None:
    if kind not in SKETCH_KINDS:
        raise ValueError(f"unknown sketch kind {kind!r}, expected one of {SKETCH_KINDS}")


def check_sketch(kind: str, n: int, r: int, s: int | None = None) -> None:
    """Raise unless ``make_sketch(kind, n, r, seed, s)`` can build its operator.

    The one home of the construction rules, so that a caller can check a
    sketch before any work: a known kind, ``n, r >= 1``, CountSketch
    ``1 <= s <= r`` (s defaults to 1), SRHT ``r`` at most the padded ``n``,
    and identity ``r == n``.  A CountSketch check also imports
    ``scipy.sparse``, which its operator is built on, so that a missing scipy
    fails here and the import is never inside a timed stage.
    """
    _check_kind(kind)
    if r < 1:
        raise ValueError(f"sketch dimension r must be >= 1, got {r}")
    if n < 1:
        raise ValueError(f"input dimension n must be >= 1, got {n}")
    if kind == "countsketch":
        if not 1 <= (1 if s is None else s) <= r:
            raise ValueError(f"countsketch needs 1 <= s <= r, got s={s}, r={r}")
        import scipy.sparse  # the package's one scipy load
    if kind == "srht" and r > _next_pow2(n):
        raise ValueError(f"srht needs r <= padded dimension {_next_pow2(n)}, got r={r}")
    if kind == "identity" and r != n:
        raise ValueError(f"identity sketch needs r == n, got n={n}, r={r}")


class SketchOperator:
    """Immutable seeded linear map from ``n`` to ``r`` coordinates.

    Construct with :func:`make_sketch`.  ``apply_right(A)`` computes
    ``A @ S`` and ``apply_left_transpose(A)`` computes ``S.T @ A`` through
    the family's fast path; ``densify()`` returns the explicit n-by-r
    matrix, the oracle the fast paths are tested against (no program code
    materializes a sketch through it).
    """

    def __init__(self, kind: str, n: int, r: int, seed: int, s: int | None = None):
        check_sketch(kind, n, r, s)
        self.kind = kind
        self.n = int(n)
        self.r = int(r)
        self.seed = int(seed) & _MASK64
        self.s = None
        rng = _rng(self.seed)
        if kind == "countsketch":
            s = 1 if s is None else int(s)
            self.s = s
            self._cols, self._signs = self._draw_countsketch(rng, n, r, s)
            data = (self._signs / math.sqrt(s)).ravel()
            indices = self._cols.ravel()
            indptr = np.arange(0, n * s + 1, s)
            import scipy.sparse as sp  # loaded by check_sketch above; this binds it

            self._sparse = sp.csr_array((data, indices, indptr), shape=(n, r))
        elif kind == "srht":
            n_pad = _next_pow2(n)
            self._n_pad = n_pad
            signs = rng.integers(0, 2, size=n_pad).astype(np.float64) * 2.0 - 1.0
            self._subset = np.sort(rng.choice(n_pad, size=r, replace=False))
            self._scaled_signs = signs / math.sqrt(r)
            big, small = _kron_split(n_pad)
            h_big, h_small = _sylvester(big), _sylvester(small)
            # coordinate j = (j1, j2) and kept index t = (bt, lt) in the two factors;
            # the nb blocks j1 that hold real coordinates get h_small diag(d_j1), and
            # each kept lt the rows bt of h_big with it, cut to those blocks
            nb = -(-n // small)
            self._mix = h_small * self._scaled_signs[: nb * small].reshape(nb, 1, small)
            bt, lt = np.divmod(self._subset, small)
            self._keep = [
                (int(l), np.flatnonzero(lt == l), h_big[bt[lt == l], :nb])
                for l in np.unique(lt)
            ]
        elif kind == "gaussian":
            self._dense = _gaussian_block(n, r, self.seed)
        elif kind == "sign":
            self._dense = (rng.integers(0, 2, size=(n, r)).astype(np.float64) * 2.0 - 1.0)
            self._dense /= math.sqrt(r)

    @staticmethod
    def _draw_countsketch(rng, n, r, s):
        if s == 1:
            cols = rng.integers(0, r, size=(n, 1))
        else:
            # s distinct positions per row, uniform without replacement
            keys = rng.random((n, r))
            cols = np.argpartition(keys, s - 1, axis=1)[:, :s]
        signs = rng.integers(0, 2, size=(n, s)).astype(np.float64) * 2.0 - 1.0
        return cols, signs

    def __repr__(self):
        extra = f", s={self.s}" if self.kind == "countsketch" else ""
        return f"SketchOperator({self.kind}, n={self.n}, r={self.r}, seed={self.seed}{extra})"

    # -- application ---------------------------------------------------

    def apply_right(self, a) -> np.ndarray:
        """Compute ``a @ S`` for ``a`` with ``n`` columns; the identity returns ``a`` itself."""
        a = as_matrix(a, "a")
        if a.shape[1] != self.n:
            raise ValueError(f"dimension mismatch: a has {a.shape[1]} cols, sketch n={self.n}")
        if self.kind == "countsketch":
            # scipy's a @ S copies all of a.T for its kernel; a 256-row block's
            # copy stays in cache, and every sum runs as in the full product
            s_t = self._sparse.T
            out = np.empty((self.r, a.shape[0]))
            for start in range(0, a.shape[0], _BLOCK_ROWS):
                block = a[start : start + _BLOCK_ROWS]
                out[:, start : start + len(block)] = s_t @ np.ascontiguousarray(block.T)
            return out.T  # Fortran-ordered, as scipy's product is
        if self.kind == "srht":
            # stage 1's buffer holds nb * small <= n_pad coordinates of each row
            rows = max(1, _SRHT_BLOCK_ENTRIES // (self._mix.shape[0] * self._mix.shape[1]))
            out = np.empty((self.r, a.shape[0]))
            for start in range(0, a.shape[0], rows):
                block = a[start : start + rows].T
                self._srht_keep(self._srht_mix(block), out[:, start : start + block.shape[1]])
            return out.T  # Fortran-ordered, like the CountSketch product
        if self.kind == "identity":
            return a
        return a @ self._dense

    def apply_left_transpose(self, a) -> np.ndarray:
        """Compute ``S.T @ a`` for ``a`` with ``n`` rows; the identity returns ``a`` itself."""
        a = as_matrix(a, "a")
        if a.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: a has {a.shape[0]} rows, sketch n={self.n}")
        if self.kind == "countsketch":
            return np.asarray(self._sparse.T @ a)
        if self.kind == "srht":
            # stage 1's buffer before out: the other order let heap placement raise
            # the factorize-srht benchmark's peak RSS by 15 MB
            mixed = self._srht_mix(a)
            out = np.empty((self.r, a.shape[1]))
            self._srht_keep(mixed, out)
            return out
        if self.kind == "identity":
            return a
        return self._dense.T @ a

    def _srht_mix(self, x: np.ndarray) -> np.ndarray:
        """Stage 1 of ``S.T @ x`` for ``x`` with ``n`` rows: contract j2 block by block.

        Returns ``u`` (nb x small x cols) with ``u[j1] = h_small diag(d_j1)
        x[block j1]``: one stacked GEMM that reads x in place, plus one for the
        last block cut to its real rows.
        """
        if x.itemsize not in x.strides:  # BLAS reads a matrix along one unit stride
            x = np.ascontiguousarray(x)
        nb, small, _ = self._mix.shape
        full, rem = divmod(self.n, small)
        u = np.empty((nb, small, x.shape[1]))
        np.matmul(self._mix[:full], x[: full * small].reshape(full, small, -1), out=u[:full])
        if rem:
            np.matmul(self._mix[full, :, :rem], x[full * small :], out=u[full])
        return u

    def _srht_keep(self, u: np.ndarray, out: np.ndarray) -> None:
        """Stage 2: contract j1 for the kept pairs only, one GEMM per kept ``lt``, into ``out``."""
        for lt, kept, h in self._keep:
            out[kept] = h @ u[:, lt]

    def densify(self) -> np.ndarray:
        """Explicit n-by-r matrix equal to this operator: the tests' oracle, capped at desk scale."""
        if self.n * self.r > _DENSIFY_CAP:
            raise ValueError(
                f"densify cap exceeded: {self.n} x {self.r} > {_DENSIFY_CAP} entries"
            )
        if self.kind == "countsketch":
            out = np.zeros((self.n, self.r))
            rows = np.repeat(np.arange(self.n), self.s)
            out[rows, self._cols.ravel()] = self._signs.ravel() / math.sqrt(self.s)
            return out
        if self.kind == "srht":
            # H[:, T] from the factors the applies use: entry ((i1, i2), (bt, lt)) is
            # h_big[i1, bt] * h_small[i2, lt], a +-1 product, so every value is exact;
            # C order, which the fancy-indexed factors alone would not give
            big, small = _kron_split(self._n_pad)
            bt, lt = np.divmod(self._subset, small)
            columns = np.multiply(_sylvester(big)[:, None, bt], _sylvester(small)[None, :, lt], order="C")
            return (self._scaled_signs[:, None] * columns.reshape(self._n_pad, self.r))[: self.n, :]
        if self.kind == "identity":
            return np.eye(self.n)
        return self._dense.copy()


def make_sketch(kind: str, n: int, r: int, seed: int, s: int | None = None) -> SketchOperator:
    """Construct a sketch operator; deterministic in ``(kind, n, r, seed)``.

    ``s`` is the per-row non-zero count, used by ``countsketch`` only
    (default 1, the classic CountSketch).
    """
    return SketchOperator(kind, n, r, seed, s=s)


def _check_size_params(k: int, eps: float, delta: float, c: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c <= 0.0:
        raise ValueError(f"c must be > 0, got {c}")


def countsketch_size(k: int, eps: float, delta: float, c: float = 2.0) -> tuple[int, int]:
    """Heuristic CountSketch dimensions ``(r, s)`` for target rank ``k``.

    r = ceil(c*k*ln(k/delta)/eps^2) and s = ceil(c*ln(k/delta)/eps), capped
    at r: a larger r for a smaller per-row fill.

    The constants hidden in the theory are unknown; ``c`` is a caller-tuned
    multiplier and these formulas are heuristics to be validated with the
    spectral-approximation certifier, not guarantees.
    """
    _check_size_params(k, eps, delta, c)
    log_kd = math.log(k / delta)
    r = math.ceil(c * k * log_kd / eps**2)
    s = math.ceil(c * log_kd / eps)
    return r, max(1, min(s, r))


def sketch_size(
    kind: str,
    k: int,
    eps: float,
    delta: float,
    c: float = 2.0,
    n: int | None = None,
) -> int:
    """Heuristic sketch dimension ``r`` for the given family and target rank.

    * gaussian / sign: ceil(c*(k + ln(1/delta))/eps^2)
    * countsketch: the r of :func:`countsketch_size`
    * srht: ceil(c*(k + ln(n/delta))*ln(k/delta)/eps^2); requires ``n``
    * identity: n, its only valid size; requires ``n``

    Same caveat as :func:`countsketch_size`: calibrate ``c`` empirically.
    """
    _check_size_params(k, eps, delta, c)
    if kind in ("gaussian", "sign"):
        return math.ceil(c * (k + math.log(1.0 / delta)) / eps**2)
    if kind == "countsketch":
        return countsketch_size(k, eps, delta, c)[0]
    if kind in ("srht", "identity") and n is None:
        raise ValueError(f"{kind} sizing needs the input dimension n")
    if kind == "srht":
        return math.ceil(c * (k + math.log(n / delta)) * math.log(k / delta) / eps**2)
    if kind == "identity":
        return n
    raise ValueError(f"no sizing rule for sketch kind {kind!r}")
