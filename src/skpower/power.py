"""Sketched and classical power-method algorithms.

Three constructions, all driven by one parameter record
(:class:`RangeFinderSpec`):

* :func:`range_finder_sketched` -- orthonormal Q spanning the dominant
  directions of A, obtained by power iteration on the sketch ``A @ S``
  started from a Gaussian block; :func:`range_finder_classical` is the
  same iteration on A itself.
* :func:`lowrank_factorize` -- generalized Nystrom factorization A ~= Y X,
  where Y is the powered sketch block and X solves the sketched regression
  ``min ||Y X - A||`` through a second, independent sketch.
* :func:`nystrom_psd` -- psd Nystrom approximation A ~= C W^+ C.T built
  from a large intermediate Nystrom pair, with the power iteration running
  on the small core matrix.

One engine runs all of them: :func:`_iterates` validates the spec a method
runs, then builds the sketches and the start block and yields its state
after q = 0, 1, ... steps; the state's ``elapsed`` is the only record of
the algorithm time.  A compressing sketch (r1 < n) is powered on a small
r1 x r1 core, ``(A S)^T (A S)`` or, for Nystrom, ``S^T A S``: after one
Gram, a step costs r1^2 r2 multiply-adds instead of the 2 m r1 r2 of the
pair ``A S ((A S)^T Y)``, which only the identity-sketch baselines still
step (see :func:`power_iterate`).  Every step, on the core or the pair,
first re-bases the block on a well-conditioned basis of its span (Halko,
Martinsson & Tropp 2011, sec. 4.5), so every q is stable.  A method of
``_METHODS`` (the five names the library, ``skpower run`` and ``skpower
bench`` share) says what the engine powers, how its factors are assembled
and the thin pair ``L @ R`` they approximate A by.  The public functions
advance the engine to ``spec.q`` and assemble; the benchmark steps it one
iterate at a time, so its ``time_ms`` (the ``sketch`` and ``power`` stages:
sketch build and apply, start block and first product at q = 0, then per
step one stabilization and core product, the Gram at the first, and the
block ``Y = A S z``; the secondary sketch, the assembly and the error
evaluation excluded) comes from the same code and clock that the library
runs.

Seeds: the primary sketch uses substream 0 of ``spec.seed``, the Gaussian
start block substream 1, and the secondary regression sketch substream 2,
so runs are reproducible and the streams are mutually independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .linalg import as_matrix, orthonormal_projection, orthonormalize, pinv, span_basis, thin_svd, SvdResult
from .linalg import psd_eigenvalues as _check_psd  # a power binding, for wrappers installed on it
from .sketching import SketchOperator, check_sketch, make_sketch, substream


def choose_q(eps: float, m_hat: int) -> int:
    """Power-iteration count ceil(ln(2*m_hat) / (2*eps)).

    ``m_hat`` is an upper bound on the rank of the sketched matrix (use
    min(m, r1) when the rank is unknown).  Enough iterations for the
    powered tail to flatten to within a (1+O(eps)) factor of its largest
    term.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    if m_hat < 1:
        raise ValueError(f"m_hat must be >= 1, got {m_hat}")
    return math.ceil(math.log(2.0 * m_hat) / (2.0 * eps))


@dataclass(frozen=True)
class RangeFinderSpec:
    """Full parameterization of the sketched power-method algorithms.

    ``k``: target rank; ``l``: intermediate rank (k <= l) controlling the
    additive error tail; ``r1``: primary sketch size; ``r2``: block size of
    the Gaussian start (>= k, commonly 2k); ``q``: power-iteration count;
    ``eps``: nominal accuracy in (0, 1/2].  Every power step re-bases the
    iterate on a well-conditioned basis of its span before multiplying, so
    every q is stable; ``stabilized`` must stay True (``validate`` rejects
    False).

    ``s2_kind``/``s2_r`` configure the secondary regression sketch used by
    :func:`lowrank_factorize` (default: same family and size as the primary
    sketch).  The start block is always Gaussian, the case the theory
    covers.
    """

    k: int
    l: int
    r1: int
    r2: int
    q: int
    eps: float
    sketch_kind: str = "countsketch"
    seed: int = 0
    stabilized: bool = True
    s: int = 1
    s2_kind: str | None = None
    s2_r: int | None = None

    def validate(self, m: int, n: int) -> None:
        if not 1 <= self.k <= self.l <= min(m, n):
            raise ValueError(
                f"need 1 <= k <= l <= min(m, n); got k={self.k}, l={self.l}, "
                f"min(m, n)={min(m, n)}"
            )
        if self.r2 < self.k:
            raise ValueError(f"r2 must be >= k, got r2={self.r2}, k={self.k}")
        if self.q < 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if not 0.0 < self.eps <= 0.5:
            raise ValueError(f"eps must be in (0, 1/2], got {self.eps}")
        if self.r1 < 1:
            raise ValueError(f"r1 must be >= 1, got {self.r1}")
        if not self.stabilized:
            raise ValueError("stabilized=False is not supported: every power step is stabilized")


@dataclass
class FactorizationResult:
    """Low-rank factors ``Y`` (m x r2) and ``X`` (r2 x n), plus stage times."""

    Y: np.ndarray
    X: np.ndarray
    elapsed: dict[str, float] = field(default_factory=dict)


@dataclass
class NystromResult:
    """Nystrom factors ``C`` (n x r2) and psd core ``W`` (r2 x r2), plus stage times."""

    C: np.ndarray
    W: np.ndarray
    elapsed: dict[str, float] = field(default_factory=dict)


def _pair(atil: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``atil @ (atil.T @ y)``, ``y`` first re-based on a well-conditioned basis of its span."""
    return atil @ (atil.T @ span_basis(y))


def power_iterate(atil, omega, q: int) -> np.ndarray:
    """Compute a block with the column span of ``(atil @ atil.T)^q @ atil @ omega``.

    This is the textbook iteration, the pair the engine steps for an
    identity primary sketch (``atil = A``), whose Gram would be n x n.
    Every step is stabilized: the block is re-based on a well-conditioned
    basis of the same span before each application pair, which keeps the
    span in exact arithmetic while avoiding the catastrophic column
    collapse of high powers (the Gram matrix is never formed).
    """
    atil = as_matrix(atil, "atil")
    omega = as_matrix(omega, "omega")
    if atil.shape[1] != omega.shape[0]:
        raise ValueError(f"dimension mismatch: {atil.shape} vs omega {omega.shape}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    y = atil @ omega
    for _ in range(q):
        y = _pair(atil, y)
    return y


def _draw_omega(rows: int, cols: int, seed: int) -> np.ndarray:
    return make_sketch("gaussian", rows, cols, seed).densify()


@dataclass
class _Iterate:
    """The engine's state after ``q`` steps: everything an assembly reads."""

    spec: RangeFinderSpec  # the spec the method runs
    q: int
    atil: np.ndarray  # A S (A itself under the identity sketch)
    elapsed: dict[str, float]  # seconds per stage so far
    y: np.ndarray | None = None  # the powered block Y (m x r2); None for Nystrom
    z: np.ndarray | None = None  # the core iterate (r1 x r2), Y = atil @ z; None on the pair path
    core: np.ndarray | None = None  # S.T A S for Nystrom, else atil.T @ atil once formed
    s2: SketchOperator | None = None  # secondary sketch of the regression
    s2a: np.ndarray | None = None  # S2.T A

    def step(self) -> None:
        """One stabilized power step: on the core when there is one, else the textbook pair."""
        if self.z is None:
            self.y = _pair(self.atil, self.y)
            return
        if self.core is None:  # the Gram, formed once, at the first step
            self.core = self.atil.T @ self.atil
        self.z = self.core @ span_basis(self.z)


def _checked(a, methods) -> tuple[np.ndarray, np.ndarray | None]:
    """``(a, eigenvalues)``: ``a`` as a validated matrix and, if one of ``methods``
    powers the Nystrom core, the eigenvalues of its symmetric psd check (else None)."""
    a = as_matrix(a, "a")
    if not any(_METHODS[method].core for method in methods):
        return a, None
    # looked up at call time, so a wrapper installed on power._check_psd sees the call
    return a, _check_psd(a)


def _iterates(a: np.ndarray, spec: RangeFinderSpec, method: str):
    """:func:`_steps` of ``method`` on a checked ``a``.

    The spec it runs, ``state.spec``, and the sketches it builds are validated now, before any work.
    """
    spec = _method_spec(method, spec, a.shape[1])
    spec.validate(*a.shape)
    entry = _METHODS[method]
    for kind, n, r in _sketch_shapes(a.shape, spec, entry):
        check_sketch(kind, n, r, spec.s)
    return _steps(a, spec, entry)


def _sketch_shapes(shape, spec: RangeFinderSpec, entry: _Method) -> list[tuple[str, int, int]]:
    """``(kind, n, r)`` of the primary sketch and, for a regression, of the secondary one."""
    m, n = shape
    shapes = [(spec.sketch_kind, n, spec.r1)]
    if entry.regression:
        shapes.append((spec.s2_kind or spec.sketch_kind, m, spec.s2_r or spec.r1))
    return shapes


def _steps(a: np.ndarray, spec: RangeFinderSpec, entry: _Method):
    """Yield the state after ``spec.q``, ``spec.q + 1``, ... steps.

    A compressing primary sketch (``r1 < n``) is powered on its r1 x r1
    core: ``(atil atil.T)^q atil Omega = atil (atil.T atil)^q Omega``, so
    after one Gram ``atil.T @ atil`` (formed at the first step) each step
    costs r1^2 r2 multiply-adds whatever m is, and its stabilization runs on
    r1 x r2 blocks; the block ``Y = atil @ z`` is formed at each yield.
    Nystrom steps the same way on its core ``S.T A S`` and needs no Y.  An
    identity sketch steps the textbook pair ``atil (atil.T y)`` of
    :func:`power_iterate` from ``atil @ Omega``; its Gram would be n x n.

    ``state.elapsed`` is the algorithm time so far: ``sketch`` is the primary
    sketch build and apply, ``power`` the start-block draw and every step
    (the first product for the ``A S`` iteration), and ``regression`` the
    secondary sketch ``S2.T A``, built once, before anything else.  The
    state is updated in place.
    """
    n = a.shape[1]
    primary, *secondary = _sketch_shapes(a.shape, spec, entry)
    t0 = time.perf_counter()
    s2 = s2a = None
    if secondary:  # first, while the least else is alive: a lower peak memory
        s2 = make_sketch(*secondary[0], substream(spec.seed, 2), s=spec.s)
        s2a = s2.apply_left_transpose(a)
    t_s2 = time.perf_counter()
    sketch = make_sketch(*primary, substream(spec.seed, 0), s=spec.s)
    state = _Iterate(spec, spec.q, sketch.apply_right(a), {}, s2=s2, s2a=s2a)
    if entry.core:
        wtil = sketch.apply_left_transpose(state.atil)
        state.core = (wtil + wtil.T) / 2.0  # kill rounding asymmetry before powering
    t_sketch = time.perf_counter()
    omega = _draw_omega(spec.r1, spec.r2, substream(spec.seed, 1))
    if entry.core or spec.r1 < n:
        state.z = omega
    else:
        state.y = state.atil @ omega
    for _ in range(spec.q):
        state.step()
    expose = state.z is not None and not entry.core  # Y = atil @ z at every yield
    if expose:
        state.y = state.atil @ state.z
    t_power = time.perf_counter()
    state.elapsed.update(sketch=t_sketch - t_s2, power=t_power - t_sketch)
    if entry.regression:
        state.elapsed["regression"] = t_s2 - t0
    while True:
        yield state
        t0 = time.perf_counter()
        state.step()
        if expose:
            state.y = state.atil @ state.z
        state.elapsed["power"] += time.perf_counter() - t0
        state.q += 1


def _basis(state: _Iterate) -> dict[str, np.ndarray]:
    return {"Q": orthonormalize(state.y)}


def _regression(state: _Iterate) -> dict[str, np.ndarray]:
    s2y = state.s2.apply_left_transpose(state.y)
    if not np.any(s2y):
        raise ValueError("S2.T Y is numerically rank-zero; regression is undefined")
    return {"Y": state.y, "X": pinv(s2y) @ state.s2a}


def _contraction(state: _Iterate) -> dict[str, np.ndarray]:
    w = state.z.T @ (state.core @ state.z)
    return {"C": state.atil @ state.z, "W": (w + w.T) / 2.0}


class _Method(NamedTuple):
    """How the engine runs one method and how its factors are assembled."""

    assemble: Callable[[_Iterate], dict[str, np.ndarray]]
    stage: str  # the elapsed key of the assembly
    # (A, factors) -> thin (L, R) with A ~= L @ R, the approximation its error is measured on
    low_rank: Callable[[np.ndarray, dict], tuple[np.ndarray, np.ndarray]]
    sketched: bool = True  # False: the identity primary sketch, r1 = n (a classical baseline)
    core: bool = False  # power the Nystrom core S.T A S rather than A S: needs a symmetric psd input
    regression: bool = False  # build the secondary sketch S2.T A

    @property
    def applies_sketch(self) -> bool:
        return self.sketched or self.regression


def _projection(a: np.ndarray, factors: dict) -> tuple[np.ndarray, np.ndarray]:
    return factors["Q"], factors["Q"].T @ a


def _product(a: np.ndarray, factors: dict) -> tuple[np.ndarray, np.ndarray]:
    return factors["Y"], factors["X"]


def _nystrom_product(a: np.ndarray, factors: dict) -> tuple[np.ndarray, np.ndarray]:
    return factors["C"], pinv(factors["W"]) @ factors["C"].T


_METHODS = {
    "classical-randsvd": _Method(_basis, "basis", _projection, sketched=False),
    "sketched-randsvd": _Method(_basis, "basis", _projection),
    "lowrank-factorize": _Method(_regression, "regression", _product, regression=True),
    "lowrank-factorize-unsketched": _Method(
        _regression, "regression", _product, sketched=False, regression=True
    ),
    "nystrom": _Method(_contraction, "contract", _nystrom_product, core=True),
}


def _method_spec(method: str, spec: RangeFinderSpec, n: int) -> RangeFinderSpec:
    """The spec ``method`` runs: a classical baseline powers A itself.

    Its primary sketch is the identity (r1 = n); the regression keeps the
    sketch family and size of ``spec`` for S2.
    """
    if _METHODS[method].sketched:
        return spec
    return replace(
        spec,
        sketch_kind="identity",
        r1=n,
        s2_kind=spec.s2_kind or spec.sketch_kind,
        s2_r=spec.s2_r or spec.r1,
    )


def _advance(
    a, spec: RangeFinderSpec, method: str
) -> tuple[dict, dict[str, float], RangeFinderSpec, np.ndarray | None]:
    """Run ``method`` to ``spec.q`` and assemble: ``(factors, elapsed seconds per stage, spec run,
    eigenvalues of the psd check or None)``."""
    entry = _METHODS[method]
    a, eigenvalues = _checked(a, [method])
    state = next(_iterates(a, spec, method))
    if not entry.core:  # the assembly reads Y (and S2): free A S and its Gram before it runs
        state.atil = state.core = None
    t0 = time.perf_counter()
    factors = entry.assemble(state)
    state.elapsed[entry.stage] = state.elapsed.get(entry.stage, 0.0) + time.perf_counter() - t0
    return factors, state.elapsed, state.spec, eigenvalues


def range_finder_sketched(a, spec: RangeFinderSpec) -> np.ndarray:
    """Orthonormal range finder from power iteration on the sketch ``a @ S``.

    Returns Q with at most ``spec.r2`` orthonormal columns such that
    Q Q.T a captures the dominant part of ``a``'s spectrum.
    """
    return _advance(a, spec, "sketched-randsvd")[0]["Q"]


def range_finder_classical(a, k: int, r2: int, q: int, seed: int) -> np.ndarray:
    """Classical range finder: power iteration on ``a`` itself.

    Equivalent to :func:`range_finder_sketched` with an identity sketch and
    the same start-block seed.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    spec = RangeFinderSpec(k=k, l=min(m, n), r1=n, r2=r2, q=q, eps=0.5, seed=seed)
    return _advance(a, spec, "classical-randsvd")[0]["Q"]


def randsvd(a, q_basis) -> SvdResult:
    """Randomized SVD assembly: project onto Q, decompose, rotate back.

    Given an orthonormal basis Q, computes B = Q.T a, its thin SVD
    (U~, sigma, V), and returns (Q U~, sigma, V), so that
    U diag(sigma) V.T == Q Q.T a up to rounding.
    """
    return _svd_assembly(*orthonormal_projection(a, q_basis))


def _svd_assembly(q_basis: np.ndarray, b: np.ndarray) -> SvdResult:
    u_small, sigma, v = thin_svd(b)  # the decomposition and rotation of randsvd, given Q and B = Q.T a
    return SvdResult(U=q_basis @ u_small, sigma=sigma, V=v)


def lowrank_factorize(a, spec: RangeFinderSpec) -> FactorizationResult:
    """Generalized Nystrom factorization ``a ~= Y @ X``.

    Y is the powered block from the primary sketch; X solves the sketched
    regression ``(S2.T Y)^+ (S2.T a)`` with an independent second sketch on
    the row space, avoiding the dense Q.T a product of randomized SVD.
    """
    factors, elapsed, *_ = _advance(a, spec, "lowrank-factorize")
    return FactorizationResult(**factors, elapsed=elapsed)


def nystrom_psd(a, spec: RangeFinderSpec) -> NystromResult:
    """Psd Nystrom approximation ``a ~= C @ pinv(W) @ C.T``.

    Builds the large intermediate pair C~ = a S, W~ = S.T a S, powers the
    start block through the small core (Y = W~^q Omega, re-based on a
    well-conditioned basis of its span before every application of W~), and
    contracts to C = C~ Y, W = Y.T W~ Y.  The implied approximation is
    symmetric psd.
    """
    factors, elapsed, *_ = _advance(a, spec, "nystrom")
    return NystromResult(**factors, elapsed=elapsed)
