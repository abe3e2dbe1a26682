"""Benchmark harness: error-versus-time curves for the five methods.

Protocol
--------
For every method x sketch-size l x trial, the power-iteration engine of
:mod:`skpower.power` (the one the library functions run) is advanced one
step at a time up to ``q_max`` and a :class:`~skpower.data_io.TrialRecord`
is emitted after each iterate.  Mirroring the usual presentation of such
comparisons, benchmark runs use a primary sketch of size ``r1 = l`` and a
Gaussian start block of size ``r2 = k``.

``time_ms`` is the cumulative algorithm time the engine records in its
``elapsed``, the ``sketch`` plus the ``power`` stage that ``skpower run``
prints: sketch construction and the sketched product (attributed to the
q = 0 point), the start-block draw, and each power step with its in-loop
stabilization (one CholeskyQR pass, or the full
orthonormalization when that pass leaves the block too far from
orthonormal).  On a compressing sketch a step
is the r1 x r1 core product (the Gram ``(A S)^T (A S)`` formed at the
first), and the point books one block ``Y = A S z``, as the library does
at ``spec.q = q`` (the blocks of later points are formed untimed); on the
identity sketch of a classical baseline a step is the pair ``A (A^T Y)``.
The secondary regression sketch (built once per series), the
per-point factorization assembly (orthonormalization / regression / Nystrom
contraction) and the error evaluation are excluded: the assembly is
recomputed from scratch at every reported point and is identical across
the methods being compared at a fixed target rank, so accumulating it
would only blur the comparison.

Error metrics come from one :mod:`skpower.diagnostics` call per point, on
the residual ``A - L R`` whose operands each method's ``operands`` hook
gives (a randsvd basis ``Q`` its projection, ``L = Q`` and ``R = Q^T A``;
``Y`` and ``X``; ``C`` and ``W^+ C^T``), without forming it and without
checking ``A`` again (it is checked once per run).  With ``L = Q T`` for an
orthonormal ``Q`` (``L`` itself with ``T = I`` where it is orthonormal to
working precision, as a basis is, whose projection then has ``D = 0``;
else CholeskyQR2, or a Householder QR of a left factor too ill-conditioned
for it), ``B = Q^T A`` and ``D = B - T R``, its
squared Frobenius norm is ``||A||_F^2 - ||B||_F^2 + ||D||_F^2``, and its
spectral norm is the square root of the top eigenvalue of
``A^T A - B^T B + D^T D``, estimated by seeded block Lanczos on that
operator (one product with it per step; a lower bound, stopped at
relative change 1e-6).  Along a series each estimate starts from the top
Ritz vectors of the previous point's
(:class:`~skpower.diagnostics.WarmStart`; the q = 0 point starts cold), in
place of three of its four Gaussian start rows: consecutive points
approximate nearly the same residual, so the estimates take fewer steps.
The Gram ``A^T A`` (of the smaller side) and ``||A||_F^2`` are formed once
per run, untimed.  Where the differences would cancel beyond the
estimator's accuracy (an input that is almost exactly of low rank), the
residual is formed and its norms taken from it, and the next point starts
cold.  ``rel_err`` is :func:`~skpower.diagnostics.relative_error`, residual
/ sigma_{k+1} - 1 against the profile of the dataset (the absolute
eigenvalues of an exactly symmetric matrix, taken from the psd check where
a Nystrom method ran it, else a full SVD; computed once, untimed).

Each row records its sketch family and the configured CountSketch fill ``s``
(only CountSketch reads it), so :func:`replay_record` regenerates it alone:
it reruns the series from q = 0, warm-started as the run was, to the same errors.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import islice

from . import data_io, diagnostics
from .data_io import TrialRecord
from .diagnostics import MatrixGram, SpectralProfile, WarmStart, relative_error
from .power import _METHODS, RangeFinderSpec, _checked, _iterates
from .sketching import _check_kind, substream
# not called here; bindings the perfbench tracer wraps
from .diagnostics import estimated_approximation_residuals, estimated_projection_residuals
from .linalg import orthonormalize, pinv
from .sketching import make_sketch

METHODS = tuple(_METHODS)

DEFAULT_QMAX_SKETCHED = 15
DEFAULT_QMAX_CLASSICAL = 5

_ERR_STREAM = 100  # substream tag for the residual-estimator start block


def _words(text) -> list[str]:
    return str(text).replace(",", " ").split()


def _option(default, parse, key: str | None = None):
    """A config option: its default, the parser of its string value and its
    config key (the field name unless ``key``)."""
    init = {"default_factory": lambda: list(default)} if isinstance(default, list) else {"default": default}
    return field(metadata={"parse": parse, "key": key}, **init)


@dataclass
class BenchConfig:
    """Everything one benchmark run needs; each field is one flat config-file key.

    ``dataset`` is what :func:`skpower.data_io.load_matrix` accepts: a
    synthetic recipe such as ``polydecay:400x200:seed=7``, a ``.skpw`` path
    or a MatrixMarket path; the records' ``dataset`` column is its basename.
    A run takes ``l`` (``r1 = l``) and ``q_max`` directly.  No key sets the
    spec's accuracy epsilon: ``skpower run`` and ``verify`` size a sketch by
    it and the certifier checks it, but no number in a row depends on it.
    """

    dataset: str = _option("", str)
    methods: list[str] = _option(["sketched-randsvd", "classical-randsvd"], _words)
    k: int = _option(40, int)
    l_values: list[int] = _option([], lambda text: [int(tok) for tok in _words(text)])
    # None: 15 for sketched methods, 5 for classical
    q_max: int | None = _option(None, lambda text: None if text == "" else int(text))
    trials: int = _option(20, int)
    root_seed: int = _option(0, int)
    sketch_kind: str = _option("countsketch", str)
    s: int = _option(1, int)
    output_path: str = _option("bench.csv", str, key="output")
    workers: int = _option(1, int)

    def validate(self) -> None:
        if not self.dataset:
            raise ValueError("config needs a dataset")
        if not self.l_values:
            raise ValueError("config needs at least one l value")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.q_max is not None and self.q_max < 0:
            raise ValueError("q_max must be >= 0")
        if not self.methods:
            raise ValueError("at least one method required")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def q_max_for(self, method: str) -> int:
        if self.q_max is not None:
            return self.q_max
        # a classical baseline's step is a full pass over A
        return DEFAULT_QMAX_SKETCHED if _METHODS[method].sketched else DEFAULT_QMAX_CLASSICAL


# config key -> BenchConfig field
CONFIG_KEYS = {f.metadata["key"] or f.name: f for f in fields(BenchConfig)}


def parse_config_file(path: str) -> dict:
    """Parse the flat ``key = value`` benchmark config format."""
    values: dict = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            key = key.strip()
            if not sep or key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: bad config line {line.rstrip()!r}")
            values[key] = value.strip()
    return values


def config_from_mapping(values: dict) -> BenchConfig:
    """Build a BenchConfig from config keys (file or CLI merged); absent keys take the field defaults."""
    cfg = BenchConfig(
        **{CONFIG_KEYS[key].name: CONFIG_KEYS[key].metadata["parse"](value) for key, value in values.items()}
    )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# series: the power engine stepped one iterate at a time
# ---------------------------------------------------------------------------


def _series(a, method: str, k: int, l: int, q: int, seed: int, **params):
    """The validated states of one series: a primary sketch of size l and a k-column start block.
    The sketch kind its rows record is checked also where the method builds no sketch of it."""
    _check_kind(params["sketch_kind"])
    return _iterates(a, RangeFinderSpec(k=k, l=l, r1=l, r2=k, q=q, seed=seed, **params), method)


def _errors(a, entry, state, profile: SpectralProfile, gram: MatrixGram, warm: WarmStart):
    """``(spec_err, frob_err, rel_err)`` of the factors ``entry`` assembles from ``state``,
    measured on the residual operands its hook gives; ``a`` is already checked."""
    seed = substream(state.spec.seed, _ERR_STREAM, state.q)
    operands = entry.operands(a, entry.assemble(state))
    norm, frob = diagnostics._estimated_residuals(a, *operands, seed, gram, warm)
    return norm, frob, relative_error(norm, profile, state.spec.k)


def _series_errors(a, method: str, states, profile: SpectralProfile, gram: MatrixGram, points: int):
    """``(state, errors)`` for the first ``points`` states of one series, each
    point's Krylov estimate started from the previous point's Ritz directions."""
    entry, warm = _METHODS[method], WarmStart()
    for state in islice(states, points):
        yield state, _errors(a, entry, state, profile, gram, warm)


def _run_series(a, profile, gram, cfg: BenchConfig, method: str, trial: int, states):
    rows = []
    for state, (spec_err, frob, rel) in _series_errors(a, method, states, profile, gram, cfg.q_max_for(method) + 1):
        rows.append(
            TrialRecord(
                method=method,
                dataset=os.path.basename(cfg.dataset),
                m=a.shape[0],
                n=a.shape[1],
                k=cfg.k,
                l=state.spec.l,
                r1=state.spec.r1,
                r2=state.spec.r2,
                sketch_kind=cfg.sketch_kind,
                s=cfg.s,
                q_iter=state.q,
                seed=state.spec.seed,
                trial=trial,
                time_ms=1e3 * (state.elapsed["sketch"] + state.elapsed["power"]),
                spec_err=spec_err,
                frob_err=frob,
                rel_err=rel,
            )
        )
    states.close()  # free the series' arrays: the task list still holds its iterator
    return rows


def replay_record(a, rec: TrialRecord):
    """Rerun one recorded (method, sketch, parameters, seed, q) point; returns errors.

    The returned ``(spec_err, frob_err, rel_err)`` reproduce the recorded
    values (timings are ignored): the series runs under the row's
    ``sketch_kind`` and ``s`` (read by CountSketch only) from q = 0 through
    ``q_iter``, warm-started point to point as :func:`run_benchmark` ran it.
    The matrix and the row's spec are checked as the library checks them.
    """
    a, eigenvalues = _checked(a, [rec.method])
    params = dict(sketch_kind=rec.sketch_kind, s=rec.s)
    _series(a, rec.method, rec.k, rec.l, rec.q_iter, rec.seed, **params).close()  # the row's own spec, checked
    states = _series(a, rec.method, rec.k, rec.l, 0, rec.seed, **params)
    profile = SpectralProfile.from_matrix(a, eigenvalues)
    *_, (_, errors) = _series_errors(a, rec.method, states, profile, diagnostics._gram(a), rec.q_iter + 1)
    states.close()
    return errors


def run_benchmark(cfg: BenchConfig, progress=None) -> list[TrialRecord]:
    """Run the configured benchmark; stream rows to CSV as they are produced.

    With ``workers > 1`` the independent (method, l, trial) series run in a
    thread pool (BLAS releases the GIL); rows are still written in task
    order, the order of ``workers = 1``, but keep ``workers = 1`` for
    timing runs.  Rows written before a failing series stay in the file.
    ``progress`` is called with the last row of each series once it is written.
    """
    cfg.validate()
    a, eigenvalues = _checked(data_io.load_matrix(cfg.dataset), cfg.methods)
    params = dict(sketch_kind=cfg.sketch_kind, s=cfg.s)
    tasks = [  # every series' spec is validated here, before the profile and the CSV
        (method, trial, _series(a, method, cfg.k, l, 0, substream(cfg.root_seed, mi, li, trial), **params))
        for mi, method in enumerate(cfg.methods)
        for li, l in enumerate(cfg.l_values)
        for trial in range(cfg.trials)
    ]
    profile = SpectralProfile.from_matrix(a, eigenvalues)  # a psd input is not decomposed again
    relative_error(0.0, profile, cfg.k)  # fail before the first series if sigma_(k+1) is missing or zero
    gram = diagnostics._gram(a)  # once per run, of the checked a: every error point reuses it

    def rows(results):
        for series in results:
            yield from series
            if progress is not None:
                progress(series[-1])

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        run = lambda task: _run_series(a, profile, gram, cfg, *task)
        results = pool.map(run, tasks) if cfg.workers > 1 else map(run, tasks)
        return data_io.write_records_csv(rows(results), cfg.output_path)
