"""The three benchmark workloads and the checks that gate them.

Every workload generates its input from the workload seed, and derives one
seed per call from it.  Program functions are looked up on their modules at
call time (``power.randsvd``, not a bound name), so the tracer's wrappers
take effect without touching the program.

Correctness is checked outside the timed region and independently of
``skpower.diagnostics``: spectral norms come from ``scipy.sparse.linalg.svds``
on a residual ``LinearOperator`` or from ``scipy.linalg.svdvals``, and the
reference singular values are the spectra the generators prescribe.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, svds

from skpower import cli, data_io, power


class CheckFailed(Exception):
    """An output of the program is wrong."""


def derive_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _polydecay_sigma(shape, i: int) -> float:
    """i-th (1-based) singular value that ``gen_polydecay`` prescribes."""
    return max(shape) / i


def _residual_norm(a, left, right, seed: int) -> float:
    """Spectral norm of ``a - left @ right`` without forming the residual."""
    op = LinearOperator(
        a.shape,
        matvec=lambda x: a @ x - left @ (right @ x),
        rmatvec=lambda y: a.T @ y - right.T @ (left.T @ y),
        dtype=np.float64,
    )
    v0 = np.random.default_rng(seed).standard_normal(min(a.shape))
    return float(svds(op, k=1, v0=v0, return_singular_vectors=False)[0])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class _PolydecayWorkload:
    """Shared input for ``rangefinder`` and ``factorize-srht``."""

    m, n = 2000, 1000
    k, r1, r2 = 40, 400, 80
    ref_shape = (r1, r2)  # reference GEMM width and power-pair block width
    sample = 5  # calls whose exact spectral residual is computed

    def setup(self, seed: int, workdir: str) -> dict:
        a = data_io.gen_polydecay(self.m, self.n, derive_seed(seed, 0))
        return {"a": a, "seed": seed}

    def approximation(self, state, out):
        """Factors ``(left, right)`` of the rank-r2 approximation in ``out``."""
        raise NotImplementedError

    def ratio(self, state, i: int, out) -> tuple[float, list[str]]:
        a = state["a"]
        left, right = self.approximation(state, out)
        resid = _residual_norm(a, left, right, derive_seed(state["seed"], 2, i))
        floor = _polydecay_sigma(a.shape, left.shape[1] + 1)
        problems = [] if resid >= floor * (1 - 1e-9) else [
            f"residual {resid!r} below the Eckart-Young floor {floor!r}"]
        return resid / _polydecay_sigma(a.shape, self.k + 1), problems


class RangeFinder(_PolydecayWorkload):
    """Sketched range finder plus randsvd: 16 pivoted QRs and 15 power pairs, one apply."""

    name = "rangefinder"

    def call(self, state, i: int):
        spec = power.RangeFinderSpec(
            k=self.k, l=self.r1, r1=self.r1, r2=self.r2, q=15, eps=0.5,
            sketch_kind="countsketch", seed=derive_seed(state["seed"], 1, i), s=1,
            stabilized=True,
        )
        q_basis = power.range_finder_sketched(state["a"], spec)
        return q_basis, power.randsvd(state["a"], q_basis)

    def check(self, state, i: int, out):
        a = state["a"]
        q_basis, (u, sigma, v) = out
        _require(q_basis.shape == (self.m, self.r2), f"Q has shape {q_basis.shape}")
        dev = np.abs(q_basis.T @ q_basis - np.eye(q_basis.shape[1])).max()
        _require(dev <= 1e-8, f"Q is not orthonormal (deviation {dev:.3e})")
        _require(bool(np.all(np.diff(sigma) <= 0) and sigma[-1] >= 0), "sigma not descending")
        proj = q_basis @ (q_basis.T @ a)
        diff = np.linalg.norm((u * sigma) @ v.T - proj) / np.linalg.norm(proj)
        _require(diff <= 1e-10, f"U diag(sigma) V^T differs from Q Q^T A by {diff:.3e}")
        return out

    def approximation(self, state, out):
        q_basis, _ = out
        return q_basis, q_basis.T @ state["a"]


class FactorizeSrht(_PolydecayWorkload):
    """Generalized Nystrom with SRHT on both sides: three padded fwht applies, one QR."""

    name = "factorize-srht"

    def call(self, state, i: int):
        spec = power.RangeFinderSpec(
            k=self.k, l=self.r1, r1=self.r1, r2=self.r2, q=1, eps=0.5,
            sketch_kind="srht", seed=derive_seed(state["seed"], 1, i), stabilized=True,
        )
        return power.lowrank_factorize(state["a"], spec)

    def check(self, state, i: int, out):
        _require(out.Y.shape == (self.m, self.r2), f"Y has shape {out.Y.shape}")
        _require(out.X.shape == (self.r2, self.n), f"X has shape {out.X.shape}")
        _require(bool(np.isfinite(out.Y).all() and np.isfinite(out.X).all()), "non-finite factors")
        return out

    def approximation(self, state, out):
        return out.Y, out.X


class BenchCurve:
    """``skpower bench`` in process: error evaluation, file read, harness and cli."""

    name = "bench-curve"
    n, k, l = 400, 20, 150
    ref_shape = (l, k)
    methods = ("sketched-randsvd", "classical-randsvd", "lowrank-factorize", "nystrom")
    q_max = {"sketched-randsvd": 15, "classical-randsvd": 5, "lowrank-factorize": 15, "nystrom": 15}
    sample = 30  # calls whose final errors are averaged
    recheck_calls = 10  # of those, calls whose sketched-randsvd rows are recomputed
    recheck_q = (0, 7, 15)  # the recomputed rows

    def setup(self, seed: int, workdir: str) -> dict:
        n = self.n
        # symmetric psd with eigenvalues n/i, built like tests/conftest.psd_polydecay
        v = data_io._haar_columns(n, n, derive_seed(seed, 0))
        a = (v * (n / np.arange(1.0, n + 1.0))) @ v.T
        a = (a + a.T) / 2.0
        path = os.path.join(workdir, "psd.skpw")
        data_io.write_binary(a, path)
        return {"a": a, "seed": seed, "path": path, "csv": os.path.join(workdir, "curve.csv")}

    def call(self, state, i: int):
        argv = [
            "bench", "--data", state["path"], "--methods", ",".join(self.methods),
            "--k", str(self.k), "--l-values", str(self.l), "--trials", "1",
            "--seed", str(derive_seed(state["seed"], 1, i)), "--out", state["csv"],
            "--workers", "1",
        ]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"skpower bench exited {code}")
        return printed.getvalue()

    def check(self, state, i: int, out):
        records = data_io.read_records_csv(state["csv"])
        expected = sum(q + 1 for q in self.q_max.values())
        _require(len(records) == expected, f"{len(records)} rows, expected {expected}")
        _require(f"wrote {expected} records" in out, f"unexpected cli output {out!r}")
        for method in self.methods:
            qs = [r.q_iter for r in records if r.method == method]
            _require(qs == list(range(self.q_max[method] + 1)), f"{method} iterates {qs}")
        for rec in records:  # the estimator stops at relative tolerance 1e-6
            _require(rec.rel_err >= -1e-6, f"{rec.method} q={rec.q_iter} rel_err {rec.rel_err!r} "
                     "below the Eckart-Young floor")
        return records

    def ratio(self, state, i: int, records) -> tuple[float, list[str]]:
        a = state["a"]
        problems = []
        for rec in records:
            if (i >= self.recheck_calls or rec.method != "sketched-randsvd"
                    or rec.q_iter not in self.recheck_q):
                continue
            spec = power.RangeFinderSpec(
                k=self.k, l=self.l, r1=self.l, r2=self.k, q=rec.q_iter, eps=0.5,
                sketch_kind="countsketch", seed=rec.seed, s=1,
            )
            q_basis = power.range_finder_sketched(a, spec)
            exact = float(sla.svdvals(a - q_basis @ (q_basis.T @ a))[0])
            if abs(rec.spec_err - exact) > 1e-5 * exact:
                problems.append(f"q={rec.q_iter} reported spec_err {rec.spec_err!r}, recomputed {exact!r}")
        final = [r.spec_err for r in records if r.q_iter == self.q_max[r.method]]
        return max(final) / (self.n / (self.k + 1)), problems

    def call_stats(self, records) -> dict:
        """Harness facts of one call: summed final ``time_ms``, improving and all iterates."""
        final, previous = {}, {}
        improving = iterates = 0
        for rec in records:
            if rec.q_iter > 0:
                iterates += 1
                improving += rec.rel_err < previous[rec.method]
            previous[rec.method] = rec.rel_err
            final[rec.method] = rec.time_ms
        return {"final_time_ms": sum(final.values()), "improving": improving, "iterates": iterates}


WORKLOADS = {w.name: w for w in (RangeFinder(), FactorizeSrht(), BenchCurve())}
