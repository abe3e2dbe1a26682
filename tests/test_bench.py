import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import skpower.bench as bench_mod
import skpower.data_io as data_io_mod
import skpower.diagnostics as diag_mod
import skpower.linalg as linalg_mod
import skpower.power as power_mod
import skpower.sketching as sketching_mod
from conftest import psd_polydecay, random_psd
from skpower.bench import (
    METHODS,
    BenchConfig,
    config_from_mapping,
    parse_config_file,
    replay_record,
    run_benchmark,
)
from skpower.data_io import gen_polydecay, load_matrix, read_records_csv, write_binary
from skpower.linalg import pinv, psd_eigenvalues
from skpower.power import (
    RangeFinderSpec,
    lowrank_factorize,
    nystrom_psd,
    range_finder_classical,
    range_finder_sketched,
)


def small_config(tmp_path, **overrides):
    params = dict(
        dataset="polydecay:120x80:seed=3",
        methods=["sketched-randsvd", "classical-randsvd"],
        k=8,
        l_values=[24],
        q_max=2,
        trials=2,
        root_seed=11,
        sketch_kind="countsketch",
        s=1,
        output_path=str(tmp_path / "out.csv"),
    )
    params.update(overrides)
    return BenchConfig(**params)


class TestConfig:
    def test_parse_file_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(
            "# comment\n"
            "dataset = polydecay:60x40:seed=1\n"
            "methods = sketched-randsvd\n"
            "k = 5\n"
            "l_values = 10, 20\n"
            "trials = 3\n"
            "output = base.csv\n"
        )
        values = parse_config_file(cfg_path)
        values["trials"] = "1"  # CLI-style override
        cfg = config_from_mapping(values)
        assert cfg.trials == 1
        assert cfg.l_values == [10, 20]
        assert cfg.methods == ["sketched-randsvd"]

    def test_bad_config_line(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense line\n")
        with pytest.raises(ValueError, match="bad config"):
            parse_config_file(cfg_path)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="unknown method"):
            small_config(tmp_path, methods=["bogus"]).validate()

    def test_per_method_q_max_defaults(self, tmp_path):
        cfg = small_config(tmp_path, q_max=None)
        assert cfg.q_max_for("sketched-randsvd") == 15
        assert cfg.q_max_for("classical-randsvd") == 5
        assert cfg.q_max_for("lowrank-factorize-unsketched") == 5


class TestRun:
    def test_row_counts_and_monotone_time(self, tmp_path):
        cfg = small_config(tmp_path, q_max=0, trials=1, l_values=[16, 24])
        records = run_benchmark(cfg)
        # one data row per (method, l) at q_max=0, trials=1
        assert len(records) == 2 * 2
        back = read_records_csv(cfg.output_path)
        assert len(back) == len(records)

    def test_time_ms_non_decreasing(self, tmp_path):
        cfg = small_config(tmp_path, q_max=4)
        records = run_benchmark(cfg)
        series: dict = {}
        for rec in records:
            key = (rec.method, rec.l, rec.trial)
            if key in series:
                assert rec.time_ms >= series[key]
            series[key] = rec.time_ms

    def test_errors_reproducible_across_reruns(self, tmp_path):
        cfg1 = small_config(tmp_path, output_path=str(tmp_path / "a.csv"))
        cfg2 = small_config(tmp_path, output_path=str(tmp_path / "b.csv"))
        rec1 = run_benchmark(cfg1)
        rec2 = run_benchmark(cfg2)
        for a, b in zip(rec1, rec2):
            assert a.seed == b.seed and a.q_iter == b.q_iter
            assert abs(a.rel_err - b.rel_err) <= 1e-10
            assert abs(a.spec_err - b.spec_err) <= 1e-10
            assert abs(a.frob_err - b.frob_err) <= 1e-10

    def test_replay_record_regenerates_row(self, tmp_path):
        cfg = small_config(
            tmp_path,
            methods=["sketched-randsvd", "lowrank-factorize", "lowrank-factorize-unsketched"],
        )
        records = run_benchmark(cfg)
        a = load_matrix(cfg.dataset)
        for rec in records[::5]:
            spec, frob, rel = replay_record(a, rec)
            assert abs(spec - rec.spec_err) <= 1e-10 * max(rec.spec_err, 1.0)
            assert abs(frob - rec.frob_err) <= 1e-10 * max(rec.frob_err, 1.0)
            assert abs(rel - rec.rel_err) <= 1e-10

    def test_nystrom_method_on_psd_dataset(self, tmp_path):
        psd = random_psd(60, seed=21)
        path = tmp_path / "psd.skpw"
        write_binary(psd, path)
        cfg = small_config(
            tmp_path,
            dataset=str(path),
            methods=["nystrom"],
            k=5,
            l_values=[15],
            q_max=2,
            trials=1,
        )
        records = run_benchmark(cfg)
        assert len(records) == 3
        assert records[-1].rel_err <= records[0].rel_err + 1e-9

    def test_nystrom_rejects_non_psd_dataset(self, tmp_path):
        cfg = small_config(tmp_path, methods=["nystrom"], q_max=0, trials=1)
        with pytest.raises(ValueError, match="square|psd|symmetric"):
            run_benchmark(cfg)
        sym_indefinite = np.diag([2.0, 1.0, -1.0])
        path = tmp_path / "indef.skpw"
        write_binary(sym_indefinite, path)
        cfg = small_config(
            tmp_path, dataset=str(path), methods=["nystrom"], k=1,
            l_values=[1], q_max=0, trials=1,
        )
        with pytest.raises(ValueError, match="not psd"):
            run_benchmark(cfg)

    def test_parallel_workers_match_serial(self, tmp_path):
        serial = run_benchmark(small_config(tmp_path, output_path=str(tmp_path / "s.csv")))
        parallel = run_benchmark(
            small_config(tmp_path, workers=3, output_path=str(tmp_path / "p.csv"))
        )
        # rows come in task order whatever the number of workers
        key = lambda r: (r.method, r.l, r.trial, r.q_iter)
        assert [key(r) for r in parallel] == [key(r) for r in serial]
        assert [key(r) for r in read_records_csv(str(tmp_path / "p.csv"))] == [key(r) for r in serial]
        for a, b in zip(serial, parallel):
            assert abs(a.rel_err - b.rel_err) <= 1e-12

    def test_partial_results_flushed_on_failure(self, tmp_path):
        # second method fails (nystrom needs psd input); rows from the first
        # method must already be in the file
        cfg = small_config(tmp_path, methods=["sketched-randsvd", "nystrom"], q_max=0, trials=1)
        cfg.methods = ["sketched-randsvd", "nystrom"]

        class Boom(Exception):
            pass

        # patch: make the second series raise after the first is written
        import skpower.bench as bench_mod

        original = bench_mod._run_series
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise Boom()
            return original(*args, **kwargs)

        bench_mod._run_series = flaky
        try:
            with pytest.raises(Boom):
                run_benchmark(small_config(tmp_path, q_max=0, trials=1))
        finally:
            bench_mod._run_series = original
        leftover = read_records_csv(str(tmp_path / "out.csv"))
        assert len(leftover) == 1


def _library_factors(a, method, k, l, q, seed):
    """The library's Q, or dense approximation, for a series of ``small_config``'s sketch."""
    spec = RangeFinderSpec(k=k, l=l, r1=l, r2=k, q=q, eps=0.5, sketch_kind="countsketch", seed=seed, s=1)
    if method == "classical-randsvd":
        return range_finder_classical(a, k, k, q, seed)
    if method == "sketched-randsvd":
        return range_finder_sketched(a, spec)
    if method == "lowrank-factorize-unsketched":  # no public function: the engine's own run to q
        factors = power_mod._advance(a, spec, method)[0]
        return factors["Y"] @ factors["X"]
    if method == "nystrom":
        res = nystrom_psd(a, spec)
        return res.C @ (pinv(res.W) @ res.C.T)
    res = lowrank_factorize(a, spec)
    return res.Y @ res.X


@pytest.mark.parametrize("q", [0, 1, 3])
@pytest.mark.parametrize("method", METHODS)
def test_bench_row_factors_equal_library_factors(tmp_path, monkeypatch, method, q):
    # one engine: the factors a bench row is evaluated on are bit for bit
    # those of the library function at the same spec and seed
    path = tmp_path / "psd.skpw"
    write_binary(psd_polydecay(60, seed=4), path)
    cfg = small_config(
        tmp_path, dataset=str(path), methods=[method], k=5, l_values=[15],
        q_max=q, trials=1,
    )
    seen = []

    def capture(a, left, right, basis_dev, seed, gram, warm):
        seen.append((left, right))
        return 1.0, 1.0

    monkeypatch.setattr(diag_mod, "_estimated_residuals", capture)  # a basis is measured as its projection
    records = run_benchmark(cfg)
    assert [r.q_iter for r in records] == list(range(q + 1))
    expected = _library_factors(load_matrix(cfg.dataset), method, 5, 15, q, records[-1].seed)
    left, right = seen[-1]
    assert np.array_equal(left if method.endswith("randsvd") else left @ right, expected)


class _Clock:
    """Stands in for the ``time`` module ``power`` reads: it moves only where the test moves it."""

    now = 0.0

    def perf_counter(self):
        return self.now


@pytest.mark.parametrize("method", METHODS)
def test_bench_point_books_the_library_time_at_its_q(tmp_path, monkeypatch, method):
    # each step moves the engine's clock by 1 and each product with A S by 1000,
    # so a row's time_ms counts the steps and block products it booked: those
    # of the library run to the row's q, one block Y = A S z included
    clock = _Clock()
    monkeypatch.setattr(power_mod, "time", clock)

    class Ticking(np.ndarray):
        def __matmul__(self, other):
            clock.now += 1000.0
            return np.asarray(self) @ np.asarray(other)

    class TickingSketch:
        def __init__(self, sketch):
            self.sketch = sketch

        def __getattr__(self, name):
            return getattr(self.sketch, name)

        def apply_right(self, a):
            return self.sketch.apply_right(a).view(Ticking)

    make_sketch, step = power_mod.make_sketch, power_mod._Iterate.step

    def ticking_step(state):
        clock.now += 1.0
        step(state)

    monkeypatch.setattr(power_mod, "make_sketch", lambda *args, **kw: TickingSketch(make_sketch(*args, **kw)))
    monkeypatch.setattr(power_mod._Iterate, "step", ticking_step)
    path = tmp_path / "psd.skpw"
    write_binary(psd_polydecay(60, seed=4), path)
    cfg = small_config(tmp_path, dataset=str(path), methods=[method], k=5, l_values=[15], q_max=3, trials=1)
    a = load_matrix(cfg.dataset)
    for rec in run_benchmark(cfg):
        spec = RangeFinderSpec(k=5, l=15, r1=15, r2=5, q=rec.q_iter, eps=0.5, seed=rec.seed, s=1)
        elapsed = power_mod._advance(a, spec, method)[1]
        assert rec.time_ms == 1e3 * (elapsed["sketch"] + elapsed["power"]), rec.q_iter


def test_bench_checks_the_matrix_once_per_run(tmp_path, monkeypatch):
    # A is checked as it is loaded and set up, never at an error point: the
    # number of scans of an A-shaped array does not grow with q_max
    path = tmp_path / "psd.skpw"
    write_binary(psd_polydecay(60, seed=4), path)
    scans, real = [], linalg_mod.as_matrix

    def counted(x, name="matrix"):
        out = real(x, name)
        scans.append(out.shape == (60, 60))
        return out

    for module in (linalg_mod, sketching_mod, power_mod, diag_mod, data_io_mod):
        monkeypatch.setattr(module, "as_matrix", counted)
    counts = []
    for q_max in (2, 6):
        scans.clear()
        cfg = small_config(tmp_path, dataset=str(path), methods=list(METHODS), k=5, l_values=[15], q_max=q_max)
        run_benchmark(cfg)
        counts.append(scans.count(True))
    assert counts[0] == counts[1]


def test_replay_record_regenerates_classical_and_nystrom_rows(tmp_path):
    path = tmp_path / "psd.skpw"
    write_binary(psd_polydecay(60, seed=9), path)
    cfg = small_config(
        tmp_path, dataset=str(path), methods=["classical-randsvd", "nystrom"],
        k=5, l_values=[15], q_max=3,
    )
    records = run_benchmark(cfg)
    a = load_matrix(cfg.dataset)
    assert {r.method for r in records} == {"classical-randsvd", "nystrom"}
    for rec in records:
        assert replay_record(a, rec) == (
            rec.spec_err, rec.frob_err, rec.rel_err
        )


def test_bench_and_replay_through_the_cancellation_fallback(tmp_path, monkeypatch):
    # at noise 1e-8 the thin form cancels, so every point forms its residual;
    # replay takes the same path and reproduces each row bit for bit, rerunning
    # its series from q = 0: 1 + 2 + 3 points for each of the 3 series
    formed = []
    real = diag_mod._residual
    monkeypatch.setattr(diag_mod, "_residual", lambda *args: formed.append(1) or real(*args))
    cfg = small_config(
        tmp_path, dataset="lowrank:80x60:rank=10:noise=1e-8:seed=2",
        methods=["sketched-randsvd", "lowrank-factorize", "classical-randsvd"],
        k=10, l_values=[20], q_max=2, trials=1,
    )
    records = run_benchmark(cfg)
    assert len(records) == 9 and len(formed) == 9
    a = load_matrix(cfg.dataset)
    for rec in records:
        assert replay_record(a, rec) == (
            rec.spec_err, rec.frob_err, rec.rel_err
        )
    assert len(formed) == 9 + 3 * (1 + 2 + 3)


def test_bench_builds_no_sketch_start_block_or_basis():
    # sketches, start blocks and stabilization live in power.py only; bench
    # steps the engine and evaluates errors.  Neither bench nor the cli derives
    # a method's spec or checks its input: the engine's start does both.
    start = {"_sketch_shapes", "_gaussian_block", "_check_psd"}
    banned = {
        "bench.py": {"make_sketch", "orthonormalize", "apply_right", "apply_left_transpose", "densify"} | start,
        "cli.py": start,
    }
    calls = []
    for filename, names in banned.items():
        path = pathlib.Path(bench_mod.__file__).with_name(filename)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    calls.append(f"{filename}:{name}:{node.lineno}")
    assert calls == []


_BAD_L = r"need 1 <= k <= l <= min\(m, n\)"


@pytest.mark.parametrize(
    "l_values, options, match",
    [
        pytest.param([50], {}, _BAD_L, id="l_values0"),
        pytest.param([3], {}, _BAD_L, id="l_values1"),
        pytest.param([8, 50], {}, _BAD_L, id="l_values2"),
        # sketches the engine could not build: an identity of r1 = l = 8 on
        # n = 40 columns, CountSketch with s outside [1, r1]
        pytest.param([8], {"sketch_kind": "identity"}, "identity sketch needs r == n", id="identity"),
        pytest.param([8], {"s": 9}, r"countsketch needs 1 <= s <= r", id="s-above-r"),
        pytest.param([8], {"s": 0}, r"countsketch needs 1 <= s <= r", id="s-zero"),
        pytest.param([8], {"sketch_kind": "bogus"}, "unknown sketch kind", id="unknown-kind"),
        # a classical randsvd builds no sketch of the kind its rows record, which is checked all the same
        pytest.param(
            [8], {"methods": ["classical-randsvd"], "sketch_kind": "bogus"}, "unknown sketch kind",
            id="unknown-kind-classical",
        ),
    ],
)
def test_series_spec_rejected_before_the_profile_and_the_csv(tmp_path, monkeypatch, l_values, options, match):
    # l above min(m, n) = 40 or below k = 4, or a sketch that cannot be
    # built, also after a valid series: no series runs
    def no_profile(cls, a):
        raise AssertionError("the profile was computed for a rejected spec")

    monkeypatch.setattr(bench_mod.SpectralProfile, "from_matrix", classmethod(no_profile))
    options = {"methods": ["sketched-randsvd", "lowrank-factorize"], **options}
    cfg = small_config(
        tmp_path, dataset="polydecay:60x40:seed=1", k=4, l_values=l_values, q_max=1, trials=1, **options
    )
    with pytest.raises(ValueError, match=match):
        run_benchmark(cfg)
    assert not pathlib.Path(cfg.output_path).exists()


def test_secondary_sketch_checked_before_any_work():
    # lowrank-factorize's S2 maps m = 40 rows: an SRHT of r1 = 65 fits the
    # primary's padded 128 columns but not S2's padded 64, and fails at the
    # engine's start, before any sketch is applied
    a = load_matrix("polydecay:40x100:seed=1")
    spec = RangeFinderSpec(k=4, l=8, r1=65, r2=4, q=0, eps=0.5, sketch_kind="srht")
    power_mod._iterates(a, spec, "sketched-randsvd")  # builds no S2
    for method in ("lowrank-factorize", "lowrank-factorize-unsketched"):
        with pytest.raises(ValueError, match="srht needs r <= padded dimension 64"):
            power_mod._iterates(a, spec, method)


def _one_record(tmp_path, dataset, method):
    cfg = small_config(tmp_path, dataset=dataset, methods=[method], k=4, l_values=[10], q_max=0, trials=1)
    return run_benchmark(cfg)[0]


def test_replay_record_checks_the_row_and_the_matrix(tmp_path):
    a = load_matrix("polydecay:60x40:seed=1")
    rec = _one_record(tmp_path, "polydecay:60x40:seed=1", "sketched-randsvd")
    with pytest.raises(ValueError, match="q must be >= 0"):
        replay_record(a, dataclasses.replace(rec, q_iter=-1))
    with pytest.raises(ValueError, match=r"need 1 <= k <= l <= min\(m, n\)"):
        replay_record(a, dataclasses.replace(rec, l=41))
    bad = a.copy()
    bad[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        replay_record(bad, rec)
    path = tmp_path / "psd.skpw"
    write_binary(psd_polydecay(40, seed=2), path)
    nys = _one_record(tmp_path, str(path), "nystrom")
    gaussian = np.random.default_rng(3).standard_normal((40, 40))
    with pytest.raises(ValueError, match="not symmetric"):
        replay_record(gaussian, nys)
    with pytest.raises(ValueError, match="not psd"):
        replay_record(-load_matrix(str(path)), nys)


@pytest.mark.parametrize("kind", ["gaussian", "sign", "countsketch", "srht"])
def test_every_sketch_kind_replays_from_its_csv_alone(tmp_path, kind):
    # a row records the sketch it ran, so the CSV alone regenerates it; n = 37
    # pads the SRHT to 64, and s = 2 is read by CountSketch only
    data = "polydecay:60x37:seed=1"
    cfg = small_config(
        tmp_path, dataset=data, k=4, l_values=[8], q_max=2, trials=1, sketch_kind=kind, s=2,
        methods=["sketched-randsvd", "classical-randsvd", "lowrank-factorize", "lowrank-factorize-unsketched"],
    )
    run_benchmark(cfg)
    a = load_matrix(data)
    rows = read_records_csv(cfg.output_path)
    assert len(rows) == 4 * 3 and {(r.sketch_kind, r.s) for r in rows} == {(kind, 2)}
    for rec in rows:
        assert replay_record(a, rec) == (rec.spec_err, rec.frob_err, rec.rel_err)
    lines = pathlib.Path(cfg.output_path).read_text().splitlines()
    edited = tmp_path / "edited.csv"
    edited.write_text("".join(f"{line.replace(f',{kind},', ',bogus,')}\n" for line in lines[:2] + lines[4:5]))
    bogus = read_records_csv(edited)
    assert [rec.method for rec in bogus] == ["sketched-randsvd", "classical-randsvd"]
    for rec in bogus:  # the classical row builds no sketch of its recorded kind
        with pytest.raises(ValueError, match="unknown sketch kind"):
            replay_record(a, rec)


def test_psd_check_runs_once_per_benchmark(tmp_path, monkeypatch):
    # the check's eigenvalues are also the profile's: the psd input is
    # decomposed once per run, and once per replay
    calls, decomposed = [], []
    a = psd_polydecay(40, seed=5)

    def counted(a):
        calls.append(a.shape)
        return psd_eigenvalues(a)

    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(power_mod, "_check_psd", counted)
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda x: decomposed.append(np.array_equal(x, a)) or real_eigvalsh(x)
    )
    path = tmp_path / "psd.skpw"
    write_binary(a, path)
    cfg = small_config(
        tmp_path, dataset=str(path), methods=["nystrom"], k=4, l_values=[10, 15], q_max=1, trials=3,
    )
    records = run_benchmark(cfg)
    assert len(records) == 2 * 3 * 2
    assert calls == [(40, 40)] and decomposed.count(True) == 1
    assert replay_record(a, records[-1]) == (records[-1].spec_err, records[-1].frob_err, records[-1].rel_err)
    assert calls == [(40, 40)] * 2 and decomposed.count(True) == 2


def test_warm_started_rows_stay_within_the_estimator_tolerance(tmp_path, monkeypatch):
    # each point's estimate starts from the previous point's Ritz directions:
    # every row's spec_err is still a lower bound within 1e-6 of the exact
    # norm of its own factors (lowrank+noise: a residual far below ||A||)
    exact = []
    real = diag_mod._estimated_residuals

    def measured(a, left, right, *args):  # a basis Q comes with R = Q^T A
        exact.append(np.linalg.norm(a - left @ right, 2))
        return real(a, left, right, *args)

    monkeypatch.setattr(diag_mod, "_estimated_residuals", measured)
    for dataset in ("polydecay:300x200:seed=1", "expdecay:300x200:seed=2", "lowrank:300x200:noise=1e-3:seed=3"):
        exact.clear()
        cfg = small_config(
            tmp_path, dataset=dataset, methods=["sketched-randsvd", "classical-randsvd", "lowrank-factorize"],
            k=10, l_values=[40], q_max=None, trials=1,
        )
        records = run_benchmark(cfg)
        assert len(records) == len(exact) == 16 + 6 + 16
        for rec, norm in zip(records, exact):
            assert norm * (1.0 - 1e-6) <= rec.spec_err <= norm * (1.0 + 1e-12), (dataset, rec)


def test_each_matrix_is_scanned_once_per_check(tmp_path, monkeypatch):
    # every finiteness scan of an A-shaped array: the range finders check A
    # once and apply their primary sketch to it once; a bench run and a
    # replay form the Gram from the A they checked, without a further scan
    a = gen_polydecay(300, 200, seed=4)
    scans = []
    real = linalg_mod._all_finite
    monkeypatch.setattr(linalg_mod, "_all_finite", lambda x: scans.append(x.shape == a.shape) or real(x))

    def scanned(run):
        scans.clear()
        out = run()
        return sum(scans), out

    spec = RangeFinderSpec(k=5, l=20, r1=20, r2=10, q=2, seed=1)
    assert scanned(lambda: range_finder_sketched(a, spec))[0] == 2
    assert scanned(lambda: range_finder_classical(a, 5, 10, 2, seed=1))[0] == 2
    path = tmp_path / "a.skpw"
    write_binary(a, path)
    cfg = small_config(tmp_path, dataset=str(path), k=5, l_values=[20], q_max=1, trials=2)
    # the read, the run's check, the profile, and one sketch apply in each of the 4 series
    count, records = scanned(lambda: run_benchmark(cfg))
    assert count == 3 + 4
    # the replay's check, its profile and its series' one apply
    assert scanned(lambda: replay_record(a, records[-1]))[0] == 3
