"""Command-line surface: ``skpower gen | run | bench | verify``.

Exit codes: 0 success (or verification pass), 1 usage error, 2 runtime
failure, 3 verification below threshold.  The environment variable
``SKPOWER_THREADS`` caps internal BLAS parallelism (applied on package
import, before numpy is loaded).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import data_io, diagnostics, power, sketching

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY_FAIL = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _print_kv(**kwargs) -> None:
    for key, value in kwargs.items():
        if isinstance(value, float):
            print(f"{key}={value:.12g}")
        else:
            print(f"{key}={value}")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    recipe = data_io.RECIPES[args.kind]
    # the option flags given, as a recipe: the loader rejects a flag the kind does not take
    flags = {key: getattr(args, key) for other in data_io.RECIPES.values() for key in other.options}
    given = {key: value for key, value in flags.items() if value is not None}
    source = ":".join([f"{args.kind}:{args.m}x{args.n}", *(f"{key}={value}" for key, value in given.items())])
    data_io.write_binary(data_io.load_matrix(source), args.out)
    options = {**recipe.options, **given}
    spectrum = recipe.spectrum(args.m, args.n, **options)
    top = ", ".join(f"{v:.12g}" for v in spectrum[:5])
    _print_kv(
        out=args.out,
        kind=args.kind,
        m=args.m,
        n=args.n,
        **options,
        prescribed_top_singular_values=f"[{top}{', ...' if len(spectrum) > 5 else ''}]",
        # a kind that prescribes fewer than min(m, n) values leaves the rest zero
        prescribed_sigma_min=float(spectrum[-1]) if len(spectrum) == min(args.m, args.n) else 0.0,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _derive_parameters(args, m: int, n: int, entry):
    """Resolve (r1, r2, q, s) from (k, l, eps) unless given explicitly.

    ``entry`` is the method's ``power._METHODS`` entry.  A method that
    applies no sketch has nothing to size: r1 defaults to n.
    """
    r1, s = args.r1, args.s
    if not entry.applies_sketch:
        r1 = n if r1 is None else r1
        s = 1 if s is None else s
    if r1 is not None and args.r2 is not None and args.q is not None:
        return r1, args.r2, args.q, (s if s is not None else 1)
    if args.l is None:
        raise ValueError("either --l (with --eps) or all of --r1/--r2/--q are required")
    if r1 is None:
        r1 = min(sketching.sketch_size(args.sketch, args.l, args.eps, args.delta, args.c, n=n), n)
    if s is None:  # a CountSketch takes the per-row fill of its sizing rule, other sketches 1
        countsketch = args.sketch == "countsketch"
        s = sketching.countsketch_size(args.l, args.eps, args.delta, args.c)[1] if countsketch else 1
    r2 = args.r2 if args.r2 is not None else 2 * args.k
    m_hat = min(m, r1 if entry.sketched else n)  # a classical baseline powers all n columns
    q = args.q if args.q is not None else power.choose_q(args.eps, m_hat)
    return r1, r2, q, s


def _cmd_run(args) -> int:
    t0 = time.perf_counter()
    a = data_io.load_matrix(args.data)
    t_load = time.perf_counter() - t0
    m, n = a.shape
    entry = power._METHODS[args.method]
    r1, r2, q, s = _derive_parameters(args, m, n, entry)
    spec = power.RangeFinderSpec(
        k=args.k,
        l=args.l if args.l is not None else min(m, n),
        r1=r1,
        r2=r2,
        q=q,
        eps=args.eps,
        sketch_kind=args.sketch,
        seed=args.seed,
        s=s,
    )
    # first: a rejected input costs no SVD, and a psd one is decomposed by its check alone
    saved, engine, spec, eigenvalues = power._advance(a, spec, args.method)
    t0 = time.perf_counter()
    profile = diagnostics.SpectralProfile.from_matrix(a, eigenvalues)
    t_profile = time.perf_counter()
    left, right, basis_dev = entry.operands(a, saved)  # the residual A - L R judged, as in bench
    spec_err, frob_err = diagnostics._exact_residuals(a, left, right, basis_dev)
    stage = {"load": t_load, **engine, "profile": t_profile - t0, "error": time.perf_counter() - t_profile}
    if basis_dev is not None:  # a basis Q: its randomized SVD is reported, from the residual's R = Q^T A
        t0 = time.perf_counter()
        u, sigma, v = power._svd_assembly(left, right)
        stage["svd_assembly"] = time.perf_counter() - t0
        saved = {"U": u, "sigma": sigma.reshape(1, -1), "V": v}
    try:
        rel_err = diagnostics.relative_error(spec_err, profile, args.k)
    except ValueError:  # no positive sigma_(k+1): k = min(m, n), or an exactly rank-k input
        rel_err = float("nan")

    _print_kv(
        method=args.method,
        m=m,
        n=n,
        k=args.k,
        rank=left.shape[1],  # of the approximation judged; rel_err compares it with sigma_(k+1)
        l=spec.l,
        r1=spec.r1,
        r2=spec.r2,
        q=spec.q,
        s=spec.s,
        sketch=spec.sketch_kind,
        seed=args.seed,
        spec_err=float(spec_err),
        frob_err=float(frob_err),
        rel_err=float(rel_err),
    )
    for name, seconds in stage.items():
        _print_kv(**{f"stage_{name}_ms": seconds * 1e3})
    if args.save_prefix:
        for name, matrix in saved.items():
            path = f"{args.save_prefix}.{name}.skpw"
            data_io.write_binary(np.atleast_2d(matrix), path)
            print(f"saved={path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    values = bench_mod.parse_config_file(args.config) if args.config else {}
    values.update(
        (key, value) for key, value in vars(args).items() if key in bench_mod.CONFIG_KEYS and value is not None
    )
    cfg = bench_mod.config_from_mapping(values)

    def progress(rec):
        print(
            f"done method={rec.method} l={rec.l} trial={rec.trial} "
            f"q_max={rec.q_iter} time_ms={rec.time_ms:.1f} rel_err={rec.rel_err:.4g}",
            flush=True,
        )

    records = bench_mod.run_benchmark(cfg, progress=progress if args.verbose else None)
    print(f"wrote {len(records)} records to {cfg.output_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    a = data_io.load_matrix(args.data)
    n = a.shape[1]
    profile = diagnostics.SpectralProfile.from_matrix(a)
    lam = diagnostics.regularization_level(profile, args.k)
    r = args.r if args.r is not None else sketching.sketch_size(args.sketch, args.k, args.eps, args.delta, args.c, n=n)
    certify = diagnostics._certifier(a, lam)  # the Gram's eigh, once for every trial
    passes, worst = 0, 0.0
    for trial in range(args.trials):
        sk = sketching.make_sketch(args.sketch, n, r, sketching.substream(args.seed, trial), s=args.s)
        report = certify(sk, args.eps)
        passes += report.holds
        worst = max(worst, report.measured)
    rate = passes / args.trials
    _print_kv(
        sketch=args.sketch,
        r=r,
        k=args.k,
        eps=args.eps,
        lam=float(lam),
        trials=args.trials,
        pass_rate=float(rate),
        worst_measured=float(worst),
        threshold=float(args.threshold),
    )
    return EXIT_OK if rate >= args.threshold else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """Parser of an integer flag ``>= low``; any other value is a usage error."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


_dimension = _at_least(1)  # a matrix dimension, a trial or a worker count


def build_parser() -> _Parser:
    parser = _Parser(prog="skpower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic matrix file")
    gen.add_argument("kind", choices=list(data_io.RECIPES))
    gen.add_argument("--m", type=_dimension, required=True)
    gen.add_argument("--n", type=_dimension, required=True)
    options = {key: default for recipe in data_io.RECIPES.values() for key, default in recipe.options.items()}
    for key, default in options.items():
        kinds = [kind for kind, recipe in data_io.RECIPES.items() if key in recipe.options]
        gen.add_argument(f"--{key}", type=type(default), help=f"option of {', '.join(kinds)} [{default}]")
    gen.add_argument("--out", required=True, help="output .skpw path")
    gen.set_defaults(func=_cmd_gen)

    sized = _Parser(add_help=False)  # the options run and verify share: the input and the sizing rule
    sized.add_argument("--data", required=True, help="dataset path or synthetic recipe")
    sized.add_argument("--k", type=int, required=True)
    sized.add_argument("--eps", type=float, default=0.5)
    sized.add_argument("--delta", type=float, default=0.1)
    sized.add_argument("--c", type=float, default=2.0, help="sketch-size multiplier")
    sized.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", parents=[sized], help="run one algorithm once and print errors")
    run.add_argument("--method", required=True, choices=list(power._METHODS))
    run.add_argument("--l", type=int)
    run.add_argument("--r1", type=int, help="explicit primary sketch size")
    run.add_argument("--r2", type=int, help="explicit block size")
    run.add_argument("--q", type=int, help="explicit power-iteration count")
    run.add_argument("--sketch", default="countsketch", choices=list(sketching.SKETCH_KINDS))
    run.add_argument("--s", type=int, help="countsketch non-zeros per row")
    run.add_argument("--save-prefix", help="write factors as <prefix>.<name>.skpw")
    run.set_defaults(func=_cmd_run)

    bench = sub.add_parser("bench", help="error-vs-time benchmark, records to CSV")
    bench.add_argument("--config", help="flat key=value config file")
    # dests are the config keys, so the flags given override the config file
    bench.add_argument("--data", dest="dataset", help="dataset path or synthetic recipe")
    bench.add_argument("--methods", help="comma-separated method list")
    bench.add_argument("--k", type=int)
    bench.add_argument("--l-values", dest="l_values", help="comma-separated sketch sizes")
    bench.add_argument("--q-max", dest="q_max", type=_at_least(0))
    bench.add_argument("--trials", type=_dimension)
    bench.add_argument("--seed", dest="root_seed", type=int)
    bench.add_argument("--sketch", dest="sketch_kind", choices=list(sketching.SKETCH_KINDS))
    bench.add_argument("--s", type=int)
    bench.add_argument("--out", dest="output")
    bench.add_argument("--workers", type=_dimension)
    bench.add_argument("--verbose", action="store_true")
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify", parents=[sized], help="certify regularized spectral approximation")
    verify.add_argument("--sketch", default="gaussian", choices=list(sketching.SKETCH_KINDS))
    verify.add_argument("--r", type=int, help="explicit sketch size (overrides sizing rule)")
    verify.add_argument("--s", type=int, default=1)
    verify.add_argument("--trials", type=_dimension, default=50)
    verify.add_argument("--threshold", type=float, default=0.9)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"skpower: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
