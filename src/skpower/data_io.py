"""Matrix ingestion, synthetic generators, binary caching, results CSV.

:func:`load_matrix` is the one way to load a matrix: a synthetic recipe,
a ``.skpw`` file or a MatrixMarket file.  File formats:

* MatrixMarket (``array`` and ``coordinate``, real, general or symmetric),
  with line-numbered parse errors.
* ``.skpw`` binary cache: magic ``SKPW``, one version byte (1), rows and
  cols as unsigned 64-bit little-endian, then rows*cols float64
  little-endian values in row-major order.  Round-trips are bit-exact.
* Trial-record CSV: one column per :class:`TrialRecord` field, in field
  order, typed by its annotation; floats are written as their shortest
  round-trip ``repr``, so round-trips are lossless.

Synthetic generators rotate a prescribed spectrum by Haar-random
orthonormal factors, so the singular values of the output are known by
construction.  :data:`RECIPES` gives each kind's options, their defaults
and its prescribed spectrum, for the generators, the loader and
``skpower gen`` alike.
"""

from __future__ import annotations

import csv
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .linalg import as_matrix
from .sketching import substream

_MAGIC = b"SKPW"
_VERSION = 1


# ---------------------------------------------------------------------------
# synthetic generators and recipes
# ---------------------------------------------------------------------------


class Recipe(NamedTuple):
    """A synthetic matrix kind: its generator, its options and the spectrum it prescribes."""

    generate: Callable[..., np.ndarray]  # (m, n, **options) -> the matrix
    options: dict  # option -> default; the default's type parses a recipe's value
    spectrum: Callable[..., np.ndarray]  # (m, n, **options) -> the singular values the generator rotates


# generators are looked up at call time, so a wrapper installed on gen_polydecay sees the call
RECIPES = {
    "polydecay": Recipe(
        lambda m, n, seed: gen_polydecay(m, n, seed),
        {"seed": 0},
        lambda m, n, **_: max(m, n) / np.arange(1.0, min(m, n) + 1.0),
    ),
    "expdecay": Recipe(
        lambda m, n, rate, seed: gen_expdecay(m, n, rate, seed),
        {"rate": 0.1, "seed": 0},
        lambda m, n, rate, **_: np.exp(-rate * np.arange(min(m, n), dtype=np.float64)),
    ),
    # the spectrum of the rank-r part; noise > 0 adds Gaussian entries on top
    "lowrank": Recipe(
        lambda m, n, rank, noise, seed: gen_lowrank_plus_noise(m, n, rank, noise, seed),
        {"rank": 10, "noise": 0.0, "seed": 0},
        lambda m, n, rank, **_: np.ones(rank),
    ),
}


def _haar_columns(rows: int, cols: int, seed: int) -> np.ndarray:
    """Haar-random matrix with orthonormal columns (QR of a Gaussian,
    sign-fixed R diagonal)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed]))
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _rotate_spectrum(m: int, n: int, spectrum: np.ndarray, seed: int) -> np.ndarray:
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    u = _haar_columns(m, len(spectrum), substream(seed, 0))
    v = _haar_columns(n, len(spectrum), substream(seed, 1))
    return (u * spectrum) @ v.T


def gen_polydecay(m: int, n: int, seed: int) -> np.ndarray:
    """Random m-by-n matrix with singular values max(m, n)/i, i = 1..min(m, n)."""
    return _rotate_spectrum(m, n, RECIPES["polydecay"].spectrum(m, n), seed)


def gen_expdecay(m: int, n: int, rate: float, seed: int) -> np.ndarray:
    """Random m-by-n matrix with singular values exp(-rate * (i - 1))."""
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    return _rotate_spectrum(m, n, RECIPES["expdecay"].spectrum(m, n, rate), seed)


def gen_lowrank_plus_noise(m: int, n: int, r: int, noise: float, seed: int) -> np.ndarray:
    """Rank-r matrix with unit singular values plus ``noise`` * Gaussian entries."""
    if not 1 <= r <= min(m, n):
        raise ValueError(f"need 1 <= r <= min(m, n), got r={r}")
    if noise < 0.0:
        raise ValueError("noise must be >= 0")
    base = _rotate_spectrum(m, n, RECIPES["lowrank"].spectrum(m, n, r), seed)
    if noise > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[substream(seed, 2)]))
        base = base + noise * rng.standard_normal((m, n))
    return base


def load_matrix(source: str) -> np.ndarray:
    """Load ``source``: a synthetic recipe, else a ``.skpw`` file, else a MatrixMarket file.

    A recipe is ``kind:MxN`` followed by ``:key=value`` options of that
    kind, e.g. ``expdecay:300x100:rate=0.05:seed=1``.  Options not given
    take their :data:`RECIPES` defaults; any other segment raises.
    """
    kind, _, rest = source.partition(":")
    if kind in RECIPES:
        dims, *parts = rest.split(":")
        m, _, n = dims.partition("x")
        if not (m.isdigit() and n.isdigit()):
            raise ValueError(f"{source}: expected {kind}:MxN[:key=value...]")
        defaults = RECIPES[kind].options
        options = {}
        for part in parts:
            key, sep, value = part.partition("=")
            if not sep or key not in defaults:
                raise ValueError(
                    f"{source}: bad {kind} option {part!r}; expected key=value with key one of "
                    f"{', '.join(defaults)}"
                )
            options[key] = type(defaults[key])(value)
        return RECIPES[kind].generate(int(m), int(n), **{**defaults, **options})
    if source.endswith(".skpw"):
        return read_binary(source)
    return read_matrix_market(source)


# ---------------------------------------------------------------------------
# MatrixMarket
# ---------------------------------------------------------------------------


def _mm_error(path, lineno: int, message: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: {message}")


def _mm_parse(path, lineno: int, tok: str, kind, what: str):
    """``kind(tok)``, or an error naming ``what`` and the token."""
    try:
        return kind(tok)
    except ValueError:
        raise _mm_error(path, lineno, f"{what} {tok!r}") from None


def _mm_array_entries(path, entries, rows: int, cols: int, symmetric: bool):
    """Yield ``(i, j, value)``: one value per token, column-major, the lower triangle when symmetric."""
    positions = ((i, j) for j in range(cols) for i in range(j if symmetric else 0, rows))
    for lineno, text in entries:
        for tok in text.split():
            position = next(positions, None)
            if position is None:
                raise _mm_error(path, lineno, "more entries than rows*cols")
            yield (*position, _mm_parse(path, lineno, tok, float, "non-real value"))


def _mm_coordinate_entries(path, entries, rows: int, cols: int):
    """Yield ``(i, j, value)``: one ``i j value`` line per entry, 1-based indices."""
    for lineno, text in entries:
        tokens = text.split()
        if len(tokens) != 3:
            raise _mm_error(path, lineno, f"expected 'i j value', got {text!r}")
        i = _mm_parse(path, lineno, tokens[0], int, "invalid row index:")
        j = _mm_parse(path, lineno, tokens[1], int, "invalid column index:")
        value = _mm_parse(path, lineno, tokens[2], float, "non-real value")
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise _mm_error(path, lineno, f"index ({i}, {j}) out of bounds for {rows}x{cols}")
        yield i - 1, j - 1, value


def read_matrix_market(path) -> np.ndarray:
    """Read a real MatrixMarket file (array or coordinate, general or symmetric).

    Symmetric storage is expanded to the full matrix.  Malformed headers,
    out-of-bounds indices, and non-real fields raise ``ValueError`` with
    the offending line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise _mm_error(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise _mm_error(path, 1, f"malformed MatrixMarket header: {lines[0].rstrip()!r}")
    fmt, field_kind, symmetry = (tok.lower() for tok in header[2:5])
    if fmt not in ("array", "coordinate"):
        raise _mm_error(path, 1, f"unsupported format {fmt!r}")
    if field_kind != "real":
        raise _mm_error(path, 1, f"unsupported field {field_kind!r} (only real)")
    if symmetry not in ("general", "symmetric"):
        raise _mm_error(path, 1, f"unsupported symmetry {symmetry!r}")
    symmetric = symmetry == "symmetric"

    # (line number, text) of every line after the header that is neither blank nor a comment
    stripped = enumerate((line.strip() for line in lines[1:]), start=2)
    data = [(lineno, text) for lineno, text in stripped if text and not text.startswith("%")]
    if not data:
        raise _mm_error(path, len(lines), "missing size line")
    (lineno, size_line), entries = data[0], data[1:]
    layout = ("rows", "cols") if fmt == "array" else ("rows", "cols", "nnz")
    size_tokens = size_line.split()
    if len(size_tokens) != len(layout):
        raise _mm_error(path, lineno, f"{fmt} size line must be '{' '.join(layout)}'")
    names = ("row count", "column count", "non-zero count")
    rows, cols, *nnz = (
        _mm_parse(path, lineno, tok, int, f"invalid {what}:") for tok, what in zip(size_tokens, names)
    )
    if rows < 1 or cols < 1 or min(nnz, default=0) < 0:
        raise _mm_error(path, lineno, "sizes must be positive")
    if symmetric and rows != cols:
        raise _mm_error(path, lineno, "symmetric matrices must be square")

    out = np.zeros((rows, cols))
    if fmt == "array":
        decoded = _mm_array_entries(path, entries, rows, cols, symmetric)
    else:
        decoded = _mm_coordinate_entries(path, entries, rows, cols)
    count = 0
    for i, j, value in decoded:
        out[i, j] = value
        if symmetric:
            out[j, i] = value
        count += 1
    expected = nnz[0] if nnz else rows * (rows + 1) // 2 if symmetric else rows * cols
    if count != expected:
        raise _mm_error(path, len(lines), f"expected {expected} entries, got {count}")
    return as_matrix(out, "matrix-market data")


def write_matrix_market(a, path, symmetric: bool = False) -> None:
    """Write a dense real matrix in MatrixMarket array format."""
    a = as_matrix(a, "a")
    rows, cols = a.shape
    if symmetric and rows != cols:
        raise ValueError("symmetric output needs a square matrix")
    symmetry = "symmetric" if symmetric else "general"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix array real {symmetry}\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            start = j if symmetric else 0
            for i in range(start, rows):
                fh.write(f"{float(a[i, j])!r}\n")


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------


def write_binary(a, path) -> None:
    """Write the ``SKPW`` binary cache format (bit-exact round trip)."""
    a = as_matrix(a, "a")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_binary(path) -> np.ndarray:
    """Read a ``SKPW`` binary cache file; truncated or corrupt files raise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 21:
        raise ValueError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    if blob[4] != _VERSION:
        raise ValueError(f"{path}: unsupported version {blob[4]}")
    rows, cols = struct.unpack("<QQ", blob[5:21])
    expected = 21 + rows * cols * 8
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f8", offset=21).reshape(rows, cols)
    return as_matrix(data.astype(np.float64), "binary data")


# ---------------------------------------------------------------------------
# trial records
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    """One benchmark measurement row.

    ``sketch_kind`` is the sketch family the run was given and ``s`` its
    CountSketch fill, read only by CountSketch.  ``time_ms`` is the
    cumulative wall time of the algorithm up to this iterate, so it is
    non-decreasing in ``q_iter`` within one (method, trial) series.
    """

    method: str
    dataset: str
    m: int
    n: int
    k: int
    l: int
    r1: int
    r2: int
    sketch_kind: str
    s: int
    q_iter: int
    eps: float
    seed: int
    trial: int
    time_ms: float
    spec_err: float
    frob_err: float
    rel_err: float


_RECORD_TYPES = get_type_hints(TrialRecord)  # column -> str, int or float, in column order
_RECORD_FIELDS = list(_RECORD_TYPES)


def _record_key(rec: TrialRecord) -> tuple:
    return tuple(
        getattr(rec, name) for name in _RECORD_FIELDS if name not in ("q_iter", "time_ms", "spec_err", "frob_err", "rel_err")
    )


def write_records_csv(records, path) -> list[TrialRecord]:
    """Write trial records with the canonical column order (lossless floats); returns them.

    Each row is flushed as ``records`` yields it, so the rows written
    before a failing iterable raises stay in the file.
    """
    written = []
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_FIELDS)
        fh.flush()
        for rec in records:
            writer.writerow(_format_record(rec))  # looked up at each call, so a wrapper on it sees the call
            fh.flush()
            written.append(rec)
    return written


def _format_record(rec: TrialRecord) -> list[str]:
    # str of a float is its shortest round-trip repr
    return [str(kind(getattr(rec, name))) for name, kind in _RECORD_TYPES.items()]


def read_records_csv(path) -> list[TrialRecord]:
    """Read trial records; validates the header and time_ms monotonicity."""
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != _RECORD_FIELDS:
            want, got = Counter(_RECORD_FIELDS), Counter(header)  # a repeated column counts as unexpected
            fault = f"missing {sorted((want - got).elements())}, unexpected {sorted((got - want).elements())}"
            raise ValueError(f"{path}: bad header {header}, {fault if want != got else 'columns out of order'}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_RECORD_FIELDS):
                raise ValueError(f"{path}:{lineno}: expected {len(_RECORD_FIELDS)} fields")
            values = zip(_RECORD_TYPES.items(), row)
            records.append(TrialRecord(**{name: kind(tok) for (name, kind), tok in values}))
    last_time: dict[tuple, float] = {}
    for rec in records:
        key = _record_key(rec)
        if key in last_time and rec.time_ms < last_time[key]:
            raise ValueError(
                f"{path}: time_ms decreases within series {rec.method}/trial {rec.trial}"
            )
        last_time[key] = rec.time_ms
    return records
