"""The text grammar of the package's files: which lines count, how a table
of numbers is read, and how rows are written.

Every reader skips blank lines and whole-line ``#`` comments
(:func:`significant_lines`); anything else on a line is data, so a
trailing ``# ...`` after the fields is an error.  Graph bodies and pair
files are tables of whitespace-separated numbers, read by
:func:`read_table` with numpy's parser on every path.  Graph files,
distance CSVs, Gram CSVs and point files are written by
:func:`write_rows`, which formats whole blocks of numbers with array
operations, byte-identical to ``'%d'`` and ``'%.17g'``.
"""

from __future__ import annotations

import functools
import io
import math
import warnings
from contextlib import nullcontext
from itertools import islice
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import ParseError

# Numbers per formatted block of a written file: a block holds this many
# numbers, or one row when a row holds more.
CELL_BLOCK = 1 << 14

_Loader = TypeVar("_Loader", bound=Callable)


def utf8_input(load: _Loader) -> _Loader:
    """Decorate a loader whose first argument is a text file's path: a byte
    that is not UTF-8 raises :class:`ParseError` naming the file and line,
    not :class:`UnicodeDecodeError`."""

    @functools.wraps(load)
    def wrapped(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except UnicodeDecodeError:
            with open(path, "rb") as fh:
                data = fh.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = data.count(b"\n", 0, exc.start) + 1
                raise ParseError(f"{path}:{lineno}: not UTF-8 text") from None
            raise

    return wrapped  # type: ignore[return-value]


def significant_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of the ``lines``, numbered from ``start``,
    that are neither blank nor a whole-line ``#`` comment."""
    for lineno, raw in enumerate(lines, start):
        if raw.strip()[:1] not in ("", "#"):
            yield lineno, raw


def _body(source: str | io.StringIO, start: int) -> Iterator[tuple[int, str]]:
    """The significant lines of a file path or an in-memory text, from
    line ``start`` on."""
    if isinstance(source, str):
        opened = open(source, "r", encoding="utf-8")
    else:
        source.seek(0)
        opened = nullcontext(source)
    with opened as fh:
        yield from significant_lines(islice(fh, start - 1, None), start)


def _loadtxt(lines, dtype: np.dtype, skiprows: int = 0, comments: str | None = None) -> np.ndarray:
    # A header-only graph or an empty pair file is valid: no warning.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(
            lines, dtype=dtype, comments=comments, skiprows=skiprows, ndmin=1,
            encoding="utf-8",
        )


def _whole_line_comments(text: str, start: int) -> bool:
    """Whether every ``#`` of ``text`` from line ``start`` on opens a
    whole-line comment: only blanks before it on its line."""
    pos = 0
    for _ in range(start - 1):
        pos = text.find("\n", pos) + 1
        if not pos:
            return True
    while (pos := text.find("#", pos)) >= 0:
        if text[text.rfind("\n", 0, pos) + 1:pos].strip():
            return False
        pos = text.find("\n", pos)
        if pos < 0:
            break
    return True


def read_table(
    source: str | io.StringIO, dtype: np.dtype, name: str,
    errors: tuple[str, str], start: int = 1,
) -> np.ndarray:
    """One ``dtype`` row per significant line of ``source``, a file path or
    an in-memory text, from line ``start`` on.

    The lines go to one ``np.loadtxt`` call, which reads a file in chunks
    and skips blank lines.  If it refuses them (a whole-line comment or a
    bad line) and every ``#`` opens a whole-line comment, the text goes to
    a second call that drops comments; if that refuses too, or a ``#``
    trails data, each line is read alone and the first bad one raises
    :class:`ParseError` ``"{name}:{line}: {message}"``, with ``errors[0]``
    for a wrong field count and ``errors[1]`` for a field that does not
    parse.
    """
    try:
        return _loadtxt(source, dtype, skiprows=start - 1)
    except ValueError as exc:
        refusal = exc
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.getvalue()
    if _whole_line_comments(text, start):
        try:
            return _loadtxt(io.StringIO(text), dtype, skiprows=start - 1, comments="#")
        except ValueError as exc:
            refusal = exc
    for lineno, line in _body(source, start):
        if len(line.split()) != len(dtype.names):
            raise ParseError(f"{name}:{lineno}: {errors[0]}")
        try:
            _loadtxt([line], dtype)
        except ValueError:
            raise ParseError(f"{name}:{lineno}: {errors[1]}") from None
    raise ParseError(f"{name}: {refusal}")


def row_line(source: str | io.StringIO, row: int, start: int = 1) -> int:
    """The line number of row ``row`` of the table :func:`read_table` reads
    from ``source`` and ``start``."""
    return next(islice(_body(source, start), row, None))[0]


# Exact decimal output (after Loitsch's Grisu3: a fast path that knows when
# to give up).  A float64 x whose '%.17g' has the decimal exponent E prints
# the 17 digits of R = |x| * 10**(16 - E) rounded to an integer.  The x87
# 80-bit longdouble holds 10**k exactly for k <= 27 (5**27 < 2**63), so the
# longdouble |x| * 10**(16 - E) (or / 10**(E - 16)) is one rounding from the
# exact value, which is below 2**57: an error of at most 2**-8.  Its integer
# rounding is therefore R unless its fraction lies within _TIE of 1/2.
# Such a value goes to Python's '%.17g', as does every value out of the
# table's reach (|16 - E| > 27: zeros, subnormals, inf and nan among them)
# and, where the longdouble is not the 80-bit type, every value.
_TIE = 2.0**-7
_EXACT = np.finfo(np.longdouble).nmant >= 63


def _decade(k: int) -> float:
    """The least float64 at least 10**k."""
    d = 10**k / 1 if k >= 0 else 1 / 10**-k  # correctly rounded
    p, q = d.as_integer_ratio()
    return math.nextafter(d, math.inf) if p * 10**max(-k, 0) < q * 10**max(k, 0) else d


# E + 11 of |x| in [10**-11, 10**44) is the count of these at most |x|, less
# one.  A binade spans less than a decade, so it is that of the binade's
# least float64, or one more.
_DECADES = np.array([_decade(k) for k in range(-11, 45)])
_NEXT = np.append(_DECADES, math.inf)
_BINADE = np.searchsorted(
    _DECADES, np.ldexp(1.0, np.arange(-1023, 1025).clip(-1022, 1023)), side="right"
) - 1
_POW10 = np.array([10**k for k in range(28)], dtype=np.longdouble)
_MUL = _POW10[np.maximum(27 - np.arange(55), 0)]  # by E + 11
_DIV = _POW10[np.maximum(np.arange(55) - 27, 0)]

# The four ASCII digits of 0..9999 as one uint32 each, in three copies by
# index: + 0 with trailing zeros NUL, + 10000 as is, + 20000 with leading
# zeros NUL.  Every NUL byte is deleted from a written block, so a field
# may leave any of its bytes NUL.
_k = np.arange(10000)
_d = np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(48)  # of _k
_p = np.array([[1000], [100], [10], [1]])  # the place of each digit
_DIGITS4 = np.concatenate(
    [_d * (_k % (10 * _p) != 0), _d, _d * (_k >= _p)], axis=1
).T.copy().view("<u4").ravel()
del _k, _d, _p

# '%.17g' lays out fixed notation for -4 <= E < 17, else d.ddde+XX.
_FLOAT_FIELD = 24  # the longest '%.17g' of a float64: -2.2250738585072014e-308
_LEADING = {e: np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8) for e in range(-4, 0)}
_EXPONENT = {e: np.frombuffer(b"e%+03d" % e, np.uint8) for e in (*range(-11, -4), *range(17, 44))}


def _digits(r: np.ndarray, groups: int, lead: bool) -> np.ndarray:
    """The ``4 * groups`` decimal digits of each int64 ``r``, as ASCII bytes
    in rows, with the number's leading zeros (``lead``) or its trailing
    zeros NUL."""
    g = np.empty((groups, r.size), np.int64)
    g[0] = r
    for k in range(groups - 1, 0, -1):
        np.divmod(g[0], 10000, out=(g[0], g[k]))
    # A group keeps its zeros past a nonzero group: before it (``lead``) or
    # after it.
    past = g[:-1] != 0 if lead else g[:0:-1] != 0
    for k in range(1, groups - 1):
        past[k] |= past[k - 1]
    if lead:
        g += 20000
        g[1:] -= 10000 * past
    else:
        g[:-1] += 10000 * past[::-1]
    return np.take(_DIGITS4, g.T).view(np.uint8)


def _fallback(out: np.ndarray, values: np.ndarray, slow: np.ndarray, form: str) -> None:
    """Write ``form % value`` for ``values[slow]`` into the rows ``slow`` of
    ``out``."""
    text = (form + " ") * slow.size % tuple(values[slow].tolist())
    width = out.shape[1] - 1
    out[slow, :width] = np.array(text.split(), f"S{width}").view(np.uint8).reshape(-1, width)


def _float_fields(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``'%.17g'`` of each float64 ``x`` in a row of ``_FLOAT_FIELD + 1``
    bytes (the last one for the separator), and how many went to Python."""
    a = np.abs(x)
    fast = (a >= _DECADES[0]) & (a < _DECADES[-1]) & _EXACT
    a = np.where(fast, a, 1.0)
    e = _BINADE[a.view(np.int64) >> 52]
    e += a >= _NEXT[e + 1]  # E + 11
    s = a.astype(np.longdouble) * _MUL[e] / _DIV[e]
    r = s.astype(np.int64)
    frac = (s - r).astype(np.float64)  # within 2**-54 of the longdouble one
    fast &= np.abs(frac - 0.5) >= _TIE
    r += frac > 0.5
    fast &= r < 10**17  # no float64 in range rounds up to the next decade

    # The rows sorted by E: each E class is a slice, laid out by columns.
    order = np.argsort(e.astype(np.uint8), kind="stable")  # a radix sort
    d = _digits(r[order], 5, lead=False)[:, 3:]
    fields = np.zeros((x.size, _FLOAT_FIELD + 1), np.uint8)
    lo = 0
    for exp, count in zip(range(-11, 44), np.bincount(e, minlength=55).tolist()):
        if not count:
            continue
        f, digits = fields[lo:lo + count], d[lo:lo + count]
        lo += count
        if 0 <= exp < 17:  # ddd.ddd: zeros before the point stay
            np.maximum(digits[:, :exp + 1], 48, out=f[:, 1:exp + 2])
            if exp < 16:
                f[:, exp + 2] = 46 * (digits[:, exp + 1] != 0)
                f[:, exp + 3:19] = digits[:, exp + 1:]
        elif -4 <= exp < 0:  # 0.000ddd
            f[:, 1:2 - exp] = _LEADING[exp]
            f[:, 2 - exp:19 - exp] = digits
        else:  # d.ddde+XX
            f[:, 1] = digits[:, 0]
            f[:, 2] = 46 * (digits[:, 1] != 0)
            f[:, 3:19] = digits[:, 1:]
            f[:, 19:23] = _EXPONENT[exp]
    back = np.empty_like(order)
    back[order] = np.arange(x.size)
    out = np.take(fields, back, axis=0)
    out[:, 0] = 45 * (x < 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        _fallback(out, x, slow, "%.17g")
    return out, slow.size


def _int_fields(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``'%d'`` of each int64 ``v`` in a row as wide as the longest one,
    plus one byte for the separator, and how many went to Python."""
    lo, hi = (int(v.min()), int(v.max())) if v.size else (0, 0)
    width = len(str(max(-lo, hi))) + (lo < 0)
    fast = (v > -10**16) & (v < 10**16)
    count = min(width - (lo < 0), 16)  # digits of the widest fast value
    groups = -(-count // 4)
    out = np.zeros((v.size, width + 1), np.uint8)
    digits = _digits(np.abs(np.where(fast, v, 0)), groups, lead=True)
    out[:, width - count:width] = digits[:, 4 * groups - count:]
    out[:, width - 1] |= 48  # the last digit of 0
    if lo < 0:
        out[:, 0] = 45 * (v < 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        _fallback(out, v, slow, "%d")
    return out, slow.size


def write_rows(fh: BinaryIO, columns: tuple[np.ndarray, ...], sep: str) -> int:
    """Write each row of ``columns`` (arrays of equal length: 1-D for one
    column, 2-D for several) as its numbers joined by ``sep`` and a
    newline: ints as ``'%d'``, floats as ``'%.17g'``.  Rows are formatted
    and written in blocks of about ``CELL_BLOCK`` numbers.  Returns how many
    numbers were formatted by Python rather than by the array path."""
    parts = [c[:, None] if c.ndim == 1 else c for c in columns]
    rows, width = len(parts[0]), sum(p.shape[1] for p in parts)
    step = max(1, CELL_BLOCK // max(width, 1))
    slow = 0
    for start in range(0, rows, step):
        fields = []
        for part in parts:
            block = part[start:start + step]
            if block.dtype.kind == "f":
                f, count = _float_fields(block.ravel().astype(np.float64, copy=False))
            else:
                f, count = _int_fields(block.ravel().astype(np.int64, copy=False))
            f[:, -1] = ord(sep)
            fields.append(f.reshape(len(block), -1))
            slow += count
        line = fields[0] if len(fields) == 1 else np.concatenate(fields, axis=1)
        line[:, -1] = 10
        fh.write(line.tobytes().translate(None, b"\0"))
    return slow
