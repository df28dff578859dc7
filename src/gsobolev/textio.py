"""The text grammar of the package's files: which lines count, how a table
of numbers is read, and how rows are written.

Every reader skips blank lines and whole-line ``#`` comments
(:func:`significant_lines`); anything else on a line is data, so a
trailing ``# ...`` after the fields is an error.  Graph bodies and pair
files are tables of whitespace-separated numbers, read by
:func:`read_table` with numpy's parser on every path.  Graph files,
distance CSVs and point files are written by :func:`write_lines`, one
block of lines at a time.
"""

from __future__ import annotations

import functools
import io
import warnings
from contextlib import nullcontext
from itertools import islice
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

import numpy as np

from .errors import ParseError

# Lines per formatted block of a written file (graph file, distance CSV,
# point file).
LINE_BLOCK = 4096

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


def _loadtxt(lines, dtype: np.dtype, skiprows: int = 0) -> np.ndarray:
    # A header-only graph or an empty pair file is valid: no warning.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(
            lines, dtype=dtype, comments=None, skiprows=skiprows, ndmin=1,
            encoding="utf-8",
        )


def read_table(
    source: str | io.StringIO, dtype: np.dtype, name: str,
    errors: tuple[str, str], start: int = 1,
) -> np.ndarray:
    """One ``dtype`` row per significant line of ``source``, a file path or
    an in-memory text, from line ``start`` on.

    The lines go to one ``np.loadtxt`` call, which reads a file in chunks
    and skips blank lines.  If it refuses them (a whole-line comment or a
    bad line), the significant lines go to a second call; if that refuses
    too, each line is read alone and the first bad one raises
    :class:`ParseError` ``"{name}:{line}: {message}"``, with ``errors[0]``
    for a wrong field count and ``errors[1]`` for a field that does not
    parse.
    """
    try:
        return _loadtxt(source, dtype, skiprows=start - 1)
    except ValueError:
        pass
    try:
        return _loadtxt((text for _, text in _body(source, start)), dtype)
    except ValueError as exc:
        refusal = exc
    for lineno, text in _body(source, start):
        if len(text.split()) != len(dtype.names):
            raise ParseError(f"{name}:{lineno}: {errors[0]}")
        try:
            _loadtxt([text], dtype)
        except ValueError:
            raise ParseError(f"{name}:{lineno}: {errors[1]}") from None
    raise ParseError(f"{name}: {refusal}")


def row_line(source: str | io.StringIO, row: int, start: int = 1) -> int:
    """The line number of row ``row`` of the table :func:`read_table` reads
    from ``source`` and ``start``."""
    return next(islice(_body(source, start), row, None))[0]


def write_lines(fh: TextIO, line: str, columns: tuple[np.ndarray, ...]) -> None:
    """Write ``line % row`` for every row of the equal-length ``columns``,
    formatted one block of ``LINE_BLOCK`` lines per ``%`` operation."""
    width, count = len(columns), len(columns[0])
    for start in range(0, count, LINE_BLOCK):
        stop = min(start + LINE_BLOCK, count)
        cells: list = [None] * (width * (stop - start))
        for k, col in enumerate(columns):
            cells[k::width] = col[start:stop].tolist()
        fh.write(line * (stop - start) % tuple(cells))
