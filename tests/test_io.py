"""The CLI's text readers and writer against naive line-by-line references.

`load_graph` and the pair-file parser read their tables through one
reader, ``textio.read_table`` (one ``np.loadtxt`` call, then one that
drops whole-line comments, then line by line to name a bad one); `load_measures`
checks each line once and builds its measures without checking them again;
the distance CSV, graph files and the Gram CSV are written by one array
formatter, ``textio.write_rows``.  Each is checked here against the
simplest per-line reading or writing of the same grammar, on generated
files with whole-line comments, blank lines, CRLF endings, comma
separators and malformed lines, and the formatter against per-value
``'%.17g'`` and ``'%d'`` on random bit patterns and every decade.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsobolev import (
    DiscreteMeasure,
    Graph,
    MassNotNormalized,
    NegativeMass,
    NodeOutOfRange,
    ParseError,
    load_graph,
    load_measures,
    random_tree,
    save_graph,
    write_matrix_csv,
)
from gsobolev import textio
from gsobolev.cli import _parse_pairs, _write_distance_csv

EXAMPLES = settings(max_examples=60, deadline=None)

JUNK = ["", "   ", "\t", "# a comment", "  # an indented comment", "#"]


def write_file(directory: str, lines: list[str], ending: str, final: bool) -> str:
    path = os.path.join(directory, "f.txt")
    text = ending.join(lines) + (ending if final else "")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    return path


def significant(path: str) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        return [(k, raw) for k, raw in enumerate(fh, 1) if raw.strip()[:1] not in ("", "#")]


def reference_graph(path: str):
    """``(n, u, v, w)`` of a graph file read one line at a time, or the text
    of the ParseError the grammar calls for."""
    (_, header), *body = significant(path)
    n, m = (int(t) for t in header.split())
    u, v, w = [], [], []
    for k, raw in body:
        tok = raw.split()
        if len(tok) != 3:
            return f"{path}:{k}: edge line must be 'u v w'"
        try:
            u.append(int(tok[0]))
            v.append(int(tok[1]))
            w.append(float(tok[2]))
        except ValueError:
            return f"{path}:{k}: cannot parse edge line"
    if len(body) != m:
        return f"{path}: header promises {m} edges, found {len(body)}"
    for (k, _), a, b in zip(body, u, v):
        if not (0 <= a < n and 0 <= b < n):
            return f"{path}:{k}: node id outside [0, {n})"
    return n, u, v, w


def reference_pairs(path: str, n: int):
    """Sorted distinct ``(min, max)`` pairs of a pair file read one line at
    a time, or the text of the ParseError the grammar calls for."""
    pairs = set()
    with open(path, encoding="utf-8") as fh:
        for k, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            tok = text.replace(",", " ").split()
            try:
                i, j = (int(t) for t in tok)
            except ValueError:
                return f"{path}:{k}: pair line must be 'i j'"
            if not (0 <= i < n and 0 <= j < n):
                return f"{path}:{k}: index outside [0, {n})"
            pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


@st.composite
def decorated(draw, lines: list[str]) -> list[str]:
    """``lines`` with blank and whole-line comment lines slipped in before,
    between and after them."""
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(JUNK), max_size=2))
        out.append(line)
    return out + draw(st.lists(st.sampled_from(JUNK), max_size=2))


def weight_text(draw) -> str:
    w = draw(st.floats(min_value=1e-300, max_value=1e300, allow_nan=False))
    fmt = draw(st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:.0f}"]))
    text = fmt.format(w)
    return text if float(text) > 0.0 else repr(w)


@st.composite
def graph_lines(draw) -> list[str]:
    """Lines of a valid connected graph file: a random spanning tree plus
    chords, edges in random order and orientation, mixed spacing."""
    n = draw(st.integers(1, 9))
    pairs = {(draw(st.integers(0, x - 1)), x) for x in range(1, n)}
    if n > 1:
        chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs |= {(a, b) for a, b in draw(st.lists(chords, max_size=6)) if a < b}
    edges = draw(st.permutations(sorted(pairs)))
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [f"{n}{draw(gap)}{len(edges)}"]
    for a, b in edges:
        if draw(st.booleans()):
            a, b = b, a
        lead, tail = draw(st.sampled_from(["", " "])), draw(st.sampled_from(["", " ", "\t"]))
        lines.append(f"{lead}{a}{draw(gap)}{b}{draw(gap)}{weight_text(draw)}{tail}")
    return lines


BAD_EDGE_LINES = ["0 1", "0 1 1.0 2", "0 x 1.0", "0 1 1.0 # trailing", "0 1.5 1.0", "0 99 1.0"]


class TestGraphFiles:
    @EXAMPLES
    @given(data=st.data(), lines=graph_lines(), crlf=st.booleans(), final=st.booleans())
    def test_matches_line_by_line_reading(self, data, lines, crlf, final):
        text = data.draw(decorated(lines))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_file(tmp, text, "\r\n" if crlf else "\n", final)
            n, u, v, w = reference_graph(path)
            g = load_graph(path)
        assert g.node_count == n
        assert g.edge_u.tolist() == u and g.edge_v.tolist() == v
        assert g.edge_w.tolist() == w

    @EXAMPLES
    @given(
        data=st.data(),
        lines=graph_lines().filter(lambda ls: len(ls) > 1),
        bad=st.sampled_from(BAD_EDGE_LINES),
        crlf=st.booleans(),
    )
    def test_error_names_the_same_line(self, data, lines, bad, crlf):
        at = data.draw(st.integers(1, len(lines) - 1))
        lines[at] = bad
        text = data.draw(decorated(lines))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_file(tmp, text, "\r\n" if crlf else "\n", True)
            expected = reference_graph(path)
            with pytest.raises(ParseError) as err:
                load_graph(path)
        assert str(err.value) == expected

    def test_body_of_comments_only(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 0\n# no edges\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_graph(str(path))
        assert (g.node_count, g.edge_count) == (1, 0)


@st.composite
def pair_lines(draw, n: int) -> list[str]:
    """Pair lines over ``n`` measures: duplicates, reversed pairs and
    ``i == j`` included, with blank or comma separators."""
    idx = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(idx, idx), max_size=25))
    pairs += [(j, i) for i, j in pairs[: draw(st.integers(0, len(pairs)))]]
    seps = st.sampled_from([" ", "\t", ",", ", ", " ,", " , "])
    return [
        f"{draw(st.sampled_from(['', ' ']))}{i}{draw(seps)}{j}{draw(st.sampled_from(['', ' ']))}"
        for i, j in draw(st.permutations(pairs))
    ]


BAD_PAIR_LINES = ["1", "1 2 3", "1 x", "1.0 2", "-1 0", "0 1 # trailing", "{n} 0", "0,{n}"]


class TestPairFiles:
    @EXAMPLES
    @given(
        data=st.data(), n=st.integers(1, 12), crlf=st.booleans(), final=st.booleans(),
        junk=st.booleans(),
    )
    def test_matches_line_by_line_reading(self, data, n, crlf, final, junk):
        lines = data.draw(pair_lines(n))
        if junk:
            lines = data.draw(decorated(lines))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_file(tmp, lines, "\r\n" if crlf else "\n", final)
            expected = reference_pairs(path, n)
            first, second = _parse_pairs(path, n)
        assert list(zip(first.tolist(), second.tolist())) == expected
        assert first.dtype == second.dtype == np.intp

    @EXAMPLES
    @given(data=st.data(), n=st.integers(1, 12), bad=st.sampled_from(BAD_PAIR_LINES))
    def test_error_names_the_same_line(self, data, n, bad):
        lines = data.draw(pair_lines(n))
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, bad.format(n=n))
        lines = data.draw(decorated(lines))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_file(tmp, lines, "\n", True)
            expected = reference_pairs(path, n)
            with pytest.raises(ParseError) as err:
                _parse_pairs(path, n)
        assert str(err.value) == expected

    def test_empty_file(self, tmp_path):
        for text in ("", "\n  \n", "# nothing\n"):
            path = tmp_path / "pairs.txt"
            path.write_text(text)
            first, second = _parse_pairs(str(path), 3)
            assert first.size == second.size == 0

    @pytest.mark.parametrize("bad", ["1_0 2", "\u0661 2", "1 \uff12"])
    @pytest.mark.parametrize("comment", ["", "# c\n"])
    def test_numpy_number_grammar_on_every_path(self, tmp_path, bad, comment):
        # Python's int() reads "1_0" as 10 and non-ASCII digits as digits;
        # the pair grammar is numpy's, with or without a whole-line comment
        path = tmp_path / "pairs.txt"
        path.write_text(f"0 1\n{comment}{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            _parse_pairs(str(path), 20)
        line = 3 if comment else 2
        assert str(err.value) == f"{path}:{line}: pair line must be 'i j'"

    @pytest.mark.parametrize("comment", ["", "# c\n"])
    def test_line_of_commas_is_blank_on_every_path(self, tmp_path, comment):
        path = tmp_path / "pairs.txt"
        path.write_text(f"{comment}0 1\n,\n , ,\n2,1\n")
        first, second = _parse_pairs(str(path), 3)
        assert (first.tolist(), second.tolist()) == ([0, 1], [1, 2])

    def test_index_beyond_int64_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text(f"0 1\n1 {2**63}\n")
        with pytest.raises(ParseError) as err:
            _parse_pairs(str(path), 3)
        assert str(err.value) == f"{path}:2: pair line must be 'i j'"


def reference_measures(path: str, n: int):
    """``(nodes, masses)`` of each measure of a measure file read one line at
    a time, or ``(error class, text)`` of the error the grammar calls for."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for k, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            tok = text.split()
            if len(tok) < 3 or len(tok) % 2 == 0:
                return ParseError, f"{path}:{k}: expected 'id node mass [node mass ...]'"
            try:
                nodes = [int(t) for t in tok[1::2]]
                masses = [float(t) for t in tok[2::2]]
            except ValueError:
                return ParseError, f"{path}:{k}: cannot parse measure {tok[0]!r}"
            if len(set(nodes)) != len(nodes):
                return ParseError, f"{path}:{k}: measure {tok[0]!r} repeats a node"
            for x in nodes:
                if not 0 <= x < n:
                    return NodeOutOfRange, f"{path}:{k}: node {x} outside [0, {n})"
            for x, m in zip(nodes, masses):
                if not math.isfinite(m) or m < 0.0:
                    return NegativeMass, f"{path}:{k}: node {x} carries invalid mass {m!r}"
            total = math.fsum(masses)
            if abs(total - 1.0) > 1e-9:
                return MassNotNormalized, f"{path}:{k}: measure {tok[0]!r} sums to {total!r}"
            out.append((tuple(nodes), tuple(masses)))
    return out


@st.composite
def measure_lines(draw, n: int) -> list[str]:
    """Lines of valid measures on ``n`` nodes, masses summing to one, with
    mixed spacing and number formats."""
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    lines = []
    for k in range(draw(st.integers(0, 6))):
        nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        weights = draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 100.0)),
            min_size=len(nodes), max_size=len(nodes),
        ))
        weights[0] = max(weights[0], 1.0)
        total = math.fsum(weights)
        fmt = draw(st.sampled_from(["{!r}", "{:.17g}"]))
        cells = [f"m{k}"]
        for x, w in zip(nodes, weights):
            cells += [str(x), fmt.format(w / total)]
        lead, tail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(lead + "".join(c + draw(gap) for c in cells[:-1]) + cells[-1] + tail)
    return lines


def path_graph(n: int) -> Graph:
    return Graph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


BAD_MEASURE_LINES = [
    "m", "m 0", "m 0 1.0 1", "m x 1.0", "m 0.5 1.0", "m 0 one", "m 0 1.0 # trailing",
    "m 0 0.5 0 0.5", "m {n} 1.0", "m -1 1.0", "m 0 -0.5 {n} 1.5", "m 0 nan", "m 0 inf",
    "m 0 -inf", "m 0 0.5", "m 0 1.5", "m 0 0.0", "m 0 1e-300",
]


class TestMeasureFiles:
    @EXAMPLES
    @given(data=st.data(), n=st.integers(1, 9), crlf=st.booleans(), final=st.booleans())
    def test_matches_line_by_line_reading(self, data, n, crlf, final):
        lines = data.draw(decorated(data.draw(measure_lines(n))))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_file(tmp, lines, "\r\n" if crlf else "\n", final)
            expected = reference_measures(path, n)
            got = load_measures(path, path_graph(n))
        assert [(mu.nodes, mu.masses) for mu in got] == expected
        for mu in got:
            # as the checking constructor builds it: types, equality, hash
            assert all(type(x) is int for x in mu.nodes)
            assert all(type(m) is float for m in mu.masses)
            again = DiscreteMeasure(mu.nodes, mu.masses)
            assert mu == again and hash(mu) == hash(again)

    @pytest.mark.parametrize("bad", BAD_MEASURE_LINES)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9), crlf=st.booleans())
    def test_error_names_the_same_line(self, bad, data, n, crlf):
        lines = data.draw(measure_lines(n))
        lines.insert(data.draw(st.integers(0, len(lines))), bad.format(n=n))
        lines = data.draw(decorated(lines))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_file(tmp, lines, "\r\n" if crlf else "\n", True)
            expected = reference_measures(path, n)
            with pytest.raises(expected[0]) as err:
                load_measures(path, path_graph(n))
        assert str(err.value) == expected[1]


def per_line_csv(first, second, values) -> bytes:
    lines = ["i,j,distance\n"]
    lines += [f"{i},{j},{d:.17g}\n" for i, j, d in zip(first, second, values)]
    return "".join(lines).encode("utf-8")


class TestDistanceCsv:
    SPECIAL = [0.0, 1e-300, np.nextafter(1e-300, 0.0), np.nextafter(1e-300, 1.0),
               5e-324, 2.2250738585072014e-308, 1.0, 0.1, 1 / 3, 3.0, 1e16,
               1.7976931348623157e308]

    @pytest.mark.parametrize("count", [0, 1, 6, 7, 8, 20])
    def test_block_bytes_equal_per_line_bytes(self, tmp_path, monkeypatch, count):
        monkeypatch.setattr(textio, "CELL_BLOCK", 7)  # two rows per block
        rng = np.random.default_rng(count)
        first = np.sort(rng.integers(0, 10**6, count))
        second = first + rng.integers(0, 10**6, count)
        values = np.concatenate([self.SPECIAL, rng.lognormal(0.0, 30.0, count)])[:count]
        path = str(tmp_path / "d.csv")
        _write_distance_csv(path, first, second, values)
        with open(path, "rb") as fh:
            assert fh.read() == per_line_csv(first.tolist(), second.tolist(), values.tolist())

    def test_default_block_spans_several_blocks(self, tmp_path):
        rng = np.random.default_rng(1)
        count = 2 * (textio.CELL_BLOCK // 3) + 3
        first, second = np.triu_indices(300, 1)
        first, second = first[:count], second[:count]
        values = np.abs(rng.standard_normal(count)) * 10.0 ** rng.integers(-300, 300, count)
        values[:: 97] = 0.0
        path = str(tmp_path / "d.csv")
        _write_distance_csv(path, first, second, values)
        with open(path, "rb") as fh:
            assert fh.read() == per_line_csv(first.tolist(), second.tolist(), values.tolist())


class TestGraphFile:
    @pytest.mark.parametrize("block", [5, 4096])
    def test_block_bytes_equal_per_edge_bytes(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(textio, "CELL_BLOCK", 3 * block)  # `block` rows per block
        g = random_tree(2 * block + 2, seed=block)  # crosses two block boundaries
        path = str(tmp_path / "g.graph")
        save_graph(g, path)
        want = f"{g.node_count} {g.edge_count}\n" + "".join(
            f"{int(u)} {int(v)} {w:.17g}\n" for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)
        )
        with open(path, "rb") as fh:
            assert fh.read() == want.encode("utf-8")


def per_value_matrix_csv(m) -> bytes:
    lines = [f"{len(m)}\n"] + [",".join(f"{x:.17g}" for x in row) + "\n" for row in m.tolist()]
    return "".join(lines).encode("utf-8")


def matrix_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    d = rng.random((9, 9))
    d = d + d.T
    np.fill_diagonal(d, 0.0)
    specials = np.array(
        [[0.0, -0.0, np.inf, 5e-324],
         [0.0, -np.inf, np.nan, 1.7976931348623157e308],
         [np.inf, np.nan, 1.0, -5e-324],
         [-0.0, 1 / 3, -1.7976931348623157e308, 0.1]]
    )
    return {
        "symmetric": np.exp(-1.5 * d**1.5),
        "non-symmetric": rng.lognormal(0.0, 30.0, (7, 7)),
        "signed-zero-mirror": np.array([[1.0, 0.0], [-0.0, 1.0]]),
        "specials": specials,
        "transposed-view": specials.T,
        "empty": np.zeros((0, 0)),
        "one": np.array([[2.5]]),
    }


class TestMatrixCsv:
    @pytest.mark.parametrize("name", list(matrix_cases()))
    def test_bytes_equal_per_value_bytes(self, tmp_path, name):
        m = matrix_cases()[name]
        path = str(tmp_path / "k.csv")
        write_matrix_csv(m, path)
        with open(path, "rb") as fh:
            assert fh.read() == per_value_matrix_csv(m)


def per_value_rows(columns, sep: str) -> bytes:
    """The simplest ``'%d'`` / ``'%.17g'`` writing of ``write_rows``' rows."""
    cols = [c[:, None] if c.ndim == 1 else c for c in columns]
    rows = np.concatenate([c.astype(object) for c in cols], axis=1) if cols[0].size else []
    return "".join(
        sep.join("%.17g" % x if isinstance(x, float) else "%d" % x for x in row) + "\n"
        for row in (r.tolist() for r in rows)
    ).encode()


def written(columns, sep: str = ",") -> tuple[bytes, int]:
    out = io.BytesIO()
    slow = textio.write_rows(out, columns, sep)
    return out.getvalue(), slow


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                  1e-5, 1e-4, 0.5, 1.0, 100.0, 1e16, 1e17, 9.999999999999999e16, 1 / 3]


class TestNumberFormat:
    """``textio.write_rows`` against per-value ``'%.17g'`` and ``'%d'``."""

    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), max_size=60),
        specials=st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=6),
        floats=st.lists(st.floats(), max_size=20),
    )
    def test_float_bit_patterns(self, bits, specials, floats):
        x = np.concatenate([np.array(bits, np.uint64).view(np.float64),
                            np.array(specials + floats, np.float64)])
        got, slow = written((x,))
        assert got == per_value_rows((x,), ",")
        assert 0 <= slow <= x.size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40), st.sampled_from([None, 1, 2]))
    def test_int64(self, values, width):
        v = np.array(values, np.int64)
        table = v if width is None else v[: v.size - v.size % width].reshape(-1, width)
        assert written((table,), " ")[0] == per_value_rows((table,), " ")

    def test_every_decade_boundary(self):
        powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
        x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        x = np.concatenate([x, -x])
        got, _ = written((x.reshape(-1, 6),))
        assert got == per_value_rows((x.reshape(-1, 6),), ",")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_distributions(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([
            rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
            np.exp(-30 * rng.random(20000)), 10 * rng.random(20000),
            10 ** rng.uniform(-14, 46, 20000), rng.standard_normal(20000),
            -(10 ** rng.uniform(-300, 300, 20000)),
        ])
        got, slow = written((np.arange(x.size), x))
        assert got == per_value_rows((np.arange(x.size), x), ",")
        assert slow < x.size

    def test_all_fallback_without_the_80_bit_type(self, monkeypatch):
        rng = np.random.default_rng(2)
        ints, x = rng.integers(-10**6, 10**6, (500, 2)), rng.lognormal(0.0, 30.0, 500)
        want, fast_slow = written((ints, x))
        monkeypatch.setattr(textio, "_EXACT", False)
        got, slow = written((ints, x))
        assert got == want == per_value_rows((ints, x), ",")
        assert slow == x.size > fast_slow

    def test_block_size_does_not_change_bytes(self, monkeypatch):
        rng = np.random.default_rng(4)
        first, second = np.triu_indices(60, 1)
        values = rng.lognormal(0.0, 10.0, first.size)
        values[::13] = 0.0
        table = (np.column_stack((first, second)), values)
        matrix = np.exp(-rng.random((40, 40)) * 30)
        results = []
        for block in (1, 7, textio.CELL_BLOCK):
            monkeypatch.setattr(textio, "CELL_BLOCK", block)
            results.append((written(table), written((matrix,))))
        assert results[0] == results[1] == results[2]
        assert results[0][0][0] == per_value_rows(table, ",")
        assert results[0][1][0] == per_value_rows((matrix,), ",")

    def test_fallback_count(self):
        x = np.array([0.0, 1.5, math.nan, 5e-324, 2.5, 1e300])
        assert written((np.array([7, -10**17, 3, 0, 1, 2]), x)) == (
            per_value_rows((np.array([7, -10**17, 3, 0, 1, 2]), x), ","), 5)


class TestReadTableComments:
    """Whole-line comments keep a table on ``np.loadtxt``'s path."""

    LINES = ["0 1 1.5", "1 2 2.25", "2 3 1e-3", "3 4 7"]

    def test_comments_and_blanks_read_alike_without_the_line_pass(self, tmp_path, monkeypatch):
        plain = tmp_path / "plain.txt"
        plain.write_text("\n".join(self.LINES) + "\n")
        noisy = tmp_path / "noisy.txt"
        noisy.write_text(
            "# head\n\n" + "\n  # inner # twice\n\t\n\x0c\n \x85 # c\n\u3000\n".join(self.LINES)
            + "\n# tail", encoding="utf-8",
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the per-line pass ran")

        monkeypatch.setattr(textio, "_body", refuse)
        dtype = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
        want = textio.read_table(str(plain), dtype, "plain", ("count", "field"))
        got = textio.read_table(str(noisy), dtype, "noisy", ("count", "field"))
        assert got.tobytes() == want.tobytes()
        skipped = tmp_path / "skipped.txt"
        skipped.write_text("5 4 # header\n# c\n" + "\n".join(self.LINES) + "\n")
        got = textio.read_table(str(skipped), dtype, "skipped", ("count", "field"), start=2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad, message", [
        ("2 3 1e-3 # trailing", "t:4: count"), ("2 3 1e-3#x", "t:4: field"),
    ])
    def test_trailing_comment_is_still_named(self, tmp_path, bad, message):
        path = tmp_path / "t.txt"
        path.write_text("# c\n" + "\n".join(self.LINES[:2] + [bad] + self.LINES[3:]) + "\n")
        dtype = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
        with pytest.raises(ParseError) as err:
            textio.read_table(str(path), dtype, "t", ("count", "field"))
        assert str(err.value) == message
