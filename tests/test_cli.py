"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import gsobolev
from gsobolev import (
    Graph,
    GSobolevError,
    NonConvergence,
    GramSpec,
    KERNEL_EXP,
    KERNEL_EXP_POW,
    gram_matrix,
    beta_weights,
    gamma_masses,
    load_graph,
    load_measures,
    min_eigenvalue,
    pair_distances,
    prepare_root,
    random_measures,
    random_tree,
    sample_roots,
    save_graph,
    SizeLimitExceeded,
    save_measures,
    sliced_distance,
    VARIANT_SOBOLEV_IPM,
)
from gsobolev import cli as cli_module
from gsobolev import measures as measures_module
from gsobolev.cli import (
    VARIANT_FLAGS, _MEASURE_BYTES, _POINT_BYTES, _parse_p, _parse_root, _sample_pairs, CliError,
    main,
)
from gsobolev.kernels import quadratic_form_violations
from gsobolev.synth import PointCloud, build_random_graph
from gsobolev.verify import SuiteReport, SuiteCheck
from conftest import read_matrix_csv, traced_peak


@pytest.fixture()
def files(tmp_path):
    """Unit path graph and its three dirac measures, on disk."""
    graph = tmp_path / "g.txt"
    graph.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    measures = tmp_path / "m.txt"
    measures.write_text("m0 0 1.0\nm1 1 1.0\nm2 2 1.0\n")
    return {
        "graph": str(graph),
        "measures": str(measures),
        "dir": tmp_path,
    }


def read_distance_csv(path):
    rows = {}
    with open(path) as fh:
        assert fh.readline().strip() == "i,j,distance"
        for line in fh:
            i, j, d = line.strip().split(",")
            rows[(int(i), int(j))] = float(d)
    return rows


class TestParsers:
    def test_parse_p(self):
        assert _parse_p("1.5") == 1.5
        assert _parse_p("inf") == math.inf
        assert _parse_p("Infinity") == math.inf
        with pytest.raises(CliError):
            _parse_p("zero")

    def test_parse_root(self):
        assert _parse_root("3") == (3,)
        assert _parse_root("sliced:4:7") == ("sliced", 4, 7)
        for bad in ("sliced:4", "sliced:a:b", "sliced:0:1", "x"):
            with pytest.raises(CliError):
                _parse_root(bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "--graph", "G", "--measures", "M", "--seed", "-1", "--out", "O"],
            ["bench", "--seed", "-1", "--out", "O"],
            ["synth", "--seed", "-3", "--out-prefix", "O"],
            ["distance", "--graph", "G", "--measures", "M", "--root", "sliced:2:-1", "--out", "O"],
            ["verify", "--seed", "-1"],
            ["distance", "--graph", "G", "--measures", "M", "--seed", "1", "--out", "O"],
        ],
    )
    def test_bad_seed_exits_two(self, files, capsys, argv):
        # a negative seed is refused before numpy sees it; distance takes none
        names = {"G": files["graph"], "M": files["measures"], "O": str(files["dir"] / "o")}
        try:
            code = main([names.get(a, a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "--p", "0.5"],
            ["distance", "--p", "nan"],
            ["distance", "--variant", "st", "--p", "inf"],
            ["gram", "--p", "inf"],
            ["gram", "--p", "3"],
            ["gram", "--t", "0"],
            ["gram", "--t", "inf"],
            ["gram", "--t=-inf"],
            ["gram", "--t", "nan"],
            ["bench", "--p", "inf"],
            ["bench", "--p", "0.5"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
    )
    def test_order_and_bandwidth_rules_exit_two(self, files, monkeypatch, capsys, argv):
        # the library's own validators refuse these flag values, before any
        # file is read
        def unread(path):
            raise AssertionError(f"{path} read before the flags were checked")

        monkeypatch.setattr(gsobolev.cli, "load_graph", unread)
        before = sorted(os.listdir(files["dir"]))
        inputs = ["--graph", files["graph"], "--measures", files["measures"]]
        out = ["--out", str(files["dir"] / "o")]
        assert main(argv[:1] + (inputs if argv[0] != "bench" else []) + argv[1:] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(os.listdir(files["dir"])) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--support-size", "0", "--out-prefix", "O"],
            ["synth", "--m", "5", "--points", "10", "--support-size", "6", "--out-prefix", "O"],
            ["synth", "--support-size", "-2", "--out-prefix", "O"],
            ["bench", "--support-size", "0", "--out", "O"],
            ["bench", "--sizes", "10", "--support-size", "11", "--out", "O"],
        ],
    )
    def test_support_size_out_of_range_exits_two(self, tmp_path, capsys, argv):
        # a flag error, refused before any instance is built or file written
        out = str(tmp_path / "o")
        assert main([out if a == "O" else a for a in argv]) == 2
        assert "--support-size must be in [1, " in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv,written",
        [
            (["distance", "--graph", "G", "--measures", "M", "--out", "X/d.csv"], "X/d.csv"),
            (["gram", "--graph", "G", "--measures", "M", "--out", "X/k.csv"], "X/k.csv"),
            (["gram", "--graph", "G", "--measures", "M", "--out", "X/k.csv"], "X/k.csv.json"),
            (["bench", "--sizes", "10", "--out", "X/b.csv"], "X/b.csv"),
            (["verify", "--suite", "tree", "--out", "X/v.json"], "X/v.json"),
            (["synth", "--m", "10", "--points", "20", "--out-prefix", "X/i"], "X/i.graph"),
            (["synth", "--m", "10", "--points", "20", "--out-prefix", "X/i"], "X/i.measures"),
        ],
    )
    def test_output_in_missing_directory_exits_two(self, files, capsys, argv, written):
        missing = str(files["dir"] / "missing")
        names = {"G": files["graph"], "M": files["measures"]}
        argv = [names.get(a, a.replace("X", missing)) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: output directory not found: {missing}\n"
        # the directory exists, but an output file path names a directory:
        # refused before any output is written
        os.makedirs(written.replace("X", missing))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: output path is a directory: ")
        assert os.listdir(missing) == [os.path.basename(written)]


class TestDistanceCommand:
    def test_all_pairs_order_one(self, files):
        out = str(files["dir"] / "d.csv")
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--root", "0", "--p", "1", "--out", out,
        ])
        assert code == 0
        rows = read_distance_csv(out)
        assert rows == {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 1.0}

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "beside-old-output"])
    def test_failed_write_changes_no_file(self, files, monkeypatch, existing):
        # the CSV goes out one pair a block; the disk fills after the first
        real = cli_module.write_rows
        calls = []

        def fill_up(fh, columns, sep):
            calls.append(real(fh, columns, sep))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return calls[-1]

        monkeypatch.setattr(cli_module, "CELL_BLOCK", 1)
        monkeypatch.setattr(cli_module, "write_rows", fill_up)
        out = files["dir"] / "d.csv"
        if existing:
            out.write_text("an earlier run's output\n")
        before = {f.name: f.read_bytes() for f in files["dir"].iterdir()}
        with pytest.raises(OSError):
            main(["distance", "--graph", files["graph"], "--measures", files["measures"],
                  "--out", str(out)])
        assert len(calls) == 2
        assert {f.name: f.read_bytes() for f in files["dir"].iterdir()} == before

    def test_output_mode_is_that_of_open(self, files):
        # a new file gets 0o666 less the umask; a replaced one keeps its mode
        out = files["dir"] / "d.csv"
        argv = ["distance", "--graph", files["graph"], "--measures", files["measures"],
                "--out", str(out)]
        mask = os.umask(0o027)
        try:
            assert main(argv) == 0
        finally:
            os.umask(mask)
        assert out.stat().st_mode & 0o777 == 0o640
        out.chmod(0o604)
        assert main(argv) == 0
        assert out.stat().st_mode & 0o777 == 0o604
        assert sorted(f.name for f in files["dir"].iterdir()) == ["d.csv", "g.txt", "m.txt"]

    def test_output_through_a_link_replaces_its_target(self, files):
        target = files["dir"] / "target.csv"
        target.write_text("old\n")
        link = files["dir"] / "link.csv"
        link.symlink_to(target)
        assert main(["distance", "--graph", files["graph"], "--measures", files["measures"],
                     "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text().startswith("i,j,distance\n")

    def test_output_to_a_device_is_written_in_place(self, files):
        # a path that is no regular file is opened as it is, never replaced
        folder, name = os.path.split(os.devnull)
        assert main(["distance", "--graph", files["graph"], "--measures", files["measures"],
                     "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert not [f for f in os.listdir(folder) if f.startswith(f".{name}.")]

    def test_summary_counts_numbers_formatted_by_python(self, files, capsys):
        # 1e-12 is below the array formatter's range; the other two are in it.
        (files["dir"] / "g.txt").write_text("3 2\n0 1 1e-12\n1 2 1.0\n")
        out = str(files["dir"] / "d.csv")
        assert main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--root", "0", "--p", "1", "--out", out,
        ]) == 0
        err = capsys.readouterr().err
        assert re.search(r" ms, peak RSS \d+\.\d MB, 1 number\(s\) formatted by Python -> ", err)
        assert main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "2", "--t", "1e6", "--out", out,
        ]) == 0
        # The four entries of the pairs with measure 2 underflow to 0.0.
        err = capsys.readouterr().err
        assert re.search(r", peak RSS \d+\.\d MB, 4 number\(s\) formatted by Python -> ", err)
        assert (read_matrix_csv(out) == 0.0).sum() == 4

    def test_pairs_file_deduplicated(self, files):
        pairs = files["dir"] / "pairs.txt"
        pairs.write_text("# wanted\n0 1\n1,0\n2 1\n")
        out = str(files["dir"] / "d.csv")
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--pairs", str(pairs), "--p", "2", "--out", out,
        ])
        assert code == 0
        rows = read_distance_csv(out)
        assert set(rows) == {(0, 1), (1, 2)}
        assert rows[(1, 2)] == pytest.approx(0.8325546111576977, rel=1e-15)

    def test_sliced_root(self, files):
        out = str(files["dir"] / "d.csv")
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--root", "sliced:2:0", "--p", "1", "--out", out,
        ])
        assert code == 0
        assert len(read_distance_csv(out)) == 3

    @pytest.mark.parametrize("p", ["1", "1.5", "2", "inf"])
    def test_sliced_root_matches_sliced_distance(self, tmp_path, p):
        prefix = str(tmp_path / "inst")
        assert main([
            "synth", "--points", "600", "--m", "300", "--count", "30",
            "--support-size", "6", "--seed", "3", "--out-prefix", prefix,
        ]) == 0
        out = str(tmp_path / "d.csv")
        assert main([
            "distance", "--graph", prefix + ".graph", "--measures", prefix + ".measures",
            "--root", "sliced:4:3", "--p", p, "--out", out,
        ]) == 0
        g = load_graph(prefix + ".graph")
        ms = load_measures(prefix + ".measures", g)
        roots, prepared = sample_roots(g, 4, 3), {}
        order = _parse_p(p)
        for (i, j), d in read_distance_csv(out).items():
            assert d == sliced_distance(g, roots, ms[i], ms[j], order, prepared=prepared)

    def test_transport_variant(self, files):
        out = str(files["dir"] / "d.csv")
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--variant", "st", "--p", "2", "--out", out,
        ])
        assert code == 0
        rows = read_distance_csv(out)
        assert rows[(0, 2)] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_infinity_order(self, files):
        out = str(files["dir"] / "d.csv")
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "inf", "--out", out,
        ])
        assert code == 0
        rows = read_distance_csv(out)
        assert rows[(0, 1)] == 0.5

    def test_pair_file_matches_all_pairs_bytes(self, tmp_path):
        prefix = str(tmp_path / "inst")
        assert main([
            "synth", "--points", "200", "--m", "40", "--count", "12",
            "--support-size", "4", "--seed", "3", "--out-prefix", prefix,
        ]) == 0
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("".join(f"{j} {i}\n" for i in range(12) for j in range(i + 1, 12)))
        for p in ("1", "1.5", "2", "inf"):
            outs = []
            for source in ("all", str(pairs)):
                out = tmp_path / "d.csv"
                assert main([
                    "distance", "--graph", prefix + ".graph",
                    "--measures", prefix + ".measures", "--root", "sliced:3:1",
                    "--p", p, "--pairs", source, "--out", str(out),
                ]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], p

    def test_malformed_pair_line(self, files):
        pairs = files["dir"] / "pairs.txt"
        pairs.write_text("0 1\n0 x\n")
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--pairs", str(pairs), "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 3

    def test_pair_file_with_self_pairs(self, files):
        pairs = files["dir"] / "pairs.txt"
        pairs.write_bytes(b"# wanted\r\n2, 0\r\n\r\n1 1\r\n0,2\r\n")
        out = files["dir"] / "d.csv"
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--pairs", str(pairs), "--p", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text() == "i,j,distance\n0,2,2\n1,1,0\n"

    def test_sliced_root_count_above_node_count(self, files):
        for command in ("distance", "gram"):
            code = main([
                command, "--graph", files["graph"], "--measures", files["measures"],
                "--root", "sliced:10:0", "--out", str(files["dir"] / "d.csv"),
            ])
            assert code == 2, command

    def test_missing_graph_file(self, files):
        code = main([
            "distance", "--graph", str(files["dir"] / "nope.txt"),
            "--measures", files["measures"], "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 2

    def test_root_out_of_range(self, files):
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--root", "9", "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 2

    def test_bad_measure_data(self, files):
        bad = files["dir"] / "bad.txt"
        bad.write_text("m0 7 1.0\n")
        code = main([
            "distance", "--graph", files["graph"], "--measures", str(bad),
            "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("kind", ["graph", "measures", "pairs"])
    def test_non_utf8_byte_is_a_data_error(self, files, capsys, kind):
        paths = dict(files)
        paths["pairs"] = str(files["dir"] / "pairs.txt")
        text = {"graph": b"3 2\n0 1 1.0\n1 2 1.0\n", "measures": b"m0 0 1.0\nm1 1 1.0\n",
                "pairs": b"0 1\n"}[kind]
        with open(paths[kind], "wb") as fh:
            fh.write(text + b"# caf\xe9\n")
        open(paths["pairs"], "ab").close()
        code = main([
            "distance", "--graph", paths["graph"], "--measures", paths["measures"],
            "--pairs", paths["pairs"], "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 3
        line = text.count(b"\n") + 1
        assert capsys.readouterr().err == f"data error: {paths[kind]}:{line}: not UTF-8 text\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("m0 7 1.0", "node 7 outside [0, 3)"),
            ("m0 -1 1.0", "negative node id -1"),
            ("m0 0 0.5 0 0.5", "support nodes must be distinct"),
            ("m0 0 one", "could not convert string to float: 'one'"),
            ("m0 0 -0.5 1 1.5", "node 0 carries invalid mass -0.5"),
            ("m0 0 0.7 1 0.7", "masses sum to 1.4, expected 1"),
        ],
    )
    def test_measure_refusal_names_file_line_and_label(self, files, capsys, line, message):
        bad = files["dir"] / "bad.txt"
        bad.write_text(f"# two measures\nm1 1 1.0\n{line}\n")
        code = main([
            "distance", "--graph", files["graph"], "--measures", str(bad),
            "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {bad}:3: measure 'm0': {message}\n"

    @pytest.mark.parametrize("command", ["distance", "gram"])
    def test_no_measures_is_a_configuration_error(self, files, capsys, command):
        empty = files["dir"] / "empty.txt"
        empty.write_text("# no measures\n\n")
        out = files["dir"] / "o.csv"
        code = main([
            command, "--graph", files["graph"], "--measures", str(empty), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: no measures in {empty}\n"
        assert not out.exists()

    def test_unnormalized_measure_data(self, files):
        bad = files["dir"] / "bad.txt"
        bad.write_text("m0 0 0.7 1 0.7\n")
        code = main([
            "distance", "--graph", files["graph"], "--measures", str(bad),
            "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 3


class TestImpossibleHeader:
    def test_too_few_edges_exit_three_before_allocating(self, files, capsys):
        # 1e13 nodes cannot be joined by 0 edges: refused before any n-sized array
        graph = files["dir"] / "huge.graph"
        graph.write_text("10000000000000 0\n")
        out = files["dir"] / "d.csv"
        code, peak, _ = traced_peak(lambda: main([
            "distance", "--graph", str(graph), "--measures", files["measures"],
            "--out", str(out),
        ]))
        assert code == 3
        err = capsys.readouterr().err
        assert err == "data error: graph has 10000000000000 components, expected 1\n"
        assert "Traceback" not in err
        assert peak < 1 << 20
        assert not out.exists()

    def test_nodes_past_int64_keys_exit_three(self, files, monkeypatch, capsys):
        # a connected graph whose pair keys would overflow int64 is refused
        monkeypatch.setattr(gsobolev.graph, "_KEYED_NODES", 2)
        with pytest.raises(SizeLimitExceeded, match="graph has 3 nodes, above the 2 "):
            load_graph(files["graph"])
        out = files["dir"] / "d.csv"
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: graph has 3 nodes") and "Traceback" not in err
        assert not out.exists()


class TestNumericRefusals:
    """Lengths that pass the graph's own checks but overflow, or round away,
    in the root-path or downstream sums exit 3 before any output is opened."""

    LEAVES = "".join(f"1 {k} 1e307\n" for k in range(2, 22))

    @pytest.mark.parametrize(
        "graph, message",
        [
            ("3 2\n0 1 1e308\n1 2 1e308\n",
             "root 0: node 2 at distance inf has no shortest-path parent"),
            ("3 2\n0 1 1\n1 2 1e-17\n",
             "root 0: node 2 at distance 1.0 has no shortest-path parent"),
            ("22 21\n0 1 1\n" + LEAVES,
             "root 0: edge 0 (0-1) has downstream length inf"),
        ],
        ids=["distance-overflow", "step-rounds-away", "lambda-overflow"],
    )
    @pytest.mark.parametrize("command", [["distance", "--pairs", "all"], ["gram"]])
    def test_exits_three_without_output(self, tmp_path, capsys, graph, message, command):
        (tmp_path / "g.txt").write_text(graph)
        (tmp_path / "m.txt").write_text("a 0 1\nb 2 1\n")
        out = tmp_path / "o.csv"
        assert main([
            *command, "--graph", str(tmp_path / "g.txt"), "--measures", str(tmp_path / "m.txt"),
            "--p", "1.5", "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["g.txt", "m.txt"]

    @pytest.mark.parametrize("p", ["1", "1.5", "2", "3", "inf"])
    def test_lengths_near_float_max_are_accepted_when_lambda_is_finite(self, tmp_path, p):
        # the long edge's shares do not overflow: lambda is [1e308, 0]
        (tmp_path / "g.txt").write_text("3 2\n0 1 1\n1 2 1e308\n")
        (tmp_path / "m.txt").write_text("a 0 1\nb 2 1\nc 1 0.5 2 0.5\nd 1 1\n")
        out = tmp_path / "o.csv"
        assert main([
            "distance", "--pairs", "all", "--graph", str(tmp_path / "g.txt"),
            "--measures", str(tmp_path / "m.txt"), "--p", p, "--out", str(out),
        ]) == 0
        values = list(read_distance_csv(out).values())
        assert len(values) == 6 and all(map(math.isfinite, values))


    @pytest.mark.parametrize(
        "graph, root, message",
        [
            # two leaves 1e308 away from the root: one root's sum overflows
            ("3 2\n0 1 1e308\n0 2 1e308\n", "0",
             "the distance of measures 1 and 2 is inf at p = 1.0: its sum overflows"),
            # each root's value is below the float maximum, their sum is not
            ("4 3\n0 1 1e308\n1 2 1.0\n1 3 1.0\n", "sliced:2:0",
             "the distance of measures 0 and 1 is inf at p = 1.0: its sum overflows"),
        ],
        ids=["over-edges", "over-roots"],
    )
    @pytest.mark.parametrize("command", [["distance", "--pairs", "all"], ["gram"]])
    def test_overflowing_distance_exits_three(self, tmp_path, capsys, graph, root, message,
                                              command):
        (tmp_path / "g.txt").write_text(graph)
        (tmp_path / "m.txt").write_text("a 0 1\nb 1 1\nc 2 1\n")
        assert main([
            *command, "--graph", str(tmp_path / "g.txt"), "--measures", str(tmp_path / "m.txt"),
            "--root", root, "--p", "1", "--out", str(tmp_path / "o.csv"),
        ]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["g.txt", "m.txt"]


class TestBatchPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "--graph", "G", "--measures", "M", "--root", "sliced:3:1",
             "--p", "2", "--out", "O"],
            ["gram", "--graph", "G", "--measures", "M", "--p", "1.5", "--kernel", "exp-pow",
             "--out", "O"],
        ],
    )
    def test_one_table_per_root(self, files, monkeypatch, argv):
        # the batch path reads one Gamma table per root, in root order, and
        # builds no other: no per-measure table, no row view
        built = []
        check = gsobolev.measures.GammaTable.__post_init__

        def counted(self):
            built.append(self.root)
            check(self)

        monkeypatch.setattr(gsobolev.measures.GammaTable, "__post_init__", counted)
        names = {"G": files["graph"], "M": files["measures"], "O": str(files["dir"] / "o.csv")}
        argv = [names.get(a, a) for a in argv]
        assert main(argv) == 0
        sliced = "--root" in argv
        assert built == (sample_roots(load_graph(files["graph"]), 3, 1) if sliced else [0])


class TestRootStreaming:
    """``distance`` and ``gram`` hold one root's tree, λ and Γ at a time."""

    GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

    def test_peak_memory_does_not_grow_with_roots(self, tmp_path):
        rng = np.random.default_rng(0)
        g = build_random_graph(PointCloud(rng.random((2000, 2))), "log", seed=0)
        save_graph(g, str(tmp_path / "g.graph"))
        save_measures(random_measures(g, 30, 5, seed=0), str(tmp_path / "m.measures"))

        def peak(k: int) -> int:
            code, peak, _ = traced_peak(lambda: main([
                "distance", "--graph", str(tmp_path / "g.graph"),
                "--measures", str(tmp_path / "m.measures"), "--root", f"sliced:{k}:0",
                "--p", "1", "--out", str(tmp_path / "d.csv"),
            ]))
            assert code == 0
            return peak

        # what one root holds while its pairs are evaluated: tree, λ, weights
        def one_root_structures():
            rs, prep = prepare_root(g, 0)
            beta_weights(prep, 1.0)
            return rs, prep

        _, _, one_root = traced_peak(one_root_structures)
        # Eight roots held at once would add about seven roots' bytes.
        assert peak(8) < peak(1) + one_root

    @pytest.mark.parametrize(
        "p, pairs, digest",
        [
            ("1.5", "all", "66306cfdd3aa24fc0f6dadb8a65f50a6d2df5f83a158cbb23f95544c88322043"),
            ("inf", "instance.pairs",
             "0414096114b4ce27e8051ca1bde980a9858ed1c00369ee54aae791f499ce0480"),
        ],
        ids=["all-pairs", "pair-file"],
    )
    def test_sliced_three_csv_bytes(self, tmp_path, p, pairs, digest):
        # the SHA-256 of the CSV written when all roots were prepared first
        out = tmp_path / "d.csv"
        assert main([
            "distance", "--graph", str(self.GOLDEN / "instance.graph"),
            "--measures", str(self.GOLDEN / "instance.measures"), "--root", "sliced:3:11",
            "--p", p, "--pairs", pairs if pairs == "all" else str(self.GOLDEN / pairs),
            "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["distance", "gram"])
    def test_gamma_budget_refusal_exits_three(self, files, monkeypatch, capsys, command):
        # the three diracs' root paths hold 0 + 1 + 2 entries from root 0
        monkeypatch.setattr(measures_module, "_GAMMA_ENTRY_BUDGET", 2)
        out = files["dir"] / "o.csv"
        assert main([
            command, "--graph", files["graph"], "--measures", files["measures"],
            "--p", "1", "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: the cumulative edge vectors of 3 measures under root 0")
        assert "up to 3 entries (72 bytes to build), above the budget of 2 entries" in err
        assert not out.exists() and not Path(str(out) + ".json").exists()
        monkeypatch.setattr(measures_module, "_GAMMA_ENTRY_BUDGET", 3)
        assert main([
            command, "--graph", files["graph"], "--measures", files["measures"],
            "--p", "1", "--out", str(out),
        ]) == 0

    @pytest.mark.parametrize(
        "command, nbytes",
        # gram: two 3 x 3 arrays (D and K, then K and eigvalsh's copy); all
        # pairs: 3 values
        [(["gram"], 2 * 9 * 8), (["distance", "--pairs", "all"], 3 * 8)],
        ids=["gram", "all-pairs"],
    )
    def test_square_budget_refusal_exits_three(self, files, monkeypatch, capsys, command, nbytes):
        argv = [*command, "--graph", files["graph"], "--measures", files["measures"],
                "--p", "1", "--out", str(files["dir"] / "o.csv")]
        monkeypatch.setattr("gsobolev.cli._BYTES_BUDGET", nbytes - 1)
        # refused before any evaluation
        monkeypatch.setattr("gsobolev.cli.sliced_pair_distances", None)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"data error: {' '.join(command)} on 3 measures would hold {nbytes} bytes of "
            f"n^2-sized arrays, above the budget of {nbytes - 1} bytes\n"
        )
        assert sorted(f.name for f in files["dir"].iterdir()) == ["g.txt", "m.txt"]
        monkeypatch.undo()
        monkeypatch.setattr("gsobolev.cli._BYTES_BUDGET", nbytes)
        assert main(argv) == 0


class TestAllPairsRowBlocks:
    """``distance --pairs all`` and ``gram`` against a reference built from
    the listed upper triangle, for every block size and lane count."""

    @pytest.fixture(scope="class")
    def instance(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("all-pairs")
        g = random_tree(40, seed=5)
        ms = random_measures(g, 15, 4, seed=6)
        save_graph(g, str(tmp / "g.graph"))
        save_measures(ms, str(tmp / "m.measures"))
        common = ["--graph", str(tmp / "g.graph"), "--measures", str(tmp / "m.measures"),
                  "--root", "sliced:3:1"]
        return g, ms, common, tmp

    @staticmethod
    def listed_mean(g, ms, p, variant):
        """The listed pairs i < j and their values summed over the three
        roots in order, then divided once."""
        i, j = np.triu_indices(len(ms), 1)
        acc = np.zeros(i.size)
        for root in sample_roots(g, 3, 1):
            rs, prep = prepare_root(g, root)
            acc += pair_distances(prep, gamma_masses(rs, ms), i, j, p, variant)
        acc /= 3
        return i, j, acc

    @staticmethod
    def in_blocks_and_lanes(monkeypatch, run):
        threads = threading.active_count()
        for entries in (1, 5, 64):
            monkeypatch.setattr(gsobolev.metrics, "_BLOCK_ENTRIES", entries)
            for lanes in (1, 2, 3):
                monkeypatch.setattr(gsobolev.metrics, "_lane_count", lambda: lanes)
                run()
                assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "p, variant",
        [(p, "sipm") for p in ("1", "1.5", "2", "inf")] + [(p, "st") for p in ("1", "1.5", "2")],
    )
    def test_distance_csv(self, instance, monkeypatch, p, variant):
        g, ms, common, tmp = instance
        i, j, d = self.listed_mean(g, ms, _parse_p(p), VARIANT_FLAGS[variant])
        want = "i,j,distance\n" + "".join("%d,%d,%.17g\n" % row for row in zip(i, j, d))
        out = tmp / f"d-{p}-{variant}.csv"

        def run():
            assert main(["distance", *common, "--p", p, "--variant", variant,
                         "--out", str(out)]) == 0
            assert out.read_text() == want

        self.in_blocks_and_lanes(monkeypatch, run)

    @pytest.mark.parametrize("p", ["1", "1.5", "2"])
    def test_gram_csv_and_sidecar(self, instance, monkeypatch, p):
        g, ms, common, tmp = instance
        i, j, d = self.listed_mean(g, ms, float(p), VARIANT_SOBOLEV_IPM)
        D = np.zeros((len(ms), len(ms)))
        D[i, j] = D[j, i] = d
        K = gram_matrix(D, GramSpec(p=float(p), t=0.7, form=KERNEL_EXP_POW))
        want = "%d\n" % len(K) + "".join(",".join("%.17g" % x for x in row) + "\n" for row in K)
        out = tmp / f"k-{p}.csv"

        def run():
            assert main(["gram", *common, "--p", p, "--kernel", "exp-pow", "--t", "0.7",
                         "--seed", "3", "--out", str(out)]) == 0
            assert out.read_text() == want
            sidecar = json.loads(Path(str(out) + ".json").read_text())
            assert sidecar["min_eigenvalue"] == min_eigenvalue(K)
            assert sidecar["nd_violations"] == quadratic_form_violations(D, seed=3)[0]

        self.in_blocks_and_lanes(monkeypatch, run)


class TestAllPairsMemory:
    """No array per pair beyond the values: ``distance --pairs all`` holds
    the running sum of the n(n-1)/2 values, and ``gram`` D and K."""

    # Two lanes' block buffers (about 1 MiB each at 2^15 entries) plus the
    # parse, Γ and write scratch, whatever the measure count.
    SLACK = 4 << 20

    @pytest.fixture(scope="class")
    def instance(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("memory")
        rng = np.random.default_rng(0)
        g = build_random_graph(PointCloud(rng.random((300, 2))), "log", seed=0)
        save_graph(g, str(tmp / "g.graph"))
        save_measures(random_measures(g, 500, 4, seed=0), str(tmp / "m.measures"))
        return ["--graph", str(tmp / "g.graph"), "--measures", str(tmp / "m.measures"),
                "--out", str(tmp / "o.csv")], 500

    @pytest.mark.parametrize("command", ["distance", "gram"])
    def test_peak_is_the_values_and_a_fixed_slack(self, instance, monkeypatch, command):
        common, n = instance
        monkeypatch.setattr(gsobolev.metrics, "_lane_count", lambda: 2)
        code, peak, _ = traced_peak(lambda: main([command, *common, "--p", "1.5"]))
        assert code == 0
        values = n * (n - 1) // 2 * 8 if command == "distance" else 2 * n * n * 8
        # the listed pairs alone took 2 * 8 bytes each for i and j
        assert peak < values + self.SLACK


class TestSlicedGram:
    @pytest.mark.parametrize(
        "p, kernel", [("1.5", "exp-pow"), ("1", "exp"), ("2", "exp-pow"), ("1.5", "exp")]
    )
    def test_gram_equals_kernel_of_distance_output(self, tmp_path, p, kernel):
        # gram over sliced roots against the distance command's own values,
        # read back exactly (17 significant digits) and put through the kernel
        g = random_tree(40, seed=5)
        ms = random_measures(g, 12, 4, seed=6)
        save_graph(g, str(tmp_path / "g.graph"))
        save_measures(ms, str(tmp_path / "m.measures"))
        d_out, k_out = str(tmp_path / "d.csv"), str(tmp_path / "k.csv")
        common = ["--graph", str(tmp_path / "g.graph"), "--measures", str(tmp_path / "m.measures"),
                  "--root", "sliced:3:1", "--p", p]
        assert main(["distance", *common, "--pairs", "all", "--out", d_out]) == 0
        assert main(["gram", *common, "--kernel", kernel, "--out", k_out]) == 0
        n = len(ms)
        D = np.zeros((n, n))
        for (i, j), d in read_distance_csv(d_out).items():
            D[i, j] = D[j, i] = d
        assert np.count_nonzero(D) == n * (n - 1)
        form = KERNEL_EXP_POW if kernel == "exp-pow" else KERNEL_EXP
        want = gram_matrix(D, GramSpec(p=float(p), t=1.0, form=form))
        assert Path(k_out).read_text().partition("\n")[0] == str(n)
        got = np.loadtxt(k_out, delimiter=",", skiprows=1)
        assert got.tobytes() == want.tobytes()
        assert (np.diag(got) == 1.0).all()


class TestGramCommand:
    def test_writes_matrix_and_sidecar(self, files):
        out = str(files["dir"] / "k.csv")
        code = main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "2", "--t", "1.0", "--out", out,
        ])
        assert code == 0
        K = read_matrix_csv(out)
        assert K.shape == (3, 3)
        assert K[0, 1] == pytest.approx(math.exp(-0.6367614216550531), rel=1e-12)
        sidecar = json.loads((files["dir"] / "k.csv.json").read_text())
        assert set(sidecar) == {
            "min_eigenvalue", "nd_violations", "preprocessing_ms", "gram_ms",
        }
        assert sidecar["min_eigenvalue"] == pytest.approx(0.4570534647840941, rel=1e-9)
        assert sidecar["nd_violations"] == 0

    def test_power_kernel(self, files):
        out = str(files["dir"] / "k.csv")
        code = main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "2", "--t", "1.0", "--kernel", "exp-pow", "--out", out,
        ])
        assert code == 0
        K = read_matrix_csv(out)
        # exp(-d^2) with d^2 = log 1.5 on the nearest pair
        assert K[0, 1] == pytest.approx(1.0 / 1.5, rel=1e-12)

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "beside-old-output"])
    @pytest.mark.parametrize("step", ["write", "quadratic_form_violations", "min_eigenvalue"])
    def test_failure_changes_no_file(self, files, monkeypatch, capsys, step, existing):
        out = files["dir"] / "k.csv"
        if existing:
            out.write_text("an earlier Gram matrix\n")
            Path(str(out) + ".json").write_text("{}\n")
        before = {f.name: f.read_bytes() for f in files["dir"].iterdir()}
        if step == "write":  # after the first row's block
            real = gsobolev.kernels.write_rows

            def write_rows(fh, columns, sep):
                real(fh, tuple(c[:1] for c in columns), sep)
                raise GSobolevError("write failed")

            monkeypatch.setattr(gsobolev.kernels, "write_rows", write_rows)
        else:
            def diagnostic(*args, **kwargs):
                raise NonConvergence(f"{step} failed")

            monkeypatch.setattr(cli_module, step, diagnostic)
        assert main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--out", str(out),
        ]) == 3
        assert capsys.readouterr().err == f"data error: {step} failed\n"
        assert {f.name: f.read_bytes() for f in files["dir"].iterdir()} == before

    def test_two_square_arrays_at_most(self, files, monkeypatch):
        # K is written, the forms read D, and D is gone before eigvalsh
        # copies K
        steps, distances = [], []
        for name in ("sliced_pair_distances", "write_matrix_csv", "quadratic_form_violations",
                     "min_eigenvalue"):
            def step(*args, _real=getattr(cli_module, name), _name=name, **kwargs):
                steps.append((_name, [ref() is not None for ref in distances]))
                result = _real(*args, **kwargs)
                if _name == "sliced_pair_distances":
                    distances.append(weakref.ref(result[0]))
                return result

            monkeypatch.setattr(cli_module, name, step)
        assert main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--out", str(files["dir"] / "k.csv"),
        ]) == 0
        assert steps == [
            ("sliced_pair_distances", []), ("write_matrix_csv", [True]),
            ("quadratic_form_violations", [True]), ("min_eigenvalue", [False]),
        ]

    def test_order_outside_guarantee_refused_then_allowed(self, files):
        out = str(files["dir"] / "k.csv")
        args = [
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "3", "--t", "1.0", "--out", out,
        ]
        assert main(args) == 2
        assert main(args + ["--allow-outside-range"]) == 0


class TestVerifyCommand:
    def test_tree_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["verify", "--suite", "tree", "--seed", "0", "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "verification passed" in text
        payload = json.loads(Path(out).read_text())
        assert payload[0]["suite"] == "tree"
        assert payload[0]["passed"] is True
        assert payload[0]["checks"][0]["violations"] == 0

    def test_failure_exit_code_and_seed_report(self, monkeypatch, capsys):
        import gsobolev.cli as cli

        def fake(names, seed=0):
            rep = SuiteReport("metric", seed)
            rep.checks.append(SuiteCheck("axioms_p=1.0", 10, 3, 0.5, False))
            return [rep]

        monkeypatch.setattr(cli, "run_suites", fake)
        code = main(["verify", "--suite", "metric", "--seed", "41"])
        assert code == 1
        text = capsys.readouterr().out
        assert "FAIL" in text
        assert "offending seed: 41" in text


class TestBenchCommand:
    def test_small_table(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main([
            "bench", "--sizes", "30", "--families", "log", "--p", "2",
            "--count", "5", "--support-size", "2", "--max-pairs", "6",
            "--seed", "0", "--out", out,
        ])
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert list(row)[:3] == ["M", "family", "edges"]
        assert row["M"] == "30" and row["family"] == "log"
        assert float(row["parse_ms"]) > 0.0  # graph file written, then timed load_graph
        layers = [float(row[k]) for k in ("tree_ms", "lambda_ms", "gamma_ms")]
        assert min(layers) > 0.0
        # the total is the sum of the three set-up layers, each rounded to 0.01
        assert float(row["preprocessing_ms"]) == pytest.approx(sum(layers), abs=0.02)
        assert float(row["per_pair_ns_sipm"]) > 0.0  # per-pair closed-form time
        assert float(row["per_pair_ms_lp"]) > 0.0  # per-pair LP time

    @pytest.mark.parametrize(
        "count, max_pairs, seed", [(5, 6, 0), (5, 10, 1), (5, 11, 2), (12, 7, 3), (40, 25, 11)]
    )
    def test_pairs_are_those_of_the_full_listing(self, count, max_pairs, seed):
        # the pairs bench used to draw from a list of every pair i < j
        listing = [(i, j) for i in range(count) for j in range(i + 1, count)]
        old = np.random.default_rng(seed)
        want = listing
        if len(listing) > max_pairs:
            idx = old.choice(len(listing), size=max_pairs, replace=False)
            want = [listing[int(k)] for k in sorted(idx)]
        rng = np.random.default_rng(seed)
        assert _sample_pairs(count, max_pairs, rng) == want
        assert rng.random() == old.random()  # the stream goes on alike

    def test_pairs_are_not_listed(self, tmp_path):
        # 1000 measures have 499,500 pairs: listing them took about 46 MiB
        argv = [
            "bench", "--sizes", "30", "--families", "log", "--p", "2",
            "--count", "1000", "--support-size", "2", "--max-pairs", "6",
            "--seed", "0", "--out", str(tmp_path / "bench.csv"),
        ]
        code, peak, _ = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < 4 << 20

    def test_bad_sizes(self, tmp_path):
        code = main(["bench", "--sizes", "10,x", "--out", str(tmp_path / "b.csv")])
        assert code == 2

    def test_too_few_nodes(self, tmp_path):
        code = main(["bench", "--sizes", "1", "--out", str(tmp_path / "b.csv")])
        assert code == 2

    def test_no_pairs_to_time(self, tmp_path):
        for flags in (["--count", "1"], ["--max-pairs", "0"]):
            code = main(["bench", "--sizes", "10", *flags, "--out", str(tmp_path / "b.csv")])
            assert code == 2

    def test_bad_family(self, tmp_path):
        code = main([
            "bench", "--sizes", "10", "--families", "dense",
            "--out", str(tmp_path / "b.csv"),
        ])
        assert code == 2


class TestInstanceBudget:
    """``synth`` and ``bench`` refuse a point cloud or measures above the byte
    budget before drawing anything: exit 3, no traceback, no output file."""

    @pytest.mark.parametrize(
        "command, nbytes, refusal",
        [
            (["synth", "--points", "40", "--m", "10", "--dim", "3", "--count", "2",
              "--support-size", "2"], 40 * 3 * 8,
             "synth on 40 points of dimension 3 would hold 960 bytes of point cloud"),
            (["synth", "--points", "40", "--m", "10", "--dim", "1", "--count", "30",
              "--support-size", "5"], 30 * (272 + 5 * 72),
             "synth on 30 measures of 5 points would hold 18,960 bytes of measures"),
            (["bench", "--sizes", "10,30", "--families", "log", "--count", "3",
              "--support-size", "2", "--max-pairs", "2"], 4 * 30 * 2 * 8,
             "bench on 120 points of dimension 2 would hold 1,920 bytes of point cloud"),
            (["bench", "--sizes", "10", "--families", "log", "--count", "40",
              "--support-size", "5", "--max-pairs", "2"], 40 * (272 + 5 * 72),
             "bench on 40 measures of 5 points would hold 25,280 bytes of measures"),
        ],
        ids=["synth-points", "synth-measures", "bench-points", "bench-measures"],
    )
    def test_refusal_exits_three(self, tmp_path, monkeypatch, capsys, command, nbytes, refusal):
        out = ["--out-prefix", str(tmp_path / "x")] if command[0] == "synth" else [
            "--out", str(tmp_path / "b.csv")]
        argv = [*command, *out]
        monkeypatch.setattr("gsobolev.cli._BYTES_BUDGET", nbytes - 1)
        monkeypatch.setattr("gsobolev.cli.farthest_point_clustering", None)  # nothing drawn
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"data error: {refusal}, above the budget of {nbytes - 1:,} bytes\n"
        )
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        monkeypatch.setattr("gsobolev.cli._BYTES_BUDGET", nbytes)
        assert main(argv) == 0

    @pytest.mark.parametrize("support_size", [1, 5, 50])
    def test_measure_charge_covers_what_measures_hold(self, support_size):
        # node ids drawn from 1e5 nodes are nearly all ints of their own;
        # 5000 measures outnumber the interpreter's free lists of small
        # tuples and floats, which a draw may reuse untraced
        n, count = 100_000, 5000
        g = Graph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
        drawn, _, held = traced_peak(lambda: random_measures(g, count, support_size, seed=0))
        assert len(drawn) == count
        charged = count * (_MEASURE_BYTES + support_size * _POINT_BYTES)
        assert held <= charged <= 1.25 * held, (held, charged)


class TestSynthCommand:
    def test_generates_consistent_files(self, tmp_path):
        prefix = str(tmp_path / "inst")
        code = main([
            "synth", "--points", "200", "--m", "40", "--family", "log",
            "--count", "6", "--support-size", "3", "--seed", "1",
            "--out-prefix", prefix,
        ])
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["inst.graph", "inst.measures"]
        g = load_graph(prefix + ".graph")
        assert g.node_count == 40
        measures = load_measures(prefix + ".measures", g)
        assert len(measures) == 6
        assert all(mu.support_size == 3 for mu in measures)
        # the generated files drive the other commands directly
        out = str(tmp_path / "d.csv")
        assert main([
            "distance", "--graph", prefix + ".graph",
            "--measures", prefix + ".measures", "--p", "2", "--out", out,
        ]) == 0
        assert len(read_distance_csv(out)) == 15

    def test_no_measures(self, tmp_path):
        code = main(["synth", "--count", "0", "--out-prefix", str(tmp_path / "x")])
        assert code == 2

    def test_one_node(self, tmp_path):
        code = main(["synth", "--m", "1", "--out-prefix", str(tmp_path / "x")])
        assert code == 2

    def test_points_below_m(self, tmp_path):
        code = main([
            "synth", "--points", "5", "--m", "10",
            "--out-prefix", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_zero_dim(self, tmp_path):
        # zero-dimensional points all coincide; refused before any file is written
        code = main(["synth", "--dim", "0", "--out-prefix", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.graph").exists()

    def test_negative_dim(self, tmp_path):
        code = main(["synth", "--dim", "-1", "--out-prefix", str(tmp_path / "x")])
        assert code == 2


class TestSolverImport:
    """``scipy.optimize``, and the ``scipy.special`` and ``scipy.fft`` it
    pulls in, load on the first LP solve: never on import, ``distance`` or
    ``gram``, and still where ``verify`` and ``bench`` solve one."""

    SOLVER = ("scipy.fft", "scipy.optimize", "scipy.special")
    SCRIPT = (
        "import importlib, json, sys\n"
        "module = importlib.import_module(sys.argv[1])\n"
        "codes = [module.main(argv) for argv in json.loads(sys.argv[2])]\n"
        "solver = [m for m in json.loads(sys.argv[3]) if m in sys.modules]\n"
        "print(json.dumps([codes, solver]))\n"
    )

    @pytest.mark.parametrize(
        "module, commands, loaded",
        [
            ("gsobolev", [], False),
            ("gsobolev.cli", [], False),
            ("gsobolev.cli", ["distance-all", "distance-pairs", "gram"], False),
            ("gsobolev.cli", ["verify"], True),
            ("gsobolev.cli", ["bench"], True),
        ],
        ids=["import", "import-cli", "distance-and-gram", "verify", "bench"],
    )
    def test_fresh_interpreter(self, files, module, commands, loaded):
        tmp = files["dir"]
        (tmp / "pairs.txt").write_text("0 2\n1 2\n")
        inputs = ["--graph", files["graph"], "--measures", files["measures"]]
        argvs = {
            "distance-all": ["distance", *inputs, "--p", "2", "--out", str(tmp / "all.csv")],
            "distance-pairs": ["distance", *inputs, "--root", "sliced:2:0", "--p", "inf",
                               "--pairs", str(tmp / "pairs.txt"), "--out", str(tmp / "l.csv")],
            "gram": ["gram", *inputs, "--p", "1.5", "--kernel", "exp-pow",
                     "--out", str(tmp / "k.csv")],
            "verify": ["verify", "--suite", "tree", "--seed", "0"],
            "bench": ["bench", "--sizes", "30", "--count", "3", "--max-pairs", "2",
                      "--families", "log", "--out", str(tmp / "bench.csv")],
        }
        src = str(Path(gsobolev.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, module,
             json.dumps([argvs[c] for c in commands]), json.dumps(self.SOLVER)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        codes, solver = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(commands)
        assert solver == (list(self.SOLVER) if loaded else [])
        if "bench" in commands:
            header, row = (tmp / "bench.csv").read_text().splitlines()
            assert float(dict(zip(header.split(","), row.split(",")))["per_pair_ms_lp"]) > 0.0


class TestEntryPoint:
    def test_console_script_installed(self):
        exe = shutil.which("gsobolev")
        assert exe, "console script should be on PATH after installation"
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "distance" in proc.stdout and "verify" in proc.stdout

    def test_module_entry_point(self):
        src = str(Path(gsobolev.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "gsobolev", "--help"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "distance" in proc.stdout and "verify" in proc.stdout

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
