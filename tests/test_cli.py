"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gsobolev
from gsobolev import (
    GramSpec,
    KERNEL_EXP,
    KERNEL_EXP_POW,
    gram_matrix,
    load_graph,
    load_measures,
    random_measures,
    random_tree,
    sample_roots,
    save_graph,
    save_measures,
    sliced_distance,
)
from gsobolev.cli import _parse_p, _parse_root, CliError, main
from gsobolev.verify import SuiteReport, SuiteCheck
from conftest import read_matrix_csv


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
        for bad in ("0.5", "nan", "zero"):
            with pytest.raises(CliError):
                _parse_p(bad)

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
            (["synth", "--m", "10", "--points", "20", "--out-prefix", "X/i"], "X/i.points"),
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

    def test_summary_counts_numbers_formatted_by_python(self, files, capsys):
        # 1e-12 is below the array formatter's range; the other two are in it.
        (files["dir"] / "g.txt").write_text("3 2\n0 1 1e-12\n1 2 1.0\n")
        out = str(files["dir"] / "d.csv")
        assert main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--root", "0", "--p", "1", "--out", out,
        ]) == 0
        assert ", 1 number(s) formatted by Python -> " in capsys.readouterr().err
        assert main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "2", "--t", "1e6", "--out", out,
        ]) == 0
        # The four entries of the pairs with measure 2 underflow to 0.0.
        assert ", 4 number(s) formatted by Python -> " in capsys.readouterr().err
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

    def test_transport_needs_finite_order(self, files):
        code = main([
            "distance", "--graph", files["graph"], "--measures", files["measures"],
            "--variant", "st", "--p", "inf", "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 2

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

    def test_unnormalized_measure_data(self, files):
        bad = files["dir"] / "bad.txt"
        bad.write_text("m0 0 0.7 1 0.7\n")
        code = main([
            "distance", "--graph", files["graph"], "--measures", str(bad),
            "--out", str(files["dir"] / "d.csv"),
        ])
        assert code == 3


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

    def test_order_outside_guarantee_refused_then_allowed(self, files):
        out = str(files["dir"] / "k.csv")
        args = [
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "3", "--t", "1.0", "--out", out,
        ]
        assert main(args) == 2
        assert main(args + ["--allow-outside-range"]) == 0

    def test_bad_bandwidth(self, files):
        code = main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "2", "--t", "0", "--out", str(files["dir"] / "k.csv"),
        ])
        assert code == 2

    def test_non_finite_bandwidth(self, files):
        for t in ("inf", "-inf", "nan"):
            code = main([
                "gram", "--graph", files["graph"], "--measures", files["measures"],
                "--p", "2", f"--t={t}", "--out", str(files["dir"] / "k.csv"),
            ])
            assert code == 2, t

    def test_infinite_order_refused(self, files):
        code = main([
            "gram", "--graph", files["graph"], "--measures", files["measures"],
            "--p", "inf", "--out", str(files["dir"] / "k.csv"),
        ])
        assert code == 2


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


class TestSynthCommand:
    def test_generates_consistent_files(self, tmp_path):
        prefix = str(tmp_path / "inst")
        code = main([
            "synth", "--points", "200", "--m", "40", "--family", "log",
            "--count", "6", "--support-size", "3", "--seed", "1",
            "--out-prefix", prefix,
        ])
        assert code == 0
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
