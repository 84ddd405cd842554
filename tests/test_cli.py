import hashlib
import json
import os
import time

import pytest

from sftkit.cli import main

from conftest import BAD_SFTS

DATA = os.path.join(os.path.dirname(__file__), "..", "demos", "data")


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "classify", "--input", path("golden.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["holds"] and obj["common_type"] == "symmetric"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "classify", "--input", path("golden.json"), "--dot")
        assert code == 0 and out.startswith("digraph")


class TestRauzy:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "rauzy", "--input", path("golden.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["vertices"] == ["0", "1"]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "rauzy", "--input", path("golden.json"), "--dot")
        assert '"1" -> "0"' in out


class TestSolve:
    def test_incompatible_pair_empty(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "empty",
            "--h", path("forbid0011.json"),
            "--v", path("alt011.json"),
            "--bound", "8",
        )
        assert code == 0
        assert json.loads(out)["status"] == "empty"

    def test_count(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "count",
            "--h", path("golden.json"),
            "--v", path("golden.json"),
            "--width", "2", "--height", "2",
        )
        assert code == 0
        assert json.loads(out)["count"] == "7"

    def test_count_two_higher_order_sfts(self, capsys, tmp_path):
        hpath, vpath = tmp_path / "no111.json", tmp_path / "no000.json"
        hpath.write_text(json.dumps({"alphabet": ["0", "1"], "forbidden": [["1", "1", "1"]]}))
        vpath.write_text(json.dumps({"alphabet": ["0", "1"], "forbidden": [["0", "0", "0"]]}))
        code, out, _ = run(
            capsys,
            "solve", "count",
            "--h", str(hpath),
            "--v", str(vpath),
            "--width", "2", "--height", "2",
        )
        assert code == 0
        assert json.loads(out)["count"] == "16"

    def test_torus(self, capsys):
        code, out, _ = run(
            capsys, "solve", "torus", "--h", path("golden.json"), "--v", path("golden.json"),
        )
        assert code == 0
        assert json.loads(out)["found"]

    def test_decide(self, capsys):
        code, out, _ = run(
            capsys, "solve", "decide", "--h", path("golden.json"), "--v", path("golden.json"),
        )
        assert code == 0
        assert json.loads(out)["status"] == "nonempty"

    def test_decide_with_rows_that_have_no_words(self, capsys):
        # as ``solve empty`` answers: empty, not an input error
        empty = path("empty-sft.json")
        for v in ((), ("--v", empty)):
            code, out, _ = run(capsys, "solve", "decide", "--h", empty, *v)
            assert code == 0 and json.loads(out) == {"rationale": "the rows have no words", "status": "empty"}, v

    def test_higher_order_torus_search_finishes(self, capsys):
        # alt011 has order 2 and no torus with golden columns up to the
        # default bound, so every size up to 6 x 6 is searched
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "solve", "torus", "--h", path("alt011.json"), "--v", path("golden.json"),
        )
        assert code == 1
        assert json.loads(out) == {"bound": 6, "found": False}
        assert time.perf_counter() - start < 10

    # each solve subcommand takes only the options it reads
    @pytest.mark.parametrize(
        "action, unread",
        [
            ("count", (("--bound", "3"),)),
            ("torus", (("--budget", "10"),)),
            ("decide", (("--bound", "3"),)),
        ],
    )
    def test_options_a_subcommand_does_not_read_are_usage_errors(self, capsys, tmp_path, action, unread):
        argv = _json_commands(tmp_path)[f"solve {action}"]
        capsys.readouterr()
        assert run(capsys, *argv)[0] == 0
        for option in unread:
            code, out, err = run(capsys, *argv, *option)
            assert code == 2 and out == "" and f"unrecognized arguments: {option[0]}" in err, option


class TestErrors:
    def test_empty_sft_is_input_error(self, capsys):
        code, _, err = run(capsys, "entropy", "1d", "--input", path("empty-sft.json"))
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tol_not_positive(self, capsys, tol):
        code, _, err = run(capsys, "entropy", "1d", "--input", path("golden.json"), "--tol", tol)
        assert code == 2
        assert "tol" in err

    @pytest.mark.parametrize("tol", ["1", "2", "inf"])
    def test_tol_not_below_one(self, capsys, tol):
        # any tol >= 1 accepts golden's first row-sum bracket [1, 2] and
        # would print its midpoint 1.5 as the eigenvalue
        code, out, err = run(capsys, "entropy", "1d", "--input", path("golden.json"), "--tol", tol)
        assert code == 2 and out == ""
        assert "tol" in err

    def test_tol_below_float_precision_fails_fast(self, capsys):
        # the float ratios of power iteration cannot agree to 1e-16
        start = time.perf_counter()
        code, out, err = run(capsys, "entropy", "1d", "--input", path("golden.json"), "--tol", "1e-16")
        assert code == 2 and out == "" and err.startswith("error:") and "tol" in err
        assert time.perf_counter() - start < 0.5
        code, out, _ = run(capsys, "entropy", "1d", "--input", path("golden.json"), "--tol", "1e-15")
        assert code == 0 and json.loads(out)["iterations"] > 0

    def test_bound_below_one_is_a_usage_error(self, capsys):
        # a bound below 1 searches nothing, so it is bad input, not "found": false or unknown
        golden = path("golden.json")
        for argv in (["solve", "torus"], ["solve", "empty"], ["entropy", "2d"], ["entropy", "statesplit"]):
            for bound in ("0", "-1"):
                code, out, err = run(capsys, *argv, "--h", golden, "--v", golden, "--bound", bound)
                assert code == 2 and out == "" and f"--bound: must be >= 1, not {bound}" in err, (argv, bound)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "--input", "nope.json")
        assert code == 2

    def test_malformed_sft_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for obj in ({"alphabet": ["0", "1"], "forbidden": "11"}, {"alphabet": 5}):
            bad.write_text(json.dumps(obj))
            code, out, err = run(capsys, "rauzy", "--input", str(bad))
            assert code == 2 and out == "" and err.startswith("error:")

    def test_non_integer_tile_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"tiles": [[1, "2"]]}))
        code, out, err = run(
            capsys, "encode", "--h", path("coding3.json"), "--w", path("free2.json"), "--input", str(grid),
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_tiles_not_a_list(self, capsys, tmp_path):
        tiles = tmp_path / "tiles.json"
        tiles.write_text(json.dumps({"tiles": "abc"}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"tiles": [[1]]}))
        code, out, err = run(
            capsys, "encode", "--h", path("coding3.json"), "--w", str(tiles), "--input", str(grid),
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_pattern_width_not_an_integer(self, capsys, tmp_path):
        window = tmp_path / "window.json"
        window.write_text(json.dumps({"width": "2", "height": 1, "cells": ["a", "b"]}))
        code, out, err = run(
            capsys, "decode", "--h", path("coding3.json"), "--w", path("free2.json"), "--input", str(window),
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_bad_sft_file_names_the_fault(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for obj, message in BAD_SFTS:
            bad.write_text(json.dumps(obj))
            code, out, err = run(capsys, "solve", "count", "--h", str(bad), "--width", "2", "--height", "2")
            assert (code, out, err) == (2, "", f"error: {message}\n"), obj

    def test_sft_file_not_an_object(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code, out, err = run(capsys, "rauzy", "--input", str(bad))
        assert code == 2 and out == "" and err.startswith("error:") and "object" in err

    def test_tile_grid_not_an_object(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[1, 2]")
        code, out, err = run(
            capsys, "encode", "--h", path("coding3.json"), "--w", path("free2.json"), "--input", str(grid),
        )
        assert code == 2 and out == "" and err.startswith("error:") and "object" in err

    def test_realize_spec_field_types(self, capsys, tmp_path):
        from sftkit.core import Sft1D, free_tile_set
        from sftkit.entropy import entropy_words

        golden = Sft1D.load(path("golden.json"))
        u, w1, w2, _ = entropy_words(golden, k=1)
        spec = {
            "H": golden.to_json(), "payload": free_tile_set(2).to_json(),
            "u": list(u), "w1": list(w1), "w2": list(w2), "q": 1, "r": 2, "R": 1, "ks": [2],
        }
        bad = tmp_path / "spec.json"
        for field, value in (
            ("q", "3"), ("r", 2.5), ("R", True), ("u", "0101"), ("w1", {}), ("w2", 5), ("ks", 2), ("H", [1, 2]),
        ):
            bad.write_text(json.dumps({**spec, field: value}))
            code, out, err = run(capsys, "entropy", "realize", "--input", str(bad))
            assert code == 2 and out == "" and err.startswith("error:") and repr(field) in err, field
        bad.write_text("[1, 2]")
        code, out, err = run(capsys, "entropy", "realize", "--input", str(bad))
        assert code == 2 and out == "" and err.startswith("error:")

    def test_unreplayable_witness_is_not_an_answer(self, capsys, monkeypatch):
        import sftkit.cli

        monkeypatch.setattr(sftkit.cli, "validate_torus", lambda *args: False)
        for action in ("torus", "decide"):
            code, out, err = run(
                capsys, "solve", action, "--h", path("golden.json"), "--v", path("golden.json"),
            )
            assert code == 1 and out == "" and "replay" in err

    def test_mismatched_alphabets_are_input_errors(self, capsys):
        # coding3 is over a, b, c and golden over 0, 1
        h, v = path("coding3.json"), path("golden.json")
        for argv in (
            ["solve", "torus", "--h", h, "--v", v],
            ["solve", "count", "--h", h, "--v", v, "--width", "2", "--height", "2"],
            ["solve", "empty", "--h", h, "--v", v],
            ["solve", "decide", "--h", v, "--v", h],
            ["entropy", "2d", "--h", h, "--v", v],
            ["entropy", "statesplit", "--h", v, "--v", h],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and "different alphabets" in err, argv

    def test_statesplit_needs_v(self, capsys):
        assert main(["entropy", "statesplit", "--h", path("golden.json")]) == 2

    def test_usage_error(self, capsys):
        assert main(["solve"]) == 2 or main(["solve"]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        golden = path("golden.json")
        done = subprocess.run(
            [sys.executable, "-m", "sftkit", "solve", "decide", "--h", golden, "--v", golden],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0 and json.loads(done.stdout)["status"] == "nonempty"


class TestBudget:
    """A blown budget is ``unknown`` (exit 1); a negative one is a usage
    error (exit 2)."""

    def test_blown_budget_exits_1(self, capsys):
        golden = path("golden.json")
        for argv, budget in (
            (["solve", "count", "--width", "15", "--height", "15", "--budget", "41953"], 41953),
            (["entropy", "2d", "--budget", "10"], 10),
        ):
            code, out, err = run(capsys, *argv, "--h", golden, "--v", golden)
            assert code == 1 and out == "", argv
            assert err == f"error: more than {budget} strip columns, windows and edges\n", argv

    def test_budget_counts_what_the_strip_keeps(self, capsys):
        # the 15 x 15 strip keeps 1,597 columns, 1,597 windows and 38,760
        # layer edges (41,954 in all), not its 665,857 transitions
        golden = path("golden.json")
        for budget in ("41954", "100000"):
            code, out, _ = run(
                capsys, "solve", "count", "--h", golden, "--v", golden, "--width", "15", "--height", "15",
                "--budget", budget,
            )
            assert code == 0 and json.loads(out)["count"] == "52521741712869136440040654451875316861275"

    def test_decide_honours_a_zero_budget(self, capsys):
        # golden rows have the symmetric type, so width 2: the transposed
        # cylinder strip keeps the 3 rows 00, 01, 10 as columns, 3 windows
        # and 7 transitions, 13 in all
        golden = path("golden.json")
        for budget in ("0", "12"):
            code, out, _ = run(capsys, "solve", "decide", "--h", golden, "--v", golden, "--budget", budget)
            assert code == 1 and json.loads(out)["status"] == "unknown", budget
        code, out, _ = run(capsys, "solve", "decide", "--h", golden, "--v", golden, "--budget", "13")
        assert code == 0 and json.loads(out)["status"] == "nonempty"

    def test_negative_budget_is_a_usage_error(self, capsys):
        golden = path("golden.json")
        for argv in (
            ["solve", "count", "--width", "2", "--height", "2"],
            ["solve", "empty"],
            ["solve", "decide"],
            ["entropy", "2d"],
        ):
            for budget in ("-1", "ten"):
                code, out, err = run(capsys, *argv, "--h", golden, "--v", golden, "--budget", budget)
                assert code == 2 and out == "" and "--budget" in err, (argv, budget)


class TestTallColumns:
    def test_count_beyond_the_recursion_limit(self, capsys):
        # alt011 has 3 legal columns at every height
        for height in ("900", "1500"):
            code, out, _ = run(
                capsys, "solve", "count", "--h", path("golden.json"), "--v", path("alt011.json"),
                "--width", "1", "--height", height,
            )
            assert code == 0 and json.loads(out)["count"] == "3"


class TestCyclesAndCompile:
    def test_cycles_find_explain(self, capsys):
        code, out, _ = run(capsys, "cycles", "find", "--input", path("coding3.json"), "--explain")
        assert code == 0
        obj = json.loads(out)
        assert obj["c1"] == ["c", "a", "b"] and obj["c2"] == ["c"]
        assert "1.1" in obj["trace"]

    def test_compile_wang(self, capsys, tmp_path):
        outfile = tmp_path / "vpres.json"
        code, _, _ = run(
            capsys,
            "compile", "wang",
            "--h", path("coding3.json"),
            "--w", path("free2.json"),
            "--out", str(outfile),
        )
        assert code == 0
        obj = json.loads(outfile.read_text())
        assert obj["certificate"] == {"m": 3, "n": 60, "clopen_marker": obj["certificate"]["clopen_marker"]}
        assert obj["states"] and obj["transitions"]

    def test_compile_horizontal(self, capsys):
        code, out, _ = run(
            capsys, "compile", "horizontal", "--h", path("golden.json"), "--w", path("free2.json"),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["certificate"]["m"] == 9 and obj["certificate"]["n"] == 1
        assert obj["patterns"]

    def test_encode_decode_roundtrip(self, capsys, tmp_path):
        tiles_file = tmp_path / "pattern.json"
        tiles_file.write_text(json.dumps({"tiles": [[2], [1]]}))
        enc_file = tmp_path / "window.json"
        code, _, _ = run(
            capsys,
            "encode",
            "--h", path("coding3.json"),
            "--w", path("free2.json"),
            "--input", str(tiles_file),
            "--out", str(enc_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "decode",
            "--h", path("coding3.json"),
            "--w", path("free2.json"),
            "--input", str(enc_file),
        )
        assert code == 0
        assert json.loads(out)["tiles"] == [[2], [1]]


class TestEntropyCommands:
    def test_statesplit_exits_1_when_an_identity_row_fails(self, capsys, monkeypatch):
        # a product sum one too large at m = 2 fails that row alone
        import sftkit.entropy

        real = sftkit.entropy.statesplit_entropy

        def off_by_one(*args):
            rep = real(*args)
            return {**rep, "rhs": lambda m: rep["rhs"](m) + (m == 2)}

        monkeypatch.setattr(sftkit.entropy, "statesplit_entropy", off_by_one)
        code, out, _ = run(
            capsys, "entropy", "statesplit", "--h", path("alt011.json"), "--v", path("no111.json"), "--bound", "2"
        )
        assert code == 1
        assert json.loads(out)["identity"] == [
            {"m": 1, "lhs": "9", "rhs": "9", "ok": True},
            {"m": 2, "lhs": "9", "rhs": "10", "ok": False},
        ]

    def test_bezout(self, capsys):
        code, out, _ = run(capsys, "entropy", "bezout", "--input", "3,5")
        assert code == 0
        obj = json.loads(out)
        assert obj["gcd"] == 1 and obj["rank"] == 16

    def test_1d(self, capsys):
        code, out, _ = run(capsys, "entropy", "1d", "--input", path("golden.json"))
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["log2"] - 0.6942419) < 1e-6
        lo, hi = obj["bracket"]
        assert lo <= 0.6942419136306174 <= hi and "residual" not in obj

    def test_2d(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "2d", "--h", path("golden.json"), "--v", path("golden.json"), "--bound", "3",
        )
        assert code == 0
        assert len(json.loads(out)["samples"]) == 3

    def test_2d_writes_null_for_the_log_of_a_zero_count(self, capsys, tmp_path, monkeypatch):
        import sftkit.entropy

        argv = _json_commands(tmp_path)["entropy 2d zero"]
        capsys.readouterr()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out) == {
            "samples": [[1, 0.0], [2, None]],
            "strip_upper": [[1, 0.0], [2, None], [3, None]],
            "upper": None,
        }
        # a non-finite float that reaches the output is an error, not output
        monkeypatch.setattr(sftkit.entropy, "_json_float", lambda v: v)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "JSON" in err

    def test_realize_rows_in_the_order_given_match_one_k_runs(self, capsys, tmp_path):
        capsys.readouterr()
        head = '{"period": 39, "sandwich": ['
        single = {}
        for k in (2, 3, 4, 5):
            code, out, _ = run(capsys, "entropy", "realize", "--input", str(_realize_spec(tmp_path, [k])))
            assert code == 0 and out.startswith(head) and out.endswith("]}\n")
            single[k] = out[len(head) : -len("]}\n")]
        for ks in ([3, 2, 2], [2, 3, 4, 5], [5, 4, 2]):
            code, out, _ = run(capsys, "entropy", "realize", "--input", str(_realize_spec(tmp_path, ks)))
            assert code == 0 and out == head + ", ".join(single[k] for k in ks) + "]}\n", ks
            assert all(row["ok"] is True for row in json.loads(out)["sandwich"])

    def test_realize_checks_every_k_before_any_count(self, capsys, tmp_path, monkeypatch):
        import sftkit.entropy

        def no_count(*args):
            raise AssertionError("a window was counted")

        monkeypatch.setattr(sftkit.entropy, "_window_counts", no_count)
        capsys.readouterr()
        for ks, bad in (([3, 1], 1), ([2, 0, 3], 0), ([-1], -1)):
            code, out, err = run(capsys, "entropy", "realize", "--input", str(_realize_spec(tmp_path, ks)))
            assert code == 2 and out == "" and err.startswith("error:"), ks
            assert f"k = {bad}:" in err and "k >= 2" in err, err

    def test_realize_writes_null_for_the_log_of_a_zero_count(self, capsys, tmp_path, monkeypatch):
        import sftkit.entropy

        monkeypatch.setattr(sftkit.entropy, "_window_counts", lambda system, shapes: [0] * len(shapes))
        capsys.readouterr()
        code, out, _ = run(capsys, "entropy", "realize", "--input", str(_realize_spec(tmp_path, [2])))
        (row,) = json.loads(out)["sandwich"]
        assert code == 0 and row["count"] == "0" and row["sample_entropy"] is None and row["ok"] is False


    # each entropy subcommand takes only the options it reads
    @pytest.mark.parametrize(
        "what, unread",
        [
            ("1d", (("--bound", "3"), ("--budget", "10"))),
            ("2d", (("--tol", "1e-8"),)),
            ("statesplit", (("--budget", "10"), ("--tol", "1e-8"))),
            ("realize", (("--bound", "3"), ("--budget", "10"), ("--tol", "1e-8"))),
            ("bezout", (("--bound", "3"), ("--budget", "10"), ("--tol", "1e-30"))),
        ],
    )
    def test_options_a_subcommand_does_not_read_are_usage_errors(self, capsys, tmp_path, what, unread):
        argv = _json_commands(tmp_path)[f"entropy {what}"]
        capsys.readouterr()
        assert run(capsys, *argv)[0] == 0
        for option in unread:
            code, out, err = run(capsys, *argv, *option)
            assert code == 2 and out == "" and f"unrecognized arguments: {option[0]}" in err, option


class TestParserReuse:
    """``main`` builds its parser once per process; calls in a row must
    behave as separate calls, each with a freshly built parser."""

    def test_back_to_back_calls_match_separate_calls(self, capsys, tmp_path):
        from sftkit.cli import _parser

        commands = _json_commands(tmp_path)
        golden = path("golden.json")
        outfile = tmp_path / "first.json"
        sequence = [
            commands["entropy 2d"] + ["--out", str(outfile)],
            ["entropy", "2d", "--h", golden, "--v", golden],  # default --bound, no --out
            commands["entropy bezout"] + ["--tol", "1e-30"],  # usage error
            commands["entropy bezout"],
            ["solve", "empty", "--h", path("forbid0011.json"), "--v", path("alt011.json"), "--bound", "1"],
            ["solve", "empty", "--h", path("forbid0011.json"), "--v", path("alt011.json")],
            commands["entropy 1d"] + ["--tol", "1e-6"],
            commands["entropy 1d"],
            commands["rauzy"] + ["--dot"],
            commands["rauzy"],
            commands["entropy realize"],
            commands["cycles find"],
        ]
        capsys.readouterr()
        separate = []
        for argv in sequence:
            _parser.cache_clear()
            separate.append(run(capsys, *argv))
        _parser.cache_clear()
        in_a_row = [run(capsys, *argv) for argv in sequence]
        assert _parser() is _parser()
        assert in_a_row == separate
        codes = [code for code, _, _ in in_a_row]
        assert codes == [0, 0, 2, 0, 1] + [0] * 7
        # neither --out nor --bound of the first call carries over
        assert in_a_row[0][1] == "" and outfile.read_text() != in_a_row[1][1]
        assert len(json.loads(in_a_row[1][1])["samples"]) == 4
        assert json.loads(outfile.read_text())["samples"] == json.loads(in_a_row[1][1])["samples"][:3]
        one, default = (json.loads(out)["status"] for _, out, _ in in_a_row[4:6])
        assert (one, default) == ("unknown", "empty")
        assert in_a_row[8][1].startswith("digraph") and json.loads(in_a_row[9][1])["order"] == 1


class TestTournamentPresentation:
    """``compile wang`` on a strongly connected tournament on ten symbols
    (the benchmark's seed-0 draw), pinned byte for byte: with free2 a DFA
    of 4,136 states; with free3 one of 6,984, whose 84 blocks make masks
    wider than 64 bits."""

    # edge ij goes from t<i> to t<j>
    EDGES = (
        "04 06 07 08 09 10 13 15 17 18 19 20 21 23 24 29 30 34 35 39 41 49 50"
        " 52 54 57 58 59 61 62 63 64 65 69 72 73 74 76 82 83 84 86 87 89 97"
    ).split()

    def _compile(self, capsys, tmp_path, tiles):
        alphabet = [f"t{i}" for i in range(10)]
        edges = {(f"t{e[0]}", f"t{e[1]}") for e in self.EDGES}
        forbidden = [[a, b] for a in alphabet for b in alphabet if (a, b) not in edges]
        sft = tmp_path / "tournament.json"
        sft.write_text(json.dumps({"alphabet": alphabet, "forbidden": forbidden}))
        outfile = tmp_path / "presentation.json"
        code, _, _ = run(capsys, "compile", "wang", "--h", str(sft), "--w", path(tiles), "--out", str(outfile))
        assert code == 0
        return outfile.read_bytes()

    def test_output_is_pinned(self, capsys, tmp_path):
        data = self._compile(capsys, tmp_path, "free2.json")
        assert len(json.loads(data)["states"]) == 4136
        assert len(data) == 440165
        assert hashlib.sha256(data).hexdigest() == (
            "605fbe6e7711707085c3855d400c9496ab713237f2fe56249c22e0ad3f6594e0"
        )

    def test_free3_output_is_pinned(self, capsys, tmp_path):
        data = self._compile(capsys, tmp_path, "free3.json")
        assert len(json.loads(data)["states"]) == 6984
        assert len(data) == 568266
        assert hashlib.sha256(data).hexdigest() == (
            "c874d6f54038aa21b05722d5d270c8542c72ca59462a36f5d217b5af3e79c45d"
        )


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "compile", "wang", "--h", path("coding3.json"), "--w", path("free3.json"),
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


def _realize_spec(tmp_path, ks, name="spec.json"):
    """The path of a realization spec on golden's marker words with the
    free 2-tile payload (period 39) and the given ks."""
    from sftkit.core import Sft1D, free_tile_set
    from sftkit.entropy import entropy_words

    sft = Sft1D.load(path("golden.json"))
    u, w1, w2, _ = entropy_words(sft, k=1)
    spec = tmp_path / name
    spec.write_text(json.dumps({
        "H": sft.to_json(), "payload": free_tile_set(2).to_json(),
        "u": list(u), "w1": list(w1), "w2": list(w2), "q": 1, "r": 2, "R": 1, "ks": ks,
    }))
    return spec


def _json_commands(tmp_path):
    """argv of every JSON-writing command on small inputs, by name."""
    golden, coding3, free2 = path("golden.json"), path("coding3.json"), path("free2.json")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"tiles": [[2], [1]]}))
    window = tmp_path / "window.json"
    assert main(["encode", "--h", coding3, "--w", free2, "--input", str(grid), "--out", str(window)]) == 0
    spec = _realize_spec(tmp_path, [2])
    ss_h, ss_v = tmp_path / "ss_h.json", tmp_path / "ss_v.json"
    ss_h.write_text(json.dumps({"alphabet": ["a", "b"], "forbidden": [["a", "a"], ["b", "b"]]}))
    ss_v.write_text(json.dumps({"alphabet": ["a", "b"], "forbidden": [["b", "b"]]}))
    # rows of a alone under columns without aa: no 2 x 2 square
    zero_h, zero_v = tmp_path / "zero_h.json", tmp_path / "zero_v.json"
    zero_h.write_text(json.dumps({"alphabet": ["a", "b"], "forbidden": [["b"]]}))
    zero_v.write_text(json.dumps({"alphabet": ["a", "b"], "forbidden": [["a", "a"]]}))
    return {
        "rauzy": ["rauzy", "--input", golden],
        "classify": ["classify", "--input", golden],
        "cycles find": ["cycles", "find", "--input", coding3, "--explain"],
        "compile wang": ["compile", "wang", "--h", coding3, "--w", free2],
        "compile horizontal": ["compile", "horizontal", "--h", golden, "--w", free2],
        "solve count": ["solve", "count", "--h", golden, "--v", golden, "--width", "2", "--height", "2"],
        "solve torus": ["solve", "torus", "--h", golden, "--v", golden],
        "solve empty": ["solve", "empty", "--h", golden, "--v", golden],
        "solve decide": ["solve", "decide", "--h", golden, "--v", golden],
        "entropy 1d": ["entropy", "1d", "--input", golden],
        "entropy 2d": ["entropy", "2d", "--h", golden, "--v", golden, "--bound", "3"],
        "entropy 2d zero": ["entropy", "2d", "--h", str(zero_h), "--v", str(zero_v), "--bound", "3"],
        "entropy realize": ["entropy", "realize", "--input", str(spec)],
        "entropy statesplit": ["entropy", "statesplit", "--h", str(ss_h), "--v", str(ss_v), "--bound", "2"],
        "entropy bezout": ["entropy", "bezout", "--input", "3,5"],
        "encode": ["encode", "--h", coding3, "--w", free2, "--input", str(grid)],
        "decode": ["decode", "--h", coding3, "--w", free2, "--input", str(window)],
    }


class TestOutputLayout:
    """Every JSON result is one line with sorted keys, the same content as
    before the layout became one line."""

    def test_one_line_on_stdout_and_in_out_files(self, capsys, tmp_path):
        commands = _json_commands(tmp_path)
        capsys.readouterr()
        for i, (name, argv) in enumerate(commands.items()):
            code, out, _ = run(capsys, *argv)
            outfile = tmp_path / f"out{i}.json"
            assert code == 0 and run(capsys, *argv, "--out", str(outfile))[0] == 0, name
            assert outfile.read_text() == out, name
            assert out.endswith("\n") and out.count("\n") == 1, name
            obj = json.loads(out)
            assert out == json.dumps(obj, sort_keys=True) + "\n", name

    def test_every_output_is_strict_json(self, capsys, tmp_path):
        # RFC 8259 has no Infinity, -Infinity or NaN
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        commands = _json_commands(tmp_path)
        capsys.readouterr()
        for name, argv in commands.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0, name
            json.loads(out, parse_constant=refuse)

    def test_compile_wang_is_the_presentation(self, capsys):
        from sftkit.compiler import compile_wang
        from sftkit.core import Sft1D, WangTileSet, build_rauzy
        from sftkit.cycles import find_cycle_pair

        code, out, _ = run(capsys, "compile", "wang", "--h", path("coding3.json"), "--w", path("free3.json"))
        assert code == 0
        sft = Sft1D.load(path("coding3.json"))
        pair, report = find_cycle_pair(build_rauzy(sft))
        pres, cert = compile_wang(sft, WangTileSet.load(path("free3.json")), pair)
        expect = pres.to_json()
        expect["certificate"] = cert.to_json()
        expect["pair"] = {
            "c1": ["".join(v) for v in pair.c1.vertices],
            "c2": ["".join(v) for v in pair.c2.vertices],
            "case_tag": report.case_tag,
        }
        # JSON turns the tuples of decode_annotations into lists
        assert json.loads(out) == json.loads(json.dumps(expect))

    def test_compile_wang_content_is_pinned(self, capsys):
        # SHA-256 of the coding3 x free2 presentation re-dumped with indent=2
        # and sorted keys, as the indented layout wrote it
        code, out, _ = run(capsys, "compile", "wang", "--h", path("coding3.json"), "--w", path("free2.json"))
        assert code == 0
        canon = json.dumps(json.loads(out), indent=2, sort_keys=True)
        assert hashlib.sha256(canon.encode()).hexdigest() == (
            "29c43c7a28e8d1a69dd5a145e75eaa25fae5b58f39129a857f2d8fa00cf1eb23"
        )
