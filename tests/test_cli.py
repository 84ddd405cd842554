import json
import os

import pytest

from sftkit.cli import main

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


class TestErrors:
    def test_empty_sft_is_input_error(self, capsys):
        code, _, err = run(capsys, "entropy", "1d", "--input", path("empty-sft.json"))
        assert code == 2
        assert "empty" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "--input", "nope.json")
        assert code == 2

    def test_malformed_sft_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for obj in ({"alphabet": ["0", "1"], "forbidden": "11"}, {"alphabet": 5}):
            bad.write_text(json.dumps(obj))
            code, out, err = run(capsys, "rauzy", "--input", str(bad))
            assert code == 2 and out == "" and err.startswith("error:")

    def test_unreplayable_witness_is_not_an_answer(self, capsys, monkeypatch):
        import sftkit.cli

        monkeypatch.setattr(sftkit.cli, "validate_torus", lambda *args: False)
        for action in ("torus", "decide"):
            code, out, err = run(
                capsys, "solve", action, "--h", path("golden.json"), "--v", path("golden.json"),
            )
            assert code == 1 and out == "" and "replay" in err

    def test_usage_error(self, capsys):
        assert main(["solve"]) == 2 or main(["solve"]) == 2


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
    def test_bezout(self, capsys):
        code, out, _ = run(capsys, "entropy", "bezout", "--input", "3,5")
        assert code == 0
        obj = json.loads(out)
        assert obj["gcd"] == 1 and obj["rank"] == 16

    def test_1d(self, capsys):
        code, out, _ = run(capsys, "entropy", "1d", "--input", path("golden.json"))
        assert code == 0
        assert abs(json.loads(out)["log2"] - 0.6942419) < 1e-6

    def test_2d(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "2d", "--h", path("golden.json"), "--v", path("golden.json"), "--bound", "3",
        )
        assert code == 0
        assert len(json.loads(out)["samples"]) == 3


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
