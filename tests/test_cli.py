"""The command-line pipeline: build | transform | check with exit codes."""

import json

import pytest

from corpus import paper_graph
from decompspace import builders, serialize
from decompspace.cli import main


def write_graph(tmp_path):
    G = paper_graph()
    path = tmp_path / "graph.json"
    path.write_text(
        json.dumps(
            {
                "vertices": list(G.vertices),
                "edges": [list(e) for e in G.edges],
            }
        )
    )
    return str(path)


def write_arrow_category(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(
        json.dumps(
            {
                "objects": ["0", "1"],
                "morphisms": [["i0", "0", "0"], ["i1", "1", "1"], ["f", "0", "1"]],
                "identities": {"0": "i0", "1": "i1"},
                "composition": [
                    ["i0", "i0", "i0"],
                    ["i1", "i1", "i1"],
                    ["i0", "f", "f"],
                    ["f", "i1", "f"],
                ],
            }
        )
    )
    return str(path)


def load_sset(path):
    return serialize.sset_from_obj(serialize.read_file(str(path)))


class TestBuild:
    def test_words_cell_counts(self, tmp_path):
        out = tmp_path / "words.json"
        code = main(
            [
                "build", "words", "--alphabet", "ab", "--max-len", "2",
                "--level", "3", "--output", str(out),
            ]
        )
        assert code == 0
        X = load_sset(out)
        assert len(X.cells[2]) == 17

    def test_terminal_ofc_level_two_is_point(self, tmp_path):
        out = tmp_path / "pt.json"
        assert (
            main(
                ["build", "terminal-ofc", "--bound", "0", "--level", "2",
                 "--output", str(out)]
            )
            == 0
        )
        X = load_sset(out)
        assert [len(c) for c in X.cells] == [1, 1, 1]

    def test_graph_paths_grade_two(self, tmp_path):
        out = tmp_path / "paths.json"
        code = main(
            ["build", "graph-paths", "--input", write_graph(tmp_path),
             "--bound", "2", "--output", str(out)]
        )
        assert code == 0
        A = serialize.ofc_from_obj(serialize.read_file(str(out)))
        assert len(A.grades[2]) == 8

    def test_nerve_and_twisted_arrow(self, tmp_path):
        cat = write_arrow_category(tmp_path)
        out1, out2 = tmp_path / "n.json", tmp_path / "tw.json"
        assert main(["build", "nerve", "--input", cat, "--level", "3",
                     "--output", str(out1)]) == 0
        assert main(["build", "twisted-arrow", "--input", cat, "--level", "1",
                     "--output", str(out2)]) == 0
        assert len(load_sset(out1).cells[1]) == 3
        assert len(load_sset(out2).cells[0]) == 3

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            main(["build", "words", "--alphabet", "ab", "--max-len", "2",
                  "--level", "2", "--output", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_schema_violation_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": 3}')
        out = tmp_path / "out.json"
        assert main(["build", "graph-paths", "--input", str(bad), "--bound", "1",
                     "--output", str(out)]) == 2

    def test_missing_flag_exit_2(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["build", "words", "--alphabet", "ab",
                     "--output", str(out)]) == 2

    def test_length_map_build_writes_the_same_object(self, tmp_path):
        graph = write_graph(tmp_path)
        plain, obj, lmap = (tmp_path / n for n in ("p.json", "x.json", "l.json"))
        flags = ["--input", graph, "--bound", "2", "--level", "3"]
        assert main(["build", "graph-paths", *flags, "--output", str(plain)]) == 0
        assert main(["build", "graph-paths", *flags, "--output", str(obj),
                     "--length-map", str(lmap)]) == 0
        assert obj.read_bytes() == plain.read_bytes()
        expected = builders.length_map(builders.graph_paths(paper_graph(), 2), 3)
        assert lmap.read_text() == serialize.dumps(serialize.smap_to_obj(expected))


    @pytest.mark.parametrize(
        "build",
        [
            ["words", "--alphabet", "ab", "--max-len", "2"],
            ["nerve", "--input", "cat.json", "--level", "2"],
        ],
        ids=["no-level", "not-free"],
    )
    def test_length_map_without_free_build_writes_nothing(
        self, tmp_path, capsys, build
    ):
        write_arrow_category(tmp_path)
        build = [str(tmp_path / a) if a == "cat.json" else a for a in build]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["build", *build, "--output", str(tmp_path / "o.json"),
                     "--length-map", str(tmp_path / "l.json")]) == 2
        assert "--length-map needs a freely generated build" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

class TestCheck:
    def test_words_fail_segal_pass_decomp(self, tmp_path, capsys):
        obj = tmp_path / "words.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        assert main(["check", "segal", str(obj)]) == 1
        out = capsys.readouterr().out
        assert "verdict: fails" in out and "witness_square" in out
        assert main(["check", "decomp", str(obj)]) == 0
        assert main(["check", "decomp-direct", str(obj)]) == 0
        assert main(["check", "validate", str(obj)]) == 0
        assert main(["check", "twosegal", str(obj)]) == 0
        assert main(["check", "upper2segal", str(obj)]) == 0
        assert main(["check", "lower2segal", str(obj)]) == 0

    def test_culf_on_emitted_length_map(self, tmp_path):
        obj, lmap = tmp_path / "w.json", tmp_path / "len.json"
        main(["build", "words", "--alphabet", "a", "--max-len", "2",
              "--level", "3", "--output", str(obj), "--length-map", str(lmap)])
        assert main(["check", "culf", str(lmap)]) == 0

    def test_machine_format_parses(self, tmp_path, capsys):
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "2", "--output", str(obj)])
        main(["check", "segal", str(obj), "--format", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["criterion"] == "segal"
        assert payload["holds"] is False
        assert payload["witness"]["preimage_count"] == 0

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        monkeypatch.setenv("DECOMP_MAX_SQUARES", "4")
        assert main(["check", "decomp-direct", str(obj)]) == 4
        out = capsys.readouterr().out
        assert "squares_checked: 4" in out and "budget" in out
        assert "verdict: inconclusive" in out

    def test_budget_machine_verdict(self, tmp_path, capsys, monkeypatch):
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        capsys.readouterr()
        monkeypatch.setenv("DECOMP_MAX_SQUARES", "4")
        assert main(["check", "decomp-direct", str(obj), "--format", "machine"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "inconclusive" and payload["holds"] is False
        assert payload["squares_checked"] == 4 and payload["witness"] is None

    def test_budget_above_family_holds(self, tmp_path, capsys, monkeypatch):
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        monkeypatch.setenv("DECOMP_MAX_SQUARES", "100000")
        assert main(["check", "decomp-direct", str(obj)]) == 0
        assert "verdict: holds-at-checked-depth" in capsys.readouterr().out

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["check", "segal", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "UTF-8" in err and "Traceback" not in err

    def test_unreadable_input_exit_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["check", "segal", str(missing)]) == 2

    def test_directory_input_exit_2(self, tmp_path, capsys):
        assert main(["check", "segal", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_negative_rank_cap_exit_2(self, tmp_path, capsys):
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        capsys.readouterr()
        assert main(["check", "decomp-direct", str(obj), "--rank-cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--rank-cap" in captured.err and captured.out == ""

    @pytest.mark.parametrize("budget", ["abc", "-1"])
    def test_bad_budget_env_exit_2(self, tmp_path, capsys, monkeypatch, budget):
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        capsys.readouterr()
        monkeypatch.setenv("DECOMP_MAX_SQUARES", budget)
        assert main(["check", "decomp-direct", str(obj)]) == 2
        captured = capsys.readouterr()
        assert "DECOMP_MAX_SQUARES" in captured.err and captured.out == ""


class TestTransform:
    def test_duplicate_cells_rejected_like_check(self, tmp_path, capsys):
        obj, out = tmp_path / "dup.json", tmp_path / "op.json"
        obj.write_text(json.dumps({
            "format_version": 1, "kind": "sset", "level": 0,
            "cells": [["a", "a"]], "faces": [], "degeneracies": [],
        }))
        assert main(["check", "validate", str(obj)]) == 3
        check_err = capsys.readouterr().err
        assert main(["transform", "op", str(obj), "--output", str(out)]) == 3
        assert capsys.readouterr().err == check_err
        assert "duplicate cell 'a' at level 0" in check_err
        assert not out.exists()

    def test_sd_level_drop(self, tmp_path):
        obj, out = tmp_path / "w.json", tmp_path / "sd.json"
        main(["build", "terminal-ofc", "--bound", "2", "--level", "5",
              "--output", str(obj)])
        assert main(["transform", "sd", str(obj), "--output", str(out)]) == 0
        assert load_sset(out).level == 2

    def test_op_twice_is_identity_bytes(self, tmp_path):
        obj = tmp_path / "w.json"
        once = tmp_path / "op.json"
        twice = tmp_path / "opop.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        main(["transform", "op", str(obj), "--output", str(once)])
        main(["transform", "op", str(once), "--output", str(twice)])
        assert obj.read_bytes() == twice.read_bytes()

    def test_dec_top_then_segal(self, tmp_path):
        obj, dec = tmp_path / "w.json", tmp_path / "dec.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "3", "--output", str(obj)])
        assert main(["transform", "dec-top", str(obj), "--output", str(dec),
                     "--map-output", str(tmp_path / "proj.json")]) == 0
        assert main(["check", "segal", str(dec)]) == 0
        assert main(["check", "culf", str(tmp_path / "proj.json")]) == 0

    def test_default_projection_path(self, tmp_path):
        obj, dec = tmp_path / "w.json", tmp_path / "dec.json"
        main(["build", "terminal-ofc", "--bound", "1", "--level", "2",
              "--output", str(obj)])
        main(["transform", "dec-bot", str(obj), "--output", str(dec)])
        assert (tmp_path / "dec.json.proj.json").exists()

    def test_level_shortfall_exit_3(self, tmp_path):
        obj, out = tmp_path / "w.json", tmp_path / "x.json"
        main(["build", "terminal-ofc", "--bound", "1", "--level", "0",
              "--output", str(obj)])
        assert main(["transform", "sd", str(obj), "--output", str(out)]) == 3
