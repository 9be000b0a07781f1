"""The command-line pipeline: build | transform | check with exit codes."""

import json

import pytest

from corpus import (
    arrow_category,
    chain_category,
    colliding_chains_category,
    colliding_chains_pmonoid,
    input_obj,
    paper_graph,
    short_words_pmonoid,
)
from decompspace import builders, serialize
from decompspace.cli import main
from decompspace.sset import TruncatedSSet
from oracles import identity_map, reference_dumps


def write_graph(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(input_obj(paper_graph())))
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

    @pytest.mark.parametrize(
        "kind, source, field, row",
        [
            ("graph-paths", paper_graph(), "edges", [1, "x", "x"]),
            ("graph-paths", paper_graph(), "edges", ["e", ["x"], "x"]),
            ("pmonoid", short_words_pmonoid(2), "product", [["a"], "a", "a"]),
            ("nerve", arrow_category(), "composition", [["i"], "i", "i"]),
        ],
    )
    def test_input_row_of_non_strings_exit_2(
        self, tmp_path, capsys, kind, source, field, row
    ):
        obj = input_obj(source)
        obj[field] = [row, *obj[field]]
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps(obj))
        size = ["--bound", "2"] if kind == "graph-paths" else []
        assert main(["build", kind, "--input", str(path), *size,
                     "--level", "2", "--output", str(out)]) == 2
        assert f"{field}[0] must be [" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, source, name",
        [
            ("nerve", colliding_chains_category(), "a|b|c"),
            ("pcategory", colliding_chains_category(), "a|b|c"),
            ("pmonoid", colliding_chains_pmonoid(), "(a,b,c)"),
        ],
    )
    def test_colliding_chain_names_exit_3(self, tmp_path, capsys, kind, source, name):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps(input_obj(source)))
        assert main(["build", kind, "--input", str(path), "--level", "2",
                     "--output", str(out)]) == 3
        assert f"chain names collide: duplicate cell {name!r} at level 2" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_colliding_twisted_arrow_names_exit_3(self, tmp_path, capsys):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps(input_obj(colliding_chains_category())))
        assert main(["build", "twisted-arrow", "--input", str(path), "--level", "1",
                     "--output", str(out)]) == 3
        assert "twisted arrow names collide: '[1x|a|b|c]' names two factorizations" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_composition_entry_naming_no_morphism_exit_3(self, tmp_path, capsys):
        obj = input_obj(arrow_category())
        obj["composition"].append(["zz", "qq", "nonsense"])
        path, out = tmp_path / "cat.json", tmp_path / "out.json"
        path.write_text(json.dumps(obj))
        assert main(["build", "nerve", "--input", str(path), "--level", "2",
                     "--output", str(out)]) == 3
        assert "composition entry ('zz', 'qq') -> 'nonsense' dangles" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, obj",
        [
            ("nerve", {"objects": ["*"],
                       "morphisms": [["e", "*", "*"], ["a", "*", "*"]],
                       "identities": {"*": "e"}}),
            ("pmonoid", {"carrier": ["e", "a"], "unit": "e"}),
        ],
    )
    def test_repeated_pair_exit_2(self, tmp_path, capsys, kind, obj):
        # the row [a, a, a] would silently replace [a, a, e]
        rows = [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "e"],
                ["a", "a", "a"]]
        field = "composition" if kind == "nerve" else "product"
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps({**obj, field: rows}))
        assert main(["build", kind, "--input", str(path), "--level", "2",
                     "--output", str(out)]) == 2
        assert f"{field}[4] repeats the pair ['a', 'a']" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "build, flag",
        [
            (["terminal-ofc", "--bound", "-1"], "--bound"),
            (["words", "--alphabet", "ab", "--max-len", "-1"], "--max-len"),
            # the input does not exist: the flag is rejected before any read
            (["graph-paths", "--input", "missing.json", "--bound", "-2"], "--bound"),
            (["free", "--input", "missing.json", "--level", "-1"], "--level"),
            (["words", "--alphabet", "ab", "--max-len", "2", "--level", "-1"], "--level"),
            (["terminal-ofc", "--bound", "2", "--level", "-1"], "--level"),
            (["nerve", "--input", "missing.json", "--level", "-3"], "--level"),
        ],
        ids=[
            "terminal-ofc", "words", "graph-paths",
            "free-level", "words-level", "terminal-ofc-level", "nerve-level",
        ],
    )
    def test_negative_size_rejected_before_writing(self, tmp_path, capsys, build, flag):
        build = [str(tmp_path / a) if a.endswith(".json") else a for a in build]
        assert main(["build", *build, "--output", str(tmp_path / "o.json")]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be nonnegative, got -" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "build, flag",
        [
            # the input does not exist: the flag is rejected before any read
            (["words", "--alphabet", "ab", "--max-len", "2", "--input", "missing.json"],
             "--input"),
            (["nerve", "--input", "missing.json", "--level", "2", "--bound", "5"],
             "--bound"),
            (["pmonoid", "--input", "missing.json", "--level", "2", "--max-len", "2"],
             "--max-len"),
            (["pcategory", "--input", "missing.json", "--level", "2", "--alphabet", "ab"],
             "--alphabet"),
            (["free", "--input", "missing.json", "--level", "2", "--bound", "1"],
             "--bound"),
            (["twisted-arrow", "--input", "missing.json", "--level", "2", "--bound", "1"],
             "--bound"),
            (["graph-paths", "--input", "missing.json", "--bound", "2", "--max-len", "2"],
             "--max-len"),
            (["terminal-ofc", "--bound", "2", "--input", "missing.json"], "--input"),
        ],
        ids=["words", "nerve", "pmonoid", "pcategory", "free", "twisted-arrow",
             "graph-paths", "terminal-ofc"],
    )
    def test_unread_flag_rejected_before_reading(self, tmp_path, capsys, build, flag):
        build = [str(tmp_path / a) if a.endswith(".json") else a for a in build]
        assert main(["build", *build, "--output", str(tmp_path / "o.json")]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} does not apply to build {build[0]}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

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

    def test_culf_rejects_an_invalid_end(self, tmp_path, capsys):
        # the identity map of the nerve of [2] at level 3 with d_0 at
        # level 2 sent to one cell: the map is natural, its ends are not
        # simplicial sets
        X = builders.nerve(chain_category(2), 3)
        faces = {**X.faces, (2, 0): (0,) * len(X.cells[2])}
        Y = TruncatedSSet(3, X.cells, faces, X.degeneracies)
        path = tmp_path / "id.json"
        path.write_text(serialize.dumps(serialize.smap_to_obj(identity_map(Y))))
        assert main(["check", "culf", str(path)]) == 3
        err = capsys.readouterr().err
        assert "map source is not a simplicial set: identity d_0 d_1 = d_0 d_0" in err

    @pytest.mark.parametrize("version", [None, "1", 2])
    def test_sset_format_version_exit_2(self, tmp_path, capsys, version):
        # every command that reads the file rejects it; none rewrites it
        obj, out = tmp_path / "w.json", tmp_path / "op.json"
        main(["build", "terminal-ofc", "--bound", "1", "--level", "2",
              "--output", str(obj)])
        data = json.loads(obj.read_text())
        if version is None:
            del data["format_version"]
        else:
            data["format_version"] = version
        obj.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "validate", str(obj)]) == 2
        assert main(["transform", "op", str(obj), "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("'format_version'") == 2

    @pytest.mark.parametrize("end", [(), ("source",), ("target",)])
    def test_smap_format_version_exit_2(self, tmp_path, capsys, end):
        obj, lmap = tmp_path / "w.json", tmp_path / "len.json"
        main(["build", "words", "--alphabet", "a", "--max-len", "2",
              "--level", "3", "--output", str(obj), "--length-map", str(lmap)])
        data = json.loads(lmap.read_text())
        inner = data[end[0]] if end else data
        inner["format_version"] = 7
        lmap.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "culf", str(lmap)]) == 2
        assert "field 'format_version' must be 1" in capsys.readouterr().err

    def test_machine_format_parses(self, tmp_path, capsys):
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", "2", "--output", str(obj)])
        main(["check", "segal", str(obj), "--format", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["criterion"] == "segal"
        assert payload["holds"] is False
        assert payload["witness"]["preimage_count"] == 0

    @pytest.mark.parametrize(
        "level, criterion, budget, expected",
        [
            (3, "decomp", None, {
                "checked_level": 3, "criterion": "decomp", "detail": None,
                "holds": True, "squares_checked": 2,
                "verdict": "holds-at-checked-depth", "witness": None,
            }),
            (2, "segal", None, {
                "checked_level": 2, "criterion": "segal", "detail": None,
                "holds": False, "squares_checked": 1, "verdict": "fails",
                "witness": {
                    "element": ["(a;1)", "(aa;2)"],
                    "levels": [2, 1, 1, 0],
                    "preimage_count": 0,
                    "preimages": [],
                    "square": "segal n=1: X2 -(d_bot)-> X1 -(d_top)-> X0, "
                    "X2 -(d_top)-> X1 -(d_bot)-> X0",
                },
            }),
            (3, "decomp-direct", "4", {
                "checked_level": 3, "criterion": "decomp-direct",
                "detail": "stopped after 4 squares (budget 4)", "holds": False,
                "squares_checked": 4, "verdict": "inconclusive", "witness": None,
            }),
        ],
        ids=["holds", "fails", "inconclusive"],
    )
    def test_machine_format_bytes(
        self, tmp_path, capsys, monkeypatch, level, criterion, budget, expected
    ):
        # the seven keys of FORMATS.md and nothing else, in the file layout
        obj = tmp_path / "w.json"
        main(["build", "words", "--alphabet", "ab", "--max-len", "2",
              "--level", str(level), "--output", str(obj)])
        capsys.readouterr()
        if budget is not None:
            monkeypatch.setenv("DECOMP_MAX_SQUARES", budget)
        code = main(["check", criterion, str(obj), "--format", "machine"])
        assert code == {"holds-at-checked-depth": 0, "fails": 1, "inconclusive": 4}[
            expected["verdict"]
        ]
        out = capsys.readouterr().out
        assert set(json.loads(out)) == {
            "criterion", "verdict", "holds", "checked_level", "squares_checked",
            "witness", "detail",
        }
        assert out == reference_dumps(expected)

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

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,
            '{"format_version": 1, "kind": "sset", "level": ' + "9" * 5000 + "}",
        ],
        ids=["deep", "long-int"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "segal", "{bad}"],
            ["build", "nerve", "--input", "{bad}", "--level", "2", "--output", "{out}"],
        ],
        ids=["check", "build"],
    )
    def test_unreadable_json_exit_2(self, tmp_path, capsys, text, argv):
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_text(text)
        assert main([a.format(bad=bad, out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON")
        assert "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("criterion", ["validate", "segal", "twosegal", "culf"])
    def test_rank_cap_outside_decomp_direct_exit_2(self, tmp_path, capsys, criterion):
        missing = tmp_path / "never-read.json"
        assert main(["check", criterion, str(missing), "--rank-cap", "-5"]) == 2
        captured = capsys.readouterr()
        assert "--rank-cap only applies to decomp-direct" in captured.err
        assert str(missing) not in captured.err and captured.out == ""

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

    @pytest.mark.parametrize("op", ["sd", "op"])
    def test_map_output_rejected_before_writing(self, tmp_path, capsys, op):
        obj = tmp_path / "w.json"
        main(["build", "terminal-ofc", "--bound", "1", "--level", "2",
              "--output", str(obj)])
        code = main(["transform", op, str(obj), "--output", str(tmp_path / "o.json"),
                     "--map-output", str(tmp_path / "m.json")])
        assert code == 2
        assert "--map-output only applies to dec transforms" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["w.json"]

    def test_level_shortfall_exit_3(self, tmp_path):
        obj, out = tmp_path / "w.json", tmp_path / "x.json"
        main(["build", "terminal-ofc", "--bound", "1", "--level", "0",
              "--output", str(obj)])
        assert main(["transform", "sd", str(obj), "--output", str(out)]) == 3


class TestOutputPaths:
    @pytest.mark.parametrize("bad", ["missing/out.json", "outdir"])
    @pytest.mark.parametrize("flag", ["--output", "--length-map", "--map-output"])
    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_write_names_the_path_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, bad, flag, existed
    ):
        # the other target of the command, new or with bytes of its own,
        # is left as it was, and no temp file stays behind
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        words = ["build", "words", "--alphabet", "ab", "--max-len", "2", "--level", "3"]
        assert main([*words, "--output", "w.json"]) == 0
        if existed:
            (tmp_path / "other.json").write_text("before")
        if flag == "--map-output":
            argv = ["transform", "dec-top", "w.json", "--output", "other.json"]
        else:
            other = "--length-map" if flag == "--output" else "--output"
            argv = [*words, other, "other.json"]
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main([*argv, flag, bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f": {bad!r}\n"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if existed:
            assert (tmp_path / "other.json").read_text() == "before"

    @pytest.mark.parametrize(
        "command",
        [
            ["build", "graph-paths", "--input", "graph.json", "--bound", "2", "--level", "3",
             "--output", "t.json", "--length-map", "t.json"],
            ["build", "graph-paths", "--input", "graph.json", "--bound", "2", "--level", "3",
             "--output", "t.json", "--length-map", "./sub/../t.json"],
            ["transform", "dec-top", "X.json", "--output", "o.json", "--map-output", "./o.json"],
        ],
        ids=["same", "dotted", "transform"],
    )
    @pytest.mark.parametrize("existed", [False, True])
    def test_two_outputs_on_one_path(self, tmp_path, capsys, monkeypatch, command, existed):
        # both files would be written to one path, leaving only the map;
        # the command exits 2 naming both flags, and reads and writes
        # nothing
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        write_graph(tmp_path)
        words = ["build", "words", "--alphabet", "ab", "--max-len", "2", "--level", "3"]
        assert main([*words, "--output", "X.json"]) == 0
        if existed:
            (tmp_path / command[command.index("--output") + 1]).write_text("before")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        capsys.readouterr()
        assert main(command) == 2
        err = capsys.readouterr().err
        flag = "--length-map" if command[0] == "build" else "--map-output"
        assert err.startswith(f"error: --output and {flag} name the same file"), err
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert after == before

    def test_two_outputs_through_a_link(self, tmp_path, capsys, monkeypatch):
        # a symbolic link to the output is the same file
        monkeypatch.chdir(tmp_path)
        words = ["build", "words", "--alphabet", "ab", "--max-len", "2", "--level", "3"]
        (tmp_path / "link.json").symlink_to(tmp_path / "w.json")
        assert main([*words, "--output", "w.json", "--length-map", "link.json"]) == 2
        assert "name the same file" in capsys.readouterr().err
        assert not (tmp_path / "w.json").exists()
