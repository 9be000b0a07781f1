"""Start-up: what a fresh interpreter imports, and the package surface.

Every command-line run is a fresh process, so its start-up is paid once
per step of a pipeline.  Each subcommand imports only the modules it
runs, and the package resolves its public names on first use.  These
tests look only at module names in ``sys.modules``, never at timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import decompspace
from corpus import arrow_category, input_obj, one_gap_pcategory, short_words_pmonoid
from decompspace import builders, serialize

SRC = str(Path(decompspace.__file__).resolve().parent.parent)

#: Everything ``from decompspace import *`` binds: the public API and the
#: five submodules it comes from.
PUBLIC = [
    "CheckReport", "DirectedGraph", "FiniteCategory", "LevelError",
    "OuterFaceComplex", "PartialCategory", "PartialMonoid", "SimplexMap",
    "SimplicialMap", "SquareWitness", "StructuralError", "TruncatedSSet",
    "active_inert_pushout", "bounded_words", "builders",
    "check_2segal_polygonal", "check_culf", "check_decomposition",
    "check_decomposition_direct", "check_lower_2segal", "check_segal",
    "check_segal_iterated", "check_upper_2segal", "check_upper_2segal_reduced",
    "classify", "codegeneracy", "coface", "compose", "criteria", "dec_bot",
    "dec_top", "delta", "enumerate_active", "enumerate_inert",
    "factor_active_inert", "free_decomposition", "from_partial_category",
    "from_partial_monoid", "generator_decomposition", "graph_paths", "induce",
    "induced_map", "is_pullback_square", "length_map", "map_decbot_to_sd",
    "map_dectop_op_to_sd", "nerve", "operators", "opposite", "pullback_holds",
    "sd", "sset", "table_names", "terminal_complex", "truncate",
    "twisted_arrow", "validate", "validate_map",
]
SUBMODULES = {"builders", "criteria", "delta", "operators", "sset"}

# Runs the command line as the installed script does and prints, as its
# last line, the exit code and the decompspace submodules then loaded.
CLI_PROBE = """
import sys
from decompspace.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m[12:] for m in sys.modules if m.startswith("decompspace."))
print("\\nprobe:", code, *loaded)
"""


def fresh(code: str, *args: str, cwd=None) -> list[str]:
    """The words of the last stdout line of a new interpreter running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def cli_modules(*argv: str, cwd=None) -> tuple[int, set[str]]:
    """Exit code of the command line and the submodules it loaded."""
    words = fresh(CLI_PROBE, *argv, cwd=cwd)
    assert words[0] == "probe:"
    return int(words[1]), set(words[2:])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """An sset and its length map, written by the library."""
    where = tmp_path_factory.mktemp("startup")
    lmap = builders.length_map(builders.bounded_words(("a", "b"), 2), 3)
    serialize.write_file(str(where / "x.json"), serialize.sset_to_obj(lmap.source))
    serialize.write_file(str(where / "l.json"), serialize.smap_to_obj(lmap))
    return where


class TestImportGuard:
    def test_import_package_loads_no_submodule(self):
        loaded = fresh(
            "import sys, decompspace\n"
            "print(*sorted(m for m in sys.modules if m.startswith('decompspace')))"
        )
        assert loaded == ["decompspace"]

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["check", "nosuch", "x.json"], 2), (["build"], 2)],
        ids=["help", "bad-choice", "missing-argument"],
    )
    def test_help_and_usage_errors_load_only_the_cli(self, argv, code):
        assert cli_modules(*argv) == (code, {"cli"})

    @pytest.mark.parametrize(
        "argv",
        [["check", "segal", "x.json"], ["check", "culf", "l.json"]],
        ids=["segal", "culf"],
    )
    def test_check_loads_neither_builders_nor_operators(self, files, argv):
        code, loaded = cli_modules(*argv, cwd=files)
        assert code in (0, 1)
        assert loaded == {"cli", "criteria", "delta", "serialize", "sset"}

    def test_transform_does_not_load_builders(self, files, tmp_path):
        code, loaded = cli_modules(
            "transform", "dec-top", "x.json", "--output", str(tmp_path / "t.json"),
            cwd=files,
        )
        assert code == 0
        assert "operators" in loaded and not loaded & {"builders", "criteria"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["words", "--alphabet", "ab", "--max-len", "2"],
            ["nerve", "--input", "category.json"],
            ["pmonoid", "--input", "pmonoid.json"],
            ["pcategory", "--input", "pcategory.json"],
        ],
        ids=["words", "nerve", "pmonoid", "pcategory"],
    )
    def test_build_loads_neither_criteria_nor_operators(self, tmp_path, argv):
        for name, source in (
            ("category", arrow_category()),
            ("pmonoid", short_words_pmonoid(2)),
            ("pcategory", one_gap_pcategory()),
        ):
            (tmp_path / f"{name}.json").write_text(json.dumps(input_obj(source)))
        code, loaded = cli_modules(
            "build", *argv, "--level", "3", "--output", "w.json", cwd=tmp_path
        )
        assert code == 0 and (tmp_path / "w.json").is_file()
        assert "builders" in loaded
        assert not loaded & {"criteria", "operators"}


class TestPackageSurface:
    def test_star_import_binds_the_pinned_names(self):
        namespace: dict = {}
        exec("from decompspace import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == PUBLIC

    def test_dir_lists_the_pinned_names_before_any_is_loaded(self):
        # a fresh interpreter: importing serialize or cli binds them too
        listed = fresh(
            "import decompspace\n"
            "print(*(n for n in dir(decompspace) if not n.startswith('_')))"
        )
        assert listed == PUBLIC

    def test_each_name_is_its_submodule_object(self):
        for name in PUBLIC:
            value = getattr(decompspace, name)
            if name in SUBMODULES:
                assert value is sys.modules[f"decompspace.{name}"]
            else:
                assert value is getattr(sys.modules[value.__module__], name), name
        assert decompspace.check_segal is decompspace.criteria.check_segal
        assert decompspace.SimplexMap is decompspace.delta.SimplexMap
        assert decompspace.nerve is builders.nerve

    def test_names_and_submodules_resolve_on_first_use(self):
        loaded = fresh(
            "import sys, decompspace\n"
            "from decompspace import delta\n"
            "assert decompspace.sset.validate is decompspace.validate\n"
            "assert delta.compose is decompspace.compose\n"
            "print(*sorted(m for m in sys.modules if m.startswith('decompspace.')))"
        )
        assert loaded == ["decompspace.delta", "decompspace.sset"]

    def test_unknown_attribute_names_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            decompspace.no_such_name
