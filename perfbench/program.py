"""Locate and import the decompspace sources of the checkout under test.

The benchmark measures the sources in ``src/`` next to this directory,
never an installed copy, so every import goes through ``load``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(Exception):
    """The checkout does not hold the decompspace sources."""


def load():
    """Put ``src/`` first on the import path and import decompspace from it."""
    if not (SRC / "decompspace" / "__init__.py").is_file():
        raise MissingProgram(f"no decompspace sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import decompspace

    if Path(decompspace.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"decompspace imported from {decompspace.__file__}")
    return decompspace


def subprocess_env() -> dict[str, str]:
    """Environment for CLI subprocesses: the same sources on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env
