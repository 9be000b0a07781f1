"""Count the code lines of each module under src/.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of a docstring (the string that opens a module,
class or function body) do not count, and a statement or string that
spans several lines counts each of them.

    python tests/count_lines.py [ROOT]

prints each module's count and their total, for the tree at ROOT (the
repository holding this script by default).  Its name is not a test
module's, so pytest does not collect it.  Standard library only.
"""

import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code.
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """How many code lines the module at path holds."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = set()
    for token in tokens:
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,}  {path.relative_to(root)}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
