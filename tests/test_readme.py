"""The README's Python examples run, and print what their comments say.

Every ```python block of README.md runs in one namespace, in order.  A
print statement whose trailing comment is a Python literal or a verdict
string is checked: the text it would print must be that comment.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
VERDICTS = {"holds-at-checked-depth", "fails", "inconclusive"}


def expected_text(comment: str) -> str | None:
    """The comment when it states what is printed, else None."""
    try:
        ast.literal_eval(comment)
    except (SyntaxError, ValueError):
        return comment if comment in VERDICTS else None
    return comment


def test_python_examples_print_what_they_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 2
    namespace, checked = {}, 0
    for source in blocks:
        comments = {
            tok.start[0]: tok.string.lstrip("#").strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        }
        for stmt in ast.parse(source).body:
            call = stmt.value if isinstance(stmt, ast.Expr) else None
            is_print = isinstance(call, ast.Call) and getattr(call.func, "id", "") == "print"
            if not is_print:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            (arg,) = call.args
            value = eval(compile(ast.Expression(arg), "README.md", "eval"), namespace)
            expected = expected_text(comments.get(stmt.end_lineno, ""))
            if expected is not None:
                assert str(value) == expected, ast.unparse(arg)
                checked += 1
    assert checked == 8
