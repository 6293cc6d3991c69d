"""The README's library example runs, and each value it states in a trailing
``# value`` comment is what the expression on that line gives."""

import ast
import io
import re
import tokenize
from pathlib import Path

from gridirr import verify_irregular

README = Path(__file__).resolve().parents[1] / "README.md"


def stated_value(comment):
    """The literal a ``# value`` comment starts with: the whole comment, or
    its text up to the first comma ("2, with a verified witness")."""
    text = comment.lstrip("#").strip()
    for candidate in (text, text.split(",")[0]):
        try:
            return ast.literal_eval(candidate)
        except (ValueError, SyntaxError):
            pass
    return None


def test_the_library_example_gives_the_values_it_states():
    (source,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    comments = {
        token.start[0]: token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        comment = comments.get(statement.end_lineno)
        if isinstance(statement, ast.Expr) and comment is not None:
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert value == stated_value(comment), ast.unparse(statement)
            checked.append(value)
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert checked == [[13, 14, 15, 16, 17, 18, 19], True, 2, 2]
    # "2, with a verified witness"
    assert verify_irregular(namespace["result"].witness, namespace["family"]).accepted
