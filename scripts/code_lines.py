"""Count the code lines of a package, per module and in total.

A code line holds a token that is not a comment, a newline, an indent or a
dedent, and is not part of a module, class or function docstring; blank
lines, comment lines and docstrings do not count.  The raw line count of
each module is printed beside it.

    python scripts/code_lines.py            # the modules of src/linedg
    python scripts/code_lines.py PATH ...   # the given files or directories
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linedg"
_SKIP = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source):
    """(line, column) of the string that opens each module, class or function body."""
    return {(node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, _SCOPES) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def count(path):
    """(code lines, raw lines) of one Python file."""
    source = Path(path).read_text()
    docstrings = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(source.splitlines())


def main():
    roots = [Path(a) for a in sys.argv[1:]] or [PACKAGE]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.glob("*.py")))
    total_code = total_raw = 0
    for f in files:
        code, raw = count(f)
        total_code, total_raw = total_code + code, total_raw + raw
        print(f"{code:6d} {raw:6d}  {f.name}")
    print(f"{total_code:6d} {total_raw:6d}  total (code lines, raw lines)")


if __name__ == "__main__":
    main()
