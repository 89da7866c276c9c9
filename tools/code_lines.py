"""Count the code lines of Python modules: lines that hold a token other
than a comment, a blank line or a docstring.

Usage: python tools/code_lines.py [PATH ...]   (default: src)

Each PATH is a file or a directory searched for ``*.py``.  Prints one row
per module and the total.  It only reports; it checks nothing.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers taken by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    files = []
    for arg in argv or ["src"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    counts = [(str(f), code_lines(f)) for f in files]
    width = max([len(name) for name, _ in counts] + [len("total")])
    for name, n in counts:
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(n for _, n in counts):>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
