"""List dead names: module-level ``_private`` functions that no code under
the given paths uses outside their own body, and module-level imports
that their module never reads.

Usage: python tools/dead_names.py [PATH ...]   (default: src)

Each PATH is a file or a directory searched for ``*.py``.  A use of a
helper is a name or an attribute read anywhere else in those files, or an
import under another name.  An import is read where its module names it
anywhere outside the import; ``__init__.py`` files and imports under
another name (``import x as y``: re-exports) are not checked.  Prints one
``path:line: name`` row per dead name and exits 1 if there is any, else
prints nothing and exits 0.
"""

import ast
import sys
from collections import Counter
from pathlib import Path


def _uses(node, counts):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias) and sub.asname:
            counts[sub.name] += 1


def dead_names(files):
    """(path, line, name) of every private module-level function that is
    used nowhere but in its own body."""
    helpers, total = [], Counter()
    for f in files:
        tree = ast.parse(Path(f).read_bytes())
        _uses(tree, total)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own = Counter()
                _uses(node, own)
                helpers.append((str(f), node.lineno, node.name, own[node.name]))
    return [(f, line, name) for f, line, name, own in helpers
            if total[name] == own]


def unread_imports(files):
    """(path, line, name) of every module-level import, not under another
    name, that its module never reads; ``__init__.py`` files are
    skipped."""
    unread = []
    for f in files:
        if Path(f).name == "__init__.py":
            continue
        tree = ast.parse(Path(f).read_bytes())
        reads = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # "import a.b" binds a
                    name = alias.name.partition(".")[0]
                    if not alias.asname and name != "*" and name not in reads:
                        unread.append((str(f), node.lineno, name))
    return unread


def main(argv):
    files = []
    for arg in argv or ["src"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    dead = sorted(dead_names(files) + unread_imports(files))
    for f, line, name in dead:
        print(f"{f}:{line}: {name}")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
