"""Count the source lines of each canonsr module.

    python benchmarks/src_lines.py [SRC]

A line counts when it is not blank and is not a comment line (its first
non-blank character is not '#').  Docstring lines count; the second column
gives the count without them, where a docstring is the string that opens a
module, class or function body.  SRC defaults to this checkout's `src`; the
modules counted are the `.py` files directly under SRC/canonsr.
"""

import ast
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the docstrings of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: str):
    """(lines with docstrings, lines without) for one module."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    docs = docstring_lines(ast.parse(text, path))
    code = [i for i, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")]
    return len(code), sum(i not in docs for i in code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = argv[0] if argv else os.path.join(os.path.dirname(HERE), "src")
    pkg = os.path.join(src, "canonsr")
    total = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'no docs':>9}")
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        lines = count(os.path.join(pkg, name))
        total = [t + n for t, n in zip(total, lines)]
        print(f"{name:<16}{lines[0]:>8}{lines[1]:>9}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
