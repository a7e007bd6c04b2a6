#!/usr/bin/env python3
"""Count the code lines of Python source files.

A code line holds at least one token of code.  Blank lines, comment
lines and docstrings are not counted.  A docstring is the first
statement of a module, class or function when it is a string, and also
a string statement right after an assignment (the attribute docstring
of a module constant).  A line that a multi-line string or bracket
spans counts once for each line it covers.

Usage:
    python scripts/code_lines.py FILE [FILE ...]

Prints each file's count, then the total.
"""

import argparse
import ast
import io
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _is_string(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def docstring_lines(tree):
    """The line numbers that docstrings of ``tree`` cover."""
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        scope = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
        for i, statement in enumerate(body):
            after_assignment = i and isinstance(body[i - 1], (ast.Assign, ast.AnnAssign))
            if _is_string(statement) and ((scope and i == 0) or after_assignment):
                lines.update(range(statement.lineno, statement.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python source text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="Python source files")
    args = parser.parse_args(argv)
    total = 0
    for path in args.files:
        with open(path, encoding="utf-8") as handle:
            count = code_lines(handle.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
