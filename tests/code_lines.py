"""Count the code lines of each module of ``src/openqdyn``.

A code line is a line that holds a token other than a comment and is not
part of a docstring (the first statement of a module, class or function when
it is a string).  Blank lines, comment lines and docstrings are not counted.
Prints one ``<lines>  <module>`` row per module and the total; standard
library only.

    python tests/code_lines.py [source directory]
"""
import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of one Python source file."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "openqdyn")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(root, name))
            total += n
            print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
