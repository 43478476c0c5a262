"""Count the code lines of the wedgespec package.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the leading string of a module, class or function body).
Blank lines, comment lines and docstring lines are excluded.

    python tools/code_lines.py [package directory]

prints one count per module and the total; the directory defaults to
src/wedgespec next to this script's parent.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "wedgespec"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main(sys.argv)
