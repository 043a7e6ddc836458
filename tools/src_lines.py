"""Line counts of the package source: raw lines, and code lines.

A code line holds at least one token that is not a comment, a line break or
an indent, and is not part of a docstring (the leading string of a module,
class or function body, found with ``ast``).  Blank lines, comment lines and
docstrings are not code lines; a line that mixes code and a comment is.

Usage: python tools/src_lines.py   (counts src/ of the repository holding this file)
"""

import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    total_raw = total_code = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        raw, code = len(source.splitlines()), code_lines(source)
        total_raw += raw
        total_code += code
        print(f"{raw:6d} {code:6d}  {path.relative_to(SRC.parent)}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw, code)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
