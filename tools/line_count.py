"""Print the line count and the code line count of src/promsa.

Usage: python tools/line_count.py

The first line is what ``echo "src/promsa lines:$(wc -l src/promsa/*.py |
tail -1)"`` prints with GNU wc, which pads its total to the number of
digits in the files' byte total. Code lines are those that are not blank,
comment-only or part of a docstring. The script takes no options and
writes no file.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "promsa"

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Lines of ``path`` holding a token other than layout, outside docstrings."""
    with open(path, "rb") as f:
        tree = ast.parse(f.read())
        f.seek(0)
        tokens = list(tokenize.tokenize(f.readline))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = {line for tok in tokens if tok.type not in _LAYOUT
            for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docstrings)


def main() -> None:
    paths = sorted(SRC.glob("*.py"))
    data = [path.read_bytes() for path in paths]
    lines = sum(text.count(b"\n") for text in data)
    width = len(str(sum(len(text) for text in data)))
    print(f"src/promsa lines:{lines:>{width}} total")
    print(f"src/promsa code lines: {sum(map(code_lines, paths)):,}")


if __name__ == "__main__":
    main()
