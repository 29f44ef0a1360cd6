"""Count code lines per module, by one tokenize rule.

A line counts when it holds a token other than a comment, a newline, an
indent or dedent token, or a docstring.  A string that opens its line is
read as a docstring (or as one line of a message split over several), so a
line that holds nothing but such strings does not count, while a string
after code on the same line does.  Lines spanned by a counted token all
count.

    python3 tools/code_lines.py                 # every module of src/
    python3 tools/code_lines.py src/loopfusion/affine_weyl.py

Prints one "count path" line per module and the total last.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
# Python 3.12 splits an f-string into several tokens between these two
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines: set[int] = set()
    line_open = True  # no code token yet on the current line
    depth = 0  # open f-strings that opened their line
    for tok in tokens:
        if depth:
            depth += (tok.type == FSTRING_START) - (tok.type == FSTRING_END)
            continue
        if tok.type in (tokenize.NL, tokenize.NEWLINE):
            line_open = True
        if tok.type in LAYOUT:
            continue
        if line_open and tok.type in (tokenize.STRING, FSTRING_START):
            depth = tok.type == FSTRING_START
            continue
        line_open = False
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(Path("src").rglob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
