#!/usr/bin/env python3
"""Split the lines of Python files into code, docstring, comment and blank
lines, read by the standard tokenizer, and print one row per file and one
for all of them:

    python3 scripts/line_counts.py src/wob/*.py

A docstring is a string that is a whole statement.  A line that holds code
counts as code, whatever else it holds; a line with only a comment counts
as a comment, and a line with no token as blank.  The four counts add up to
the file's line count."""

import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
LINE_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}
NO_CODE = LINE_START | {tokenize.COMMENT, tokenize.ENDMARKER}


def split(path) -> dict:
    """The kind of each line of the file at `path`, counted."""
    with open(path, "rb") as f:
        text = f.read()
    tokens = list(tokenize.tokenize(iter(text.splitlines(keepends=True)).__next__))
    code, doc, comment = set(), set(), set()
    for before, t, after in zip(tokens, tokens[1:], tokens[2:]):
        lines = range(t.start[0], t.end[0] + 1)
        if t.type == tokenize.COMMENT:
            comment.update(lines)
        elif t.type == tokenize.STRING and before.type in LINE_START and after.type == tokenize.NEWLINE:
            doc.update(lines)
        elif t.type not in NO_CODE:
            code.update(lines)
    doc -= code
    comment -= code | doc
    n = len(text.splitlines())
    return dict(zip(KINDS, (len(code), len(doc), len(comment), n - len(code | doc | comment))))


def row(name: str, counts: dict) -> str:
    return f"{name}: {sum(counts.values())} lines, " + ", ".join(f"{kind} {counts[kind]}" for kind in KINDS)


def main(paths) -> int:
    total = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = split(path)
        print(row(path, counts))
        for kind in KINDS:
            total[kind] += counts[kind]
    print(row("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
