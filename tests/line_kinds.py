"""Print how many lines of each module are code, docstring, comment and blank, as a Markdown table.

A docstring line is one inside the docstring of a module, class or
function, found with `ast`; a comment line holds a comment and nothing
else, found with `tokenize`; code is every other non-blank line, an inline
comment's line included. `wc -l` counts all four alike, so a count that
fell because comments went out shows here as comment lines, not code.
pytest does not collect this file. Run it from the repository root:

    python tests/line_kinds.py [src/swarmclean/*.py]
"""
import ast
import glob
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)  # the nodes that can have a docstring


def line_kinds(path: str) -> dict[str, int]:
    """The count of each of KINDS among the lines of one Python file; they add up to its line count."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with open(path, "rb") as fh:
        comments = {tok.start[0] for tok in tokenize.tokenize(fh.readline)
                    if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        if number in docstrings:
            counts["docstring"] += 1
        else:
            counts["blank" if not line.strip() else "comment" if number in comments else "code"] += 1
    return counts


def main() -> None:
    paths = sys.argv[1:] or sorted(glob.glob("src/swarmclean/*.py"))
    print("| module | " + " | ".join(KINDS) + " | total |")
    print("|---" * (len(KINDS) + 2) + "|")
    totals = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = line_kinds(path)
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"| {path} | " + " | ".join(str(counts[kind]) for kind in KINDS) + f" | {sum(counts.values())} |")
    print("| total | " + " | ".join(str(totals[kind]) for kind in KINDS) + f" | {sum(totals.values())} |")


if __name__ == "__main__":
    main()
