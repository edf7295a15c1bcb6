"""Two reports on the library in ``src/indval``.

``lines``: code lines per module, not counting blank lines, comment-only
lines and docstrings (a docstring is a string expression that opens the body
of a module, class or function).  The total is the one figure CHANGES.md
quotes as the size of ``src/``.

``reach``: for every function and method defined in ``src/indval``, which of
the following call it, recorded with ``sys.setprofile``:

* one block of each benchmark workload (seed 11): its set-up and every
  prepared and run operation, but not the output oracle;
* the four demos in ``demos/``;
* the eight golden CLI requests of ``tests/golden``.

``bench/workloads.py`` is loaded from its file with no bytecode written.
Functions that none of them reach are listed at the end.

Usage, from anywhere in the checkout::

    python tools/census.py            # both reports
    python tools/census.py lines
    python tools/census.py reach
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import random
import runpy
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "indval"
_SKIP = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(text: str) -> int:
    """Lines that hold a token other than a comment, outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            doc = body[0].value
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def report_lines() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<18}{n:>6}")
    print(f"{'total':<18}{total:>6}")


def functions():
    """(file, first line) -> qualified name of every def in the package.

    A decorated function's code object starts at its first decorator on
    some Python versions and at its ``def`` on others, so both lines map.
    """
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                        out[str(path), line] = name
                walk(child, name + ".", path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), f"{path.stem}.", path)
    return out


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


class _Calls:
    """The code objects called while the context is open."""

    def __init__(self):
        self.codes = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


def report_reach() -> None:
    sys.path.insert(0, str(SRC))
    import indval as iv
    import indval.cli  # noqa: F401  (the CLI workload and the goldens drive it)

    wls = _load_workloads()
    columns = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in wls.WORKLOADS.items():
            with _Calls() as calls, contextlib.redirect_stdout(io.StringIO()):
                ctx = wl.setup(iv, tmp)
                for spec in wl.generate(random.Random(11), 1):
                    wl.run(iv, ctx, wl.prepare(iv, ctx, spec))
            columns[name] = calls.codes
        cli = wls.CliSession()
        ctx = cli.setup(iv, tmp)
        ops = [cli.prepare(iv, ctx, ("golden", name, tuple(argv))) for name, argv in wls.GOLDEN]
        with _Calls() as calls:
            for op in ops:
                cli.run(iv, ctx, op)
        goldens = calls.codes
    with _Calls() as calls, contextlib.redirect_stdout(io.StringIO()):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    columns["demos"], columns["goldens"] = calls.codes, goldens

    defs = functions()
    reached = {col: {defs.get((c.co_filename, c.co_firstlineno)) for c in codes} for col, codes in columns.items()}
    names = sorted(set(defs.values()))
    width = max(map(len, names))
    print(f"{'function':<{width}}  " + "  ".join(columns))
    for fn in names:
        marks = ("x" if fn in reached[col] else "." for col in columns)
        print(f"{fn:<{width}}  " + "  ".join(f"{m:^{len(col)}}" for m, col in zip(marks, columns)))
    unreached = [fn for fn in names if not any(fn in r for r in reached.values())]
    print(f"\n{len(unreached)} of {len(names)} functions reached by none: " + ", ".join(unreached))


REPORTS = {"lines": report_lines, "reach": report_reach}


def main(argv=None) -> int:
    which = (sys.argv[1:] if argv is None else argv) or sorted(REPORTS)
    unknown = [r for r in which if r not in REPORTS]
    if unknown:
        print(f"unknown report {unknown[0]!r}; choose from {', '.join(sorted(REPORTS))}", file=sys.stderr)
        return 2
    for report in which:
        REPORTS[report]()
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
