"""Five reports on the library in ``src/indval``.

``lines``: code lines per module, not counting blank lines, comment-only
lines and docstrings (a docstring is a string expression that opens the body
of a module, class or function).  The total is the one figure CHANGES.md
quotes as the size of ``src/``.

``reach``: for every function and method defined in ``src/indval``, which of
the following call it, recorded with ``sys.setprofile``, one column each:

* ``import``: the ``import indval`` (and ``indval.cli``) itself, so that
  calls made at import time count;
* one block of each benchmark workload (seed 11): its set-up and every
  prepared and run operation;
* ``demos``: the four demos in ``demos/``;
* ``goldens``: the eight golden CLI requests of ``tests/golden``;
* ``bench``: what the benchmark needs beyond its operations.  That is each
  workload's output check (its oracle) on the outputs of its block, and
  every function that ``bench/layers.py`` names in ``BOUNDARIES``, which its
  tracer looks up by name.  An oracle that raises (the F_2/F_3 one without
  sympy, say) still counts the calls it made: reach records calls, it does
  not judge outputs.

``bench/workloads.py`` and ``bench/layers.py`` are loaded from their files
with no bytecode written.  Functions that none of them reach are listed at
the end.  That list names a sample, not dead code: a rare branch that one
block of a workload misses may be reached in a longer run or under another
seed.  ``towers._PrimeLists.add``, through the F_2 trace sums of
``_equal_degree``, is reached in 1 of the 288 operations of four seed-1
blocks of ``finite_fields``, and in none of the 576 of eight seed-11 blocks.

``reach --check`` holds that list to ``tools/reach_allow.txt``, one line
``module.qualname  # reason`` per function that stays unreached on purpose:
printing, immutability guards, CLI usage-error paths, rare branches.  It
exits 1, naming each, on an unreached function that the file does not list,
and on a listed one that is reached, has no reason or no longer exists;
else it exits 0.  Tier-1 runs it (``tests/test_tools.py``), so a function
that nothing calls cannot be added unnoticed.

``retain``: the bytes that the outputs of one block of each benchmark
workload (seed 11) keep alive per operation when every output is kept, as
``bench/run.py`` keeps them until its checks.  Only the outputs count, not
the harness's own record of each operation.  An output's bytes are the
``sys.getsizeof`` of the objects it reaches that nothing else reaches: not
the set-up, the inputs, the loaded modules or the interpreter's constants.
The contents of ``functools`` caches are not excluded, so an object that an
output shares with a bounded cache counts as the output's: in a long run the
cache evicts it and the output alone holds it.  Objects that outputs share
with each other count once.  (``tracemalloc`` cannot give this figure per
output: objects freed onto the interpreter's free lists still count as
allocated.)  ``finite_fields`` is split by field order and ``keys_ladder`` by
cell (kind and depth).  ``peak_rss_mb`` grows with this figure times the
operations a run completes.

``cells``: the mean latency of each cell of ``finite_fields`` (field order
and degree), ``keys_ladder`` (kind and depth), ``valuation`` (chain) and
``cli_session`` (kind and verb), over CELL_BLOCKS blocks of the workload
(seed 11) timed after one untimed pass over them, with each cell's share of the workload's time.
A cell is marked ``p50`` or ``pNN`` when the workload's median, or its tail
percentile (both by nearest rank), lies within it once its fastest and
slowest tenth are set aside; when no cell holds an edge so, the cell of the
edge's own operation is marked.  Those are the cells a change must speed up
to move that metric.  Times are ``time.perf_counter``
on this host, not scaled as ``bench/run.py`` scales them.

``headroom [workload]``: how much faster a workload may run before
``peak_rss_mb`` passes its bound.  It runs ``bench/run.py`` on the checkout
for HEADROOM_SECONDS (1 s and 8 s, seed 1, untraced), fits
``peak_rss_mb = base + bytes * ops`` through the two runs, and extrapolates
the 8-s rate to a RUN_SECONDS run.  A k times faster run completes k times
the operations, so it prints the base, the bytes per operation and the
largest k whose run stays within the bound ``BENCHMARK.json`` gives
``peak_rss_mb``.  Two single runs make a rough fit: RSS varies by about a
megabyte between runs, so a difference of that size is noise.  Every
workload when none is named.  It is not a gate.

Usage, from anywhere in the checkout::

    python tools/census.py            # every report but headroom
    python tools/census.py lines
    python tools/census.py reach
    python tools/census.py reach --check
    python tools/census.py retain
    python tools/census.py cells
    python tools/census.py headroom [workload]
"""

from __future__ import annotations

import ast
import contextlib
import functools
import gc
import importlib.util
import io
import json
import math
import random
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "indval"
ALLOWLIST = ROOT / "tools" / "reach_allow.txt"
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


def _load_bench(name: str):
    """bench/<name>.py, loaded from its file with no bytecode written."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


def reach_columns():
    """(names, columns): the qualified name of every function in the package,
    and for each column of the reach report the set of those it reached."""
    sys.path.insert(0, str(SRC))
    with _Calls() as calls:
        import indval as iv
        import indval.cli  # noqa: F401  (the CLI workload and the goldens drive it)
    columns = {"import": calls.codes}

    wls = _load_bench("workloads")
    checks = set()
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in wls.WORKLOADS.items():
            with _Calls() as calls, contextlib.redirect_stdout(io.StringIO()):
                ctx = wl.setup(iv, tmp)
                ops = [wl.prepare(iv, ctx, spec) for spec in wl.generate(random.Random(11), 1)]
                outs = [wl.run(iv, ctx, op) for op in ops]
            columns[name] = calls.codes
            for op, out in zip(ops, outs):
                # reach records the calls an oracle makes, not its verdict:
                # one that raises (no sympy, say) still counts what it called
                with _Calls() as calls:
                    try:
                        wl.check(iv, ctx, op, out)
                    except Exception:
                        pass
                checks |= calls.codes
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
    # the tracer of bench/layers.py looks up every boundary by name
    boundaries = {f"{module}.{attr}" for module, attr, _name, _kind in _load_bench("layers").BOUNDARIES}
    reached["bench"] = {defs.get((c.co_filename, c.co_firstlineno)) for c in checks} | boundaries
    return sorted(set(defs.values())), reached


def unreached(names, reached):
    return [fn for fn in names if not any(fn in r for r in reached.values())]


def report_reach() -> None:
    names, reached = reach_columns()
    width = max(map(len, names))
    print(f"{'function':<{width}}  " + "  ".join(reached))
    for fn in names:
        marks = ("x" if fn in reached[col] else "." for col in reached)
        print(f"{fn:<{width}}  " + "  ".join(f"{m:^{len(col)}}" for m, col in zip(marks, reached)))
    missed = unreached(names, reached)
    print(
        f"\n{len(missed)} of {len(names)} functions not reached by the import, one block (seed 11) of each "
        "workload, its checks and boundaries, the demos or the goldens: " + ", ".join(missed)
    )


def read_allowlist(text: str):
    """{name: reason} from the lines ``module.qualname  # reason`` of an
    allowlist; blank lines and lines that open with ``#`` are skipped."""
    allow = {}
    for line in text.splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            allow[name.strip()] = reason.strip()
    return allow


def reach_problems(names, missed, allow) -> list:
    """What ``reach --check`` fails on: an unreached function that is not in
    the allowlist, and an entry that is reached, gives no reason or names no
    function."""
    out = [f"unreached and not allowlisted: {fn}" for fn in missed if fn not in allow]
    for fn, reason in allow.items():
        if fn not in names:
            out.append(f"allowlisted but no such function: {fn}")
        elif fn not in missed:
            out.append(f"allowlisted but reached: {fn}")
        elif not reason:
            out.append(f"allowlisted without a reason: {fn}")
    return out


def check_reach() -> int:
    names, reached = reach_columns()
    missed = unreached(names, reached)
    problems = reach_problems(names, missed, read_allowlist(ALLOWLIST.read_text()))
    for problem in problems:
        print(problem)
    if not problems:
        print(f"{len(missed)} of {len(names)} functions unreached, each listed in {ALLOWLIST.relative_to(ROOT)}")
    return 1 if problems else 0


def _cell(wl, spec) -> tuple:
    """The cell of an operation's spec: (field order, degree) in
    ``finite_fields``, (kind, depth) in ``keys_ladder``, ("chain", chain) in
    ``valuation`` and (kind, verb) in ``cli_session``."""
    if wl.name == "finite_fields":
        return wl.orders[spec[0]], len(spec[1])
    if wl.name == "keys_ladder":
        return (f"key_check_{spec[2]}" if spec[0] == "key_check" else spec[0]), spec[1]
    if wl.name == "valuation":
        return "chain", wl.chains[spec[0]]
    return spec[0], spec[2][0]


def _label(wl, cell) -> str:
    """Two tokens: ``F_4 d3``, ``decompose d2``, ``chain nu1``, ``verb eval``."""
    if wl.name == "finite_fields":
        return f"F_{cell[0]} d{cell[1]}"
    if wl.name == "keys_ladder":
        return f"{cell[0]} d{cell[1]}"
    return f"{cell[0]} {cell[1]}"


def _part(wl, spec) -> str:
    """The share of a workload an operation's spec belongs to."""
    if wl.name == "finite_fields":
        return f"F_{_cell(wl, spec)[0]}"
    if wl.name == "keys_ladder":
        return _label(wl, _cell(wl, spec))
    return "all"


def _reach(roots, seen):
    """Add to seen the ids of every object reachable from roots that is not
    already in it, walking ``gc.get_referents`` but not into ``functools``
    caches; return the sum of ``sys.getsizeof`` over the objects added."""
    total, stack = 0, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, functools._lru_cache_wrapper):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def report_retain() -> None:
    sys.path.insert(0, str(SRC))
    import indval as iv
    import indval.cli  # noqa: F401  (the CLI workload drives it)

    wls = _load_bench("workloads")
    # objects that cost nothing to keep: the interpreter's own constants
    constants = [None, True, False, (), "", *range(-5, 257), *map(chr, range(256))]
    print(f"{'workload':<15}{'part':<24}{'ops':>5}{'bytes/op':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in wls.WORKLOADS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                ctx = wl.setup(iv, tmp)
                specs = wl.generate(random.Random(11), 1)
                ops = [wl.prepare(iv, ctx, spec) for spec in specs]
                outs = [wl.run(iv, ctx, op) for op in ops]
            # everything the process holds without the outputs, but for the
            # caches' contents, which a long run evicts
            seen = set()
            _reach([ctx, ops, sys.modules, constants], seen)
            kept, count = defaultdict(int), defaultdict(int)
            for spec, out in zip(specs, outs):
                part = _part(wl, spec)
                kept[part] += _reach([out], seen)
                count[part] += 1
            rows = sorted(kept, key=lambda part: (len(part), part)) if len(kept) > 1 else []
            for part in rows + ["all"]:
                n = sum(count.values()) if part == "all" else count[part]
                b = sum(kept.values()) if part == "all" else kept[part]
                print(f"{name:<15}{part:<24}{n:>5}{b / n:>10.0f}")


# blocks per workload.  A valuation block holds each chain once, and a
# cli_session block each malformed request every other block, so their
# cells hold at least 40 operations; finite_fields and keys_ladder keep 4
# blocks (4 to 8 operations a cell), which cost most of the report's time
CELL_BLOCKS = {"finite_fields": 4, "keys_ladder": 4, "valuation": 40, "cli_session": 80}


def report_cells() -> None:
    sys.path.insert(0, str(SRC))
    import indval as iv

    wls = _load_bench("workloads")
    print(f"{'workload':<15}{'cell':<24}{'ops':>5}{'mean ms':>10}{'share':>8}  marks")
    with tempfile.TemporaryDirectory() as tmp:
        for name, blocks in CELL_BLOCKS.items():
            wl = wls.WORKLOADS[name]
            ctx = wl.setup(iv, tmp)
            specs = wl.generate(random.Random(11), blocks)
            ops = [wl.prepare(iv, ctx, spec) for spec in specs]
            for op in ops:  # warm the caches as a long run does
                wl.run(iv, ctx, op)
            cells, times = defaultdict(list), []
            for spec, op in zip(specs, ops):
                t0 = time.perf_counter()
                wl.run(iv, ctx, op)
                t = time.perf_counter() - t0
                cells[_cell(wl, spec)].append(t)
                times.append((t, _cell(wl, spec)))
            times.sort()
            rank = max(1, math.ceil(wl.tail_percentile / 100 * len(times)))
            # nearest ranks, so that each edge is an operation of some cell
            edges = (("p50", times[(len(times) - 1) // 2]), (f"p{wl.tail_percentile}", times[rank - 1]))
            for ts in cells.values():
                ts.sort()
            # the cells whose middle eight tenths hold the edge, else the
            # cell of the edge's own operation
            marked = defaultdict(list)
            for m, (v, home) in edges:
                inside = [c for c, ts in cells.items() if ts[len(ts) // 10] <= v <= ts[-1 - len(ts) // 10]]
                for cell in inside or [home]:
                    marked[cell].append(m)
            total = sum(t for t, _ in times)
            for cell in sorted(cells):
                ts = cells[cell]
                mean, share = statistics.fmean(ts) * 1e3, sum(ts) / total
                print(f"{name:<15}{_label(wl, cell):<24}{len(ts):>5}{mean:>10.3f}{share:>8.1%}  {' '.join(marked[cell])}")


# the lengths of the two fitted runs, and of a benchmark run (bench/run.py's
# default --seconds)
HEADROOM_SECONDS = (1.0, 8.0)
RUN_SECONDS = 22.0


def _bench_run(workload: str, seconds: float) -> tuple:
    """(operations, wall seconds, peak RSS in MB) of one untraced run."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2][len("detail: "):]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} failed {result['failed']} operations")
    return result["attempted"], detail["wall_s"], result["metrics"]["peak_rss_mb"]["value"]


def headroom(runs, bound: float) -> tuple:
    """(base MB, bytes per operation, operations and MB of a RUN_SECONDS run,
    the largest speed-up k within the bound) from two runs (ops, wall s, MB).
    k is infinite when RSS does not grow with the operations."""
    (ops1, _w1, mb1), (ops2, wall2, mb2) = runs
    per_op = (mb2 - mb1) / (ops2 - ops1)  # MB
    base = mb1 - per_op * ops1
    ops = ops2 / wall2 * RUN_SECONDS
    mb = base + per_op * ops
    k = 1 + bound * mb / (per_op * ops) if per_op > 0 else math.inf
    return base, per_op * 2**20, ops, mb, k


def report_headroom(workloads=()) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb")
    names = list(workloads) or [w["name"] for w in spec["workloads"]]
    unknown = [n for n in names if n not in {w["name"] for w in spec["workloads"]}]
    if unknown:
        raise SystemExit(f"unknown workload {unknown[0]!r}")
    print(f"{'workload':<15}{'ops 1s':>8}{'ops 8s':>8}{'MB 1s':>8}{'MB 8s':>8}"
          f"{'base MB':>9}{'B/op':>8}{'ops 22s':>9}{'MB 22s':>8}  max speed-up within +{bound:.0%} RSS")
    for name in names:
        runs = [_bench_run(name, s) for s in HEADROOM_SECONDS]
        base, per_op, ops, mb, k = headroom(runs, bound)
        (o1, _, m1), (o2, _, m2) = runs
        print(f"{name:<15}{o1:>8}{o2:>8}{m1:>8.1f}{m2:>8.1f}{base:>9.1f}{per_op:>8.0f}{ops:>9.0f}{mb:>8.1f}  x{k:.2f}")


REPORTS = {"lines": report_lines, "reach": report_reach, "retain": report_retain, "cells": report_cells}


def main(argv=None) -> int:
    which = sys.argv[1:] if argv is None else argv
    if which[:1] == ["headroom"]:
        report_headroom(which[1:])
        return 0
    if which == ["reach", "--check"]:
        return check_reach()
    which = which or sorted(REPORTS)
    unknown = [r for r in which if r not in REPORTS]
    if unknown:
        print(f"unknown report {unknown[0]!r}; choose from {', '.join(sorted(REPORTS) + ['headroom'])}", file=sys.stderr)
        return 2
    for report in which:
        REPORTS[report]()
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
