"""Smoke tests of the reports in tools/census.py, run as a script."""

import importlib.util
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CENSUS = os.path.join(ROOT, "tools", "census.py")
MODULES = sorted(n for n in os.listdir(os.path.join(ROOT, "src", "indval")) if n.endswith(".py"))


def _census(*reports):
    proc = subprocess.run([sys.executable, CENSUS, *reports], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_lines_counts_every_module_and_sums_them():
    rows = [line.split() for line in _census("lines") if line.strip()]
    counts = {name: int(n) for name, n in rows}
    assert sorted(counts) == sorted(MODULES + ["total"])
    assert all(n > 0 for n in counts.values())
    assert counts["total"] == sum(n for name, n in counts.items() if name != "total")


def test_cells_covers_every_cell_and_marks_both_edges():
    rows = [line.split() for line in _census("cells")[1:] if line.strip()]
    cells, counts = {}, {}
    for row in rows:  # workload, a two-token cell label, ops, mean ms, share, marks
        workload, label, ops, mean, share, marks = row[0], " ".join(row[1:3]), int(row[3]), float(row[4]), row[5], row[6:]
        assert ops > 0 and mean > 0 and share.endswith("%")
        cells.setdefault(workload, {})[label] = marks
        counts[workload, label] = ops
    fields = [f"F_{q} d{d}" for q, top in ((2, 12), (3, 12), (4, 12), (16, 6)) for d in range(1, top + 1)]
    assert sorted(cells["finite_fields"]) == sorted(fields)
    kinds = ("decompose", "factor", "key_check_lifted", "key_check_random", "enumerate")
    assert sorted(cells["keys_ladder"]) == sorted(f"{k} d{d}" for k in kinds for d in range(1, 6))
    chains = ("nu1", "nu2", "nu3p", "nu_inf", "nu8", "lam_limit")
    assert sorted(cells["valuation"]) == sorted(f"chain {c}" for c in chains)
    chain_verbs = ("eval", "expand", "respoly", "decompose", "ideal", "iskey", "liftkey", "enumerate", "factor", "augment", "vchi")
    goldens = ("eval", "respoly", "factor", "decompose", "iskey", "stability", "limit", "enumerate")
    malformed = ("eval", "stability", "iskey", "liftkey")
    want = [f"verb {v}" for v in chain_verbs + ("stability", "limit")]
    want += [f"golden {v}" for v in goldens] + [f"malformed {v}" for v in malformed]
    assert sorted(cells["cli_session"]) == sorted(want)
    assert all(ops >= 40 for (workload, _), ops in counts.items() if workload in ("valuation", "cli_session"))
    # the median and the tail percentile each fall inside some cell
    for workload, tail in (("finite_fields", "p99"), ("keys_ladder", "p95"), ("valuation", "p99"), ("cli_session", "p99")):
        marks = [m for ms in cells[workload].values() for m in ms]
        assert "p50" in marks and tail in marks
        assert all(re.fullmatch(r"p\d+", m) for m in marks)


def _load_census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_reach_names_its_sample():
    rows = [line for line in _census("reach") if line.strip()]
    assert rows[0].split() == ["function", "import", "valuation", "keys_ladder", "finite_fields", "cli_session",
                               "demos", "goldens", "bench"]
    m = re.fullmatch(
        r"(\d+) of (\d+) functions not reached by the import, one block \(seed 11\) of each workload, "
        r"its checks and boundaries, the demos or the goldens: (.*)",
        rows[-1],
    )
    assert m and int(m[1]) <= int(m[2])


def test_reach_check_passes_on_the_package():
    # every function some entry point reaches, or listed with its reason
    assert _census("reach", "--check")[-1].endswith("functions unreached, each listed in tools/reach_allow.txt")


def test_reach_check_reports_an_unlisted_function_and_a_stale_entry():
    census = _load_census()
    allow = census.read_allowlist("# a comment line\n\nm.kept  # printing\nm.used  # stale\nm.gone  # deleted\nm.bare\n")
    assert allow == {"m.kept": "printing", "m.used": "stale", "m.gone": "deleted", "m.bare": ""}
    names = ["m.bare", "m.kept", "m.new", "m.used"]
    assert census.reach_problems(names, ["m.bare", "m.kept", "m.new"], allow) == [
        "unreached and not allowlisted: m.new",
        "allowlisted but reached: m.used",
        "allowlisted but no such function: m.gone",
        "allowlisted without a reason: m.bare",
    ]
    assert census.reach_problems(names, ["m.kept"], {"m.kept": "printing"}) == []


def test_headroom_fits_a_line_through_two_runs():
    census = _load_census()
    # 800 more operations kept 0.8 MB more: 1 kB each over a base of 29.9 MB
    base, per_op, ops, mb, k = census.headroom([(100, 1.0, 30.0), (900, 8.0, 30.8)], 0.1)
    assert (round(base, 6), round(per_op), round(ops)) == (29.9, 1049, 2475)
    assert math.isclose(mb, 29.9 + 2.475) and math.isclose(k, 1 + 0.1 * mb / 2.475)
    assert census.headroom([(100, 1.0, 30.0), (900, 8.0, 30.0)], 0.1)[-1] == math.inf


# ``census.py retain`` in a fresh interpreter whose result interning is
# bypassed; keys imports _interned by name, so both modules are patched
_RETAIN_UNINTERNED = """\
import runpy, sys
census, src = sys.argv[1:]
sys.path.insert(0, src)
import indval.keys, indval.residual
for module in (indval.residual, indval.keys):
    module._interned = lambda result: result
sys.argv = [census, "retain"]
runpy.run_path(census, run_name="__main__")
"""


def _retained(lines):
    """{workload: bytes per operation} from the ``all`` rows of ``retain``."""
    rows = [line.split() for line in lines[1:] if line.strip()]
    return {row[0]: int(row[-1]) for row in rows if row[1] == "all"}


def test_retain_reports_every_workload_and_sees_a_cache():
    kept = _retained(_census("retain"))
    assert sorted(kept) == ["cli_session", "finite_fields", "keys_ladder", "valuation"]
    assert all(b > 0 for b in kept.values())
    # without the interning of results, equal decompositions and key checks
    # are separate objects, and a keys_ladder operation keeps more
    proc = subprocess.run([sys.executable, "-c", _RETAIN_UNINTERNED, CENSUS, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _retained(proc.stdout.splitlines())["keys_ladder"] > kept["keys_ladder"]
