"""The benchmark's output oracles on one block of each workload (seed 11),
and its layer tracer on the library.

``bench/workloads.py`` and ``bench/layers.py`` are loaded read-only from their
files, with no bytecode written next to them; the work files of the set-ups
go under ``tmp_path``.  An output that breaks a benchmark oracle therefore
fails here too, and so does a renamed boundary function that the traced runs
(``--trace 1``) wrap.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import indval as iv

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


@pytest.mark.parametrize("name", ["Valuation", "KeysLadder", "FiniteFields", "CliSession"])
def test_one_block_passes_the_oracle(workloads, name, tmp_path):
    wl = getattr(workloads, name)()
    ctx = wl.setup(iv, str(tmp_path))
    specs = wl.generate(random.Random(11), 1)
    assert len(specs) == wl.block
    for spec in specs:
        op = wl.prepare(iv, ctx, spec)
        out = wl.run(iv, ctx, op)
        assert wl.check(iv, ctx, op, out) is None, (name, spec)


def test_tracer_wraps_every_boundary_and_restores_it(nu2):
    import indval.cli  # noqa: F401  (every module the boundaries name)

    layers = load("layers")
    before = {}
    for mod_name, attr, _name, _kind in layers.BOUNDARIES:
        owner, key = layers._resolve(sys.modules[f"indval.{mod_name}"], attr)
        before[mod_name, attr] = getattr(owner, key)
    tracer = layers.Tracer()
    try:
        tracer.install()
        # a decomposition values its coefficients through their expansions,
        # not through _val; the value of f takes the _val path
        iv.decompose(nu2, iv.Poly.parse("x^4+4"))
        nu2(iv.Poly.parse("x^4+4"))
    finally:
        tracer.uninstall()
    spans = {tracer.names[i] for i in tracer.name_ids}
    assert {"residual.decompose.d2", "residual.decompose_inner", "chains.val"} <= spans
    for (mod_name, attr), original in before.items():
        owner, key = layers._resolve(sys.modules[f"indval.{mod_name}"], attr)
        assert getattr(owner, key) is original, (mod_name, attr)


def test_every_boundary_resolves():
    """``Tracer.install`` looks up every boundary with getattr, so a removed
    or renamed one makes every traced run (``--trace 1``) crash."""
    import indval.cli  # noqa: F401  (every module the boundaries name)

    layers = load("layers")
    for mod_name, attr, _name, _kind in layers.BOUNDARIES:
        module = sys.modules[f"indval.{mod_name}"]
        owner = module
        for part in attr.split("."):
            assert hasattr(owner, part), f"bench boundary indval.{mod_name}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"bench boundary indval.{mod_name}.{attr} is not callable"


def test_split_and_key_counters_read_their_arguments(nu2):
    """The counters of ``layers._POST_HOOKS`` read a boundary's arguments by
    position (``_count_split`` takes f and d from ``_equal_degree(F, rows, f, d,
    rng)``), so a changed signature must fail here, not only in traced runs."""
    import indval.cli  # noqa: F401  (every module the boundaries name)

    layers = load("layers")
    F2 = iv.TowerField(2)
    # two distinct cubics: the distinct-degree split leaves their product of
    # degree 6 for the equal-degree split at d = 3
    psi = iv.TowerPoly.parse(F2, "y^3+y+1") * iv.TowerPoly.parse(F2, "y^3+y^2+1")
    tracer = layers.Tracer()
    try:
        tracer.install()
        factors = iv.ff_factor(psi, 0)
        ok = iv.key_check(nu2, iv.Poly.parse("x^2+2")).ok
    finally:
        tracer.uninstall()
    assert sorted(str(g) for g, _m in factors) == ["y^3 + y + 1", "y^3 + y^2 + 1"] and ok
    assert tracer.counts["towers.cz_splits"] >= 1
    assert tracer.counts["keys.key_check.ok"] >= 1
