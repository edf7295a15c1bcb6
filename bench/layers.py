"""Layer tracer for the benchmark: spans recorded around indval's boundary functions.

The tracer never edits the library.  ``Tracer.install`` replaces each boundary
function (and every name another ``indval`` module imported it under) with a
wrapper that records one span ``(name, start, end, parent, op_id)``; ``uninstall``
puts the originals back.  Spans live in flat arrays while the run is going and
are written out once at the end.  Self time is a span's duration minus the
durations of its direct children (spans are properly nested: the library is
single-threaded).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("values", "basefield", "towers", "chains", "residual", "keys", "augmentation", "cli")

# (module, attribute, span name, kind).  Spans without a metric of their own
# still matter: their time is taken out of the caller's self time and counted
# in their own layer.  kind is "span", "outermost" (a
# recursive method: only calls not nested in the same method get a span),
# "generator" (one span per next()), "depth" (span name carries the chain
# depth of the first argument), or "count" (a counter only, no span).
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("values", "in_subgroup", "values.in_subgroup", "span"),
    ("values", "subgroup_index", "values.subgroup_index", "span"),
    ("values", "is_commensurable", "values.is_commensurable", "span"),
    ("basefield", "Poly.__mul__", "basefield.poly_mul", "span"),
    ("basefield", "Poly._divmod_any", "basefield.divmod", "span"),
    ("basefield", "PadicValuation.value", "basefield.padic_value", "span"),
    ("towers", "TowerField._mul", "towers.mul", "outermost"),
    ("towers", "TowerField._inv", "towers.inv", "outermost"),
    ("towers", "ff_factor", "towers.ff_factor", "span"),
    ("towers", "ff_is_irreducible", "towers.ff_is_irreducible", "span"),
    ("towers", "monic_irreducibles", "towers.monic_irreducibles", "generator"),
    ("towers", "extend_with_root", "towers.extend", "span"),
    ("towers", "_equal_degree", "towers.equal_degree", "span"),
    ("towers", "_random_poly", "towers.cz_trials", "count"),
    ("chains", "InductiveValuation.valuation", "chains.valuation", "span"),
    ("chains", "InductiveValuation._val", "chains.val", "span"),
    ("chains", "InductiveValuation.digit_vector", "chains.digit_vector", "span"),
    ("chains", "phi_expansion", "chains.phi_expansion", "span"),
    ("chains", "expansion_report", "chains.expansion_report", "span"),
    ("chains", "validate_chain", "chains.validate", "span"),
    ("chains", "chain_from_json", "chains.from_json", "span"),
    ("chains", "key_semivaluation", "chains.key_semivaluation", "span"),
    ("residual", "attach_levels", "residual.attach_levels", "span"),
    ("residual", "decompose", "residual.decompose", "depth"),
    ("residual", "_decompose", "residual.decompose_inner", "span"),
    ("residual", "_residue_small", "residual.residue_small", "span"),
    ("residual", "residual_lift", "residual.lift", "span"),
    ("residual", "unit_lift", "residual.lift", "span"),
    ("residual", "residual_poly", "residual.residual_poly", "span"),
    ("residual", "residual_ideal", "residual.residual_ideal", "span"),
    ("keys", "key_check", "keys.key_check", "span"),
    ("keys", "lift_key", "keys.lift_key", "span"),
    ("keys", "enumerate_keys", "keys.enumerate", "span"),
    ("keys", "graded_factorization", "keys.factorization", "span"),
    ("augmentation", "augment", "augmentation.augment", "span"),
    ("augmentation", "LimitValuation.valuation", "augmentation.limit_val", "span"),
    ("augmentation", "stability", "augmentation.stability", "span"),
    ("augmentation", "limit_augment", "augmentation.limit_augment", "span"),
    ("augmentation", "validate_continuous_chain", "augmentation.validate_family", "span"),
    ("augmentation", "continuous_chain_from_json", "augmentation.family_from_json", "span"),
    ("cli", "main", "cli.main", "span"),
    ("cli", "build_parser", "cli.parse", "span"),
    ("cli", "_Parser.parse_args", "cli.parse", "span"),
    ("cli", "_load_json_file", "cli.load", "span"),
    ("cli", "_dispatch", "cli.dispatch", "span"),
)

MAX_DEPTH = 5

# Per-layer metrics reported by a traced run: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("basefield.poly_mul.calls", "count"),
    ("basefield.poly_mul.self_s", "s"),
    ("basefield.divmod.calls", "count"),
    ("basefield.divmod.self_s", "s"),
    ("basefield.padic_value.calls", "count"),
    ("basefield.self_s", "s"),
    ("chains.valuation.calls", "count"),
    ("chains.val.calls", "count"),
    ("chains.val_fanout", "calls/op"),
    ("chains.phi_expansion.calls", "count"),
    ("chains.phi_expansion.self_s", "s"),
    ("chains.digit_vector.calls", "count"),
    ("chains.digit_vector.self_s", "s"),
    ("chains.validate.self_s", "s"),
    ("chains.self_s", "s"),
    ("values.in_subgroup.calls", "count"),
    ("values.subgroup_index.calls", "count"),
    ("values.self_s", "s"),
    ("residual.decompose.calls", "count"),
    ("residual.decompose_inner.calls", "count"),
    *((f"residual.decompose_fanout.d{d}", "calls/op") for d in range(1, MAX_DEPTH + 1)),
    ("residual.residue_small.calls", "count"),
    ("residual.lift.self_s", "s"),
    ("residual.attach_levels.self_s", "s"),
    ("residual.self_s", "s"),
    ("towers.mul.calls", "count"),
    ("towers.inv.calls", "count"),
    ("towers.mul.self_s", "s"),
    ("towers.ff_factor.self_s", "s"),
    ("towers.ff_is_irreducible.self_s", "s"),
    ("towers.monic_irreducibles.self_s", "s"),
    ("towers.self_s", "s"),
    ("towers.cz_trials", "count"),
    ("towers.cz_split_ratio", "ratio"),
    ("keys.key_check.calls", "count"),
    ("keys.key_check.ok_ratio", "ratio"),
    ("keys.lift_key.calls", "count"),
    ("keys.lift_key.self_s", "s"),
    ("keys.enumerate.self_s", "s"),
    ("keys.factorization.self_s", "s"),
    ("keys.self_s", "s"),
    ("augmentation.augment.self_s", "s"),
    ("augmentation.limit_val.calls", "count"),
    ("augmentation.limit_val.self_s", "s"),
    ("augmentation.stability.self_s", "s"),
    ("augmentation.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.load.self_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.exit_nonzero.calls", "count"),
    ("trace.spans", "count"),
    ("trace_overhead_ratio", "ratio"),
)


def _resolve(module, attr: str):
    """(owner, name) for "func" or "Class.method" inside a module."""
    if "." in attr:
        cls_name, name = attr.split(".")
        return getattr(module, cls_name), name
    return module, attr


class Tracer:
    """Records spans around indval's boundary functions while installed."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.op_ids = array("i")
        self.stack: List[int] = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn: Callable, name: str, kind: str, owner, attr: str) -> Callable:
        tracer = self
        open_, close = self._open, self._close
        nid = self.name_id(name)
        post = _POST_HOOKS.get(name)

        if kind == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "generator":

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item

            return traced_gen

        if kind == "depth":
            depth_ids = [self.name_id(f"{name}.d{d}") for d in range(MAX_DEPTH + 2)]

            def traced_depth(nu, *args, **kwargs):
                idx = open_(depth_ids[min(nu.length, MAX_DEPTH + 1)])
                try:
                    return fn(nu, *args, **kwargs)
                finally:
                    close(idx)

            return traced_depth

        if kind == "outermost":
            # nested calls of the same method go straight to the original
            def traced_outer(*args, **kwargs):
                setattr(owner, attr, fn)
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
                    setattr(owner, attr, traced_outer)

            return traced_outer

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if post is not None:
                post(tracer.counts, args, out)
            return out

        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary of the currently imported indval package."""
        pkg_modules = [m for n, m in sorted(sys.modules.items()) if n == "indval" or n.startswith("indval.")]
        for mod_name, attr, name, kind in BOUNDARIES:
            module = sys.modules.get(f"indval.{mod_name}")
            if module is None:  # a module this process never imported
                continue
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrapped = self._wrap(original, name, kind, owner, key)
            # an inherited method is undone by deleting the override
            self._undo.append((owner, key, original if key in owner.__dict__ else None))
            setattr(owner, key, wrapped)
            if owner is module:
                # names other modules imported the function under
                for m in pkg_modules:
                    for alias, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, alias, original))
                            setattr(m, alias, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> List[float]:
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(n)]

    def layer_metrics(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-layer metrics (name -> value) and the base of every ratio."""
        selfs = self.self_times()
        names = self.names
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_self: Counter = Counter()
        # depth of the nearest enclosing public decompose, per span (0: none)
        dec_depth = array("b", bytes(len(self.starts)))
        dec_ids = {self._ids[f"residual.decompose.d{d}"]: d for d in range(1, MAX_DEPTH + 2)
                   if f"residual.decompose.d{d}" in self._ids}
        inner_id = self._ids.get("residual.decompose_inner")
        inner_per_depth: Counter = Counter()
        for i, nid in enumerate(self.name_ids):
            name = names[nid]
            calls[name] += 1
            self_s[name] += selfs[i]
            layer_self[name.split(".", 1)[0]] += selfs[i]
            p = self.parents[i]
            if nid in dec_ids:
                dec_depth[i] = dec_ids[nid]
            elif p >= 0:
                dec_depth[i] = dec_depth[p]
            if nid == inner_id and dec_depth[i]:
                inner_per_depth[dec_depth[i]] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        out: Dict[str, float] = {}
        bases: Dict[str, int] = {}
        for metric, _unit in PER_LAYER:
            if metric in ("trace_overhead_ratio", "trace.spans"):
                continue
            parts = metric.split(".")
            if metric.endswith(".self_s"):
                key = metric[: -len(".self_s")]
                if key in LAYERS:
                    out[metric] = layer_self[key]
                elif key == "cli.render":
                    out[metric] = self_s["cli.main"]
                else:
                    out[metric] = self_s[key]
            elif metric.endswith(".calls"):
                key = metric[: -len(".calls")]
                if key == "residual.decompose":
                    out[metric] = sum(calls[f"residual.decompose.d{d}"] for d in range(1, MAX_DEPTH + 2))
                elif key == "cli.exit_nonzero":
                    out[metric] = self.counts["cli.exit_nonzero"]
                else:
                    out[metric] = calls[key]
            elif parts[1] == "decompose_fanout":
                d = int(parts[2][1:])
                top = calls[f"residual.decompose.d{d}"]
                out[metric] = ratio(inner_per_depth[d], top)
                bases[metric] = top
            elif metric == "chains.val_fanout":
                out[metric] = ratio(calls["chains.val"], calls["chains.valuation"])
                bases[metric] = calls["chains.valuation"]
            elif metric == "towers.cz_trials":
                out[metric] = self.counts["towers.cz_trials"]
            elif metric == "towers.cz_split_ratio":
                trials = self.counts["towers.cz_trials"]
                out[metric] = ratio(self.counts["towers.cz_splits"], trials)
                bases[metric] = trials
            elif metric == "keys.key_check.ok_ratio":
                out[metric] = ratio(self.counts["keys.key_check.ok"], calls["keys.key_check"])
                bases[metric] = calls["keys.key_check"]
            else:  # pragma: no cover - every PER_LAYER name is handled above
                raise KeyError(metric)
        out["trace.spans"] = len(self.starts)
        return out, bases

    def write(self, path_stem: str) -> None:
        """Write spans as <stem>.bin (column arrays) and <stem>.json (layout)."""
        cols = (self.name_ids, self.starts, self.ends, self.parents, self.op_ids)
        with open(path_stem + ".bin", "wb") as fh:
            for col in cols:
                col.tofile(fh)
        layout = {
            "spans": len(self.starts),
            "names": self.names,
            "columns": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op_id", "i"]],
            "counts": dict(self.counts),
        }
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(layout, fh)


# -- counters recorded at a boundary's return ------------------------------------


def _count_key_check(counts: Counter, args, out) -> None:
    if out.ok:
        counts["keys.key_check.ok"] += 1


def _count_split(counts: Counter, args, out) -> None:
    # _equal_degree(F, h, f, d, rng) draws trials until one useful split
    # whenever deg f > d
    f, d = args[2], args[3]
    if len(f) - 1 != d:
        counts["towers.cz_splits"] += 1


def _count_exit(counts: Counter, args, out) -> None:
    if out != 0:
        counts["cli.exit_nonzero"] += 1


_POST_HOOKS: Dict[str, Callable] = {
    "keys.key_check": _count_key_check,
    "towers.equal_degree": _count_split,
    "cli.main": _count_exit,
}
