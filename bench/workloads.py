"""The four benchmark workloads.

Each workload has the same five parts:

* ``generate(rng, blocks)``: the seeded input set as plain data (ints,
  Fractions, strings).  It never calls indval, so the program only ever sees
  generated inputs.  Inputs come in *blocks*; every block covers each
  category of the workload once, so any prefix of the input set has the same
  mix.
* ``setup(iv, workdir)``: builds every chain, family, tower field and chain
  file the workload uses.  Timed as ``setup_s`` together with ``import indval``.
* ``prepare(iv, ctx, spec)``: turns one plain input into call arguments.
* ``run(iv, ctx, op)``: one operation through indval's public surface; this is
  the timed call.
* ``check(iv, ctx, op, out)``: the output oracle, run outside the timed
  interval; returns None when the output is right, else a reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter
from fractions import Fraction
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rand_coeffs(rng, degree: int, height: int, frac_share: float = 0.25) -> tuple:
    """Coefficients (constant first) of a polynomial of exactly this degree."""
    cs = []
    for _ in range(degree + 1):
        num = rng.randrange(-height, height + 1)
        den = rng.randrange(1, 60) if rng.random() < frac_share else 1
        cs.append(Fraction(num, den))
    if cs[-1] == 0:
        cs[-1] = Fraction(rng.choice((-1, 1)) * rng.randrange(1, height + 1))
    return tuple(cs)


def _monic_coeffs(rng, degree: int, height: int) -> tuple:
    return tuple(Fraction(rng.randrange(-height, height + 1)) for _ in range(degree)) + (Fraction(1),)


def _poly_text(coeffs) -> str:
    """Render coefficients (constant first) in the CLI's polynomial syntax."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        terms.append((sign, body))
    if not terms:
        return "0"
    head_sign, head = terms[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# valuation: the read path through basefield, chains and values
# ---------------------------------------------------------------------------


class Valuation:
    name = "valuation"
    chains = ("nu1", "nu2", "nu3p", "nu_inf", "nu8", "lam_limit")
    block = len(chains)
    tail_percentile = 99
    pool_blocks = 1500  # more than a run uses on a fast host: no input repeats
    trace_blocks = 50

    def generate(self, rng, blocks: int) -> List[tuple]:
        specs = []
        for _ in range(blocks):
            for ci in range(len(self.chains)):
                f = _rand_coeffs(rng, rng.randrange(0, 25), 10**4)
                g = _rand_coeffs(rng, rng.randrange(0, 25), 10**4)
                specs.append((ci, f, g))
        return specs

    def setup(self, iv, workdir: str) -> dict:
        P, V = iv.Poly.parse, iv.Value
        v2 = iv.PadicValuation(2)
        nu1 = iv.validate_chain([("x", Fraction(1, 2))], v2)
        nu2 = iv.augment(nu1, P("x^2+2"), Fraction(3, 2))
        nu3p = iv.validate_chain([("x", Fraction(1, 2))], iv.PadicValuation(3))
        nu_inf = iv.validate_chain([("x", V.of((0, 1)))], v2)
        nu4 = iv.augment(nu1, iv.lift_key(nu1, "y^2+y+1"), Fraction(9, 4))
        nu8 = iv.augment(nu4, iv.enumerate_keys(nu4, 1)[2], Fraction(29, 6))
        fam = [(iv.Poly([-(2 ** (i + 1) - 2), 1]), i + 1) for i in range(1, 7)]
        lam = iv.validate_continuous_chain(fam, v2)
        lim = iv.limit_augment(lam, P("x+2"), V.of((1, 0)))
        return {"chains": (nu1, nu2, nu3p, nu_inf, nu8, lim)}

    def prepare(self, iv, ctx, spec):
        ci, f, g = spec
        return ctx["chains"][ci], iv.Poly(f), iv.Poly(g)

    def run(self, iv, ctx, op):
        nu, f, g = op
        return nu(f), nu(g), nu(f * g)

    def check(self, iv, ctx, op, out) -> Optional[str]:
        nu, f, g = op
        a, b, ab = out
        if ab != a + b:
            return f"nu(fg) = {ab} != nu(f) + nu(g) = {a + b}"
        s = f + g
        if not s.is_zero and not nu(s) >= min(a, b):
            return "ultrametric inequality fails"
        return None


# ---------------------------------------------------------------------------
# keys_ladder: recursion through residual, _val and digit vectors
# ---------------------------------------------------------------------------


class KeysLadder:
    name = "keys_ladder"
    depths = (1, 2, 3, 4, 5)
    kinds = ("decompose", "factor", "key_check_lifted", "key_check_random", "enumerate")
    block = len(depths) * len(kinds)
    tail_percentile = 95
    pool_blocks = 40
    trace_blocks = 2
    # keys per depth: the top key, then the lifts of y+1 and y^2+y+1.  Every
    # operation of one (depth, kind) does about the same work, so that the
    # block's cost profile, and with it the median, holds still.
    psis = ("y+1", "y^2+y+1")

    def generate(self, rng, blocks: int) -> List[tuple]:
        specs = []
        for _ in range(blocks):
            cells = [(d, k) for d in self.depths for k in self.kinds]
            rng.shuffle(cells)
            for depth, kind in cells:
                n = 2 ** (depth - 1)
                if kind == "decompose":
                    f = _rand_coeffs(rng, 2 * n - 1, 100)
                    g = _rand_coeffs(rng, n, 100)
                    specs.append((kind, depth, f, g))
                elif kind == "factor":
                    # c * lift(y+1) * lift(y^2+y+1), c a random rational
                    c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 100), rng.randrange(1, 10))
                    specs.append((kind, depth, c))
                elif kind == "key_check_lifted":
                    specs.append(("key_check", depth, "lifted"))
                elif kind == "key_check_random":
                    # a candidate of the degree of the lifted y+1 key
                    chi = _monic_coeffs(rng, 2 * n, 100)
                    specs.append(("key_check", depth, "random", chi))
                else:
                    specs.append((kind, depth))
        return specs

    def setup(self, iv, workdir: str) -> dict:
        nu = iv.validate_chain([("x", Fraction(1, 2))], iv.PadicValuation(2))
        ladder = [nu]
        big_e = 2
        while len(ladder) < len(self.depths):
            chi = iv.lift_key(nu, "y+1")
            nu = iv.augment(nu, chi, nu(chi) + iv.Value.of(Fraction(1, 2 * big_e)))
            big_e *= 2
            ladder.append(nu)
        # ladder guard: a MacLane-optimal chain with e = 2 at every level
        degrees = tuple(s.phi.degree for s in nu.steps)
        ram = tuple(iv.residual_data(mu).e for mu in ladder)
        if degrees != (1, 2, 4, 8, 16) or ram != (2, 2, 2, 2, 2):
            raise RuntimeError(f"key ladder changed shape: degrees {degrees}, e {ram}")
        keys = [[mu.top.phi] + [iv.lift_key(mu, psi) for psi in self.psis] for mu in ladder]
        return {"ladder": ladder, "keys": keys}

    def prepare(self, iv, ctx, spec):
        kind, depth = spec[0], spec[1]
        nu, keys = ctx["ladder"][depth - 1], ctx["keys"][depth - 1]
        if kind == "decompose":
            return kind, nu, iv.Poly(spec[2]), iv.Poly(spec[3])
        if kind == "factor":
            return kind, nu, (keys[1] * keys[2]).scale(spec[2]), (keys[1], keys[2])
        if kind == "key_check":
            chi = keys[1] if spec[2] == "lifted" else iv.Poly(spec[3])
            return kind, nu, chi, spec[2]
        return kind, nu, keys

    def run(self, iv, ctx, op):
        kind, nu = op[0], op[1]
        if kind == "decompose":
            f, g = op[2], op[3]
            return iv.decompose(nu, f), iv.decompose(nu, g), iv.decompose(nu, f * g)
        if kind == "factor":
            return iv.graded_factorization(nu, op[2])
        if kind == "key_check":
            return iv.key_check(nu, op[2])
        return iv.enumerate_keys(nu, 2)

    def check(self, iv, ctx, op, out) -> Optional[str]:
        kind, nu = op[0], op[1]
        if kind == "decompose":
            from indval.residual import _hu_mul

            df, dg, dfg = out
            if dfg.s != df.s + dg.s:
                return "s is not additive"
            if dfg.respoly != df.respoly * dg.respoly:
                return "residual polynomial is not multiplicative"
            if _hu_mul(nu._levels, nu.length, df.unit, dg.unit) != dfg.unit:
                return "leading unit is not multiplicative"
            return None
        if kind == "factor":
            f, (ka, kb) = op[2], op[3]
            got = Counter({str(chi): a for chi, a in out.factors})
            if got != Counter((str(ka), str(kb))):
                return f"factors {dict(got)} are not the keys {ka}, {kb}"
            total = out.unit_part.value
            for chi, a in out.factors:
                total = total + nu(chi).scaled(a)
            if total != nu(f):
                return "value accounting does not close"
            return None
        if kind == "key_check":
            chi, source = op[2], op[3]
            if source == "lifted":
                return None if out.ok else f"lifted key rejected: {out.reason}"
            if out.ok and out.branch == "residual":
                e = iv.residual_data(nu).e
                if chi.degree != e * nu.top_degree * out.respoly.degree:
                    return "accepted key breaks deg = e*n*deg(R)"
            return None
        return None if list(out) == list(op[2]) else "enumeration differs from the lifted keys"


# ---------------------------------------------------------------------------
# finite_fields: the tower layer alone
# ---------------------------------------------------------------------------


class FiniteFields:
    name = "finite_fields"
    orders = (2, 3, 4, 16)  # F2, F3, F4, F16
    # prime fields twice per block: the median then sits inside their mass
    # instead of on the edge between them and F4
    weights = (2, 2, 1, 2)
    # F16 stops at degree 6 and comes twice per block, so that a run holds
    # enough of its slow operations for a steady tail
    max_degrees = (12, 12, 12, 6)
    block = sum(w * d for w, d in zip(weights, max_degrees))
    tail_percentile = 99
    pool_blocks = 60
    trace_blocks = 1

    def generate(self, rng, blocks: int) -> List[tuple]:
        specs = []
        for _ in range(blocks):
            cells = [(fi, d) for fi, (w, top) in enumerate(zip(self.weights, self.max_degrees))
                     for d in range(1, top + 1) for _ in range(w)]
            rng.shuffle(cells)
            for fi, d in cells:
                q = self.orders[fi]
                specs.append((fi, tuple(rng.randrange(q) for _ in range(d)), rng.randrange(1000)))
        return specs

    def setup(self, iv, workdir: str) -> dict:
        F2, F3 = iv.TowerField(2), iv.TowerField(3)
        F4 = iv.tower_extend(F2, iv.TowerPoly.parse(F2, "y^2+y+1"))
        F16 = iv.tower_extend(F4, iv.TowerPoly.parse(F4, "y^2+y+[0,1]"))
        return {"fields": (F2, F3, F4, F16)}

    def prepare(self, iv, ctx, spec):
        fi, idx, seed = spec
        Fq = ctx["fields"][fi]
        return iv.TowerPoly(Fq, [Fq.from_index(i) for i in idx] + [Fq.one()]), seed

    def run(self, iv, ctx, op):
        psi, seed = op
        factors = iv.ff_factor(psi, seed=seed)
        return factors, [iv.ff_is_irreducible(g) for g, _m in factors]

    def check(self, iv, ctx, op, out) -> Optional[str]:
        psi, _seed = op
        factors, flags = out
        if not all(flags):
            return "a factor is not irreducible"
        prod = iv.TowerPoly.one(psi.field)
        for g, m in factors:
            prod = prod * g**m
        if prod != psi:
            return "product of factors differs from the input"
        if psi.field.height == 0:
            return _check_gf_factor(psi, factors)
        return None


def _check_gf_factor(psi, factors) -> Optional[str]:
    """Compare a prime-field factorization with sympy's gf_factor."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    p = psi.field.p

    def ints(poly):  # highest degree first, as galoistools expects
        return tuple(int(c.data) % p for c in reversed(poly.elems()))

    _lc, ref = gf_factor([ZZ(c) for c in ints(psi)], p, ZZ)
    want = Counter({tuple(int(c) % p for c in g): m for g, m in ref})
    got = Counter({ints(g): m for g, m in factors})
    return None if got == want else "factors differ from sympy gf_factor"


# ---------------------------------------------------------------------------
# cli_session: every request parses and validates its chain again
# ---------------------------------------------------------------------------

CHAIN_FILES = {
    "nu1": {"prime": 2, "steps": [{"phi": "x", "gamma": "1/2"}]},
    "nu2": {"prime": 2, "steps": [{"phi": "x", "gamma": "1/2"}, {"phi": "x^2+2", "gamma": "3/2"}]},
    "nu4": {"prime": 2, "steps": [{"phi": "x", "gamma": "1/2"}, {"phi": "x^4+2x^2+4", "gamma": "9/4"}]},
    "lam": {
        "prime": 2,
        "family": [{"phi": f"x-{2 ** (i + 1) - 2}", "gamma": str(i + 1)} for i in range(1, 7)],
        "limit_phi": "x+2",
        "limit_gamma": ["1", "0"],
    },
    # malformed on purpose
    "bad_key": {"prime": 2, "steps": [{"phi": "x", "gamma": "1/2"}, {"phi": "x^2+1", "gamma": "3/2"}]},
    "bad_family": {"prime": 2, "family": [{"phi": "x", "gamma": "1"}, {"phi": "x^2+2", "gamma": "2"}]},
}
NOT_JSON = "not_json"

# the eight golden requests of tests/golden, by file name
GOLDEN = (
    ("eval_nu2.json", ["eval", "--chain", "nu2", "--poly", "x^4+4"]),
    ("respoly_nu1.json", ["respoly", "--chain", "nu1", "--poly", "x^4+4"]),
    ("factor_nu2.json", ["factor", "--chain", "nu2", "--poly", "x^4+4", "--seed", "7"]),
    ("decompose_nu1.json", ["decompose", "--chain", "nu1", "--poly", "2x^3"]),
    ("iskey_nu1.json", ["iskey", "--chain", "nu1", "--poly", "x^2+x"]),
    ("stability_lam.json", ["stability", "--chain", "lam", "--poly", "x+2"]),
    ("limit_lam.json", ["limit", "--chain", "lam", "--poly", "x"]),
    ("enumerate_nu1.json", ["enumerate", "--chain", "nu1", "--max-res-deg", "2"]),
)

# malformed requests and the exit code the CLI documents for each
MALFORMED = (
    (["eval", "--chain", "bad_key", "--poly", "x+1"], 2),
    (["eval", "--chain", NOT_JSON, "--poly", "x+1"], 2),
    (["stability", "--chain", "bad_family", "--poly", "x+2"], 2),
    (["iskey", "--chain", "nu1", "--poly", "2x^2+2"], 3),
    (["liftkey", "--chain", "nu1", "--psi", "y^2+1"], 3),
    (["eval", "--chain", "nu2", "--poly", "x^^2"], 1),
)

CHAIN_VERBS = ("eval", "expand", "respoly", "decompose", "ideal", "iskey", "liftkey",
               "enumerate", "factor", "augment", "vchi")
LIFT_PSIS = {"nu1": ("y+1", "y^2+y+1"), "nu2": ("y+1", "y^2+y+1"), "nu4": ("y+1", "y+[0,1]", "y+[1,1]")}


class CliSession:
    name = "cli_session"
    block = len(GOLDEN) + len(CHAIN_VERBS) + 2 + 3
    tail_percentile = 99
    pool_blocks = 400
    trace_blocks = 4

    def generate(self, rng, blocks: int) -> List[tuple]:
        specs = []
        for b in range(blocks):
            block = [("golden", name, tuple(argv)) for name, argv in GOLDEN]
            for v, verb in enumerate(CHAIN_VERBS):
                chain = ("nu1", "nu2", "nu4")[(b + v) % 3]
                argv = [verb, "--chain", chain]
                poly = _poly_text(_rand_coeffs(rng, rng.randrange(1, 9), 50))
                if verb in ("eval", "expand", "respoly", "decompose", "ideal", "vchi"):
                    argv += ["--poly", poly]
                if verb == "vchi":
                    argv += ["--chi", CHAIN_FILES[chain]["steps"][-1]["phi"]]
                if verb == "iskey":
                    argv += ["--poly", _poly_text(_monic_coeffs(rng, rng.randrange(1, 5), 20))]
                if verb == "liftkey":
                    argv += ["--psi", rng.choice(LIFT_PSIS[chain])]
                if verb == "enumerate":
                    argv += ["--max-res-deg", "1" if chain == "nu4" else str(rng.randrange(1, 3))]
                if verb == "factor":
                    argv += ["--poly", poly, "--seed", str(rng.randrange(100))]
                if verb == "augment":
                    # gamma = nu(phi) + k/8, with phi the lift of y+1
                    argv += ["--gamma-step", str(rng.randrange(1, 9))]
                block.append(("verb", verb, tuple(argv)))
            for verb in ("stability", "limit"):
                poly = _poly_text(_rand_coeffs(rng, rng.randrange(1, 7), 50))
                block.append(("verb", verb, (verb, "--chain", "lam", "--poly", poly)))
            for j in range(3):
                argv, code = MALFORMED[(3 * b + j) % len(MALFORMED)]
                block.append(("malformed", code, tuple(argv)))
            rng.shuffle(block)
            specs.extend(block)
        return specs

    def setup(self, iv, workdir: str) -> dict:
        import indval.cli  # noqa: F401  (the workload drives indval.cli.main)

        paths = {}
        for name, obj in CHAIN_FILES.items():
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        paths[NOT_JSON] = os.path.join(workdir, f"{NOT_JSON}.json")
        with open(paths[NOT_JSON], "w", encoding="utf-8") as fh:
            fh.write("{not json")
        chains = {k: iv.chain_from_json(CHAIN_FILES[k]) for k in ("nu1", "nu2", "nu4")}
        lam = iv.continuous_chain_from_json(CHAIN_FILES["lam"])
        aug = {}
        for k, nu in chains.items():
            chi = iv.lift_key(nu, "y+1")
            aug[k] = (chi, nu(chi))
        return {"paths": paths, "chains": chains, "lam": lam, "aug": aug}

    def prepare(self, iv, ctx, spec):
        kind, tag, argv = spec
        argv = list(argv)
        chain = argv[2]
        argv[2] = ctx["paths"][chain]
        if argv[0] == "augment" and kind == "verb":
            k = int(argv.pop())
            argv.pop()
            chi, base = ctx["aug"][chain]
            gamma = base + iv.Value.of(Fraction(k, 8))
            argv += ["--phi", str(chi), "--gamma", str(gamma)]
        # --flag=value, so that a value starting with "-" is not read as a flag
        call = [argv[0]] + [f"{f}={v}" for f, v in zip(argv[1::2], argv[2::2])] + ["--json"]
        return kind, tag, chain, argv, call

    def run(self, iv, ctx, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = iv.cli.main(op[4])
        return code, out.getvalue()

    def check(self, iv, ctx, op, out) -> Optional[str]:
        kind, tag, chain, argv, _call = op
        code, text = out
        try:
            env = json.loads(text)
        except json.JSONDecodeError:
            return "no JSON envelope"
        if env.get("verb") != argv[0]:
            return "envelope names another verb"
        if kind == "malformed":
            if code != tag:
                return f"exit code {code}, documented {tag}"
            if env["result"] is not None or not env["diagnostics"]:
                return "error envelope without diagnostics"
            return None
        if code != 0:
            return f"exit code {code}: {env['diagnostics']}"
        if kind == "golden":
            env["inputs"].pop("chain", None)
            with open(os.path.join(ROOT, "tests", "golden", tag), encoding="utf-8") as fh:
                want = fh.read()
            return None if json.dumps(env, indent=2, sort_keys=True) + "\n" == want else f"differs from golden {tag}"
        return _check_verb(iv, ctx, chain, argv, env["result"])


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_verb(iv, ctx, chain, argv, res) -> Optional[str]:
    """Round-trip a verb's JSON result to the library's own answer."""
    P, V = iv.Poly.parse, iv.Value.parse
    verb = argv[0]
    if verb in ("stability", "limit"):
        f = P(_arg(argv, "--poly"))
        lam = ctx["lam"]
        if verb == "stability":
            rep = iv.stability(lam, f)
            ok = (res["stable"] == rep.stable and res["witness_index"] == rep.witness_index
                  and [V(v) for v in res["values"]] == list(rep.values)
                  and (not rep.stable or V(res["value"]) == rep.value))
        else:
            lim = iv.limit_augment(lam, P("x+2"), iv.Value.of((1, 0)))
            ok = V(res["value"]) == lim(f)
        return None if ok else f"{verb} result differs from the library"
    nu = ctx["chains"][chain]
    field = iv.residual_data(nu).field
    if verb in ("eval", "expand", "respoly", "decompose", "ideal", "iskey", "factor", "vchi"):
        f = P(_arg(argv, "--poly"))
    if verb == "eval":
        ok = V(res["value"]) == nu(f)
    elif verb == "expand":
        rep = iv.expansion_report(nu, f)
        ok = ([P(c) for c in res["coeffs"]] == list(rep.coeffs)
              and [V(v) for v in res["monomial_values"]] == list(rep.monomial_values)
              and V(res["mu"]) == rep.mu and tuple(res["indices"]) == rep.indices
              and res["s"] == rep.s and res["s_prime"] == rep.s_prime)
    elif verb == "respoly":
        ok = iv.TowerPoly.parse(field, res["respoly"]) == iv.residual_poly(nu, f)
    elif verb == "decompose":
        d = iv.decompose(nu, f)
        ok = (res["s"] == d.s and V(res["unit"]["value"]) == d.unit.value
              and field.parse_elem(res["unit"]["residue"]) == d.unit.residue
              and iv.TowerPoly.parse(field, res["respoly"]) == d.respoly)
    elif verb == "ideal":
        ideal = iv.residual_ideal(nu, f)
        ok = res["xi_power"] == ideal.xi_power and iv.TowerPoly.parse(field, res["psi"]) == ideal.psi_part
    elif verb == "iskey":
        kc = iv.key_check(nu, f)
        ok = (res["is_key"], res["branch"], res["reason"]) == (kc.ok, kc.branch, kc.reason)
    elif verb == "liftkey":
        ok = P(res["key"]) == iv.lift_key(nu, _arg(argv, "--psi"))
    elif verb == "enumerate":
        ok = [P(k) for k in res["keys"]] == iv.enumerate_keys(nu, int(_arg(argv, "--max-res-deg")))
    elif verb == "factor":
        gf = iv.graded_factorization(nu, f, seed=int(_arg(argv, "--seed")))
        ok = ([(P(x["chi"]), x["exponent"]) for x in res["factors"]] == list(gf.factors)
              and V(res["unit"]["value"]) == gf.unit_part.value
              and field.parse_elem(res["unit"]["residue"]) == gf.unit_part.residue)
    elif verb == "augment":
        want = iv.augment(nu, P(_arg(argv, "--phi")), V(_arg(argv, "--gamma")))
        ok = iv.chain_from_json(res["chain"]) == want
    else:  # vchi
        ok = V(res["value"]) == iv.key_semivaluation(nu, P(_arg(argv, "--chi")), f)
    return None if ok else f"{verb} result differs from the library"


# One request per layer family, run in every traced set-up, so that each
# layer reports a measured time on every workload (a layer a workload never
# reaches would otherwise read exactly 0 on every run).
CENSUS = (
    ["factor", "--chain", "nu2", "--poly=x^4+4", "--seed=7"],
    ["decompose", "--chain", "nu1", "--poly=2x^3"],
    ["enumerate", "--chain", "nu1", "--max-res-deg=2"],
    ["augment", "--chain", "nu1", "--phi=x^2+2", "--gamma=3/2"],
    ["limit", "--chain", "lam", "--poly=x"],
)


def layer_census(iv, workdir: str) -> List[str]:
    """Run the census requests through indval.cli; returns their failures."""
    import indval.cli  # noqa: F401

    failures = []
    for argv in CENSUS:
        path = os.path.join(workdir, f"census-{argv[2]}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(CHAIN_FILES[argv[2]], fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = iv.cli.main([argv[0], f"--chain={path}", *argv[3:], "--json"])
        if code != 0:
            failures.append(f"census {argv[0]} exited {code}")
    return failures


WORKLOADS = {w.name: w for w in (Valuation(), KeysLadder(), FiniteFields(), CliSession())}
