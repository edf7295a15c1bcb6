"""Property test of the CLI contract on drawn requests.

Every request, well-formed or not, must end with exit code 0, 1, 2 or 3,
print no traceback, and under --json print the envelope {verb, inputs,
result, diagnostics}.  Requests mix the 13 verbs, their options, stray
tokens, chain files (valid, malformed or not JSON at all) and numbers past
the parse caps: exponents above MAX_PARSE_DEGREE and numbers of more than
MAX_PARSE_DIGITS digits.  Exponents below the degree cap are drawn from the
whole range: the work budgets (``chains.MAX_EXPANSION_BITS``,
``towers.MAX_FF_WORK``) refuse what would take too long.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indval.basefield import MAX_PARSE_DEGREE
from indval.cli import main
from indval.values import MAX_PARSE_DIGITS

HUGE = "9" * (MAX_PARSE_DIGITS + 1)
OPTIONS = {
    "eval": ("--poly",),
    "expand": ("--poly",),
    "respoly": ("--poly",),
    "decompose": ("--poly",),
    "ideal": ("--poly",),
    "iskey": ("--poly",),
    "liftkey": ("--psi",),
    "enumerate": ("--max-res-deg",),
    "factor": ("--poly", "--seed"),
    "augment": ("--phi", "--gamma"),
    "vchi": ("--poly", "--chi"),
    "stability": ("--poly",),
    "limit": ("--poly",),
}

# exponents: small, anywhere up to the degree cap, or past it (digit counts
# on both sides of the exponent's own length check)
exponents = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, MAX_PARSE_DEGREE).map(str),
    st.sampled_from([str(MAX_PARSE_DEGREE + 1), "999999999", HUGE, "0" * 30 + "7"]),
)
coefficients = st.one_of(
    st.just(""),
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from([HUGE, "1/" + HUGE, "4" * MAX_PARSE_DIGITS]),
)


def _terms(var):
    term = st.tuples(coefficients, st.sampled_from(["", var, var + "^"]), exponents).map(
        lambda t: t[0] + t[1] + (t[2] if t[1].endswith("^") else "") or "1"
    )
    return st.lists(st.tuples(st.sampled_from(["+", "-"]), term), min_size=1, max_size=4).map(
        lambda ts: "".join(s + t for s, t in ts).lstrip("+")
    )


junk = st.sampled_from(["", " ", "x +", "2**x", "x^", "((", "[[", "[" * 5000, "nan", "inf", "-", "/"])
polys = st.one_of(
    st.sampled_from(["x", "x^2+2", "x^4+4", "2x^3", "x^2+x", "x+2", "x^4+2x^2+4"]), _terms("x"), junk
)
psis = st.one_of(
    st.sampled_from(["y", "y+1", "y^2+y+1", "y^2+1", "[1]", "y+[1]", "y+[" + HUGE + "]"]),
    _terms("y"),
    junk,
)
gammas = st.one_of(
    st.sampled_from(["1/2", "3/2", "2", "0", "-1", "(0,1)", "(1,0)", "(1,2,3)", "inf", "a", "1/0"]),
    st.sampled_from(["1e5", "1e-3", "1e999999999", "1e9_999_999", "1/" + HUGE, HUGE]),
    st.fractions(max_denominator=30).map(str),
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20), st.floats(allow_nan=False), st.text(max_size=6)
)
json_any = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=6,
)
primes = st.one_of(
    st.sampled_from([2, 3, 5, "2", 4, 1, 0, -2, True, None, "two", 2**61 - 1, 2**89 - 1]), json_any
)
steps = st.lists(
    st.fixed_dictionaries(
        {"phi": st.one_of(polys, json_any), "gamma": st.one_of(gammas, st.lists(gammas, max_size=3), json_any)}
    ),
    max_size=3,
)
FAMILY = [{"phi": f"x-{2 ** (i + 1) - 2}", "gamma": str(i + 1)} for i in range(1, 5)]
VALID = [
    {"prime": 2, "steps": [{"phi": "x", "gamma": "1/2"}]},
    {"prime": 2, "steps": [{"phi": "x", "gamma": "1/2"}, {"phi": "x^2+2", "gamma": "3/2"}]},
    {"prime": 3, "steps": [{"phi": "x", "gamma": "1/2"}]},
    {"prime": 2, "steps": [{"phi": "x", "gamma": ["0", "1"]}]},
    {"prime": 2, "family": FAMILY, "limit_phi": "x+2", "limit_gamma": ["1", "0"]},
]
chain_objects = st.one_of(
    st.sampled_from(VALID),
    st.fixed_dictionaries(
        {"prime": st.just(2), "family": st.just(FAMILY), "limit_phi": polys},
        optional={"limit_gamma": st.one_of(gammas, st.lists(gammas, max_size=3), json_any)},
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "prime": primes,
            "steps": st.one_of(steps, json_any),
            "family": st.one_of(steps, json_any),
            "limit_phi": st.one_of(polys, json_any),
            "limit_gamma": st.one_of(gammas, json_any, st.lists(gammas, max_size=3)),
        },
    ),
    json_any,
)
chain_files = st.one_of(
    chain_objects.map(json.dumps),
    st.sampled_from(["", "{", "[" * 100000, '{"prime": 2, "steps": ' * 3000, HUGE, '{"prime": ' + HUGE + "}"]),
    st.sampled_from(['"text"', '"{\\"prime\\": 2}"', "[]", "2", "null"]),
).map(str.encode) | st.binary(max_size=12)


@st.composite
def requests(draw):
    verb = draw(st.sampled_from(sorted(OPTIONS)))
    values = {"--poly": polys, "--chi": polys, "--phi": polys, "--psi": psis, "--gamma": gammas}
    number = st.one_of(st.integers(-3, 4).map(str), st.sampled_from([HUGE, "2" * 30, "x"]))
    argv = [verb, "--chain", "CHAIN"]
    for opt in OPTIONS[verb]:
        if draw(st.integers(0, 9)):  # now and then leave a required option out
            argv += [opt, draw(values.get(opt, number))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--json")
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "extra", "--seed", "-x"])))
    return argv, draw(chain_files)


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "chain.json"


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_cli_keeps_its_contract(chain_path, drawn):
    argv, chain_file = drawn
    chain_path.write_bytes(chain_file)
    argv = [str(chain_path) if a == "CHAIN" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if "--json" in argv:
        env = json.loads(out.getvalue())
        assert set(env) == {"verb", "inputs", "result", "diagnostics"}
        assert (code == 0) == (not env["diagnostics"])
        if code:
            assert env["result"] is None
