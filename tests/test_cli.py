import json
import os

import pytest

from indval import Poly, Value
from indval.cli import main


@pytest.fixture()
def chains(tmp_path):
    nu1 = tmp_path / "nu1.json"
    nu1.write_text(json.dumps({"prime": 2, "steps": [{"phi": "x", "gamma": "1/2"}]}))
    nu2 = tmp_path / "nu2.json"
    nu2.write_text(
        json.dumps(
            {
                "prime": 2,
                "steps": [
                    {"phi": "x", "gamma": "1/2"},
                    {"phi": "x^2+2", "gamma": "3/2"},
                ],
            }
        )
    )
    lam = tmp_path / "lam.json"
    lam.write_text(
        json.dumps(
            {
                "prime": 2,
                "family": [
                    {"phi": f"x-{2 ** (i + 1) - 2}", "gamma": str(i + 1)}
                    for i in range(1, 7)
                ],
                "limit_phi": "x+2",
                "limit_gamma": ["1", "0"],
            }
        )
    )
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "prime": 2,
                "family": [
                    {"phi": "x", "gamma": "1"},
                    {"phi": "x^2+2", "gamma": "2"},
                ],
            }
        )
    )
    return {"nu1": str(nu1), "nu2": str(nu2), "lam": str(lam), "bad": str(bad)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_eval(self, capsys, chains):
        code, out, _ = run(capsys, "eval", "--chain", chains["nu2"], "--poly", "x^4+4")
        assert code == 0 and out.strip() == "3"

    def test_expand(self, capsys, chains):
        code, out, _ = run(capsys, "expand", "--chain", chains["nu1"], "--poly", "x^4+4")
        assert code == 0
        assert "I = [0, 4]" in out

    def test_respoly(self, capsys, chains):
        code, out, _ = run(capsys, "respoly", "--chain", chains["nu2"], "--poly", "x^4+4")
        assert code == 0 and out.strip() == "y^2 + 1"

    def test_decompose(self, capsys, chains):
        code, out, _ = run(capsys, "decompose", "--chain", chains["nu1"], "--poly", "2x^3")
        assert code == 0 and "s = 3" in out

    def test_ideal(self, capsys, chains):
        code, out, _ = run(capsys, "ideal", "--chain", chains["nu1"], "--poly", "x")
        assert code == 0 and out.strip() == "xi^1 * (1)(xi)"

    def test_iskey(self, capsys, chains):
        code, out, _ = run(capsys, "iskey", "--chain", chains["nu1"], "--poly", "x^2+2")
        assert code == 0 and out.startswith("true")
        code, out, _ = run(capsys, "iskey", "--chain", chains["nu1"], "--poly", "x^2+x")
        assert code == 0 and out.startswith("false")

    def test_liftkey(self, capsys, chains):
        code, out, _ = run(capsys, "liftkey", "--chain", chains["nu2"], "--psi", "y+1")
        assert code == 0 and out.strip() == "x^2 + 2*x + 2"

    def test_enumerate(self, capsys, chains):
        code, out, _ = run(
            capsys, "enumerate", "--chain", chains["nu1"], "--max-res-deg", "2"
        )
        assert code == 0
        assert out.splitlines() == ["x", "x^2 + 2", "x^4 + 2*x^2 + 4"]

    def test_factor_deterministic(self, capsys, chains):
        code, out1, _ = run(
            capsys, "factor", "--chain", chains["nu2"], "--poly", "x^4+4", "--seed", "7"
        )
        assert code == 0 and "(x^2 + 2*x + 2)^2" in out1
        code, out2, _ = run(
            capsys, "factor", "--chain", chains["nu2"], "--poly", "x^4+4", "--seed", "7"
        )
        assert out1 == out2

    def test_augment(self, capsys, chains):
        code, out, _ = run(
            capsys,
            "augment", "--chain", chains["nu1"], "--phi", "x^2+2", "--gamma", "3/2",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["steps"][1]["gamma"] == "3/2"

    def test_vchi(self, capsys, chains):
        code, out, _ = run(
            capsys,
            "vchi", "--chain", chains["nu1"], "--chi", "x^2+2", "--poly", "x^4+4",
        )
        assert code == 0 and out.strip() == "3"

    def test_stability(self, capsys, chains):
        code, out, _ = run(capsys, "stability", "--chain", chains["lam"], "--poly", "x+2")
        assert code == 0 and "Unstable" in out

    def test_limit(self, capsys, chains):
        code, out, _ = run(capsys, "limit", "--chain", chains["lam"], "--poly", "x^2+2x")
        assert code == 0 and out.strip() == "(1, 1)"


class TestExitCodes:
    def test_usage_errors(self, capsys, chains):
        assert run(capsys, "respoly", "--chain", chains["nu1"])[0] == 1
        assert run(capsys, "frobnicate")[0] == 1
        assert run(capsys)[0] == 1

    def test_bad_poly_is_usage(self, capsys, chains):
        assert run(capsys, "eval", "--chain", chains["nu1"], "--poly", "y^2")[0] == 1

    def test_invalid_chain(self, capsys, chains):
        code, _, err = run(capsys, "stability", "--chain", chains["bad"], "--poly", "x")
        assert code == 2 and "condition (1)" in err

    def test_domain_error(self, capsys, chains):
        code, _, err = run(
            capsys,
            "augment", "--chain", chains["nu1"], "--phi", "x^2+2", "--gamma", "1/2",
        )
        assert code == 3 and "must exceed" in err


class TestMalformedChainFiles:
    """Malformed entries are invalid chains: exit 2 with an error envelope."""

    STEPS = {
        "phi_not_string": {"prime": 2, "steps": [{"phi": 5, "gamma": "1/2"}]},
        "prime_not_integer": {"prime": "two", "steps": [{"phi": "x", "gamma": "1/2"}]},
        "prime_not_prime": {"prime": 4, "steps": [{"phi": "x", "gamma": "1/2"}]},
        "gamma_list_junk": {"prime": 2, "steps": [{"phi": "x", "gamma": ["a", "1"]}]},
    }
    FAMILIES = {
        "phi_not_string": {"prime": 2, "family": [{"phi": 5, "gamma": "1"}]},
        "prime_not_integer": {"prime": "two", "family": [{"phi": "x", "gamma": "1"}]},
        "prime_not_prime": {"prime": 4, "family": [{"phi": "x", "gamma": "1"}]},
    }

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_chain_file(self, capsys, tmp_path, name):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.STEPS[name]))
        code, out, _ = run(capsys, "eval", "--chain", str(path), "--poly", "x", "--json")
        obj = json.loads(out)
        assert code == 2 and obj["result"] is None and obj["diagnostics"]

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_file(self, capsys, tmp_path, name):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(self.FAMILIES[name]))
        code, out, _ = run(capsys, "stability", "--chain", str(path), "--poly", "x", "--json")
        obj = json.loads(out)
        assert code == 2 and obj["result"] is None and obj["diagnostics"]

    def test_prime_as_decimal_string_still_reads(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"prime": "2", "steps": [{"phi": "x", "gamma": "1/2"}]}))
        assert run(capsys, "eval", "--chain", str(path), "--poly", "x")[:2] == (0, "1/2\n")


class TestJsonOutput:
    def test_schema(self, capsys, chains):
        code, out, _ = run(
            capsys, "--json", "eval", "--chain", chains["nu2"], "--poly", "x^4+4"
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"verb", "inputs", "result", "diagnostics"}
        assert obj["verb"] == "eval" and obj["result"] == {"value": "3"}

    def test_error_schema(self, capsys, chains):
        code, out, _ = run(
            capsys,
            "augment", "--chain", chains["nu1"],
            "--phi", "x^2+2", "--gamma", "1/2", "--json",
        )
        assert code == 3
        obj = json.loads(out)
        assert obj["result"] is None and obj["diagnostics"]

    def test_golden_files(self, capsys, chains):
        golden_dir = os.path.join(os.path.dirname(__file__), "golden")
        cases = {
            "eval_nu2.json": ["eval", "--chain", chains["nu2"], "--poly", "x^4+4", "--json"],
            "respoly_nu1.json": ["respoly", "--chain", chains["nu1"], "--poly", "x^4+4", "--json"],
            "factor_nu2.json": ["factor", "--chain", chains["nu2"], "--poly", "x^4+4", "--seed", "7", "--json"],
            "decompose_nu1.json": ["decompose", "--chain", chains["nu1"], "--poly", "2x^3", "--json"],
            "iskey_nu1.json": ["iskey", "--chain", chains["nu1"], "--poly", "x^2+x", "--json"],
            "stability_lam.json": ["stability", "--chain", chains["lam"], "--poly", "x+2", "--json"],
            "limit_lam.json": ["limit", "--chain", chains["lam"], "--poly", "x", "--json"],
            "enumerate_nu1.json": ["enumerate", "--chain", chains["nu1"], "--max-res-deg", "2", "--json"],
        }
        for name, argv in cases.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0
            got = json.loads(out)
            got["inputs"].pop("chain", None)  # path is tmpdir-specific
            with open(os.path.join(golden_dir, name)) as fh:
                want = json.load(fh)
            assert got == want, name


class TestRoundTrips:
    def test_printed_outputs_reparse(self, capsys, chains):
        code, out, _ = run(capsys, "liftkey", "--chain", chains["nu2"], "--psi", "y+1")
        assert Poly.parse(out.strip()) == Poly.parse("x^2+2x+2")
        code, out, _ = run(capsys, "eval", "--chain", chains["nu1"], "--poly", "x^2+2")
        assert Value.parse(out.strip()) == Value.of(1)
        code, out, _ = run(capsys, "limit", "--chain", chains["lam"], "--poly", "x")
        assert Value.parse(out.strip()) == Value.of((0, 1))
