import json
import os
import subprocess
import sys
import time

import pytest

import indval as iv
from indval import Poly, Value, cli
from indval.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
LAM_FAMILY = [{"phi": f"x-{2 ** (i + 1) - 2}", "gamma": str(i + 1)} for i in range(1, 7)]


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
                "family": LAM_FAMILY,
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


def golden_cases(chains):
    """The request behind each file of tests/golden, by file name."""
    return {
        "eval_nu2.json": ["eval", "--chain", chains["nu2"], "--poly", "x^4+4", "--json"],
        "respoly_nu1.json": ["respoly", "--chain", chains["nu1"], "--poly", "x^4+4", "--json"],
        "factor_nu2.json": ["factor", "--chain", chains["nu2"], "--poly", "x^4+4", "--seed", "7", "--json"],
        "decompose_nu1.json": ["decompose", "--chain", chains["nu1"], "--poly", "2x^3", "--json"],
        "iskey_nu1.json": ["iskey", "--chain", chains["nu1"], "--poly", "x^2+x", "--json"],
        "stability_lam.json": ["stability", "--chain", chains["lam"], "--poly", "x+2", "--json"],
        "limit_lam.json": ["limit", "--chain", chains["lam"], "--poly", "x", "--json"],
        "enumerate_nu1.json": ["enumerate", "--chain", chains["nu1"], "--max-res-deg", "2", "--json"],
    }


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

    def test_augment_rank2_writes_prefix_values_at_rank_1(self, capsys, chains, nu1):
        want = iv.augment(nu1, Poly.parse("x^2+2"), Value.of((1, 1))).to_json()
        assert want["steps"][0]["gamma"] == "1/2"
        argv = ["augment", "--chain", chains["nu1"], "--phi", "x^2+2", "--gamma", "(1, 1)"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip() == json.dumps(want)
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["result"]["chain"] == want

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

    def test_space_never_joins_digits(self, capsys, chains):
        # "1 1" is two terms with no sign between them, not 11
        code, out, _ = run(capsys, "liftkey", "--chain", chains["nu1"], "--psi", "y^2+y+1 1", "--json")
        assert code == 1
        assert json.loads(out)["diagnostics"] == ["missing +/- between terms in 'y^2+y+1 1'"]

    def test_invalid_chain(self, capsys, chains):
        code, _, err = run(capsys, "stability", "--chain", chains["bad"], "--poly", "x")
        assert code == 2 and "condition (1)" in err

    def test_huge_exponent_is_a_resource_error(self, capsys, chains):
        start = time.perf_counter()
        code, out, _ = run(capsys, "eval", "--chain", chains["nu1"], "--poly", "x^999999999", "--json")
        assert time.perf_counter() - start < 1.0
        env = json.loads(out)
        assert code == 3 and env["result"] is None and "exponents above" in env["diagnostics"][0]

    @pytest.mark.parametrize(
        "verb, chain, option, text, message",
        [
            # the expansion in x^2 + 2 alone is estimated at 6.4 * 10^9 bits
            ("eval", "nu2", "--poly", "x^65535 + 1", "work budget of"),
            ("expand", "nu2", "--poly", "x^65535 + 1", "work budget of"),
            ("stability", "lam", "--poly", "x^65535 + 1", "work budget of"),
            ("limit", "lam", "--poly", "x^65535 + 1", "work budget of"),
            ("liftkey", "nu1", "--psi", "y^65535 + y + 1", "field operations"),
        ],
    )
    def test_past_the_work_budget_is_a_resource_error(self, capsys, chains, verb, chain, option, text, message):
        start = time.perf_counter()
        code, out, _ = run(capsys, verb, "--chain", chains[chain], option, text, "--json")
        assert time.perf_counter() - start < 1.0
        env = json.loads(out)
        assert code == 3 and env["result"] is None and message in env["diagnostics"][0]

    @pytest.mark.parametrize(
        "verb, option, text",
        [
            ("eval", "--poly", "9" * 5000),
            ("eval", "--poly", "1/" + "3" * 5000),
            ("liftkey", "--psi", "y+[" + "9" * 5000 + "]"),
        ],
    )
    def test_huge_number_is_a_resource_error(self, capsys, chains, verb, option, text):
        code, out, err = run(capsys, verb, "--chain", chains["nu1"], option, text, "--json")
        env = json.loads(out)
        assert code == 3 and env["result"] is None and "decimal digits" in env["diagnostics"][0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ('"{\\"prime\\": 2}"', 2, "does not hold a JSON object"),
            ("[" * 100000, 2, "not valid JSON"),
            (b"\xff\xfe", 2, "not valid JSON"),
            ('{"prime": ' + "2" * 5000 + "}", 3, "decimal digits"),
            ('{"prime": 2, "steps": [{"phi": "x", "gamma": ["1e999999999", "1"]}]}', 3, "powers of ten"),
        ],
    )
    def test_hostile_chain_files(self, capsys, tmp_path, text, code, message):
        path = tmp_path / "c.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        got, out, _ = run(capsys, "eval", "--chain", str(path), "--poly", "x", "--json")
        env = json.loads(out)
        assert got == code and env["result"] is None and message in env["diagnostics"][0]

    @pytest.mark.parametrize("n", [160, 2000])
    def test_long_chain_is_bounded(self, capsys, tmp_path, n):
        # degree-one steps (x, 1), (x - 2, 2), (x - 6, 3), ... over v_2:
        # validating 160 of them would take about 5 s, 2,000 over half an hour
        steps = [{"phi": "x", "gamma": "1"}] + [{"phi": f"x-{2 ** (i + 1) - 2}", "gamma": str(i + 1)} for i in range(1, n)]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"prime": 2, "steps": steps}))
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--chain", str(path), "--poly", "x^3+5", "--json")
        assert time.perf_counter() - start < 2.0
        env = json.loads(out)
        assert code == 3 and env["result"] is None and "work budget" in env["diagnostics"][0]
        assert "Traceback" not in err

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
        "gamma_not_value": {"prime": 2, "steps": [{"phi": "x", "gamma": {"a": 1}}]},
        "gamma_null": {"prime": 2, "steps": [{"phi": "x", "gamma": None}]},
        "gamma_list_bool": {"prime": 2, "steps": [{"phi": "x", "gamma": [True, "1"]}]},
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

    LIMITS = {
        "limit_phi_not_string": ({"limit_phi": 5, "limit_gamma": ["1", "0"]}, 2, ""),
        "limit_gamma_list_junk": ({"limit_phi": "x+2", "limit_gamma": ["a", "0"]}, 2, ""),
        "limit_gamma_not_value": ({"limit_phi": "x+2", "limit_gamma": {"a": 1}}, 2, ""),
        "limit_gamma_null": ({"limit_phi": "x+2", "limit_gamma": None}, 2, ""),
        "limit_gamma_nested": ({"limit_phi": "x+2", "limit_gamma": [1, [2]]}, 2, ""),
        # x + 2 is unstable in the lam family, so (x+2)^2 is not of minimal degree
        "limit_phi_not_minimal": (
            {"family": LAM_FAMILY, "limit_phi": "x^2+4x+4", "limit_gamma": ["1", "0"]},
            3,
            "minimality assertion violated",
        ),
    }

    @pytest.mark.parametrize("name", sorted(LIMITS))
    def test_limit_step(self, capsys, tmp_path, name):
        fields, want, message = self.LIMITS[name]
        family = [{"phi": "x", "gamma": "1"}, {"phi": "x-2", "gamma": "2"}]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"prime": 2, "family": family, **fields}))
        code, out, err = run(capsys, "limit", "--chain", str(path), "--poly", "x", "--json")
        obj = json.loads(out)
        assert code == want and obj["verb"] == "limit" and obj["result"] is None
        assert message in obj["diagnostics"][0]
        assert "Traceback" not in err

    def test_limit_gamma_number_still_reads(self, capsys, tmp_path):
        family = [{"phi": "x", "gamma": "1"}, {"phi": "x-2", "gamma": "2"}]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"prime": 2, "family": family, "limit_phi": "x+2", "limit_gamma": [1, 0]}))
        assert run(capsys, "limit", "--chain", str(path), "--poly", "x+2")[:2] == (0, "(1, 0)\n")

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
        for name, argv in golden_cases(chains).items():
            code, out, _ = run(capsys, *argv)
            assert code == 0
            got = json.loads(out)
            got["inputs"].pop("chain", None)  # path is tmpdir-specific
            with open(os.path.join(GOLDEN_DIR, name)) as fh:
                want = json.load(fh)
            assert got == want, name


class TestUsageErrorEnvelope:
    """Under --json a usage error prints the envelope and still exits 1."""

    @pytest.mark.parametrize(
        "argv, verb, message",
        [
            (["eval", "--json"], "eval", "the following arguments are required: --chain, --poly"),
            (["bogus", "--json"], None, "argument verb: invalid choice: 'bogus'"),
            (["--json"], None, "the following arguments are required: verb"),
            (["--json", "enumerate", "--max-res-deg", "two"], "enumerate", "argument --max-res-deg"),
            (["eval", "--js"], "eval", "the following arguments are required"),
        ],
    )
    def test_envelope(self, capsys, argv, verb, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and err == ""
        obj = json.loads(out)
        assert obj == {"verb": verb, "inputs": {}, "result": None, "diagnostics": obj["diagnostics"]}
        assert len(obj["diagnostics"]) == 1 and obj["diagnostics"][0].startswith(message)

    @pytest.mark.parametrize("argv", [["eval"], ["bogus"], []])
    def test_plain_mode_prints_usage_only(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("usage: indval")
        assert ("error: " in err) == bool(argv)


class TestParserReuse:
    """main() builds its parser once per process and carries nothing between calls."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_not_built_at_import(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        probe = "import indval.cli as c; print(c._parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

    def test_requests_leave_no_state(self, capsys, chains):
        cases = golden_cases(chains)
        for _ in range(2):
            for name, argv in cases.items():
                code, out, _ = run(capsys, *argv)
                with open(os.path.join(GOLDEN_DIR, name)) as fh:
                    want = json.load(fh)
                want["inputs"]["chain"] = argv[2]
                assert code == 0 and out == json.dumps(want, indent=2, sort_keys=True) + "\n", name
            assert run(capsys, "eval", "--json")[0] == 1
            code, out, _ = run(capsys, "factor", "--chain", chains["nu2"], "--poly", "x^4+4", "--json")
            assert code == 0 and json.loads(out)["inputs"]["seed"] == 0
            code, out, _ = run(capsys, "enumerate", "--chain", chains["nu1"], "--json")
            assert code == 0 and json.loads(out)["inputs"]["max-res-deg"] == 1
            assert json.loads(out)["result"] == {"keys": ["x", "x^2 + 2"]}


class _FailingStdout:
    def __init__(self, exc):
        self.exc = exc

    def write(self, text):
        raise self.exc

    def flush(self):
        pass


class TestOutputErrors:
    """Output that cannot be written ends the run with exit 1 and no traceback."""

    def argv(self, chains):
        return ["factor", "--chain", chains["nu2"], "--poly", "x^4+4", "--seed", "7", "--json"]

    @pytest.mark.parametrize("help", [False, True])
    def test_closed_pipe_is_quiet(self, capsys, monkeypatch, chains, help):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(BrokenPipeError(32, "Broken pipe")))
        assert main(["--help"] if help else self.argv(chains)) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("help", [False, True])
    def test_other_write_error_prints_one_line(self, capsys, monkeypatch, chains, help):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(OSError(28, "No space left on device")))
        assert main(["--help"] if help else self.argv(chains)) == 1
        assert capsys.readouterr().err == "error: cannot write the output: [Errno 28] No space left on device\n"

    def test_help_is_written_by_main(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: indval") and out == cli.build_parser().format_help()

    def run_module(self, argv, stdout):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.Popen(
            [sys.executable, "-m", "indval.cli", *argv], env=env, stdout=stdout, stderr=subprocess.PIPE
        )

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_subprocess_with_closed_pipe(self, monkeypatch, chains, unbuffered):
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        with self.run_module(self.argv(chains), subprocess.PIPE) as proc:
            proc.stdout.close()  # the reader is gone before the first write
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1 and err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_subprocess_with_full_device(self, chains):
        with open("/dev/full", "wb") as full, self.run_module(self.argv(chains), full) as proc:
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err.decode().splitlines() == ["error: cannot write the output: [Errno 28] No space left on device"]


class TestOptimizedMode:
    """Invariant checks raise named errors, so python -O changes no output."""

    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "from indval.cli import main\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    outs.append([code, buf.getvalue()])\n"
        "print(json.dumps({'optimize': sys.flags.optimize, 'outs': outs}))\n"
    )

    def test_golden_requests_under_python_O(self, chains):
        cases = golden_cases(chains)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, json.dumps(list(cases.values()))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        got = json.loads(proc.stdout)
        assert got["optimize"] == 1
        for (name, argv), (code, out) in zip(cases.items(), got["outs"], strict=True):
            with open(os.path.join(GOLDEN_DIR, name)) as fh:
                want = json.load(fh)
            want["inputs"]["chain"] = argv[2]
            assert code == 0 and out == json.dumps(want, indent=2, sort_keys=True) + "\n", name


class TestRoundTrips:
    def test_printed_outputs_reparse(self, capsys, chains):
        code, out, _ = run(capsys, "liftkey", "--chain", chains["nu2"], "--psi", "y+1")
        assert Poly.parse(out.strip()) == Poly.parse("x^2+2x+2")
        code, out, _ = run(capsys, "eval", "--chain", chains["nu1"], "--poly", "x^2+2")
        assert Value.parse(out.strip()) == Value.of(1)
        code, out, _ = run(capsys, "limit", "--chain", chains["lam"], "--poly", "x")
        assert Value.parse(out.strip()) == Value.of((0, 1))
