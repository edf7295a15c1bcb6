"""Command-line front end: verb-style subcommands over chain files.

Exit codes: 0 success, 1 usage error, 2 invalid chain, 3 domain/resource
error.  All randomness sits behind --seed (default 0), so output is
deterministic.  --json renders {verb, inputs, result, diagnostics}, also for
a usage error (empty inputs, null result, argparse's message).  main() may be
called repeatedly in one process; it builds its parser once and reuses it.
Output that cannot be written ends the run with exit code 1 and no
traceback: silently when the reader closed the pipe, else with one error
line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from typing import List, Optional, Tuple

from .augmentation import (
    augment,
    continuous_chain_from_json,
    limit_augment,
    stability,
)
from .basefield import Poly
from .chains import (
    _json_object,
    _parse_steps,
    chain_from_json,
    expansion_report,
    key_semivaluation,
)
from .errors import ChainError, DomainError, ParseError, ResourceError
from .keys import enumerate_keys, graded_factorization, key_check, lift_key
from .residual import decompose, residual_data, residual_ideal, residual_poly
from .towers import TowerPoly
from .values import Value


class _UsageError(Exception):
    """args: the (sub)parser that found the usage error, and argparse's message."""


class _Parser(argparse.ArgumentParser):
    verbs: dict  # top-level parser only: verb -> subparser

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> _Parser:
    """A fresh parser; a usage error raises _UsageError(parser, message)."""
    parser = _Parser(prog="indval", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="verb", parser_class=_Parser)
    parser.verbs = sub.choices

    def add(verb, *, poly=False, psi=False, chi=False, phi_gamma=False, maxdeg=False, seed=False):
        sp = sub.add_parser(verb)
        sp.add_argument("--chain", required=True, help="chain description file (JSON)")
        if poly:
            sp.add_argument("--poly", required=True)
        if psi:
            sp.add_argument("--psi", required=True, help="residual polynomial in y")
        if chi:
            sp.add_argument("--chi", required=True, help="key polynomial")
        if phi_gamma:
            sp.add_argument("--phi", required=True)
            sp.add_argument("--gamma", required=True)
        if maxdeg:
            sp.add_argument("--max-res-deg", type=int, default=1)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        # SUPPRESS keeps a top-level --json from being clobbered by the default
        sp.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help="emit JSON output",
        )
        return sp

    add("eval", poly=True)
    add("expand", poly=True)
    add("respoly", poly=True)
    add("decompose", poly=True)
    add("ideal", poly=True)
    add("iskey", poly=True)
    add("liftkey", psi=True)
    add("enumerate", maxdeg=True)
    add("factor", poly=True, seed=True)
    add("augment", phi_gamma=True)
    add("vchi", poly=True, chi=True)
    add("stability", poly=True)
    add("limit", poly=True)
    return parser


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ChainError(f"cannot read chain file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ChainError(f"chain file {path} is not valid JSON: {exc}") from None
    return _json_object(text, f"chain file {path}")


def _unit_obj(hu) -> dict:
    return {"value": str(hu.value), "residue": str(hu.residue)}


def _dispatch(args) -> Tuple[List[str], object]:
    """Run one verb; returns (human-readable lines, JSON result object)."""
    verb = args.verb

    if verb in ("stability", "limit"):
        obj = _load_json_file(args.chain)
        chain = continuous_chain_from_json(obj)
        f = Poly.parse(args.poly)
        if verb == "stability":
            rep = stability(chain, f)
            res = {
                "stable": rep.stable,
                "value": str(rep.value) if rep.stable else None,
                "witness_index": rep.witness_index,
                "values": [str(v) for v in rep.values],
            }
            return [str(rep)], res
        if "limit_phi" not in obj or "limit_gamma" not in obj:
            raise ChainError("limit requires limit_phi and limit_gamma in the chain file")
        ((phi, gamma),) = _parse_steps([{"phi": obj["limit_phi"], "gamma": obj["limit_gamma"]}])
        lim = limit_augment(chain, phi, gamma)
        w = lim(f)
        return [str(w)], {"value": str(w)}

    nu = chain_from_json(_load_json_file(args.chain))

    if verb == "eval":
        w = nu(Poly.parse(args.poly))
        return [str(w)], {"value": str(w)}
    if verb == "expand":
        rep = expansion_report(nu, Poly.parse(args.poly))
        lines = [
            f"coeffs: [{', '.join(str(c) for c in rep.coeffs)}]",
            f"monomial values: [{', '.join(str(v) for v in rep.monomial_values)}]",
            f"mu = {rep.mu}; I = {list(rep.indices)}; s = {rep.s}; s' = {rep.s_prime}",
        ]
        res = {
            "coeffs": [str(c) for c in rep.coeffs],
            "monomial_values": [str(v) for v in rep.monomial_values],
            "mu": str(rep.mu),
            "indices": list(rep.indices),
            "s": rep.s,
            "s_prime": rep.s_prime,
        }
        return lines, res
    if verb == "respoly":
        R = residual_poly(nu, Poly.parse(args.poly))
        return [str(R)], {"respoly": str(R)}
    if verb == "decompose":
        d = decompose(nu, Poly.parse(args.poly))
        lines = [f"s = {d.s}", f"unit = {d.unit}", f"R = {d.respoly}"]
        return lines, {"s": d.s, "unit": _unit_obj(d.unit), "respoly": str(d.respoly)}
    if verb == "ideal":
        ideal = residual_ideal(nu, Poly.parse(args.poly))
        return [str(ideal)], {
            "xi_power": ideal.xi_power,
            "psi": str(ideal.psi_part),
            "printed": str(ideal),
        }
    if verb == "iskey":
        kc = key_check(nu, Poly.parse(args.poly))
        text = "true" if kc.ok else f"false ({kc.reason})"
        if kc.ok and kc.branch:
            text += f" [{kc.branch}]"
        return [text], {"is_key": kc.ok, "branch": kc.branch, "reason": kc.reason}
    if verb == "liftkey":
        field = residual_data(nu).field
        psi = TowerPoly.parse(field, args.psi)
        chi = lift_key(nu, psi)
        return [str(chi)], {"key": str(chi)}
    if verb == "enumerate":
        keys = enumerate_keys(nu, args.max_res_deg)
        return [str(k) for k in keys], {"keys": [str(k) for k in keys]}
    if verb == "factor":
        f = Poly.parse(args.poly)
        gf = graded_factorization(nu, f, seed=args.seed)
        accounting = gf.accounting(nu, f)
        lines = [str(gf), accounting]
        res = {
            "unit": _unit_obj(gf.unit_part),
            "factors": [{"chi": str(c), "exponent": a} for c, a in gf.factors],
            "accounting": accounting,
        }
        return lines, res
    if verb == "augment":
        phi = Poly.parse(args.phi)
        gamma = Value.parse(args.gamma)
        nu2 = augment(nu, phi, gamma)
        obj = nu2.to_json()
        return [json.dumps(obj)], {"chain": obj}
    if verb == "vchi":
        w = key_semivaluation(nu, Poly.parse(args.chi), Poly.parse(args.poly))
        return [str(w)], {"value": str(w)}
    raise ParseError(f"unknown verb {verb!r}")


def _inputs_obj(args) -> dict:
    skip = {"verb", "json"}
    return {
        k.replace("_", "-"): v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


@functools.cache
def _parser() -> _Parser:
    """The parser every main() call shares, built on first use.

    Reuse is safe: prog is fixed, parse_args makes a fresh namespace on every
    call, and errors come back as _UsageError instead of being written to a
    stream looked up when the parser was built.
    """
    return build_parser()


def _envelope(verb, inputs: dict, result, diagnostics: List[str]) -> str:
    payload = {"verb": verb, "inputs": inputs, "result": result, "diagnostics": diagnostics}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _usage_error(argv: List[str], parser: argparse.ArgumentParser, message: Optional[str]) -> Tuple[int, str, str]:
    """Report a usage error (exit 1): an envelope under --json, else usage on stderr."""
    if any(len(a) > 2 and "--json".startswith(a) for a in argv):  # argparse takes --js too
        # the top-level parser takes no option values, so its verb is the first word
        word = next((a for a in argv if not a.startswith("-")), None)
        verb = word if word in _parser().verbs else None
        return 1, _envelope(verb, {}, None, [message or "the following arguments are required: verb"]), ""
    return 1, "", parser.format_usage() + (f"error: {message}\n" if message else "")


def main(argv: Optional[List[str]] = None) -> int:
    """Run one request and return its exit code.

    The request's output is written in one place and flushed before
    returning.  A closed pipe (the reader went away, as under `| head -1`)
    exits 1 quietly; any other error writing stdout prints one `error:` line
    on stderr and exits 1.  Either way stdout is then pointed at the null
    device, so that the interpreter's last flush of what is still buffered
    cannot fail again at shutdown.
    """
    code, out, err = _run(argv)
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except OSError as exc:
        _discard_stdout()
        code, err = 1, f"error: cannot write the output: {exc}\n"
    try:
        sys.stderr.write(err)
    except OSError:  # stderr is gone too: nothing is left to report to
        pass
    return code


def _discard_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # an in-memory stream has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _run(argv: Optional[List[str]]) -> Tuple[int, str, str]:
    """Parse and run one request: (exit code, stdout text, stderr text)."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):  # argparse prints --help itself
            args = parser.parse_args(argv)
    except SystemExit as exc:  # after --help
        return int(exc.code or 0), help_text.getvalue(), ""
    except _UsageError as exc:
        return _usage_error(argv, *exc.args)
    if args.verb is None:
        return _usage_error(argv, parser, None)
    diagnostics: List[str] = []
    result = None
    lines: List[str] = []
    code = 0
    try:
        lines, result = _dispatch(args)
    except ParseError as exc:
        diagnostics.append(str(exc))
        code = 1
    except ChainError as exc:
        diagnostics.append(str(exc))
        code = 2
    except (DomainError, ResourceError) as exc:
        diagnostics.append(str(exc))
        code = 3
    if args.json:
        return code, _envelope(args.verb, _inputs_obj(args), result, diagnostics), ""
    return code, "".join(f"{line}\n" for line in lines), "".join(f"error: {m}\n" for m in diagnostics)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
