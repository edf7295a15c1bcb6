"""Augmentation chains over (Q, v_p) as first-class valuations on Q[x].

A chain [(phi_1, gamma_1), ..., (phi_r, gamma_r)] starts with a monic linear
key and assigns, level by level, the value gamma_i to the key phi_i.  A
polynomial is valued by expanding it in the top key, valuing the coefficients
with the prefix chain, and taking the lexicographic minimum of the monomial
values mu(f_s) + s*gamma_r.

Each key value may enlarge the value group; at most the final gamma_r may be
incommensurable with the group generated below it, in which case the chain
values live in rank-2 lexicographic coordinates.  Every gamma_i is stored at
its own rank, so the steps below a rank-2 top step stay rank 1, and the chain
embeds in one place, :meth:`InductiveValuation._in_rank`: the values below a
rank-2 top step go into the *major* coordinate, q -> (q, 0), so that gamma_r
supplies a fresh infinitesimal direction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple, Union

from .basefield import (
    MAX_EXPANSION_BITS,  # re-exported: the budget of check_expansion_work
    ExpansionReport,
    PadicValuation,
    Poly,
    _linear,
    _linear_digits,
    _monomial_values,
    _val_linear,
    check_expansion_work,
    phi_expansion,
)
from .errors import ChainError, DomainError, InvariantError, ResourceError
from .residual import attach_levels, key_check
from .values import INFINITY, Value, _check_digits, _digits_of, _group_units, _parse_rational, _units_of, _value_of


@dataclass(frozen=True)
class Step:
    """One augmentation step: a monic key polynomial and its assigned value."""

    phi: Poly
    gamma: Value


def _with_digit_row(rows: Tuple[Tuple[int, int, int, int], ...], gamma: Value) -> Tuple[Tuple[int, int, int, int], ...]:
    """The digit table of a chain whose steps below the top have the rows
    ``rows`` and whose top step has the value gamma: one row more for a
    rank-1 gamma.  A chain holds its table as ``_digit_rows``.

    The rows are (e_j, D_{j+1}, g_j, g_j^-1 mod e_j) for the rank-1 steps j.
    The group below level j is (1/D_j)Z with D_1 = 1 (the group of v_p),
    e_j is the denominator of gamma_j * D_j, D_{j+1} = D_j * e_j, and
    g_j = gamma_j * D_{j+1} is an integer prime to e_j.  Each chain holds
    its parent's rows plus the row of its top step; a rank-2 top step has
    no row.
    """
    if gamma.rank != 1:
        return rows
    q, D = gamma.coords[0], rows[-1][1] if rows else 1
    e = (q * D).denominator
    g = int(q * D * e)
    return (*rows, (e, D * e, g, pow(g, -1, e)))


class InductiveValuation:
    """A validated augmentation chain; immutable after construction.

    A chain is its parent, the chain of every step but the last (None for a
    one-step chain), plus one step.  The constructor extends the parent's
    data by that step and checks nothing; :func:`_extend`, the only caller,
    checks the step and attaches its residual level.  Build chains with
    :func:`validate_chain` or :func:`indval.augmentation.augment`.
    """

    def __init__(self, base: PadicValuation, parent: Optional["InductiveValuation"], step: Step):
        self.base = base
        self._parent = parent
        self.steps = (*(parent.steps if parent else ()), step)
        self.rank = step.gamma.rank
        self.degrees = (*(parent.degrees if parent else ()), step.phi.degree)
        # every value of the chain lies in (1/_den) Z^rank
        self._den = lcm(parent._den if parent else 1, *(c.denominator for c in step.gamma.coords))
        # level 1 for _val_linear: gamma_1 in units of 1/B, the base order
        # in the major coordinate; one object down the chain
        self._lin = parent._lin if parent else _linear(base.int_order, step.gamma)
        self._digit_rows = _with_digit_row(parent._digit_rows if parent else (), step.gamma)
        self._levels = None  # residual level data, attached by _extend
        self._key_lifts: dict = {}  # psi over the top residue field -> keys._lift_record's entry

    # -- basic structure ----------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def top(self) -> Step:
        return self.steps[-1]

    @property
    def top_degree(self) -> int:
        return self.degrees[-1]

    def __eq__(self, other):
        return (
            isinstance(other, InductiveValuation)
            and self.base == other.base
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.base, self.steps))

    def describe(self) -> str:
        parts = ", ".join(f"({s.phi}, {s.gamma})" for s in self.steps)
        return f"[{parts}] over v_{self.base.p}"

    def __repr__(self):
        return f"InductiveValuation({self.describe()})"

    # -- value groups ---------------------------------------------------------

    def _in_rank(self, v: Value, i: int) -> Value:
        """v, a value of level < i, in gamma_i's rank: the chain's one embedding.

        Only a rank-2 top step changes rank, and the rank-1 values below it
        go into the major coordinate, q -> (q, 0).
        """
        return v.embed(self.steps[i - 1].gamma.rank, major=True)

    def commensurable_at(self, i: int) -> bool:
        """Whether gamma_i is commensurable with the group below level i.

        Every step of a validated chain is, except a rank-2 top step: only the
        last value may open the fresh direction, and one that does not is
        stored as rank 1.
        """
        return self.steps[i - 1].gamma.rank == 1

    @property
    def top_commensurable(self) -> bool:
        return self.commensurable_at(self.length)

    # -- evaluation -------------------------------------------------------------

    def _val(self, f: Poly, i: int) -> Value:
        """The level-i value of f, in gamma_i's rank.

        Level 1 values every f, constants included, in the integer loop
        :func:`_val_linear` over the lazy digits of f in the linear key phi_1,
        which it reads only while a monomial can still reach the minimum,
        in units of 1/B with B the common denominator of gamma_1's
        coordinates (B = e_1 at rank 1), and returns its interned Value.
        """
        if f.is_zero:
            return INFINITY
        if i == 1:
            return _value_of(_val_linear(self._lin, *_linear_digits(f, self.steps[0].phi))[0], self._lin.B)
        if i == 0:
            return self.base.value(f.constant_value())
        phi, gamma = self.steps[i - 1].phi, self.steps[i - 1].gamma
        if f.degree < phi.degree:
            return self._in_rank(self._val(f, i - 1), i)
        return min(_monomial_values(phi_expansion(f, phi), gamma, lambda c: self._in_rank(self._val(c, i - 1), i)))

    def valuation(self, f: Poly) -> Value:
        """The chain's value of f; Infinity exactly for f = 0.

        The result may be an object shared with earlier calls (Values are
        immutable); compare values with ==, never by identity.  A one-step
        chain returns the level-1 loop's interned Value as it is.
        """
        if f.is_zero:
            return INFINITY
        self.check_work(f)
        if self.length == 1:
            return self._val(f, 1)
        return _value_of(_units_of(self._val(f, self.length), self._den), self._den)

    def __call__(self, f: Poly) -> Value:
        return self.valuation(f)

    def check_work(self, f: Poly) -> None:
        """check_expansion_work for the first expansion a value of f needs:
        in the key of the highest level whose degree is at most deg(f)."""
        for st in reversed(self.steps):
            if st.phi.degree <= f.degree:
                check_expansion_work(f, st.phi)
                return

    # -- canonical monomials -------------------------------------------------------

    def digit_vector(self, beta: Value, level: Optional[int] = None) -> Tuple[int, ...]:
        """Exponents (c, m_1, ..., m_{i-1}) with beta = c*1 + sum m_j gamma_j.

        The digits satisfy 0 <= m_j < e_j; c is the free integer digit of
        v(p).  Every step below the top is rank 1, so the group below level i
        is (1/D_i)Z and each digit follows by modular arithmetic from the
        chain's digit table (:func:`_with_digit_row`): with B = beta' *
        D_{j+1}, m_j = B * g_j^-1 mod e_j, and beta' - m_j*gamma_j lies in
        (1/D_j)Z.  beta is rank 1 or, in a rank-2 chain, the chain's
        embedding (q, 0) of q.  Raises DomainError when beta is not in the
        group.
        """
        i = self.length if level is None else level
        rows = self._digit_rows[: i - 1]
        D = rows[-1][1] if rows else 1
        return tuple(_digits_of(rows, _group_units(beta, Value.of(beta).demote(), D, self.degrees[i - 1])))

    def monomial_from_exps(self, exps: Sequence[int]) -> Poly:
        """The monomial p^c * prod phi_j^{m_j} for exponents (c, m_1, ...)."""
        out = Poly.constant(Fraction(self.base.p) ** exps[0])
        for j, m in enumerate(exps[1:], 1):
            if m:
                out = out * (self.steps[j - 1].phi ** m)
        return out

    def canonical_monomial(self, beta: Value, level: Optional[int] = None) -> Poly:
        """Deterministic monomial of value beta with degree < deg(phi_r)."""
        exps = self.digit_vector(beta, level)
        mono = self.monomial_from_exps(exps)
        i = self.length if level is None else level
        if not (mono.degree < max(self.degrees[i - 1], 1) or mono.degree == 0):
            raise InvariantError(
                f"canonical monomial {mono} of {beta} at level {i} of the chain "
                f"{self.describe()} has degree {mono.degree}"
            )
        if self._val(mono, i - 1) != beta:
            raise InvariantError(
                f"canonical monomial {mono} at level {i} of the chain "
                f"{self.describe()} does not have the value {beta}"
            )
        return mono

    def ramification_data(self, level: Optional[int] = None) -> Tuple[int, Poly]:
        """(e, u): least e with e*gamma_r in the lower value group, and the
        canonical monomial u of degree < deg(phi_r) with value(u * phi_r^e) = 0,
        as stored in the level data that validation builds.
        """
        i = self.length if level is None else level
        if not self.commensurable_at(i):
            raise DomainError("ramification data needs a commensurable top step")
        e, u = self._levels[i - 1].e, self._levels[i - 1].u_poly
        if self._val(u * self.steps[i - 1].phi**e, i) != 0:
            raise InvariantError(
                f"u * phi_{i}^{e} with u = {u} is not of value 0 on the chain "
                f"{self.describe()}"
            )
        return e, u

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"prime": self.base.p, "steps": _steps_json(self.steps)}


def _parse_gamma(obj) -> Value:
    """A chain file's value: a number or string, or a list of them (rank 2)."""
    items = obj if isinstance(obj, list) else [obj]
    if any(isinstance(x, bool) or not isinstance(x, (str, int, float)) for x in items):
        raise ChainError(f"cannot read value {obj!r}: not a number or a string")
    if isinstance(obj, list):
        try:
            return Value([_parse_rational(str(x)) for x in obj])
        except (ValueError, ZeroDivisionError) as exc:
            raise ChainError(f"cannot read value {obj!r}: {exc}") from None
    return Value.parse(str(obj))


def _steps_json(steps: Sequence[Step]) -> List[dict]:
    """Chain-file step objects, the inverse of :func:`_parse_steps`; a rank-2
    value is written as a list of its two coordinates."""
    out = []
    for st in steps:
        g = st.gamma
        gamma = str(g) if g.rank == 1 else [str(c) for c in g.coords]
        out.append({"phi": str(st.phi), "gamma": gamma})
    return out


def _as_step(item) -> Step:
    """A Step, or (phi, gamma) with phi a string or a Poly, as a Step whose
    value is demoted to rank 1 when its minor coordinate is 0."""
    phi, gamma = (item.phi, item.gamma) if isinstance(item, Step) else item
    if isinstance(phi, str):
        phi = Poly.parse(phi)
    return Step(phi, Value.of(gamma).demote())


def _parse_base(prime) -> PadicValuation:
    """The base named by a chain file's "prime": an int or a decimal string."""
    if isinstance(prime, str):
        try:
            prime = int(prime)
        except ValueError:
            pass
    if isinstance(prime, bool) or not isinstance(prime, int):
        raise ChainError(f"prime must be an integer, got {prime!r}")
    try:
        return PadicValuation(prime)
    except DomainError as exc:
        raise ChainError(str(exc)) from None


def _parse_steps(items) -> List[Tuple[Poly, Value]]:
    """The (phi, gamma) pairs of a chain file's list of step objects."""
    out = []
    for st in items:
        phi = st["phi"]
        if not isinstance(phi, str):
            raise ChainError(f"key polynomial must be a string, got {phi!r}")
        out.append((Poly.parse(phi), _parse_gamma(st["gamma"])))
    return out


def _json_int(text: str) -> int:
    _check_digits(text)
    return int(text)


def _json_object(text: str, what: str) -> dict:
    """Decode JSON text that must hold an object; what names it in errors.

    Text that is not JSON, is nested too deep to decode, or holds anything
    but an object raises ChainError; an integer of more than
    MAX_PARSE_DIGITS digits raises ResourceError.
    """
    try:
        obj = json.loads(text, parse_int=_json_int)
    # RecursionError: nested too deep to decode
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ChainError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ChainError(f"{what} does not hold a JSON object")
    return obj


def chain_from_json(obj: Union[str, dict]) -> InductiveValuation:
    """Build and validate a chain from {"prime": p, "steps": [{phi, gamma}...]}.

    Every malformed entry raises ChainError, except a key or value string
    that does not parse (ParseError) and a number past the parse caps
    (ResourceError).
    """
    if isinstance(obj, str):
        obj = _json_object(obj, "chain description")
    try:
        base = _parse_base(obj["prime"])
        raw = _parse_steps(obj["steps"])
    except (KeyError, TypeError) as exc:
        raise ChainError(f"malformed chain description: {exc}") from None
    return validate_chain(raw, base)


def validate_chain(
    raw_steps: Sequence, base: PadicValuation
) -> InductiveValuation:
    """Validate an augmentation chain, naming the first violated invariant.

    Checks, in order: monic non-constant keys with finite values; first key
    linear; key degrees divide the next degree; only the final value may be
    incommensurable; each gamma_i exceeds the prefix value of phi_i; each
    phi_{i+1} is a key polynomial for the prefix chain and is not equivalent
    to phi_i (augment replaces the top step in that case).  The shape checks
    run once on the whole list; then the chain is extended one step at a
    time (:func:`_extend`), each step checked against the chain below it,
    whose residual level data (ramification, normalizers, residue-field
    tower) it keeps and adds one level to.

    Only the input is checked, deterministically.  The library's own
    invariants, such as values of degree < deg(phi_r) lying in (1/D_r)Z, are
    tier-1 tests (``tests/test_validation.py``), not runtime checks.
    Past MAX_CHAIN_WORK, which :func:`_extend` charges, it raises
    ResourceError before any step is checked.
    """
    return _extend(base, None, _shape_checked(raw_steps))


# The chain-validation work budget: the most residual decompositions that
# building one chain (by validate_chain or augment, both through _extend) or
# validating one continuous family may be estimated to make (see
# _validation_work).  Each decomposition walks digit vectors as long as
# its level, so time grows a little faster than the count.  2^12 admits a
# chain of 65 degree-one steps, validated in about 0.4 s (91 steps, 8,100
# decompositions, take 1.0 s; Python 3.11 on a 2-vCPU Xeon).  The chains of
# the tests, demos and benchmark have at most 6 steps, 25 decompositions.
MAX_CHAIN_WORK = 2**12


def _validation_work(below: int, added: int) -> int:
    """The residual decompositions that checking the steps below + 1, ...,
    below + added of a chain makes.

    Step i >= 2 is checked against the i - 1 levels below it
    (``residual.attach_levels``): its key check decomposes the key through
    every one of them, 2i - 3 decompositions in all when every argmin set
    met on the way is a singleton, as on every chain of the tests, so a
    chain of r steps makes (r - 1)^2.  A step of level 1 makes none.
    """
    lo, hi = max(below, 1), max(below + added, 1)
    return (hi - 1) ** 2 - (lo - 1) ** 2


def _check_chain_work(work: int, what: str) -> None:
    """Raise ResourceError when validating ``what`` is estimated at more than
    MAX_CHAIN_WORK decompositions."""
    if work > MAX_CHAIN_WORK:
        raise ResourceError(
            f"validating {what} is estimated at {work} residual decompositions, "
            f"past the work budget of {MAX_CHAIN_WORK}"
        )


def _shape_checked(raw_steps: Sequence) -> List[Step]:
    """The steps of a chain, after the checks of :func:`validate_chain` that
    need no valuation, in its order and with its texts."""
    steps = [_as_step(item) for item in raw_steps]
    if not steps:
        raise ChainError("a chain must contain at least one step")

    for idx, st in enumerate(steps, 1):
        if st.phi.is_zero or st.phi.is_constant:
            raise ChainError(f"step {idx}: key polynomial must be non-constant")
        if not st.phi.is_monic:
            raise ChainError(f"step {idx}: key polynomial must be monic")
        if st.gamma.is_infinite:
            raise ChainError(
                f"step {idx}: infinite key values are not representable as chains; "
                "use key_semivaluation for the semivaluation with support (phi)"
            )

    for i, st in enumerate(steps[:-1], 1):
        # only the last value may carry the fresh (incommensurable) direction
        if st.gamma.rank == 2:
            raise ChainError(
                f"step {i}: incommensurable key value must be the last step"
            )

    if steps[0].phi.degree != 1:
        raise ChainError("step 1: the first key polynomial must be monic linear")
    for i in range(1, len(steps)):
        if steps[i].phi.degree % steps[i - 1].phi.degree != 0:
            raise ChainError(
                f"step {i + 1}: key degree {steps[i].phi.degree} is not a multiple "
                f"of the previous key degree {steps[i - 1].phi.degree}"
            )
    return steps


def _extend(
    base: PadicValuation, parent: Optional[InductiveValuation], steps: Sequence[Step]
) -> Optional[InductiveValuation]:
    """parent (None: the empty chain) extended by each step in turn, each one
    checked against the chain below it by :func:`attach_levels`: the one
    constructor of chains.

    The chain it builds is charged to MAX_CHAIN_WORK as a whole, parent
    included: past it, ResourceError is raised before any step is checked.
    """
    r = (parent.length if parent else 0) + len(steps)
    _check_chain_work(_validation_work(0, r), f"a chain of {r} steps")
    for st in steps:
        parent = InductiveValuation(base, parent, st)
        attach_levels(parent)
    return parent


# ---------------------------------------------------------------------------
# Expansion reports and elementary predicates
# ---------------------------------------------------------------------------


def expansion_report(nu: InductiveValuation, f: Poly) -> ExpansionReport:
    """Expansion of f in the top key with values, minimum and argmin set.

    The monomial values come from the kernel :func:`_monomial_values` with
    the prefix chain as value_of, at every chain length: at r = 1 the prefix
    value is ``_val(c, 0)``, the base order of the constant digit.  s and s'
    are the least and greatest argmin.  A rank-2 top step, the only
    incommensurable one, has a singleton argmin; a tie there raises
    InvariantError.
    """
    if f.is_zero:
        raise DomainError("expansion report of the zero polynomial")
    nu.check_work(f)
    r = nu.length
    coeffs = phi_expansion(f, nu.top.phi)
    vals = _monomial_values(coeffs, nu.top.gamma, lambda c: nu._in_rank(nu._val(c, r - 1), r))
    mu = min(vals)
    idx = tuple(s for s, w in enumerate(vals) if w == mu)
    if len(idx) > 1 and not nu.top_commensurable:
        # monomial values differ in the fresh direction, so ties are impossible
        raise InvariantError(
            f"argmin {idx} of {f} on the chain {nu.describe()} with an "
            "incommensurable top step must be a singleton"
        )
    return ExpansionReport(tuple(coeffs), tuple(vals), mu, idx, idx[0], idx[-1])


def is_equivalent(nu, f: Poly, g: Poly) -> bool:
    """Whether f and g share their initial term: value(f - g) > value(g).

    nu is any valuation on Q[x]: a chain, or a LimitValuation.
    """
    if f.is_zero and g.is_zero:
        return True
    if f.is_zero or g.is_zero:
        return False
    return nu(f - g) > nu(g)


def is_unit(nu: InductiveValuation, f: Poly) -> bool:
    """Whether the initial term of f is a unit of the graded algebra.

    Equivalent to the argmin set of the top-key expansion being {0}: f is then
    equivalent to its 0-th coefficient, a polynomial of degree < deg(phi_r),
    and all such initial terms are invertible.
    """
    if f.is_zero:
        raise DomainError("the zero polynomial is not a unit")
    return expansion_report(nu, f).indices == (0,)


def is_minimal(nu: InductiveValuation, f: Poly) -> bool:
    """Whether f is minimal: it divides nothing of smaller degree.

    Characterized through the expansion: deg(f) = s'(f) * deg(phi_r); with an
    incommensurable top step the argmin is a singleton and s = s'.
    """
    if f.is_zero or f.is_constant:
        raise DomainError("minimality is asked of non-constant polynomials")
    rep = expansion_report(nu, f)
    s_char = rep.s if not nu.top_commensurable else rep.s_prime
    return f.degree == s_char * nu.top_degree


def key_semivaluation(nu: InductiveValuation, chi: Poly, f: Poly) -> Value:
    """The semivaluation attached to a key chi: f -> value of (f mod chi).

    Extends the chain's values on degree < deg(chi) polynomials to Q[x]/(chi),
    with value Infinity exactly on multiples of chi.
    """
    kc = key_check(nu, chi)
    if not kc.ok:
        raise DomainError(f"chi is not a key polynomial: {kc.reason}")
    if f.is_zero:
        return INFINITY
    check_expansion_work(f, chi)
    return nu(f.divmod_monic(chi)[1])
