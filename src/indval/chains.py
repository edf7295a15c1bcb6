"""Augmentation chains over (Q, v_p) as first-class valuations on Q[x].

A chain [(phi_1, gamma_1), ..., (phi_r, gamma_r)] starts with a monic linear
key and assigns, level by level, the value gamma_i to the key phi_i.  A
polynomial is valued by expanding it in the top key, valuing the coefficients
with the prefix chain, and taking the lexicographic minimum of the monomial
values mu(f_s) + s*gamma_r.

Each key value may enlarge the value group; at most the final gamma_r may be
incommensurable with the group generated below it, in which case the chain
values live in rank-2 lexicographic coordinates.  Inside a rank-2 chain the
base valuation embeds into the *major* coordinate, q -> (q, 0), so an
incommensurable step supplies a fresh infinitesimal direction.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import List, Optional, Sequence, Tuple, Union

from .basefield import PadicValuation, Poly
from .errors import ChainError, DomainError, InvariantError, ResourceError
from .values import INFINITY, Value, _check_digits, _parse_rational


@dataclass(frozen=True)
class Step:
    """One augmentation step: a monic key polynomial and its assigned value."""

    phi: Poly
    gamma: Value


def _linear_digits(coeffs: Sequence[Fraction], a: Fraction) -> List[Fraction]:
    """Digits of f at the monic linear base x - a, by synthetic division."""
    if a == 0:
        return list(coeffs)
    cs = list(coeffs)
    out: List[Fraction] = []
    while cs:
        k = len(cs) - 1
        acc = cs[k]
        q = [Fraction(0)] * k
        for j in range(k - 1, -1, -1):
            q[j] = acc
            acc = cs[j] + a * acc
        out.append(acc)
        cs = q
    return out


def _digits_of(rows: Sequence[Tuple[int, int, int, int]], B: int) -> List[int]:
    """Digits (c, m_1, ..., m_{i-1}) of the value B/D_i, given the digit-table
    rows of the i-1 steps below level i (see :meth:`InductiveValuation.digit_vector`)."""
    exps = [0] * (len(rows) + 1)
    for j in range(len(rows), 0, -1):
        e, _, g, inv = rows[j - 1]
        m = B * inv % e
        exps[j] = m
        B = (B - m * g) // e
    exps[0] = B
    return exps


@lru_cache(maxsize=4096)
def _value_of(key: Optional[Tuple[int, ...]], den: int) -> Value:
    """The Value with coordinates key/den, or Infinity for key None.

    Equal keys share one immutable Value while it stays in the bounded cache.
    The key tuple keeps its length, so a rank-1 q and its minor embedding
    (0, q), which compare equal, never share an object.
    """
    if key is None:
        return INFINITY
    return Value(tuple(Fraction(k, den) for k in key))


# The work budget: the most bits an expansion may be estimated to produce
# (see check_expansion_work).  The estimate grows with the square of the
# degree; 2^23 bits admits x^2048 + 1 in x^2 + 2, about 0.5 s of expansion.
MAX_EXPANSION_BITS = 2**23


def check_expansion_work(f: Poly, phi: Poly) -> None:
    """Raise ResourceError when the phi-expansion of f is estimated to hold
    more than MAX_EXPANSION_BITS bits.

    Each of the n = deg(f) // deg(phi) division steps can lengthen the
    coefficients by the bit height k of phi, so the n + 1 digits hold at most
    about (n + 1) * deg(phi) * (h + n*k) bits, h the bit height of f (taken
    as 64 plus its denominator's for numerators that fit in 64 bits), and
    the time to compute them grows with that size.  Expanding in x is free.
    Called once per top-level value, expansion or decomposition, never per
    digit.
    """
    m = phi.degree
    n = f.degree // m if f.num else 0
    if n == 0 or (m == 1 and not phi.num[0]):
        return
    # numerators kept in an array fit in 64 bits, a bound that needs no scan
    h = 64 if isinstance(f.num, array) else max(map(int.bit_length, f.num))
    k = max(map(int.bit_length, phi.num)) + phi.den.bit_length()
    bits = (n + 1) * m * (h + f.den.bit_length() + n * k)
    if bits > MAX_EXPANSION_BITS:
        raise ResourceError(
            f"expanding a polynomial of degree {f.degree} in {phi} is estimated at "
            f"{bits} bits, past the work budget of {MAX_EXPANSION_BITS}"
        )


def phi_expansion(f: Poly, phi: Poly) -> List[Poly]:
    """Digit expansion f = sum f_s phi^s with deg f_s < deg phi.

    Returned constant-coefficient-first, including interior zero coefficients;
    the zero polynomial expands to [0].
    """
    if phi.degree is None or phi.degree < 1:
        raise DomainError("expansion base must be non-constant")
    if not phi.is_monic:
        raise DomainError("expansion base must be monic")
    if f.is_zero:
        return [Poly.zero()]
    if phi.degree == 1:
        if phi.den == 1:  # integral root: integer Taylor shift of the numerators
            return [Poly.from_ints((d,), f.den) for d in _linear_digits(f.num, -phi.num[0])]
        return [Poly.constant(c) for c in _linear_digits(f.coeffs, -phi.coeff(0))]
    out: List[Poly] = []
    cur = f
    while not cur.is_zero:
        cur, r = cur.divmod_monic(phi)
        out.append(r)
    return out


class InductiveValuation:
    """A validated augmentation chain; immutable after construction.

    Use :func:`validate_chain` (or :func:`indval.augmentation.augment`) to
    build instances; the raw constructor performs no invariant checking.
    """

    def __init__(self, base: PadicValuation, steps: Sequence[Step], rank: int):
        self.base = base
        self.steps = tuple(steps)
        self.rank = rank
        self.degrees = tuple(s.phi.degree for s in self.steps)
        # every value of the chain lies in (1/_den) Z^rank
        self._den = lcm(*(c.denominator for s in self.steps for c in s.gamma.coords))
        self._levels = None  # residual level data, attached by validation
        self._digit_rows: Optional[Tuple[Tuple[int, int, int, int], ...]] = None
        self._key_lifts: dict = {}  # psi over the top residue field -> (lift, unit, value)

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

    def prefix(self, i: int) -> "InductiveValuation":
        """The chain formed by the first i steps (1 <= i <= length).

        For a rank-2 chain the prefix steps are commensurable and are returned
        as a rank-1 chain, matching the residual level data.
        """
        if not 1 <= i <= self.length:
            raise DomainError("prefix length out of range")
        if i == self.length:
            return self
        demoted = tuple(Step(s.phi, s.gamma.demote()) for s in self.steps[:i])
        if any(st.gamma.rank != 1 for st in demoted):
            raise InvariantError(
                f"prefix {i} of the chain {self.describe()} has a rank-2 value"
            )
        nu = InductiveValuation(self.base, demoted, 1)
        if self._levels is not None:
            nu._levels = self._levels[:i]
        return nu

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

    def base_unit_value(self) -> Value:
        """v(p) = 1, embedded into the chain's rank."""
        one = Value.of(1)
        return one.embed(self.rank, major=True)

    def group_gens(self, i: int) -> Tuple[Value, ...]:
        """Generators of the value group of polynomials of degree < deg(phi_i).

        For a validated chain this group is generated by v(p) = 1 together
        with gamma_1, ..., gamma_{i-1}.
        """
        return (self.base_unit_value(),) + tuple(s.gamma for s in self.steps[: i - 1])

    def value_group_gens(self) -> Tuple[Value, ...]:
        """Generators of the full value group of the chain."""
        return (self.base_unit_value(),) + tuple(s.gamma for s in self.steps)

    def ram_index(self, i: int) -> int:
        """Least e >= 1 with e*gamma_i in the value group below level i.

        That group is (1/D_i)Z (see :meth:`_digit_table`), so e_i is the
        denominator of gamma_i * D_i, read from the digit table.
        """
        rows = self._digit_table()
        if i > len(rows):
            raise DomainError(f"gamma_{i} is incommensurable with the group below it")
        return rows[i - 1][0]

    def commensurable_at(self, i: int) -> bool:
        """Whether gamma_i is commensurable with the group below level i.

        Every step of a validated chain is, except a rank-2 top step: only the
        last value may open the fresh direction, and one that does not is
        stored as rank 1.
        """
        return self.rank == 1 or i < self.length

    @property
    def top_commensurable(self) -> bool:
        return self.commensurable_at(self.length)

    # -- evaluation -------------------------------------------------------------

    def base_value(self, c: Union[int, Fraction]) -> Value:
        v = self.base.value(c)
        return v.embed(self.rank, major=True)

    def _val(self, f: Poly, i: int) -> Value:
        if f.is_zero:
            return INFINITY
        if i == 0:
            return self.base_value(f.constant_value())
        phi, gamma = self.steps[i - 1].phi, self.steps[i - 1].gamma
        if f.degree < phi.degree:
            return self._val(f, i - 1)
        if i == 1 and phi.den == 1:
            return self._val_linear(f, -phi.num[0], gamma)
        return min(_monomial_values(phi_expansion(f, phi), gamma, lambda c: self._val(c, i - 1)))

    def _val_linear(self, f: Poly, a: int, gamma: Value) -> Value:
        """Level-1 value of f for the key x - a with a an integer.

        The digits of f's numerators at x - a are integers (Taylor shift), so
        each monomial value is compared as an integer vector: the base order
        in the major coordinate and s*gamma, both in units of 1/B with B the
        common denominator of gamma's coordinates.
        """
        order = self.base.int_order
        B = lcm(*(c.denominator for c in gamma.coords))
        G = [c.numerator * (B // c.denominator) for c in gamma.coords]
        best = None
        for s, d in enumerate(_linear_digits(f.num, a)):
            if d:
                key = [order(d) * B + s * G[0]] + [s * g for g in G[1:]]
                if best is None or key < best:
                    best = key
        best[0] -= order(f.den) * B
        return _value_of(tuple(best), B)

    def valuation(self, f: Poly) -> Value:
        """The chain's value of f; Infinity exactly for f = 0.

        The result may be an object shared with earlier calls (Values are
        immutable); compare values with ==, never by identity.
        """
        if f.is_zero:
            return INFINITY
        self.check_work(f)
        v = self._val(f, self.length)
        D = self._den
        return _value_of(tuple(c.numerator * (D // c.denominator) for c in v.coords), D)

    def __call__(self, f: Poly) -> Value:
        return self.valuation(f)

    def check_work(self, f: Poly) -> None:
        """check_expansion_work for the first expansion a value of f needs:
        in the key of the highest level whose degree is at most deg(f)."""
        for st in reversed(self.steps):
            if st.phi.degree <= f.degree:
                check_expansion_work(f, st.phi)
                return

    def weighted_cap(self) -> Value:
        """gamma_r / deg(phi_r): the maximal weighted value mu(f)/deg(f)."""
        return self.top.gamma.over(self.top_degree)

    # -- canonical monomials -------------------------------------------------------

    def _digit_table(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """Rows (e_j, D_{j+1}, g_j, g_j^-1 mod e_j) for the rank-1 steps j.

        The group below level j is (1/D_j)Z with D_1 = 1 (the group of v_p),
        e_j is the denominator of gamma_j * D_j, D_{j+1} = D_j * e_j, and
        g_j = gamma_j * D_{j+1} is an integer prime to e_j.  Built once per
        chain; a rank-2 top step has no row.
        """
        if self._digit_rows is None:
            rows = []
            D = 1
            for j, st in enumerate(self.steps, 1):
                gamma = st.gamma.demote()
                if gamma.rank != 1:
                    break
                e = (gamma.coords[0] * D).denominator
                D *= e
                g = int(gamma.coords[0] * D)
                rows.append((e, D, g, pow(g, -1, e)))
            self._digit_rows = tuple(rows)
        return self._digit_rows

    def digit_vector(self, beta: Value, level: Optional[int] = None) -> Tuple[int, ...]:
        """Exponents (c, m_1, ..., m_{i-1}) with beta = c*1 + sum m_j gamma_j.

        The digits satisfy 0 <= m_j < e_j; c is the free integer digit of
        v(p).  Every step below the top is rank 1, so the group below level i
        is (1/D_i)Z and each digit follows by modular arithmetic from the
        chain's digit table: with B = beta' * D_{j+1}, m_j = B * g_j^-1 mod e_j,
        and beta' - m_j*gamma_j lies in (1/D_j)Z.  Raises DomainError when
        beta is not in the group.
        """
        i = self.length if level is None else level
        rows = self._digit_table()[: i - 1]
        b = Value.of(beta).demote()
        D = rows[-1][1] if rows else 1
        if b.coords is None or len(b.coords) != 1 or D % b.coords[0].denominator:
            raise DomainError(
                f"{beta} is not in the value group of degree<{self.degrees[i-1]} polynomials"
            )
        return tuple(_digits_of(rows, b.coords[0].numerator * (D // b.coords[0].denominator)))

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
        canonical monomial u of degree < deg(phi_r) with value(u * phi_r^e) = 0.
        """
        i = self.length if level is None else level
        if not self.commensurable_at(i):
            raise DomainError("ramification data needs a commensurable top step")
        e = self.ram_index(i)
        u = self.canonical_monomial(self.steps[i - 1].gamma.scaled(-e), level=i)
        if self._val(u * self.steps[i - 1].phi**e, i) != Value.of(0).embed(self.rank):
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
    to phi_i (augment replaces the top step in that case).  Residual level
    data (ramification, normalizers, residue-field tower) is built and cached
    during the walk.

    Only the input is checked, deterministically.  The library's own
    invariants, such as values of degree < deg(phi_r) lying in (1/D_r)Z, are
    tier-1 tests (``tests/test_validation.py``), not runtime checks.
    """
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
    rank = steps[-1].gamma.rank
    if rank == 2:
        steps = [
            Step(s.phi, s.gamma.embed(2, major=True)) for s in steps[:-1]
        ] + [steps[-1]]

    if steps[0].phi.degree != 1:
        raise ChainError("step 1: the first key polynomial must be monic linear")
    for i in range(1, len(steps)):
        if steps[i].phi.degree % steps[i - 1].phi.degree != 0:
            raise ChainError(
                f"step {i + 1}: key degree {steps[i].phi.degree} is not a multiple "
                f"of the previous key degree {steps[i - 1].phi.degree}"
            )

    nu = InductiveValuation(base, steps, rank)

    # value and key invariants, walked level by level; builds residual data
    from . import residual

    residual.attach_levels(nu)
    return nu


# ---------------------------------------------------------------------------
# Expansion reports and elementary predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    """Top-key expansion data: coefficients, monomial values and the argmin set."""

    coeffs: Tuple[Poly, ...]
    monomial_values: Tuple[Value, ...]
    mu: Value
    indices: Tuple[int, ...]
    s: int
    s_prime: int


def _monomial_values(coeffs: Sequence[Poly], gamma: Value, value_of) -> List[Value]:
    """The monomial values value_of(f_s) + s*gamma of an expansion sum f_s phi^s
    in a key of value gamma, Infinity for f_s = 0.

    The one kernel behind every expansion: chain evaluation (with the prefix
    chain as value_of), expansion reports, the residual decomposition and the
    scan path of limit valuations (with stable values as value_of).
    """
    return [INFINITY if c.is_zero else value_of(c) + gamma.scaled(s) for s, c in enumerate(coeffs)]


def _report(coeffs: Sequence[Poly], gamma: Value, value_of) -> ExpansionReport:
    """The monomial values of an expansion with their minimum and argmin set."""
    vals = _monomial_values(coeffs, gamma, value_of)
    mu = min(vals)
    idx = tuple(s for s, w in enumerate(vals) if w == mu)
    return ExpansionReport(tuple(coeffs), tuple(vals), mu, idx, idx[0], idx[-1])


def expansion_report(nu: InductiveValuation, f: Poly) -> ExpansionReport:
    """Expansion of f in the top key with values, minimum and argmin set.

    The monomial values come from the kernel :func:`_monomial_values` with the
    prefix chain as value_of; s and s' are the least and greatest argmin.  A
    rank-2 top step, the only incommensurable one, has a singleton argmin; a
    tie there raises InvariantError.
    """
    if f.is_zero:
        raise DomainError("expansion report of the zero polynomial")
    nu.check_work(f)
    rep = _report(phi_expansion(f, nu.top.phi), nu.top.gamma, lambda c: nu._val(c, nu.length - 1))
    if len(rep.indices) > 1 and not nu.top_commensurable:
        # monomial values differ in the fresh direction, so ties are impossible
        raise InvariantError(
            f"argmin {rep.indices} of {f} on the chain {nu.describe()} with an "
            "incommensurable top step must be a singleton"
        )
    return rep


def is_equivalent(nu: InductiveValuation, f: Poly, g: Poly) -> bool:
    """Whether f and g share their initial term: value(f - g) > value(g)."""
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
    from .keys import key_check

    kc = key_check(nu, chi)
    if not kc.ok:
        raise DomainError(f"chi is not a key polynomial: {kc.reason}")
    if f.is_zero:
        return INFINITY
    check_expansion_work(f, chi)
    f0 = phi_expansion(f, chi)[0]
    return nu(f0)
