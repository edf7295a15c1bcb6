"""Ordinary and limit augmentation of chains.

Ordinary augmentation extends a chain by a key polynomial chi and a value
gamma > mu(chi); augmenting by a key equivalent to the top key replaces the
top step (same class of valuations, with the new value).

A continuous family keeps the key degree fixed while the values strictly
increase; polynomials either stabilize along the family or their values grow
strictly at every step.  A limit augmentation assigns, to a minimal-degree
unstable phi and a value gamma dominating every mu_alpha(phi), the valuation
min over the phi-expansion of (stable coefficient value + s*gamma).  When the
mu_alpha(phi) are unbounded, gamma lives in a fresh major coordinate and the
limit valuation, whose rank is gamma's, embeds the stable values into the
minor coordinate, q -> (0, q): the opposite side from a chain, whose rank-2
top step puts the values below it into the major coordinate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from typing import List, Optional, Sequence, Tuple, Union

from .basefield import PadicValuation, Poly, _monomial_values, check_expansion_work, phi_expansion
from .chains import (
    InductiveValuation,
    Step,
    _as_step,
    _json_object,
    _parse_base,
    _parse_steps,
    _steps_json,
    expansion_report,
    is_equivalent,
    validate_chain,
)
from .errors import ChainError, DomainError, InvariantError, ResourceError
from .keys import key_check
from .values import INFINITY, Value, _value_of


def augment(nu: InductiveValuation, chi: Poly, gamma) -> InductiveValuation:
    """The augmented chain [nu; chi, gamma].

    chi must be a key polynomial for nu and gamma must exceed nu(chi), a
    rank-1 side of the comparison taken into the major coordinate as in a
    chain.  A key equivalent to the top key replaces the top step instead of
    appending.
    """
    gamma = Value.of(gamma).demote()
    kc = key_check(nu, chi)
    if not kc.ok:
        raise DomainError(f"chi is not a key polynomial: {kc.reason}")
    mu_chi = nu(chi)
    rank = max(nu.rank, gamma.rank)
    if not gamma.embed(rank, major=True) > mu_chi.embed(rank, major=True):
        raise DomainError(
            f"gamma={gamma} must exceed the current value {mu_chi} of chi"
        )
    if chi.degree == nu.top_degree and is_equivalent(nu, chi, nu.top.phi):
        steps = nu.steps[:-1] + (Step(chi, gamma),)
    else:
        steps = nu.steps + (Step(chi, gamma),)
    return validate_chain(steps, nu.base)


# ---------------------------------------------------------------------------
# Continuous families
# ---------------------------------------------------------------------------


class ContinuousChain:
    """A finite prefix of a continuous family of augmentations.

    Every family member augments the (possibly empty) base prefix by a key of
    the common degree d; the member chains mu_alpha are cached in order.
    """

    def __init__(
        self,
        base: PadicValuation,
        family: Sequence[Step],
        base_steps: Sequence[Step] = (),
        members: Optional[List[InductiveValuation]] = None,
    ):
        self.base = base
        self.base_steps = tuple(base_steps)
        self.family = tuple(family)
        self.members = members or []

    @property
    def length(self) -> int:
        return len(self.family)

    @property
    def degree(self) -> int:
        return self.family[0].phi.degree

    def member(self, alpha: int) -> InductiveValuation:
        """The chain mu_alpha (1-based)."""
        if not 1 <= alpha <= len(self.members):
            raise DomainError("family index out of range")
        return self.members[alpha - 1]

    def to_json(self) -> dict:
        obj = {"prime": self.base.p, "family": _steps_json(self.family)}
        if self.base_steps:
            obj["base_steps"] = _steps_json(self.base_steps)
        return obj


def continuous_chain_from_json(obj: Union[str, dict]) -> ContinuousChain:
    """Build and validate a family from {"prime": p, "family": [...]}.

    An optional "base_steps" list supplies the chain prefix below the family.
    Malformed input raises as in :func:`chain_from_json`.
    """
    if isinstance(obj, str):
        obj = _json_object(obj, "continuous chain description")
    try:
        base = _parse_base(obj["prime"])
        family = _parse_steps(obj["family"])
        base_steps = _parse_steps(obj.get("base_steps", []))
    except (KeyError, TypeError) as exc:
        raise ChainError(f"malformed continuous chain description: {exc}") from None
    return validate_continuous_chain(family, base, base_steps)


def validate_continuous_chain(
    raw_family: Sequence,
    base: PadicValuation,
    base_steps: Sequence = (),
) -> ContinuousChain:
    """Validate the three family conditions, naming violations with indices.

    (1) all key degrees equal; (2) values strictly increasing; (3) for
    alpha < beta, phi_beta is a key for mu_alpha, not equivalent to
    phi_alpha, with gamma_beta > mu_alpha(phi_beta).

    (3) costs one value per adjacent pair.  A monic chi of degree d has the
    phi_a-expansion (chi - phi_a) + phi_a, so it is a key for mu_a not
    equivalent to phi_a exactly when mu_a(chi - phi_a) = gamma_a, and then
    mu_a(chi) = gamma_a.  Given (2), (3) holds for all pairs once it holds
    for adjacent ones: phi_b - phi_a sums the adjacent differences, of
    degree < d where all members agree, with values gamma_a < ... <
    gamma_{b-1}, so its value is gamma_a.  Only a pair that fails the
    comparison runs the full key test, which names the violation.
    """
    family = [_as_step(item) for item in raw_family]
    if not family:
        raise ChainError("a continuous family must be non-empty")
    bsteps = [_as_step(item) for item in base_steps]

    d = family[0].phi.degree
    for i, st in enumerate(family, 1):
        if st.phi.degree != d:
            raise ChainError(
                f"condition (1) violated at index {i}: degree {st.phi.degree} != {d}"
            )
    for i in range(1, len(family)):
        if not family[i].gamma > family[i - 1].gamma:
            raise ChainError(
                f"condition (2) violated at indices {i},{i + 1}: values must "
                "strictly increase"
            )

    members = [
        validate_chain(list(bsteps) + [st], base) for st in family
    ]

    for a in range(1, len(family)):
        b = a + 1
        mu_a, phi_a = members[a - 1], family[a - 1].phi
        phi_b, gamma_b = family[b - 1].phi, family[b - 1].gamma
        if mu_a(phi_b - phi_a) == family[a - 1].gamma:
            continue
        kc = key_check(mu_a, phi_b)
        if not kc.ok:
            raise ChainError(
                f"condition (3) violated at indices {a},{b}: phi_{b} is not a "
                f"key for mu_{a} ({kc.reason})"
            )
        if is_equivalent(mu_a, phi_b, phi_a):
            raise ChainError(
                f"condition (3) violated at indices {a},{b}: phi_{b} is "
                f"equivalent to phi_{a}"
            )
        if not gamma_b > mu_a(phi_b):
            raise ChainError(
                f"condition (3) violated at indices {a},{b}: gamma_{b} does "
                f"not exceed mu_{a}(phi_{b})"
            )
        raise InvariantError(
            f"mu_{a}(phi_{b} - phi_{a}) = {mu_a(phi_b - phi_a)} is not gamma_{a} "
            f"on {mu_a.describe()}, yet phi_{b} = {phi_b} passes the key test"
        )
    return ContinuousChain(base, family, bsteps, members)


# ---------------------------------------------------------------------------
# Stability along a family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the stability scan of one polynomial along the family.

    Stable: the first index alpha where the phi_alpha-expansion has its
    strict minimum at the 0-th coefficient certifies every later value equals
    mu_alpha(f).  Unstable: the values increased strictly across the whole
    prefix (any equality would already certify stability).
    """

    stable: bool
    value: Optional[Value]
    witness_index: Optional[int]
    values: Tuple[Value, ...]

    def __str__(self):
        if self.stable:
            return f"Stable({self.value}, witness alpha={self.witness_index})"
        vals = ", ".join(str(v) for v in self.values)
        return f"UnstableWithinPrefix([{vals}])"


def stability(chain: ContinuousChain, f: Poly) -> StabilityReport:
    """Scan the family in order for a stability witness.

    At each alpha the expansion of f in phi_alpha is valued with mu_alpha; a
    singleton argmin at the 0-th coefficient makes f equivalent to a
    polynomial of degree < d, on which all later family members agree.
    Without a witness the value list must be strictly increasing.  f of
    degree < d is its own expansion, so the scan stops at alpha = 1 with the
    value mu_1(f).
    """
    if f.is_zero:
        raise DomainError("stability of the zero polynomial")
    values: List[Value] = []
    for alpha in range(1, chain.length + 1):
        mu = chain.member(alpha)
        rep = expansion_report(mu, f)
        values.append(rep.mu)
        if rep.indices == (0,):
            return StabilityReport(True, rep.mu, alpha, tuple(values))
    for i in range(1, len(values)):
        if not values[i] > values[i - 1]:
            fam = ", ".join(f"({st.phi}, {st.gamma})" for st in chain.family)
            raise InvariantError(
                f"stability trichotomy violated for f = {f} on the family [{fam}] "
                f"over v_{chain.base.p}: values [{', '.join(map(str, values))}] are "
                "neither witnessed stable nor strictly increasing"
            )
    return StabilityReport(False, None, None, tuple(values))


class LimitValuation:
    """The limit augmentation of a family by an unstable minimal-degree phi.

    Values of the phi-expansion coefficients are the stable family values;
    the key itself takes gamma, whose rank is the valuation's, and a rank-2
    gamma puts the stable values into the minor coordinate, q -> (0, q).
    Evaluation raises ResourceError when a coefficient's stability witness
    lies beyond the finite prefix.

    When phi has the family degree d (and mu_1 is rank 1), every coefficient
    has degree < d and is stable from mu_1 on, so it is valued by mu_1 alone,
    without a stability scan, in integers over the common denominator B of
    mu_1's values and gamma.  Results may be shared immutable objects.
    """

    def __init__(self, chain: ContinuousChain, phi: Poly, gamma: Value):
        self.chain = chain
        self.phi = phi
        self.gamma = gamma
        self.rank = gamma.rank
        self._mu1: Optional[InductiveValuation] = None
        mu1 = chain.member(1)
        if phi.degree <= chain.degree and mu1.rank == 1:
            self._mu1 = mu1
            self._B = B = lcm(mu1._den, *(c.denominator for c in gamma.coords))
            self._G = tuple(c.numerator * (B // c.denominator) for c in gamma.coords)

    def _stable_int(self, c: Poly) -> int:
        """B * mu_1(c) for 0 != c of degree < d: the stable value of c."""
        if c.degree == 0:
            order = self.chain.base.int_order
            return (order(c.num[0]) - order(c.den)) * self._B
        q = self._mu1._val(c, self._mu1.length).coords[0]
        return q.numerator * (self._B // q.denominator)

    def stable_value(self, g: Poly) -> Value:
        rep = stability(self.chain, g)
        if not rep.stable:
            raise ResourceError(
                "stability of a coefficient is not witnessed within the "
                "prefix; extend the family"
            )
        return rep.value.embed(self.rank, major=False)

    def valuation(self, g: Poly) -> Value:
        if g.is_zero:
            return INFINITY
        check_expansion_work(g, self.phi)
        if self._mu1 is not None:
            return self._int_valuation(g)
        return min(_monomial_values(phi_expansion(g, self.phi), self.gamma, self.stable_value))

    def _int_valuation(self, g: Poly) -> Value:
        """min_s (B * mu_1(g_s) + s * B * gamma) as integer vectors, with the
        stable values in the minor coordinate, q -> (0, q), at rank 2."""
        G = self._G
        qs = [(s, self._stable_int(c)) for s, c in enumerate(phi_expansion(g, self.phi)) if not c.is_zero]
        return _value_of(min((q + s * G[0],) if len(G) == 1 else (s * G[0], q + s * G[1]) for s, q in qs), self._B)

    def __call__(self, g: Poly) -> Value:
        return self.valuation(g)


def limit_augment(chain: ContinuousChain, phi: Poly, gamma) -> LimitValuation:
    """Build the limit augmentation [family; phi, gamma].

    phi must be unstable within the prefix and of minimal degree among
    unstable polynomials (caller-asserted for degree > 1; a seeded spot check
    samples lower-degree monic polynomials and verifies their stability).
    gamma must exceed every mu_alpha(phi); old values embed into the minor
    coordinate when gamma opens the major one.
    """
    if not phi.is_monic:
        raise DomainError("the limit key must be monic")
    rep = stability(chain, phi)
    if rep.stable:
        raise DomainError(
            "phi is stable within the prefix; ordinary augmentation applies"
        )
    gamma = Value.of(gamma)
    if gamma.is_infinite:
        raise DomainError("the limit value must be finite")
    for alpha, v in enumerate(rep.values, 1):
        if not gamma > v.embed(gamma.rank, major=False):
            raise DomainError(
                f"gamma={gamma} does not exceed mu_{alpha}(phi)={v}"
            )
    if phi.degree > 1:
        rng = random.Random(4241)
        for _ in range(8):
            deg = rng.randrange(1, phi.degree)
            g = Poly([rng.randrange(-9, 10) for _ in range(deg)] + [1])
            low = stability(chain, g)
            if not low.stable:
                raise DomainError(
                    f"minimality assertion violated: {g} of degree {deg} is "
                    "unstable within the prefix"
                )
    return LimitValuation(chain, phi, gamma)
