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
from typing import List, Optional, Sequence, Tuple, Union

from .basefield import PadicValuation, Poly, _monomial_values, check_expansion_work, phi_expansion
from .basefield import _linear, _linear_digits, _val_linear  # the level-1 loop and its lazy integer digits
from .chains import (
    InductiveValuation,
    Step,
    _as_step,
    _check_chain_work,
    _extend,
    _json_object,
    _parse_base,
    _parse_steps,
    _shape_checked,
    _steps_json,
    _validation_work,
    expansion_report,
    is_equivalent,
)
from .errors import ChainError, DomainError, InvariantError, ResourceError
from .keys import key_check
from .values import INFINITY, Value, _value_of


def augment(nu: InductiveValuation, chi: Poly, gamma) -> InductiveValuation:
    """The augmented chain [nu; chi, gamma].

    chi must be a key polynomial for nu and gamma must exceed nu(chi), a
    rank-1 side of the comparison taken into the major coordinate as in a
    chain.  A key equivalent to the top key is a key by that equivalence,
    and replaces the top step instead of appending.  The result extends nu
    by the step, or nu's parent when the step replaces the top one
    (:func:`indval.chains._extend`): one level is built, and the levels and
    prefixes below are nu's own objects.  The one key test is the step check
    of ``_extend``: key_check(nu, chi) when appending, and chi's test against
    nu's parent when replacing.  A step it refuses raises DomainError; a
    chain past MAX_CHAIN_WORK, ResourceError.
    """
    if chi.is_constant or not chi.is_monic:
        raise DomainError("chi is not a key polynomial: keys are monic and non-constant")
    gamma = Value.of(gamma).demote()
    mu_chi = nu(chi)
    rank = max(nu.rank, gamma.rank)
    if not gamma.embed(rank, major=True) > mu_chi.embed(rank, major=True):
        raise DomainError(
            f"gamma={gamma} must exceed the current value {mu_chi} of chi"
        )
    replaces = chi.degree == nu.top_degree and is_equivalent(nu, chi, nu.top.phi)
    try:
        return _extend(nu.base, nu._parent if replaces else nu, [Step(chi, gamma)])
    except ChainError as exc:
        raise DomainError(str(exc)) from None


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
        base_steps: Sequence[Step],
        members: List[InductiveValuation],
    ):
        self.base = base
        self.base_steps = tuple(base_steps)
        self.family = tuple(family)
        self.members = members

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

    The members extend one chain of the base steps, validated once, by their
    own step each; each member's step list still passes the shape checks of
    :func:`indval.chains.validate_chain`, in the family's order.  The base
    chain and every member step are charged to ``MAX_CHAIN_WORK`` at once:
    past it, ResourceError is raised before any of them is checked.

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

    b = len(bsteps)
    _check_chain_work(
        _validation_work(0, b) + len(family) * _validation_work(b, 1),
        f"a family of {len(family)} members on {b} base steps",
    )
    members: List[InductiveValuation] = []
    for st in family:
        steps = _shape_checked([*bsteps, st])
        below = members[0]._parent if members else _extend(base, None, steps[:-1])
        members.append(_extend(base, below, steps[-1:]))

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
    value mu_1(f).  A member that is a one-step chain (a family of degree 1
    with no base steps) gives its value and argmin set from the level-1 loop
    :func:`_val_linear` on f's lazy integer digits, which stops once no later
    monomial can reach the minimum (every digit is read when gamma <= 0);
    longer members give their expansion report.
    """
    if f.is_zero:
        raise DomainError("stability of the zero polynomial")
    values: List[Value] = []
    for alpha in range(1, chain.length + 1):
        mu = chain.member(alpha)
        if mu.length == 1:
            mu.check_work(f)
            key, idx = _val_linear(mu._lin, *_linear_digits(f, mu.top.phi))
            v, idx = _value_of(key, mu._lin.B), list(idx)
        else:
            rep = expansion_report(mu, f)
            v, idx = rep.mu, list(rep.indices)
        values.append(v)
        if idx == [0]:
            return StabilityReport(True, v, alpha, tuple(values))
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

    A linear key over a family whose first member mu_1 is rank 1 (so d = 1)
    has constant coefficients, stable from mu_1 on: they are valued without
    a stability scan, in the level-1 loop :func:`_val_linear` on the key's
    lazy integer digits with the p-adic order, as a chain's first level, in
    units of 1/B with B the common denominator of gamma's coordinates, and
    with the order in the minor coordinate at rank 2.  The loop stops at the
    first s with s*gamma above the least monomial value so far (for gamma >
    0), so the Horner passes of the later digits never run.  The loop's
    results are interned, so repeated values are one shared object.  Every
    other key takes the scan.
    """

    def __init__(self, chain: ContinuousChain, phi: Poly, gamma: Value):
        self.chain = chain
        self.phi = phi
        self.gamma = gamma
        self.rank = gamma.rank
        self._lin = None
        if phi.degree == 1 and chain.member(1).rank == 1:
            self._lin = _linear(chain.base.int_order, gamma, minor=gamma.rank == 2)

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
        if self._lin is not None:
            return _value_of(_val_linear(self._lin, *_linear_digits(g, self.phi))[0], self._lin.B)
        return min(_monomial_values(phi_expansion(g, self.phi), self.gamma, self.stable_value))

    def __call__(self, g: Poly) -> Value:
        return self.valuation(g)


def limit_augment(chain: ContinuousChain, phi: Poly, gamma) -> LimitValuation:
    """Build the limit augmentation [family; phi, gamma].

    phi must be unstable within the prefix and of minimal degree among
    unstable polynomials (caller-asserted for a degree above the family
    degree d; a seeded spot check samples monic polynomials of degree d to
    deg(phi) - 1 and verifies their stability).
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
    d = chain.degree
    # A polynomial of degree < d is stable: every member agrees on it, and
    # the scan stops at alpha = 1.  So only degrees d to deg(phi) - 1 can show
    # phi not minimal, and a key of the family degree has none to sample.
    if phi.degree > d:
        rng = random.Random(4241)
        for _ in range(8):
            deg = rng.randrange(d, phi.degree)
            g = Poly([rng.randrange(-9, 10) for _ in range(deg)] + [1])
            low = stability(chain, g)
            if not low.stable:
                raise DomainError(
                    f"minimality assertion violated: {g} of degree {deg} is "
                    "unstable within the prefix"
                )
    return LimitValuation(chain, phi, gamma)
