"""Two-level logic minimisation (Quine–McCluskey) and SOP costing.

The hardwired baseline controllers are FSMs whose next-state and output
logic grows with the complexity of the fixed march algorithm; to measure
that growth honestly (rather than asserting it), the area estimator
synthesises each FSM's combinational logic from its truth table:

1. :func:`minimize_sop` — exact Quine–McCluskey primes, generated
   bit-parallel (one 2ⁿ-bit int per don't-care mask), then
   essential-prime selection and a greedy cover of the remainder.  Exact
   enough for the ≤ 14-variable tables produced by the controllers here.
2. :func:`sop_gate_equivalents` — cost of a sum-of-products network in
   2-input-gate equivalents: an AND of *k* literals is *k − 1* 2-input
   gates, an OR of *t* terms is *t − 1*, plus shared input inverters.

Implicants are ``(value, care_mask)`` pairs: bit *i* of ``care_mask`` set
means variable *i* is a literal of the product term and its polarity is
bit *i* of ``value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

Implicant = Tuple[int, int]  # (value, care_mask)


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _covers(implicant: Implicant, minterm: int) -> bool:
    value, care = implicant
    return (minterm & care) == (value & care)


def prime_implicants(
    n_vars: int, ones: Iterable[int], dont_cares: Iterable[int] = ()
) -> List[Implicant]:
    """All prime implicants of the function (Quine–McCluskey step 1).

    Bit *v* of ``imp[free]`` is set when the cube that drops the variables
    of ``free`` and fixes the rest to *v* lies in ``ones ∪ dont_cares``.
    """
    full = (1 << n_vars) - 1
    space = (1 << (1 << n_vars)) - 1
    imp = [0] * (1 << n_vars)
    for minterm in set(ones) | set(dont_cares):
        imp[0] |= 1 << minterm
    # low[bit] marks the minterms with that bit clear: ``bit`` ones then
    # ``bit`` zeros, repeated, which is space // (2**bit + 1).
    low = {1 << i: space // ((1 << (1 << i)) + 1) for i in range(n_vars)}
    # free ^ bit < free, so each half is built before the cube it joins.
    for free in range(1, 1 << n_vars):
        bit = free & -free
        half = imp[free ^ bit]
        imp[free] = half & (half >> bit) & low[bit]
    # A cube is prime when no cube one variable wider contains it.
    primes: List[Implicant] = []
    for free, cubes in enumerate(imp):
        for bit in low:
            if cubes and not free & bit:
                wider = imp[free | bit]
                cubes &= ~(wider | wider << bit)
        while cubes:
            primes.append(((cubes & -cubes).bit_length() - 1, full & ~free))
            cubes &= cubes - 1
    return sorted(primes)


def _select_cover(
    primes: Sequence[Implicant], ones: Sequence[int]
) -> List[Implicant]:
    """Essential primes first, then greedy set cover of what remains."""
    uncovered: Set[int] = set(ones)
    coverage: Dict[Implicant, FrozenSet[int]] = {
        imp: frozenset(m for m in ones if _covers(imp, m)) for imp in primes
    }
    chosen: List[Implicant] = []

    # Essential primes: a minterm covered by exactly one prime.
    essential: Set[Implicant] = set()
    for minterm in ones:
        covering = [imp for imp in primes if minterm in coverage[imp]]
        if len(covering) == 1:
            essential.add(covering[0])
    for imp in sorted(essential):
        chosen.append(imp)
        uncovered -= coverage[imp]

    # Greedy: biggest remaining coverage, ties broken by fewer literals.
    while uncovered:
        best = max(
            primes,
            key=lambda imp: (len(coverage[imp] & uncovered), -_popcount(imp[1])),
        )
        gain = coverage[best] & uncovered
        if not gain:
            raise AssertionError("prime implicants failed to cover the on-set")
        chosen.append(best)
        uncovered -= gain
    return chosen


def minimize_sop(
    n_vars: int, ones: Iterable[int], dont_cares: Iterable[int] = ()
) -> List[Implicant]:
    """Minimised sum-of-products cover of the on-set.

    Args:
        n_vars: number of input variables (minterms are ``n_vars``-bit).
        ones: on-set minterms.
        dont_cares: optional don't-care minterms, usable for merging but
            not required to be covered.

    Returns:
        Chosen implicants; empty list for the constant-0 function, and a
        single all-don't-care implicant ``(0, 0)`` for constant-1.
    """
    ones = sorted(set(ones))
    if not ones:
        return []
    dont_cares = sorted(set(dont_cares) - set(ones))
    if len(ones) + len(dont_cares) == 1 << n_vars:
        return [(0, 0)]
    primes = prime_implicants(n_vars, ones, dont_cares)
    return _select_cover(primes, ones)


def literal_count(cover: Sequence[Implicant]) -> int:
    """Total literals across a cover (the classic PLA-ish cost metric)."""
    return sum(_popcount(care) for _, care in cover)


def sop_gate_equivalents(
    covers: Dict[str, Sequence[Implicant]],
    inv_ge: float = 0.5,
) -> float:
    """2-input-gate-equivalent cost of a multi-output SOP network.

    AND of *k* literals: *k − 1* gates.  OR of *t* terms: *t − 1* gates.
    Complemented literals need one inverter per distinct (variable used
    complemented anywhere) — input buffers/true literals are free.
    Identical product terms are shared between outputs.
    """
    shared_terms: Set[Implicant] = set()
    complemented_vars: Set[int] = set()
    or_gates = 0
    for cover in covers.values():
        or_gates += max(0, len(cover) - 1)
        for value, care in cover:
            shared_terms.add((value, care))
            bit = 0
            remaining = care
            while remaining:
                if remaining & 1 and not (value >> bit) & 1:
                    complemented_vars.add(bit)
                remaining >>= 1
                bit += 1
    and_gates = sum(max(0, _popcount(care) - 1) for _, care in shared_terms)
    return and_gates + or_gates + inv_ge * len(complemented_vars)


@dataclass
class TruthTable:
    """Multi-output truth table with synthesis to a costed SOP network.

    Args:
        n_vars: input count.
        outputs: output name → on-set minterms.
        dont_cares: minterms that are don't-care for *every* output
            (typically unreachable FSM state codes).
    """

    n_vars: int
    outputs: Dict[str, Set[int]]
    dont_cares: Set[int]

    def __init__(
        self,
        n_vars: int,
        outputs: Dict[str, Iterable[int]],
        dont_cares: Iterable[int] = (),
    ) -> None:
        if n_vars < 0 or n_vars > 20:
            raise ValueError(f"unreasonable variable count {n_vars}")
        self.n_vars = n_vars
        self.outputs = {name: set(ones) for name, ones in outputs.items()}
        self.dont_cares = set(dont_cares)

    def synthesize(self) -> Dict[str, List[Implicant]]:
        """Minimised cover per output."""
        return {
            name: minimize_sop(self.n_vars, ones, self.dont_cares)
            for name, ones in self.outputs.items()
        }

    def gate_equivalents(self, inv_ge: float = 0.5) -> float:
        """GE cost of the whole synthesised network."""
        return sop_gate_equivalents(self.synthesize(), inv_ge=inv_ge)
