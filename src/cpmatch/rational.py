"""Exact rational scalars and the deterministic cost perturbation.

All arithmetic in this package is exact.  `Rat` is an arbitrary-precision
rational kept in lowest terms with a positive denominator: gmpy2's `mpq` when
the optional `gmpy2` extra is installed, otherwise `fractions.Fraction`; both
give the same values.  The simplex tableau in `lp` does not use `Rat` at all:
it works over Python ints, takes int LP data only, and builds a `Rat` only
for a nonzero result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is an optional extra
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)
HALF = Rat(1, 2)


def rat(p, q=1):
    """Build the canonical lowest-terms rational p/q.  Rejects q == 0."""
    if q == 0:
        raise ZeroDivisionError("rational with zero denominator")
    return Rat(p, q)


def format_rat(x) -> str:
    """Render as "p" or "p/q"; the inverse of parse_rat.  Only a value that
    is not a Rat is converted."""
    if not isinstance(x, Rat):
        x = Rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str):
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return rat(int(p), int(q))
    return Rat(int(s))


@dataclass(frozen=True)
class PerturbedCosts:
    """Integer costs scaled by 2^m with the i-th edge raised by 2^(m-i).

    Working in the scaled integers keeps every LP coefficient integral while
    realizing exactly the +1/2^i bump on edge i (1-based, input order).
    """

    base: tuple
    scale: int
    scaled: tuple

    def perturbed_total(self, edge_ids):
        return Rat(sum(self.scaled[i] for i in edge_ids), self.scale)

    def base_total(self, edge_ids) -> int:
        return sum(self.base[i] for i in edge_ids)


def perturb(costs: Sequence[int]) -> PerturbedCosts:
    """Scale integer costs by 2^m and add the per-edge perturbation term.

    With m edges, edge i (1-based) gets scaled cost 2^m * c_i + 2^(m-i), so
    its cost exceeds c_i by exactly 1/2^i and the perturbation terms sum to
    less than one.
    """
    if not costs:
        raise ValueError("empty cost sequence")
    m = len(costs)
    scale = 1 << m
    scaled = tuple((c << m) + (1 << (m - 1 - i)) for i, c in enumerate(costs))
    return PerturbedCosts(base=tuple(int(c) for c in costs), scale=scale, scaled=scaled)
