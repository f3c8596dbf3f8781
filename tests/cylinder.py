"""The exact cylinder measure of a finite path prefix, a cross-check for
the oracle's path measures."""

from fractions import Fraction
from typing import Sequence

from potl.model import ModelError, Pots


def cylinder_measure(model: Pots, prefix: Sequence[str]) -> Fraction:
    """Exact measure of all infinite paths extending the given finite
    prefix: the product of its transition probabilities."""
    if not prefix:
        raise ModelError("a path prefix needs at least one state")
    for q in prefix:
        model.state_index(q)
    out = Fraction(1)
    for q, r in zip(prefix, prefix[1:]):
        p = model.prob_exact(q, r)
        if p == 0:
            raise ModelError(f"prefix steps through a missing edge ({q}, {r})")
        out *= p
    return out
