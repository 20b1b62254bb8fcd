"""Ready-made models used across the test-suite and the documentation."""

from __future__ import annotations

from fractions import Fraction

from .model import ModelSpec, make_spec


def triangle(r: float = 0.3) -> ModelSpec:
    """Three classes, every pair compatible, no self loops, uniform arrivals.

    The only independent sets are singletons, each with margin 1/3, so the
    stability margin is exactly 1/3.
    """
    third = Fraction(1, 3)
    z = 0.0
    return make_spec(("a", "b", "c"), (third, third, third),
                     ((z, r, r), (r, z, r), (r, r, z)))


def bipartite(p: float | Fraction = Fraction(3, 5), r: float = 0.5) -> ModelSpec:
    """Two classes that only match each other; arrivals (p, 1 - p).

    The margin is -(|1 - 2p|): never positive, zero exactly at p = 1/2, so
    this family is the standard unstable benchmark.
    """
    return make_spec(("one", "two"), (p, 1 - p), ((0.0, r), (r, 0.0)))


def single_selfloop(r: float = 0.5) -> ModelSpec:
    """One class matching itself; every independent-set constraint is vacuous
    and the margin is +inf."""
    return make_spec(("solo",), (Fraction(1),), ((r,),))


def mixed_selfloop() -> ModelSpec:
    """A heterogeneous triangle a-b-c plus a self-matching class d.

    Margin 1/5 attained at {b}; exercises a non-empty self-loop set, a
    heterogeneous rho (rho_min = 0.3), and thresholds above one for the
    second built-in weight.  The self-matching class is kept isolated:
    when a self-loop class borders the loop-free part, the support
    reduction that strips self-loop classes loses the drain its arrivals
    redirect onto the neighbours, and the stripped-support inequality can
    fail at states where both sides of the border hold large counts.
    """
    nu = (Fraction(1, 4), Fraction(3, 10), Fraction(1, 4), Fraction(1, 5))
    rho = (
        (0.0, 0.6, 0.5, 0.0),
        (0.6, 0.0, 0.3, 0.0),
        (0.5, 0.3, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.7),
    )
    return make_spec(("a", "b", "c", "d"), nu, rho)


def path3(r: float = 0.5) -> ModelSpec:
    """Three classes in a path a-b-c; useful for support-reduction cases."""
    nu = (Fraction(3, 10), Fraction(2, 5), Fraction(3, 10))
    return make_spec(("a", "b", "c"), nu, ((0.0, r, 0.0), (r, 0.0, r), (0.0, r, 0.0)))
