"""Tour of the set algebra: atoms, combinations, normalization, measure.

Run with:  python demos/01_building_sets.py
"""

from fractions import Fraction as Q

from limitlab import (
    Difference,
    FULL_LINE,
    Intersection,
    Interval,
    Union,
    cardinality,
    contains,
    family,
    interval,
    measure,
    normalize,
    open_interval,
    points,
    rationals_in,
    sequence,
    set_to_text,
    window_trace,
)
from limitlab.terms import Term

# Seven atom kinds cover everything the engine works with.  All numbers are
# exact rationals; nothing here ever rounds.
unit = interval(0, 1)
spikes = points(Q(5, 2), 3)
rats = rationals_in(open_interval(0, 1))
harmonic = sequence(Term.power(1, 1))  # {1, 1/2, 1/3, ...}

print("atoms:")
for atom in (unit, spikes, rats, harmonic):
    print("  ", set_to_text(atom))

# Boolean structure is symbolic; normalize() reduces it to disjoint pieces.
combo = Difference(Union((unit, interval(2, 3), spikes)), open_interval(Q(1, 2), Q(5, 2)))
print("\ncombination:", set_to_text(combo))
print("normalized: ", set_to_text(normalize(combo)))

# Exact Lebesgue measure of the normalized pieces.
m = measure(combo)
print("measure:    ", m.value, "(exact)" if m.exact else f"+/- {m.bound_gap}")

# An interval family with overlapping early members: the engine merges the
# overlaps exactly and keeps the infinite tail symbolic.
fam = family(Term.power(1, 1) - Term.geometric(1, Q(1, 2)), Term.power(1, 1))
print("\nfamily:     ", set_to_text(fam))
print("measure:    ", measure(fam).value, "= 69/80, overlap-corrected")

# Membership is exact for every atom, including the symbolic tail.
probe = Q(1, 64) - Q(1, 2**64) + Q(1, 2**65)
print("deep member:", probe, "->", contains(fam, probe))

# Window traces: the engine's view of a set near a point, center excluded.
trace = window_trace(Union((fam, points(0))), 0, Q(1, 8))
solid = [p for p in trace.pieces if isinstance(p.core, Interval) and not p.removals]
print("\ntrace at 0, radius 1/8:")
print("  interval pieces:", len(solid))
print("  residual pieces:", len(trace.pieces) - len(solid))
print("  cardinality:    ", cardinality(trace))
