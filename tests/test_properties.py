"""Property tests over random small groups: the dual block structure
against facts computed straight from the Cayley table.  The examples are
derandomized, so the suite stays deterministic."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteqg import groups
from finiteqg.duality import dualize
from finiteqg.hopf import function_algebra, group_algebra

MAX_ORDER = 16
FACTORS = ([(f"Z{n}", n) for n in range(2, 9)]
           + [("S3", 6), ("Q8", 8)])


def _factor(name):
    if name == "S3":
        return groups.symmetric(3)
    if name == "Q8":
        return groups.quaternion()
    return groups.cyclic(int(name[1:]))


@st.composite
def small_groups(draw):
    """A direct product of cyclic, S3 and Q8 factors of order at most
    MAX_ORDER, with its elements renamed by a random permutation."""
    G, order = None, 1
    while True:
        fits = [name for name, n in FACTORS if order * n <= MAX_ORDER]
        if not fits or (G is not None and draw(st.booleans())):
            break
        name = draw(st.sampled_from(fits))
        G = _factor(name) if G is None else groups.direct_product(
            G, _factor(name))
        order = G.order
    perm = np.array(draw(st.permutations(range(order))))
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    elements = [None] * order
    for old, new in enumerate(perm):
        elements[new] = G.elements[old]
    return groups.FiniteGroup(G.name, tuple(elements), table)


def _inverses(table):
    n = len(table)
    e = next(g for g in range(n) if np.array_equal(table[g], np.arange(n)))
    return [int(np.flatnonzero(table[g] == e)[0]) for g in range(n)]


def conjugacy_class_count(table):
    inv = _inverses(table)
    n = len(table)
    classes = {frozenset(int(table[table[g, x], inv[g]]) for g in range(n))
               for x in range(n)}
    return len(classes)


def abelianization_order(table):
    """|G / [G, G]|, with [G, G] the closure of all commutators."""
    inv = _inverses(table)
    n = len(table)
    sub = {int(table[table[g, h], table[inv[g], inv[h]]])
           for g in range(n) for h in range(n)}
    while True:
        grown = sub | {int(table[a, b]) for a in sub for b in sub}
        if grown == sub:
            return n // len(sub)
        sub = grown


@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_groups())
def test_function_algebra_dual_matches_character_theory(G):
    dims = dualize(function_algebra(G)).irr_dims
    assert len(dims) == conjugacy_class_count(G.table)
    assert sum(n * n for n in dims) == G.order
    assert sum(1 for n in dims if n == 1) == abelianization_order(G.table)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(small_groups())
def test_group_algebra_dual_is_commutative(G):
    assert dualize(group_algebra(G)).irr_dims == (1,) * G.order
