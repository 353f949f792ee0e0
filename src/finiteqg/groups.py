"""Small finite groups given by Cayley tables.

Only what the shipped examples need: cyclic groups, symmetric groups via
permutation tuples, the quaternion group, and direct products.  Tables are
validated (associativity, identity, inverses) on construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

import numpy as np


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    name: str
    elements: tuple
    table: np.ndarray  # table[i, j] = index of elements[i] * elements[j]

    def __post_init__(self):
        check_group_table(self.table)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def identity(self) -> int:
        # the identity's row of the table is the identity permutation
        row_is_id = (self.table == np.arange(self.order)).all(axis=1)
        return int(np.flatnonzero(row_is_id)[0])

    @cached_property
    def inverses(self) -> np.ndarray:
        """inverses[g] is the index of g^-1 (read-only)."""
        # each row holds the identity exactly once; argmax finds it
        inv = np.argmax(self.table == self.identity, axis=1)
        inv.flags.writeable = False
        return inv

    def inverse(self, g: int) -> int:
        return int(self.inverses[g])

    def index_of(self, element) -> int:
        return self.elements.index(element)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def check_group_table(table) -> None:
    """Raise ValueError unless the table is a group multiplication table."""
    t = np.asarray(table)
    n = t.shape[0]
    if t.shape != (n, n) or n == 0:
        raise ValueError("Cayley table must be square and non-empty")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("Cayley table entries out of range")
    # t[t][i, j, k] = t[t[i, j], k] and t[:, t][i, j, k] = t[i, t[j, k]]
    if not np.array_equal(t[t], t[:, t]):
        raise ValueError("Cayley table is not associative")
    ar = np.arange(n)
    idents = np.flatnonzero((t == ar).all(axis=1)
                            & (t == ar[:, None]).all(axis=0))
    if len(idents) != 1:
        raise ValueError("Cayley table has no (unique) identity")
    e = idents[0]
    has_inverse = ((t == e) & (t.T == e)).any(axis=1)
    if not has_inverse.all():
        g = int(np.flatnonzero(~has_inverse)[0])
        raise ValueError(f"element {g} has no inverse")


def cyclic(n: int) -> FiniteGroup:
    table = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int)
    return FiniteGroup(f"Z{n}", tuple(range(n)), table)


def trivial() -> FiniteGroup:
    return cyclic(1)


def symmetric(n: int) -> FiniteGroup:
    """S_n on permutation tuples (p acts on points: i -> p[i])."""
    elems = tuple(sorted(permutations(range(n))))
    index = {p: i for i, p in enumerate(elems)}
    m = len(elems)
    table = np.zeros((m, m), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            # (p*q)(x) = p(q(x))
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return FiniteGroup(f"S{n}", elems, table)


def alternating_indices(group: FiniteGroup) -> list:
    """Indices of even permutations in a symmetric group built above."""
    out = []
    for i, p in enumerate(group.elements):
        inversions = sum(1 for a in range(len(p)) for b in range(a + 1, len(p))
                         if p[a] > p[b])
        if inversions % 2 == 0:
            out.append(i)
    return out


def quaternion() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")

    def split(s):
        sign = -1 if s.startswith("-") else 1
        return sign, s.lstrip("-")

    def join(sign, u):
        return ("-" if sign < 0 else "") + u

    basic = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    table = np.zeros((8, 8), dtype=int)
    for a, x in enumerate(names):
        for b, y in enumerate(names):
            sx, ux = split(x)
            sy, uy = split(y)
            s, u = basic[(ux, uy)]
            table[a, b] = names.index(join(sx * sy * s, u))
    return FiniteGroup("Q8", names, table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elems = tuple(product(range(g.order), range(h.order)))
    index = {p: i for i, p in enumerate(elems)}
    m = len(elems)
    table = np.zeros((m, m), dtype=int)
    for i, (a, b) in enumerate(elems):
        for j, (c, d) in enumerate(elems):
            table[i, j] = index[(g.table[a, c], h.table[b, d])]
    return FiniteGroup(f"{g.name}x{h.name}", elems, table)


def permutation_action(group: FiniteGroup, images) -> np.ndarray:
    """Left action table act[g, x] from images of each group element.

    ``images[g]`` is the permutation tuple by which element g moves the
    points; validated to be a homomorphism: act[gh, x] = act[g, act[h, x]].
    """
    act = np.asarray(images, dtype=int)
    # own[gh, x] against own[g, own[h, x]], over all (g, h, x) at once
    own = act[:group.order]
    if not np.array_equal(own[group.table], own[:, own]):
        raise ValueError("images do not define a left action")
    return act
