import numpy as np
import pytest

from finiteqg import groups
from finiteqg.groups import check_group_table, permutation_action


GROUPS = [groups.cyclic(1), groups.cyclic(5), groups.symmetric(3),
          groups.quaternion(),
          groups.direct_product(groups.cyclic(2), groups.cyclic(4))]


@pytest.mark.parametrize("grp", GROUPS, ids=lambda g: g.name)
def test_identity_and_inverses_match_table_scans(grp):
    t, n = grp.table, grp.order
    e = grp.identity
    assert all(t[e, g] == g and t[g, e] == g for g in range(n))
    for g in range(n):
        h = grp.inverse(g)
        assert t[g, h] == e and t[h, g] == e


def test_table_broken_only_in_the_last_triples_is_refused():
    # associativity fails only at (3, 2, 3) and (3, 3, 3), the last
    # triples a loop over (i, j, k) reaches
    t = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 2, 2], [3, 3, 3, 2]])
    bad = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
           if t[t[i, j], k] != t[i, t[j, k]]]
    assert bad == [(3, 2, 3), (3, 3, 3)]
    with pytest.raises(ValueError, match="not associative"):
        check_group_table(t)


def test_tables_without_identity_or_inverse_are_refused():
    # the constant table is associative but has no identity
    with pytest.raises(ValueError, match="identity"):
        check_group_table(np.zeros((3, 3), dtype=int))
    # {0, 1} under max is an associative monoid; 1 has no inverse
    with pytest.raises(ValueError, match="element 1 has no inverse"):
        check_group_table(np.array([[0, 1], [1, 1]]))
    with pytest.raises(ValueError, match="out of range"):
        check_group_table(np.array([[0, 2], [1, 0]]))


def test_action_broken_only_at_the_last_triple_is_refused():
    z2 = groups.cyclic(2)
    good = [[0, 1, 2], [1, 0, 2]]
    assert permutation_action(z2, good).tolist() == good
    # act[1, act[1, x]] = x fails only at x = 2, the last (g, h, x)
    with pytest.raises(ValueError, match="left action"):
        permutation_action(z2, [[0, 1, 2], [1, 0, 0]])


def test_conjugation_action_of_s3_is_accepted():
    s3 = groups.symmetric(3)
    t = s3.table
    inv = [s3.inverse(g) for g in range(6)]
    act = [[t[t[g, x], inv[g]] for x in range(6)] for g in range(6)]
    assert permutation_action(s3, act).shape == (6, 6)
