import pytest

from loopsum.cyclo import CycloNum, ONE, ZETA, ZETA_INV
from loopsum.linkpat import (
    LinkPattern,
    PlanarityError,
    arch_remove,
    catalan,
    consecutive_arches,
    e_apply,
    enumerate_patterns,
    fully_nested,
    pattern_index,
    phi_embed,
    reflect,
    rotate,
    sequence_decomposition,
    spin_embed,
)
from loopsum.solver import ExactMatrix, rank


def pat(*chords):
    return LinkPattern.from_chords(chords)


def little_arches(p: LinkPattern) -> list[int]:
    """All i with an arch (i, i+1 cyclic)."""
    return [i for i in range(1, 2 * p.n + 1) if p.has_arch(i)]


def test_from_chords_roundtrip_and_planarity():
    for n in (1, 2, 3, 4):
        for p in enumerate_patterns(n):
            assert LinkPattern.from_chords(p.chords()) == p
    for chords in ([(1, 3), (2, 4)], [(1, 4), (2, 6), (3, 5)]):  # crossing
        with pytest.raises(PlanarityError):
            LinkPattern.from_chords(chords)
    with pytest.raises(PlanarityError):  # point 5 is not on a 4-point circle
        LinkPattern.from_chords([(1, 5), (2, 3)])


def test_counts_match_catalan():
    for n, c in [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (6, 132)]:
        assert catalan(n) == c
        if n <= 5:
            assert len(enumerate_patterns(n)) == c


def test_enumeration_is_lex_sorted_and_planar():
    pats = enumerate_patterns(4)
    assert [p.pairing for p in pats] == sorted(p.pairing for p in pats)


def test_fully_nested_is_the_last_pattern():
    # the point solve normalizes its kernel line on the last coordinate,
    # the nested component, which the lockstep elimination relies on
    for n in range(1, 8):
        assert pattern_index(n)[fully_nested(n).pairing] == catalan(n) - 1
        assert enumerate_patterns(n)[-1] == fully_nested(n)


def test_crossing_rejected():
    with pytest.raises(PlanarityError):
        LinkPattern([3, 4, 1, 2])
    with pytest.raises(PlanarityError):
        LinkPattern([2, 1, 3])  # fixed point and odd length


def test_e_apply_existing_arch_closes_loop():
    p = pat((1, 2), (3, 4))
    q, closed = e_apply(1, p)
    assert closed and q == p


def test_e_apply_glues():
    p = pat((1, 2), (3, 4))
    q, closed = e_apply(2, p)
    assert not closed and q == pat((1, 4), (2, 3))


def test_e_apply_idempotent_up_to_loop():
    p = pat((1, 2), (3, 4))
    q1, closed1 = e_apply(2, p)
    q2, closed2 = e_apply(2, q1)
    assert not closed1 and closed2 and q1 == q2


def test_e_apply_cyclic_site():
    p = pat((1, 2), (3, 4))
    q, closed = e_apply(4, p)  # glues points 4 and 1
    assert not closed and q == pat((1, 4), (2, 3))


def test_rotate():
    assert rotate(pat((1, 2), (3, 4))) == pat((2, 3), (4, 1))
    p = pat((1, 6), (2, 5), (3, 4))
    q = p
    for _ in range(6):
        q = rotate(q)
    assert q == p


def test_reflect():
    assert reflect(pat((1, 2), (3, 4))) == pat((1, 2), (3, 4))
    for n in (2, 3, 4):
        assert reflect(fully_nested(n)) == fully_nested(n)
        for p in enumerate_patterns(n):
            assert reflect(reflect(p)) == p


def test_dihedral_relation():
    for n in (2, 3, 4):
        for p in enumerate_patterns(n):
            # s r s = r^{-1}, i.e. s(r(s(p))) rotated once more is p
            assert rotate(reflect(rotate(reflect(p)))) == p


def test_phi_embed_basic():
    base = enumerate_patterns(1)[0]
    assert phi_embed(1, base) == pat((1, 2), (3, 4))


def test_phi_embed_roundtrip():
    for p in enumerate_patterns(3):
        for i in range(1, 8):
            big = phi_embed(i, p)
            assert big.partner(i) == i + 1
            assert arch_remove(i, big) == p


def test_sequence_decomposition_nested():
    runs = sequence_decomposition(fully_nested(3)).runs
    assert runs == ((1, 2, 3), (4, 5, 6))


def test_sequence_decomposition_all_arches():
    runs = sequence_decomposition(consecutive_arches(3)).runs
    assert runs == ((6, 1), (2, 3), (4, 5))


def test_sequence_decomposition_large_example():
    # nine chords, five little arches; the run containing point 1 wraps
    p = pat((1, 2), (5, 6), (8, 9), (11, 12), (16, 17),
            (3, 14), (4, 7), (10, 13), (15, 18))
    assert little_arches(p) == [1, 5, 8, 11, 16]
    runs = sequence_decomposition(p).runs
    assert runs == (
        (17, 18, 1),
        (2, 3, 4, 5),
        (6, 7, 8),
        (9, 10, 11),
        (12, 13, 14, 15, 16),
    )


def test_spin_embed_single_arch():
    vec = spin_embed(enumerate_patterns(1)[0])
    # bit 0 = site 1 down; up-down means site 1 up, site 2 down: index 2
    assert vec[2] == ZETA
    assert vec[1] == -ZETA_INV
    assert set(vec) == {1, 2}


def test_spin_embed_support_in_balanced_sector():
    for p in enumerate_patterns(3):
        for bits in spin_embed(p):
            assert bin(bits).count("1") == 3


def test_spin_embed_injective():
    for n in (2, 3, 4):
        cols = [spin_embed(p) for p in enumerate_patterns(n)]
        dim = 1 << (2 * n)
        data = [[col.get(b, CycloNum(0, 0)) for col in cols] for b in range(dim)]
        m = ExactMatrix([row for row in data if any(row)])
        assert rank(m) == catalan(n)


def test_embedded_temperley_lieb_action_bulk_sites():
    # e acting on two adjacent spin sites reproduces gluing, loop weight 1
    from loopsum.cyclo import Q, Q_INV

    e4 = [
        [CycloNum(0, 0)] * 4,
        [CycloNum(0, 0), -Q, ONE, CycloNum(0, 0)],
        [CycloNum(0, 0), ONE, -Q_INV, CycloNum(0, 0)],
        [CycloNum(0, 0)] * 4,
    ]
    for n in (2, 3):
        for p in enumerate_patterns(n):
            for i in range(1, 2 * n):  # bulk only: the wrap generator is twisted
                vec = spin_embed(p)
                out = {}
                lo, hi = 1 << (i - 1), 1 << i
                for bits, c in vec.items():
                    s1 = 1 if bits & lo else 0
                    s2 = 1 if bits & hi else 0
                    rest = bits & ~(lo | hi)
                    for r1 in (0, 1):
                        for r2 in (0, 1):
                            mcoef = e4[2 * r1 + r2][2 * s1 + s2]
                            if mcoef:
                                key = rest | (lo if r1 else 0) | (hi if r2 else 0)
                                out[key] = out.get(key, CycloNum(0, 0)) + mcoef * c
                out = {k: v for k, v in out.items() if v}
                q_img, _closed = e_apply(i, p)
                assert out == spin_embed(q_img)
