import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest

import loopsum
from loopsum import tmatrix
from loopsum.cyclo import CycloNum, ONE, Q, Q_INV, ZERO, integer_pairs, pair_mul
from loopsum.linkpat import catalan, enumerate_patterns, pattern_index, spin_embed
from loopsum.solver import ExactMatrix
from loopsum.tmatrix import (
    DIGIT_BITS,
    LIMB_BITS,
    _face_steps,
    _tile_table,
    check_arch_insertion,
    check_interlacing,
    check_transfer_commutation,
    check_unitarity,
    check_yang_baxter,
    e_link_matrix,
    eigenvalue,
    embed,
    kernel_matrix_limbs,
    limbs_lift,
    limbs_mod,
    limbs_vanish,
    monodromy_apply,
    r_matrix_spin,
    rcheck_link,
    rcheck_spin,
    row_weights,
    spin_route_agrees,
    transfer_apply_spin,
    transfer_link,
    transfer_link_pairs,
    verify_spin_eigenvector,
)
from loopsum.groundstate import _PRIME_START, psi_point
from loopsum.modular import cached_primes

rng = random.Random(123)


def test_r_matrix_equal_parameters():
    r = r_matrix_spin(5, 5)
    off = (Q - Q_INV) * CycloNum(5, 0)
    assert r[1][1] == ZERO and r[2][2] == ZERO
    assert r[1][2] == off and r[2][1] == off
    assert r[0][0] == r[3][3] == (Q - Q_INV) * CycloNum(5, 0)


def test_r_matrix_entry_updown_downup():
    r = r_matrix_spin(7, 3)
    assert r[1][2] == (Q - Q_INV) * CycloNum(3, 0)  # the t entry
    assert r[2][1] == (Q - Q_INV) * CycloNum(7, 0)  # the z entry


def test_spin_unitarity():
    z, w = CycloNum(2, 0), CycloNum(3, 0)
    prod = ExactMatrix(rcheck_spin(z, w)) @ ExactMatrix(rcheck_spin(w, z))
    scalar = (Q * z - Q_INV * w) * (Q * w - Q_INV * z)
    assert prod == ExactMatrix.identity(4).scale(scalar)


def test_rcheck_link_special_points():
    n = 2
    z = CycloNum(5, 0)
    # w = q^2 z kills the identity part
    m = rcheck_link(1, z, Q * Q * z, n)
    e = e_link_matrix(n, 1)
    coeff = z - Q * Q * z
    assert m == ExactMatrix([[coeff * e.data[r][c] for c in range(2)] for r in range(2)])
    # w = z kills the TL part
    m = rcheck_link(1, z, z, n)
    assert m == ExactMatrix.identity(2).scale((Q - Q_INV) * z)


def test_yang_baxter_both_representations():
    for n in (2, 3):
        z1, z2, z3 = rng.sample(range(1, 40), 3)
        assert check_yang_baxter(n, z1, z2, z3).passed


def test_unitarity_all_sites():
    for n in (2, 3, 4):
        z, w = rng.sample(range(1, 40), 2)
        assert check_unitarity(n, z, w).passed


def test_transfer_spin_n1_fixes_embedded_pattern():
    z = [CycloNum(2, 0), CycloNum(3, 0)]
    t = CycloNum(5, 0)
    vec = spin_embed(enumerate_patterns(1)[0])
    out = transfer_apply_spin(z, t, vec)
    lam = eigenvalue(t, z)
    assert out == {k: lam * v for k, v in vec.items()}


def test_transfer_spin_magnetization_conserved():
    z = [CycloNum(x, 0) for x in (2, 3, 5, 7)]
    t = CycloNum(11, 0)
    for bits in range(1 << 4):
        out = transfer_apply_spin(z, t, {bits: ONE})
        assert {bin(k).count("1") for k in out} == {bin(bits).count("1")}


def test_transfer_spin_streaming_agrees_with_link_route():
    # T on an embedded pattern is the embedded image of the link-basis column
    z = [CycloNum(x, 0) for x in (2, 3, 5, 7)]
    t = CycloNum(11, 0)
    cols = [spin_embed(p) for p in enumerate_patterns(2)]
    tm = transfer_link(t, z, 2)
    for src, vec in enumerate(cols):
        expect = {}
        for dst, col in enumerate(cols):
            for bits, c in col.items():
                expect[bits] = expect.get(bits, ZERO) + tm.data[dst][src] * c
        assert transfer_apply_spin(z, t, vec) == {k: v for k, v in expect.items() if v}


def test_transfer_spin_commutation_in_sector():
    # T(5) T(9) and T(9) T(5) agree on every embedded n = 2 pattern
    zs = [CycloNum(x, 0) for x in rng.sample(range(1, 30), 4)]
    t1, t2 = CycloNum(5, 0), CycloNum(9, 0)
    for p in enumerate_patterns(2):
        vec = spin_embed(p)
        a = transfer_apply_spin(zs, t1, transfer_apply_spin(zs, t2, vec))
        b = transfer_apply_spin(zs, t2, transfer_apply_spin(zs, t1, vec))
        assert a == b


def test_embed_is_linear_in_pattern_basis():
    pats = enumerate_patterns(3)
    for k, p in enumerate(pats):
        unit = [ONE if j == k else ZERO for j in range(len(pats))]
        assert embed(3, unit) == spin_embed(p)
    assert embed(3, [ZERO] * len(pats)) == {}
    a, b = (spin_embed(p) for p in enumerate_patterns(2))
    combo = {k: 2 * a.get(k, ZERO) - b.get(k, ZERO) for k in set(a) | set(b)}
    assert embed(2, [2, -1]) == {k: v for k, v in combo.items() if v}


def test_transfer_link_n1_value():
    z = [2, 3]
    t = 5
    m = transfer_link(t, z, 1)
    assert m.data[0][0] == eigenvalue(t, z)
    assert spin_route_agrees(t, z, 1, m)


def test_transfer_link_routes_agree():
    for n in (1, 2, 3, 4):
        zs = rng.sample(range(1, 40), 2 * n)
        t = rng.randint(1, 40)
        assert spin_route_agrees(t, zs, n, transfer_link(t, zs, n)), (
            f"routes differ at n={n}"
        )


def test_spin_route_rejects_changed_entry():
    for n in (1, 2, 3, 4):
        zs = rng.sample(range(1, 40), 2 * n)
        t = rng.randint(1, 40)
        data = [row[:] for row in transfer_link(t, zs, n).data]
        r, c = rng.randrange(len(data)), rng.randrange(len(data))
        data[r][c] = data[r][c] + Q
        assert not spin_route_agrees(t, zs, n, ExactMatrix(data)), f"n={n}"


def test_transfer_link_rowsums_at_homogeneous_point():
    # all parameters 1: the flat vector is the groundstate, eigenvalue
    # (q t - q^{-1})^4 at t = 1
    m = transfer_link(1, [1, 1, 1, 1], 2)
    assert spin_route_agrees(1, [1, 1, 1, 1], 2, m)
    lam = eigenvalue(1, [1, 1, 1, 1])
    for row in m.data:
        assert sum(row, ZERO) == lam
    assert verify_spin_eigenvector(2, [1, 1, 1, 1], 1, [ONE, ONE])


def test_interlacing_all_sites():
    for n in (2, 3):
        zs = rng.sample(range(1, 40), 2 * n)
        t = rng.randint(1, 40)
        for i in range(1, 2 * n + 1):
            assert check_interlacing(n, t, zs, i).passed


def test_arch_insertion_identity():
    for n in (2, 3):
        for i in (1, 2, 2 * n - 1):
            zs_small = rng.sample(range(1, 40), 2 * n - 2)
            assert check_arch_insertion(n, rng.randint(1, 20), zs_small, i,
                                        rng.randint(1, 20)).passed


def test_transfer_commutation_link():
    for n in (2, 3):
        zs = rng.sample(range(1, 40), 2 * n)
        assert check_transfer_commutation(n, zs, 3, 17).passed


def test_arch_weight_cancellation_identity():
    # u_i u_{i+1} + v_i v_{i+1} + u_i v_{i+1} = 0 at z_{i+1} = q^2 z_i
    z = CycloNum(7, 0)
    t = CycloNum(3, 0)
    zi1 = Q * Q * z
    u_i = Q * z - Q_INV * t
    v_i = z - t
    u_j = Q * zi1 - Q_INV * t
    v_j = zi1 - t
    assert u_i * u_j + v_i * v_j + u_i * v_j == ZERO


def test_monodromy_block_structure():
    # A (aux 0 -> 0) and D (1 -> 1) preserve the number of down spins (set
    # bits); B (aux 1 -> 0) adds one, lowering the magnetization, C (0 -> 1)
    # removes one
    zs = [CycloNum(x, 0) for x in (2, 3)]
    shift = {(0, 0): 0, (1, 1): 0, (1, 0): 1, (0, 1): -1}
    seen = set()
    for bits in range(4):
        for aux in (0, 1):
            image = monodromy_apply(zs, CycloNum(5, 0), {bits: ONE}, aux)
            for (out, aux_out), c in image.items():
                assert c
                assert bin(out).count("1") == bin(bits).count("1") + shift[aux, aux_out]
                seen.add((aux, aux_out))
    assert seen == set(shift)


def test_eigenvalue_factor_form():
    zs = [1, 2]
    lam = eigenvalue(3, zs)
    expect = (Q * CycloNum(3, 0) - Q_INV * ONE) * (
        Q * CycloNum(3, 0) - Q_INV * CycloNum(2, 0)
    )
    assert lam == expect


# the row walked configuration by configuration: the oracle for the face
# sweep that builds _tile_table
_PORT_S, _PORT_N, _PORT_W, _PORT_E = 0, 1, 2, 3
_PASS = {_PORT_S: _PORT_E, _PORT_E: _PORT_S, _PORT_W: _PORT_N, _PORT_N: _PORT_W}
_GLUE = {_PORT_S: _PORT_W, _PORT_W: _PORT_S, _PORT_N: _PORT_E, _PORT_E: _PORT_N}


def _row_skeleton(n: int, tiles: int) -> list[int]:
    """Endpoint matching of one row configuration.

    Ports 0..2n-1 are the top points N_1..N_2n, ports 2n..4n-1 the bottom
    points S_1..S_2n; skeleton[p] is the port reached from p by travelling
    through the row.  Tile bit i-1 set means face i glues.
    """
    m = 2 * n
    sk = [-1] * (2 * m)
    for start in range(2 * m):
        if sk[start] >= 0:
            continue
        if start < m:
            face, port = start + 1, _PORT_N
        else:
            face, port = start - m + 1, _PORT_S
        while True:
            tile = _GLUE if (tiles >> (face - 1)) & 1 else _PASS
            out = tile[port]
            if out == _PORT_N:
                end = face - 1
                break
            if out == _PORT_S:
                end = m + face - 1
                break
            if out == _PORT_E:
                face = face % m + 1
                port = _PORT_W
            else:
                face = (face - 2) % m + 1
                port = _PORT_E
        sk[start] = end
        sk[end] = start
    return sk


def _walk(n: int, sk: list[int], pattern) -> int:
    """Canonical index of the pattern the row with skeleton sk makes of
    ``pattern``: every top point follows the row down through the old
    pattern until it comes back up."""
    m = 2 * n
    pairing = [0] * m
    for i in range(m):
        if pairing[i]:
            continue
        port = sk[i]
        while port >= m:  # descend through the old pattern
            port = sk[m + pattern.partner(port - m + 1) - 1]
        pairing[i] = port + 1
        pairing[port] = i + 1
    return pattern_index(n)[tuple(pairing)]


def tile_table_by_rows(n: int) -> tuple:
    """_tile_table rebuilt by walking every row configuration against
    every source pattern."""
    from array import array

    patterns = enumerate_patterns(n)
    table = [array("H", bytes(2 << (2 * n))) for _ in patterns]
    for tiles in range(1 << (2 * n)):
        sk = _row_skeleton(n, tiles)
        for src, p in enumerate(patterns):
            table[src][tiles] = _walk(n, sk, p)
    return tuple(table)


@pytest.mark.parametrize("n", range(1, 7))
def test_tile_table_equals_row_walk(n):
    got = _tile_table(n)
    expect = tile_table_by_rows(n)
    assert len(got) == len(expect) == catalan(n)
    for row, ref in zip(got, expect):
        assert row.typecode == "H" and row.tobytes() == ref.tobytes()


def test_tile_table_sampled_at_n7():
    n = 7
    table = _tile_table(n)
    patterns = enumerate_patterns(n)
    assert len(table) == 429 and all(len(row) == 1 << 14 for row in table)
    rnd = random.Random(7)
    for _ in range(2000):
        src, tiles = rnd.randrange(429), rnd.getrandbits(14)
        assert table[src][tiles] == _walk(n, _row_skeleton(n, tiles), patterns[src])


@pytest.mark.parametrize("n", range(1, 8))
def test_face_sweep_state_counts(n):
    # states are planar pairings of 2n + 2 ends: at most C_{n+1} per level,
    # 1,430 at n = 7, far inside the uint16 range of the table
    steps = _face_steps(n)
    assert len(steps) == 2 * n and len(steps[0][0]) == catalan(n)
    for pas, glue in steps[:-1]:
        assert max(pas + glue) < catalan(n + 1) < 1 << 16
    assert sorted(set(steps[-1][0] + steps[-1][1])) == list(range(catalan(n)))


def _limb_points(n):
    m = 2 * n
    return {
        # t above every z: pass and glue weights change sign
        "t-above-z": ([rng.randint(1, 9) for _ in range(m)], 40),
        # z near 2^20: every weight past n = 1 needs three or more limbs
        "large-z": ([(1 << 20) - rng.randint(0, 999) for _ in range(m)], 3),
        "t-zero": ([rng.randint(1, 60) for _ in range(m)], 0),
    }


def kernel_pairs(n, zs, t) -> list[list[tuple]]:
    """transfer_link_pairs less the eigenvalue on the diagonal: T - Lambda
    as integer pairs, the oracle for kernel_matrix_limbs."""
    lam = eigenvalue(t, zs)
    pairs = transfer_link_pairs(n, zs, t)
    for r, row in enumerate(pairs):
        a, b = row[r]
        row[r] = (a - int(lam.a), b - int(lam.b))
    return pairs


def _check_assembly(n, kind, zs, t, limbs):
    primes = cached_primes(2, _PRIME_START) + cached_primes(1, 10 ** 6)
    pairs = kernel_pairs(n, zs, t)
    assert limbs_exact(limbs) == pairs, kind
    assert -(1 << 29) <= limbs.min() and limbs.max() < 1 << 29, kind
    for p, g in primes:
        amat, bmat = limbs_mod(limbs, p).tolist()
        for gg in (g, g * g % p):
            embedded = [[(a + gg * b) % p for a, b in row] for row in pairs]
            assert [[(a + gg * b) % p for a, b in zip(ra, rb)]
                    for ra, rb in zip(amat, bmat)] == embedded, (kind, p)
        assert amat == [[a % p for a, _ in row] for row in pairs], (kind, p)
        assert bmat == [[b % p for _, b in row] for row in pairs], (kind, p)


@pytest.mark.parametrize("n", range(1, 7))
def test_numpy_assembly_equals_tile_route(n):
    for kind, (zs, t) in _limb_points(n).items():
        limbs = kernel_matrix_limbs(n, zs, t)
        weights = [x for w in row_weights(n, zs, t) for x in w]
        if kind == "t-above-z":
            assert min(weights) < 0
        if kind == "large-z" and n > 1:
            assert limbs.shape[1] >= 3
        _check_assembly(n, kind, zs, t, limbs)


@pytest.mark.parametrize("n", (2, 4))
def test_assembly_without_eigenvalue_shift_is_caught(n, monkeypatch):
    # the bare transfer matrix must not pass as T - Lambda
    monkeypatch.setattr(tmatrix, "eigenvalue", lambda t, zs: ZERO)
    for kind, (zs, t) in _limb_points(n).items():
        with pytest.raises(AssertionError):
            _check_assembly(n, kind, zs, t, kernel_matrix_limbs(n, zs, t))


def limbs_exact(limbs) -> list[list[tuple]]:
    """The integer pairs of kernel_matrix_limbs, as Python ints: the
    oracle for the limb routes."""
    ma, mb = (
        sum(part[k].astype(object) << (LIMB_BITS * k) for k in range(len(part)))
        for part in limbs
    )
    return [list(zip(ra, rb)) for ra, rb in zip(ma.tolist(), mb.tolist())]


def _residual_ok(pairs, lam: CycloNum, values: list[CycloNum]) -> bool:
    """(T - Lambda) v = 0, checked with exact integer pair arithmetic, one
    pair at a time: the oracle for the limb residual.

    Denominators are cleared first: scaling the candidate vector does not
    change whether the residual vanishes.
    """
    vscale = lcm(*(x.a.denominator for x in values),
                 *(x.b.denominator for x in values))
    lscale = lcm(lam.a.denominator, lam.b.denominator)
    va = [int(x.a * vscale) for x in values]
    vb = [int(x.b * vscale) for x in values]
    la, lb = int(lam.a * lscale), int(lam.b * lscale)
    cn = len(values)
    for r in range(cn):
        row = pairs[r]
        sa = sb = 0
        for c in range(cn):
            a, b = row[c]
            if a or b:
                x, y = va[c], vb[c]
                if x or y:
                    bd = b * y
                    sa += a * x - bd
                    sb += a * y + b * x - bd
        # the matrix term carries the eigenvalue's denominator clearing
        sa *= lscale
        sb *= lscale
        x, y = va[r], vb[r]
        bd = lb * y
        sa -= la * x - bd
        sb -= la * y + lb * x - bd
        if sa or sb:
            return False
    return True


def _candidates(values, rnd):
    """The exact vector, then vectors that are not eigenvectors: one
    coordinate moved by +-1 in a and then in b, one nonzero coordinate with
    its sign flipped, and garbage of more than 400 bits."""
    k = rnd.randrange(len(values))
    nonzero = [j for j, x in enumerate(values) if x]
    flip = rnd.choice(nonzero)
    out = {"exact": list(values)}
    for d in (1, -1):
        for part, unit in (("a", CycloNum(d, 0)), ("b", CycloNum(0, d))):
            bent = list(values)
            bent[k] = bent[k] + unit
            out[f"{part}{d:+d}"] = bent
    flipped = list(values)
    flipped[flip] = -flipped[flip]
    out["sign-flip"] = flipped
    out["garbage"] = [CycloNum(rnd.getrandbits(420) - (1 << 419), rnd.getrandbits(410))
                      for _ in values]
    return out


def _check_residual_on(n, zs, t, values, rnd):
    limbs = kernel_matrix_limbs(n, zs, t)
    pairs = transfer_link_pairs(n, zs, t)
    lam = eigenvalue(t, zs)
    for name, cand in _candidates(values, rnd).items():
        ints, _ = integer_pairs(cand)
        xs, ys = [a for a, _ in ints], [b for _, b in ints]
        got = limbs_vanish(limbs, xs, ys)
        assert got == _residual_ok(pairs, lam, cand), name
        # T - Lambda vanishes at t = 0 and at n = 1: every vector passes
        assert got == (name == "exact" or t == 0 or n == 1), name


@pytest.mark.parametrize("n", range(1, 7))
def test_limb_residual_agrees_with_pair_oracle(n):
    # Psi does not depend on t: the vector psi_point returns is an
    # eigenvector of T(t) for every t, t = 0 and t above every z included
    rnd = random.Random(n)
    for kind, (zs, t) in _limb_points(n).items():
        values = psi_point(n, zs).values
        if kind == "large-z" and n > 1:
            assert kernel_matrix_limbs(n, zs, t).shape[1] >= 3
        _check_residual_on(n, zs, t, values, rnd)


def test_limb_residual_fractional_candidates():
    # fractional z: the kernel runs at z and t scaled to integers, and the
    # candidate keeps its denominators until the residual clears them
    zs = [Fraction(3, 2), 1, 4, 6, 5, 9, 2, Fraction(7, 3)]
    values = psi_point(4, zs, t=1).values
    assert any(x.a.denominator > 1 or x.b.denominator > 1 for x in values)
    scale = 6
    _check_residual_on(4, [int(z * scale) for z in zs], scale, values, random.Random(9))


def test_limb_residual_compares_both_parts():
    # M = delta I on a rational vector: delta = w leaves an image in the b
    # part alone, delta = 1 in the a part alone
    import numpy as np

    cn = 5
    xs, ys = [3, -1, 4, 1, 5], [0] * cn
    for delta, ok in (((0, 0), True), ((0, 1), False), ((1, 0), False)):
        limbs = np.zeros((2, 1, cn, cn), dtype=np.int64)
        for part in (0, 1):
            limbs[part, 0][np.diag_indices(cn)] = delta[part]
        assert limbs_vanish(limbs, xs, ys) == ok, delta


def test_limb_vanish_reads_the_top_digit():
    # M = s I and v = +-2^45 e_0, whose digits are (0, 0, 0, +-1): the image
    # is nonzero only in its top digit (s = 1) or only in the carry out of
    # it (s = 2^15)
    import numpy as np

    cn = 3
    for s in (1, 1 << DIGIT_BITS):
        limbs = np.zeros((2, 1, cn, cn), dtype=np.int64)
        limbs[0, 0][np.diag_indices(cn)] = s
        for x in (1 << 45, -(1 << 45)):
            assert not limbs_vanish(limbs, [x, 0, 0], [0] * cn), (s, x)
            assert not limbs_vanish(limbs, [0] * cn, [0, 0, x]), (s, x)
        assert limbs_vanish(limbs, [0] * cn, [0] * cn)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_limbs_lift_matches_pair_arithmetic(n):
    # (r - M x) / p against M = T - Lambda in plain pair arithmetic: the
    # exact quotient when p divides, None when one entry is off by one,
    # from int64 and from float64 limbs alike
    import numpy as np

    rnd = random.Random(40 + n)
    zs, t = rnd.sample(range(1, 60), 2 * n), 7
    limbs = kernel_matrix_limbs(n, zs, t)
    lam = eigenvalue(t, zs)
    rows = [[(a - int(lam.a), b - int(lam.b)) if r == c else (a, b)
             for c, (a, b) in enumerate(row)]
            for r, row in enumerate(transfer_link_pairs(n, zs, t))]
    p = cached_primes(1, _PRIME_START)[0][0]
    cn = len(rows)
    x = [(rnd.randrange(-(p // 2), p // 2 + 1), rnd.randrange(-(p // 2), p // 2 + 1))
         for _ in range(cn)]
    image = []
    for row in rows:
        acc = (0, 0)
        for m, v in zip(row, x):
            mv = pair_mul(m, v)
            acc = (acc[0] + mv[0], acc[1] + mv[1])
        image.append(acc)
    quo = [rnd.getrandbits(120) - (1 << 119) for _ in range(2 * cn)]
    residual = [mx + p * q for mx, q in zip([a for a, _ in image] + [b for _, b in image], quo)]
    digit = np.array(x, dtype=np.int64).T.copy()
    for form in (limbs, limbs.astype(np.float64)):
        assert limbs_lift(form, residual, digit, p) == quo
        assert limbs_lift(form, None, np.zeros_like(digit), p) == [0] * (2 * cn)
        for k in (0, 2 * cn - 1):
            bent = list(residual)
            bent[k] += 1
            assert limbs_lift(form, bent, digit, p) is None, k


def test_limb_width_rule_at_n7():
    # C = 429 at n = 7: the rule without the n = 7 tile table
    import numpy as np

    cn = 429
    width = LIMB_BITS - 1 + DIGIT_BITS - 1
    assert cn << width <= 1 << 53 and 1024 << width == 1 << 53
    # limbs one short of the extremes, -(2^29 - 1) in the a part and
    # 2^29 - 1 in the b part, so every entry of M is the same a + b w;
    # digits of the vector near -(2^14 - 1), except in the last entry,
    # which makes sum(x) = sum(y) = 0 and so M v = 0.  The matmul sums
    # reach 0.42 * 2^53 with their low bits set, and a x - b y 0.84 * 2^53
    big = (1 << (LIMB_BITS - 1)) - 1
    limbs = np.empty((2, 2, cn, cn), dtype=np.int64)
    limbs[0], limbs[1] = -big, big
    low = -((1 << (DIGIT_BITS - 1)) - 1)
    top = sum(low << (DIGIT_BITS * j) for j in range(6))
    xs = [top + k for k in range(cn)]
    ys = [top + 2 * k for k in range(cn)]
    xs[-1], ys[-1] = -sum(xs[:-1]), -sum(ys[:-1])
    assert limbs_vanish(limbs, xs, ys)
    for k, d in ((0, 1), (cn - 1, -1), (7, 1 << 45)):
        bent = list(xs)
        bent[k] += d
        assert not limbs_vanish(limbs, bent, ys), (k, d)
        bent = list(ys)
        bent[k] += d
        assert not limbs_vanish(limbs, xs, bent), (k, d)
    with pytest.raises(ValueError):
        limbs_vanish(limbs * 2, xs, ys)


def test_limb_width_rule_is_not_an_assert():
    # past 1024 columns (C = 1430 at n = 8) the float64 matmul is no
    # longer exact; the guard must hold under python -O as well
    import numpy as np

    cn = 1025
    with pytest.raises(ValueError):
        limbs_vanish(np.zeros((2, 1, cn, cn), dtype=np.int64), [0] * cn, [0] * cn)


def test_setup_stays_numpy_free():
    # importing numpy costs about as much as the whole check-all 3 set-up;
    # the n = 6 set-up builds the largest tile table the benchmark uses
    code = ("import sys, loopsum.cli, loopsum.tmatrix; "
            "loopsum.tmatrix.transfer_link_pairs(3, [1] * 6, 1); "
            "loopsum.tmatrix.transfer_link_pairs(6, [1] * 12, 1); "
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(loopsum.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
