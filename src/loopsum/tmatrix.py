"""Transfer matrix of the inhomogeneous loop model, in two representations.

Production builds the matrix directly in the link basis (transfer_link) by
summing the 2^{2n} face-tile configurations of one lattice row; each face
carries weight (q z_i - q^{-1} t) for the pass-through tile and (z_i - t)
for the glue tile, and closed loops count 1.

The definitional route, kept as the independent oracle, works in the spin
representation: the 4x4 vertex weight matrix R(z, t), the monodromy matrix
applied site by site over the auxiliary space, and the twisted trace
T = -q A - q^{-1} D.  Link patterns embed into the spin space (each arch
j<k contributing zeta*up_j down_k - zeta^{-1} down_j up_k); T stabilizes
the embedded subspace and its restriction is the loop-model transfer
matrix.  The two routes are compared where T acts: spin_route_agrees
applies T to every embedded pattern and matches the image against the
embedded column of a link-basis matrix.  The embedding is injective, so
agreement pins every entry; it is tested at every n <= 4, and
verify_spin_eigenvector certifies point vectors the same way.

The tile route exists twice: transfer_link_pairs in plain Python
(transfer_link and set-up use it, and it never imports numpy), and
transfer_link_limbs, which sums the same tiles in numpy as exact 31-bit
limbs for the modular kernel; tests require the two to agree entrywise.

Operators are always built at specific parameter values; nothing here is
symbolic in z or t.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclo import CycloNum, ONE, Q, Q_INV, ZERO, as_cyclo
from .linkpat import (
    e_apply,
    enumerate_patterns,
    pattern_index,
    phi_embed,
    spin_embed,
)
from .solver import ExactMatrix

#: Operators on link patterns are plain exact matrices in canonical order.
LinkOperator = ExactMatrix


# ---------------------------------------------------------------------------
# spin representation
# ---------------------------------------------------------------------------


def r_matrix_spin(z, t) -> list[list[CycloNum]]:
    """The 4x4 vertex weight matrix acting on (site) x (auxiliary).

    Basis order: up-up, up-down, down-up, down-down, the site factor first.
    """
    z = as_cyclo(z)
    t = as_cyclo(t)
    a = Q * z - Q_INV * t
    b = z - t
    cz = (Q - Q_INV) * z
    ct = (Q - Q_INV) * t
    zero = ZERO
    return [
        [a, zero, zero, zero],
        [zero, b, ct, zero],
        [zero, cz, b, zero],
        [zero, zero, zero, a],
    ]


def rcheck_spin(z, w) -> list[list[CycloNum]]:
    """R composed with the factor swap: (q z - q^{-1} w) I + (z - w) e."""
    r = r_matrix_spin(z, w)
    # swap the two middle columns (right-multiplication by the permutation)
    return [[row[0], row[2], row[1], row[3]] for row in r]


def monodromy_apply(zs, t, vec: dict[int, CycloNum], aux: int) -> dict:
    """Apply the monodromy to vec tensor |aux>, streaming site by site.

    Returns a dict keyed (bits, aux_out).  Keeping only aux_out == aux
    yields A.vec (aux=0) or D.vec (aux=1).
    """
    t = as_cyclo(t)
    state: dict[tuple[int, int], CycloNum] = {(bits, aux): c for bits, c in vec.items()}
    for k, z in enumerate(zs, start=1):
        z = as_cyclo(z)
        u = Q * z - Q_INV * t
        v = z - t
        bz = (Q - Q_INV) * z
        bt = (Q - Q_INV) * t
        bit = 1 << (k - 1)
        new: dict[tuple[int, int], CycloNum] = {}

        def put(key, val):
            s = new.get(key)
            s = val if s is None else s + val
            if s:
                new[key] = s
            else:
                new.pop(key, None)

        for (bits, a), c in state.items():
            s = 1 if bits & bit else 0
            if s == a:
                put((bits, a), c * u)
            elif s == 0:  # site up, aux down
                put((bits, 1), c * v)
                put((bits | bit, 0), c * bz)
            else:  # site down, aux up
                put((bits, 0), c * v)
                put((bits & ~bit, 1), c * bt)
        state = new
    return state


def transfer_apply_spin(zs, t, vec: dict[int, CycloNum]) -> dict[int, CycloNum]:
    """T.vec computed without materializing the operator."""
    out: dict[int, CycloNum] = {}
    for aux, twist in ((0, -Q), (1, -Q_INV)):
        for (bits, a), c in monodromy_apply(zs, t, vec, aux).items():
            if a != aux:
                continue
            s = out.get(bits)
            s = twist * c if s is None else s + twist * c
            if s:
                out[bits] = s
            else:
                out.pop(bits, None)
    return out


# ---------------------------------------------------------------------------
# link-pattern representation: local operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def e_link_matrix(n: int, i: int) -> ExactMatrix:
    """The Temperley-Lieb generator e_i on link patterns (loop weight 1)."""
    patterns = enumerate_patterns(n)
    index = pattern_index(n)
    c = len(patterns)
    data = [[ZERO] * c for _ in range(c)]
    for src, p in enumerate(patterns):
        q, _closed = e_apply(i, p)
        data[index[q.pairing]][src] = ONE
    return ExactMatrix(data)


def rcheck_link(i: int, z, w, n: int) -> LinkOperator:
    """(q z - q^{-1} w) I + (z - w) e_i on link patterns."""
    z = as_cyclo(z)
    w = as_cyclo(w)
    c1 = Q * z - Q_INV * w
    c2 = z - w
    e = e_link_matrix(n, i)
    cn = e.rows
    data = [[c2 * e.data[r][s] for s in range(cn)] for r in range(cn)]
    for r in range(cn):
        data[r][r] = data[r][r] + c1
    return ExactMatrix(data)


@lru_cache(maxsize=None)
def phi_matrix(n: int, i: int) -> ExactMatrix:
    """The little-arch insertion LP_{n-1} -> LP_n at (i, i+1) as a 0/1 matrix."""
    small = enumerate_patterns(n - 1)
    index = pattern_index(n)
    cn = len(enumerate_patterns(n))
    data = [[ZERO] * len(small) for _ in range(cn)]
    for src, p in enumerate(small):
        data[index[phi_embed(i, p).pairing]][src] = ONE
    return ExactMatrix(data)


# ---------------------------------------------------------------------------
# embedding of link patterns into the spin space
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def embedding_columns(n: int) -> tuple[dict[int, CycloNum], ...]:
    return tuple(spin_embed(p) for p in enumerate_patterns(n))


def embed(n: int, values) -> dict[int, CycloNum]:
    """The spin vector sum_k values[k] * spin_embed(pattern k), canonical
    pattern order, zero entries dropped."""
    vec: dict[int, CycloNum] = {}
    for val, col in zip(values, embedding_columns(n), strict=True):
        val = as_cyclo(val)
        if not val:
            continue
        for bits, c in col.items():
            s = vec.get(bits)
            s = val * c if s is None else s + val * c
            if s:
                vec[bits] = s
            else:
                vec.pop(bits, None)
    return vec


def spin_route_agrees(t, zs, n: int, matrix: LinkOperator) -> bool:
    """True iff ``matrix`` is the spin transfer matrix restricted to the
    embedded link patterns: T applied to each embedded pattern j equals the
    embedding of column j.  Production uses transfer_link; this is the
    oracle it is checked against."""
    cols = embedding_columns(n)
    if len(zs) != 2 * n:
        raise ValueError(f"expected {2 * n} spectral parameters, got {len(zs)}")
    if matrix.rows != len(cols) or matrix.cols != len(cols):
        return False
    return all(
        transfer_apply_spin(zs, t, col) == embed(n, [row[j] for row in matrix.data])
        for j, col in enumerate(cols)
    )


# ---------------------------------------------------------------------------
# link-basis transfer matrix, loop (tile) route
# ---------------------------------------------------------------------------
#
# One lattice row is a ring of 2n square faces.  Face i has ports S (old
# point i), N (new point i), W and E (shared with the neighbouring faces,
# E of face 2n glued to W of face 1).  The pass tile connects S-E and W-N,
# the glue tile connects S-W and N-E; with every face passing, the row is
# the one-step rotation, matching the twisted spin trace exactly.

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


@lru_cache(maxsize=None)
def _tile_table(n: int):
    """table[src][tiles] = canonical index of the resulting pattern,
    stored as compact uint16 arrays (the table dominates memory at n = 7)."""
    from array import array

    patterns = enumerate_patterns(n)
    index = pattern_index(n)
    m = 2 * n
    nconf = 1 << m
    table = [array("H", bytes(2 * nconf)) for _ in patterns]
    for tiles in range(nconf):
        sk = _row_skeleton(n, tiles)
        for src, p in enumerate(patterns):
            pairing = [0] * m
            for i in range(m):
                if pairing[i]:
                    continue
                port = sk[i]
                while port >= m:  # descend through the old pattern
                    port = sk[m + p.partner(port - m + 1) - 1]
                pairing[i] = port + 1
                pairing[port] = i + 1
            table[src][tiles] = index[tuple(pairing)]
    return tuple(table)


def _pmul(x, y):
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


def _to_pair(x):
    if isinstance(x, CycloNum):
        return (x.a, x.b)
    if isinstance(x, (int, Fraction)):
        return (x, 0)
    raise TypeError(f"bad parameter of type {type(x).__name__}")


def row_weights(n: int, zs, t) -> list[tuple]:
    """Weights of all 2^{2n} row configurations as (a, b) pairs."""
    tp = _to_pair(t)
    w = [(1, 0)]
    for z in zs:
        zp = _to_pair(z)
        qz = _pmul((0, 1), zp)
        # u = q z - q^{-1} t, with -q^{-1} t = (t0 - t1) + t0 w ;  v = z - t
        u = (qz[0] + tp[0] - tp[1], qz[1] + tp[0])
        v = (zp[0] - tp[0], zp[1] - tp[1])
        w = [_pmul(x, u) for x in w] + [_pmul(x, v) for x in w]
    return w


def transfer_link_pairs(n: int, zs, t) -> list[list[tuple]]:
    """Link-basis transfer matrix as (a, b) coefficient pairs, tile route.

    Plain Python, so importing the package and building small matrices
    never loads numpy; transfer_link_limbs is the numpy route the modular
    kernel uses."""
    table = _tile_table(n)
    weights = row_weights(n, zs, t)
    cn = len(table)
    ma = [[0] * cn for _ in range(cn)]
    mb = [[0] * cn for _ in range(cn)]
    wa = [w[0] for w in weights]
    wb = [w[1] for w in weights]
    for src in range(cn):
        row = table[src]
        for s, dst in enumerate(row):
            ma[dst][src] += wa[s]
            mb[dst][src] += wb[s]
    return [
        [(ma[r][c], mb[r][c]) for c in range(cn)]
        for r in range(cn)
    ]


#: bits per limb of transfer_link_limbs: a sum of 2^{2n} limbs below 2^31
#: in absolute value stays inside int64 for every n <= 15
LIMB_BITS = 31


@lru_cache(maxsize=None)
def _tile_scatter(n: int) -> tuple:
    """The tile table regrouped by destination, one entry per source pattern.

    Entry src is (order, starts, dst): ``order`` (uint16) sorts the 2^{2n}
    row configurations by the pattern they send src to, ``starts`` are the
    segment starts of that sorted order, and ``dst`` the destination of
    each segment, so column src of sum_s W[s] * (tile s) is
    ``np.add.reduceat(W[order], starts)`` at rows ``dst``.  Built from
    _tile_table on first use; about 1.3 MB at n = 6.
    """
    import numpy as np

    out = []
    for row in _tile_table(n):
        dst = np.frombuffer(row, dtype=np.uint16)
        order = np.argsort(dst, kind="stable").astype(np.uint16)
        ordered = dst[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        out.append((order, starts, ordered[starts].astype(np.intp)))
    return tuple(out)


def transfer_link_limbs(n: int, zs, t):
    """The tile-route transfer matrix in numpy, exactly, as int64 limbs.

    zs and t must be integers.  Returns an array of shape (2, L, C, C):
    entry (a, b) of transfer_link_pairs at [r][c] is
    sum_k limbs[0 or 1, k, r, c] * 2^(31 k).  Every limb but the top one
    lies in [0, 2^31); the top one carries the sign.
    """
    import numpy as np

    weights = row_weights(n, zs, t)
    flat = np.array([a for a, _ in weights] + [b for _, b in weights], dtype=object)
    bits = max(max(flat), -min(flat)).bit_length()
    nlimbs = bits // LIMB_BITS + 1
    mask = (1 << LIMB_BITS) - 1
    parts = [(flat >> (LIMB_BITS * k)) & mask for k in range(nlimbs - 1)]
    parts.append(flat >> (LIMB_BITS * (nlimbs - 1)))
    # rows of w: (a limb 0, b limb 0, a limb 1, b limb 1, ...)
    w = np.stack([x.astype(np.int64) for x in parts]).reshape(2 * nlimbs, -1)
    scatter = _tile_scatter(n)
    cn = len(scatter)
    out = np.zeros((2 * nlimbs, cn, cn), dtype=np.int64)
    for src, (order, starts, dst) in enumerate(scatter):
        out[:, dst, src] = np.add.reduceat(w[:, order], starts, axis=1)
    return out.reshape(nlimbs, 2, cn, cn).swapaxes(0, 1)


def limbs_exact(limbs) -> list[list[tuple]]:
    """transfer_link_pairs rebuilt from transfer_link_limbs, as Python ints."""
    ma, mb = (
        sum(part[k].astype(object) << (LIMB_BITS * k) for k in range(len(part)))
        for part in limbs
    )
    return [list(zip(ra, rb)) for ra, rb in zip(ma.tolist(), mb.tolist())]


def limbs_mod(limbs, p: int):
    """The (a, b) coefficient matrices of transfer_link_limbs reduced mod p,
    shape (2, C, C); needs p < 2^31 so every product stays inside int64."""
    acc = limbs[:, 0] % p
    for k in range(1, limbs.shape[1]):
        acc = (acc + limbs[:, k] % p * pow(2, LIMB_BITS * k, p)) % p
    return acc


def transfer_link(t, zs, n: int) -> LinkOperator:
    """The transfer matrix restricted to link patterns, canonical order,
    summed over the row tiles in the link basis (spin_route_agrees checks
    it against the spin representation)."""
    if len(zs) != 2 * n:
        raise ValueError(f"expected {2 * n} spectral parameters, got {len(zs)}")
    pairs = transfer_link_pairs(n, zs, t)
    return ExactMatrix([[CycloNum(a, b) for a, b in row] for row in pairs])


def eigenvalue(t, zs) -> CycloNum:
    """prod_i (q t - q^{-1} z_i), the groundstate eigenvalue."""
    acc = ONE
    t = as_cyclo(t)
    for z in zs:
        acc = acc * (Q * t - Q_INV * as_cyclo(z))
    return acc


def verify_spin_eigenvector(n: int, zs, t, values) -> bool:
    """Exact check that the embedded vector satisfies (T - Lambda) v = 0.

    This certificate runs entirely in the spin representation and is
    independent of how the candidate values were produced.
    """
    vec = embed(n, values)
    lam = eigenvalue(t, zs)
    expect = {bits: lam * c for bits, c in vec.items()} if lam else {}
    return transfer_apply_spin(zs, t, vec) == expect


# ---------------------------------------------------------------------------
# operator identity checks
# ---------------------------------------------------------------------------


def _embed_two_site(op4, i: int, nsites: int) -> ExactMatrix:
    """Lift a two-site operator to sites (i, i+1) of an open chain."""
    dim = 1 << nsites
    data = [[ZERO] * dim for _ in range(dim)]
    lo = 1 << (i - 1)
    hi = 1 << i
    for col in range(dim):
        s1 = 1 if col & lo else 0
        s2 = 1 if col & hi else 0
        rest = col & ~(lo | hi)
        for r1 in (0, 1):
            for r2 in (0, 1):
                m = op4[2 * r1 + r2][2 * s1 + s2]
                if m:
                    row = rest | (lo if r1 else 0) | (hi if r2 else 0)
                    data[row][col] = m
    return ExactMatrix(data)


def check_yang_baxter(n: int, z1, z2, z3) -> "CheckReport":
    """The braid identity R1(z2,z3) R2(z1,z3) R1(z1,z2) =
    R2(z1,z2) R1(z1,z3) R2(z2,z3), in both representations."""
    from .report import CheckReport

    report = CheckReport(f"yang-baxter(n={n})")
    a = rcheck_link(1, z2, z3, n) @ rcheck_link(2, z1, z3, n) @ rcheck_link(1, z1, z2, n)
    b = rcheck_link(2, z1, z2, n) @ rcheck_link(1, z1, z3, n) @ rcheck_link(2, z2, z3, n)
    report.add(a == b, representation="link", point=[str(z) for z in (z1, z2, z3)])
    r1 = lambda x, y: _embed_two_site(rcheck_spin(x, y), 1, 3)
    r2 = lambda x, y: _embed_two_site(rcheck_spin(x, y), 2, 3)
    a = r1(z2, z3) @ r2(z1, z3) @ r1(z1, z2)
    b = r2(z1, z2) @ r1(z1, z3) @ r2(z2, z3)
    report.add(a == b, representation="spin", point=[str(z) for z in (z1, z2, z3)])
    return report


def check_unitarity(n: int, z, w) -> "CheckReport":
    """R_i(z,w) R_i(w,z) = (qz - q^{-1}w)(qw - q^{-1}z) I at every site,
    plus the same 4x4 statement in the spin representation."""
    from .report import CheckReport

    report = CheckReport(f"unitarity(n={n})")
    z = as_cyclo(z)
    w = as_cyclo(w)
    scalar = (Q * z - Q_INV * w) * (Q * w - Q_INV * z)
    target = ExactMatrix.identity(len(enumerate_patterns(n))).scale(scalar)
    for i in range(1, 2 * n + 1):
        got = rcheck_link(i, z, w, n) @ rcheck_link(i, w, z, n)
        report.add(got == target, site=i, representation="link")
    a = rcheck_spin(z, w)
    b = rcheck_spin(w, z)
    prod = ExactMatrix(a) @ ExactMatrix(b)
    report.add(
        prod == ExactMatrix.identity(4).scale(scalar), representation="spin"
    )
    return report


def check_interlacing(n: int, t, zs, i: int) -> "CheckReport":
    """Swapping z_i, z_{i+1} inside the transfer matrix is intertwined by
    R_i(z_i, z_{i+1})."""
    from .report import CheckReport

    report = CheckReport(f"interlacing(n={n}, i={i})")
    m = 2 * n
    j = i % m  # 0-indexed successor position
    swapped = list(zs)
    swapped[i - 1], swapped[j] = swapped[j], swapped[i - 1]
    rc = rcheck_link(i, zs[i - 1], zs[j], n)
    lhs = transfer_link(t, zs, n) @ rc
    rhs = rc @ transfer_link(t, swapped, n)
    report.add(lhs == rhs, point=[str(z) for z in zs], t=str(t))
    return report


def check_arch_insertion(n: int, t, zs_small, i: int, z_new) -> "CheckReport":
    """Inserting a little arch at (i, i+1) with parameters (z, q^2 z)
    intertwines the transfer matrices of sizes n and n-1 up to the factor
    (q^2 t - z)(t - z)."""
    from .report import CheckReport

    report = CheckReport(f"arch-insertion(n={n}, i={i})")
    z = as_cyclo(z_new)
    t = as_cyclo(t)
    zs = list(zs_small[: i - 1]) + [z, Q * Q * z] + list(zs_small[i - 1 :])
    phi = phi_matrix(n, i)
    lhs = transfer_link(t, zs, n) @ phi
    scalar = (Q * Q * t - z) * (t - z)
    rhs = (phi @ transfer_link(t, list(zs_small), n - 1)).scale(scalar)
    report.add(lhs == rhs, insert_at=i, z=str(z), t=str(t))
    return report


def check_transfer_commutation(n: int, zs, t1, t2) -> "CheckReport":
    """[T(t), T(t')] = 0 on link patterns."""
    from .report import CheckReport

    report = CheckReport(f"transfer-commutation(n={n})")
    a = transfer_link(t1, zs, n)
    b = transfer_link(t2, zs, n)
    report.add(a @ b == b @ a, t=[str(t1), str(t2)])
    return report
