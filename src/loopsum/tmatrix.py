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
matrix.  The two routes are compared where T acts: applying T to every
embedded pattern and matching the image against the embedded column of
a link-basis matrix pins every entry, as the embedding is injective; the
tests do that at every n <= 4, and verify_spin_eigenvector certifies
point vectors the same way.

Both tile assemblies read _tile_table, the row split at face n into two
half-row tables: the state after faces 1..n that each of their 2^n
configurations makes of each source pattern, and the pattern that each
configuration of faces n+1..2n makes of each such state.  One sweep of
the row, a face at a time through the connectivity states of its open
ends (_face_steps), builds both.

The tile route exists twice: transfer_link_pairs in plain Python
(transfer_link and set-up use it, and neither it nor the table builder
imports numpy), which multiplies the two half rows as T = B A, and
kernel_matrix_limbs, which composes the full row from the halves and sums
its 2^{2n} tiles in numpy into the exact matrix T - Lambda as balanced
int64 limbs; tests require both to agree entrywise with a row walked
configuration by configuration.  The limb format, and the point solve
that eliminates, lifts and certifies with those limbs, live in modular.

Operators are always built at specific parameter values; nothing here is
symbolic in z or t.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .cyclo import (
    CycloNum,
    ONE,
    Q,
    Q_INV,
    ZERO,
    accumulate,
    as_cyclo,
    from_pair,
    integer_pairs,
    pair_mul,
    pair_qdiff,
)
from .linkpat import (
    e_apply,
    enumerate_patterns,
    pattern_index,
    phi_embed,
    spin_embed,
)
from .modular import LIMB_BITS, balanced_carry, balanced_split
from .mpoly import MPoly
from .solver import ExactMatrix


# ---------------------------------------------------------------------------
# spin representation
# ---------------------------------------------------------------------------


def r_matrix_spin(z, t) -> list[list[CycloNum]]:
    """The 4x4 vertex weight matrix acting on (site) x (auxiliary).

    Basis order: up-up, up-down, down-up, down-down, the site factor first.
    t may be a scalar or a polynomial (an MPoly in Bethe-root variables);
    any other t goes through as_cyclo, so a float or numpy int is a TypeError.
    """
    z = as_cyclo(z)
    t = t if isinstance(t, MPoly) else as_cyclo(t)
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
    yields A.vec (aux=0) or D.vec (aux=1); aux=1 keeping aux_out == 0
    yields B.vec, the creation operator of the Bethe ansatz.
    """
    state: dict[tuple[int, int], CycloNum] = {(bits, aux): c for bits, c in vec.items()}
    for k, z in enumerate(zs, start=1):
        r = r_matrix_spin(z, t)
        u, v, cz, ct = r[0][0], r[1][1], r[2][1], r[1][2]
        bit = 1 << (k - 1)
        new: dict[tuple[int, int], CycloNum] = {}
        for (bits, a), c in state.items():
            s = 1 if bits & bit else 0
            if s == a:
                accumulate(new, (bits, a), c * u)
            elif s == 0:  # site up, aux down
                accumulate(new, (bits, 1), c * v)
                accumulate(new, (bits | bit, 0), c * cz)
            else:  # site down, aux up
                accumulate(new, (bits, 0), c * v)
                accumulate(new, (bits & ~bit, 1), c * ct)
        state = new
    return state


def transfer_apply_spin(zs, t, vec: dict[int, CycloNum]) -> dict[int, CycloNum]:
    """T.vec computed without materializing the operator."""
    out: dict[int, CycloNum] = {}
    for aux, twist in ((0, -Q), (1, -Q_INV)):
        for (bits, a), c in monodromy_apply(zs, t, vec, aux).items():
            if a == aux:
                accumulate(out, bits, twist * c)
    return out


# ---------------------------------------------------------------------------
# link-pattern representation: local operators
# ---------------------------------------------------------------------------


def _pattern_map(n: int, sources, image) -> ExactMatrix:
    """The 0/1 matrix sending source k to pattern image(sources[k]) of
    size n, rows in canonical order."""
    index = pattern_index(n)
    data = [[ZERO] * len(sources) for _ in range(len(index))]
    for src, p in enumerate(sources):
        data[index[image(p).pairing]][src] = ONE
    return ExactMatrix(data)


@lru_cache(maxsize=None)
def e_link_matrix(n: int, i: int) -> ExactMatrix:
    """The Temperley-Lieb generator e_i on link patterns (loop weight 1)."""
    return _pattern_map(n, enumerate_patterns(n), lambda p: e_apply(i, p)[0])


def rcheck_link(i: int, z, w, n: int) -> ExactMatrix:
    """(q z - q^{-1} w) I + (z - w) e_i on link patterns."""
    z = as_cyclo(z)
    w = as_cyclo(w)
    e = e_link_matrix(n, i)
    return e.scale(z - w) + ExactMatrix.identity(e.rows).scale(Q * z - Q_INV * w)


@lru_cache(maxsize=None)
def phi_matrix(n: int, i: int) -> ExactMatrix:
    """The little-arch insertion LP_{n-1} -> LP_n at (i, i+1) as a 0/1 matrix."""
    return _pattern_map(n, enumerate_patterns(n - 1), lambda p: phi_embed(i, p))


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
            accumulate(vec, bits, val * c)
    return vec


def _expect_parameters(n: int, zs) -> None:
    """Every route at size n takes exactly 2n spectral parameters."""
    if len(zs) != 2 * n:
        raise ValueError(f"expected {2 * n} spectral parameters, got {len(zs)}")


# ---------------------------------------------------------------------------
# link-basis transfer matrix, loop (tile) route
# ---------------------------------------------------------------------------
#
# One lattice row is a ring of 2n square faces.  Face i has ports S (old
# point i), N (new point i), W and E (shared with the neighbouring faces,
# E of face 2n glued to W of face 1).  The pass tile connects S-E and W-N,
# the glue tile connects S-W and N-E; with every face passing, the row is
# the one-step rotation, matching the twisted spin trace exactly.


def _face_steps(n: int) -> list[tuple[list[int], list[int]]]:
    """The row swept face by face: steps[k] = (pass, glue), the state ids
    after face k + 1 as lookups over the state ids after face k.

    A state after k faces is the pairing of the 2n + 2 open ends: slot i
    is the top point N_{i+1} for i < k and the bottom point S_{i+1} from k
    on, slot 2n the current E port and slot 2n + 1 the W port of face 1.
    The states before face 1 are the source patterns in canonical order,
    each with E paired to W.  States are planar pairings of the 2n + 2
    ends, so every level has at most C_{n+1} of them.  The last step
    closes the ring (E glued to W) and maps straight to canonical pattern
    indices.
    """
    m = 2 * n
    e_slot, w_slot = m, m + 1
    states = [tuple(j - 1 for j in p.pairing) + (w_slot, e_slot)
              for p in enumerate_patterns(n)]
    steps = []
    for k in range(m):
        ids: dict[tuple, int] = {}
        pas, glue = [], []
        for st in states:
            e, s = st[e_slot], st[k]
            if e == k:
                # the strand from E comes back at S_{k+1}: either tile
                # leaves N_{k+1} paired with the new E (glue closes a loop)
                p = g = st
            else:
                # pass: N_{k+1} takes E's partner, the new E takes S's
                p = list(st)
                p[k], p[e], p[e_slot], p[s] = e, k, s, e_slot
                # glue: the partners of E and S join, N_{k+1} pairs with E
                g = list(st)
                g[e], g[s], g[k], g[e_slot] = s, e, e_slot, k
                p, g = tuple(p), tuple(g)
            pas.append(ids.setdefault(p, len(ids)))
            glue.append(ids.setdefault(g, len(ids)))
        steps.append((pas, glue))
        states = list(ids)
    index = pattern_index(n)
    final = []
    for st in states:
        st = list(st)
        e, w = st[e_slot], st[w_slot]
        if e != w_slot:  # E meeting W itself closes a loop
            st[e], st[w] = w, e
        final.append(index[tuple(x + 1 for x in st[:m])])
    pas, glue = steps[-1]
    steps[-1] = ([final[x] for x in pas], [final[x] for x in glue])
    return steps


@lru_cache(maxsize=None)
def _tile_table(n: int):
    """The row split at face n, as two half-row tables of uint16 arrays.

    ``first[src][lo]`` is the state after faces 1..n that the
    configuration ``lo`` of those faces (bit k - 1 set: face k glues) makes
    of source pattern src; ``second[mid][hi]`` is the canonical index of
    the pattern that faces n+1..2n in configuration ``hi`` (bit k - 1 set:
    face n + k glues) make of state ``mid`` after face n.  Row
    configuration hi * 2^n + lo therefore sends src to
    second[first[src][lo]][hi].

    Both halves come from one face sweep (_face_steps): a row of states
    after k faces of a half is a tuple of 2^k state ids, and face k + 1
    maps it through the pass lookup, then through the glue lookup appended
    after it.  There are at most C_{n+1} states after face n (429 at
    n = 6, 1,430 at n = 7), so the halves hold 35,904 entries at n = 6 and
    237,952 at n = 7, where the full table would hold C_n 4^n (540,672 and
    7,028,736).
    """
    from array import array

    steps = _face_steps(n)
    halves = []
    for (pas, glue), *rest in (steps[:n], steps[n:]):
        rows = []
        for x in range(len(pas)):
            row = (pas[x], glue[x])
            for pas_k, glue_k in rest:
                get = itemgetter(*row)
                row = get(pas_k) + get(glue_k)
            rows.append(array("H", row))
        halves.append(tuple(rows))
    return tuple(halves)


def row_weights(zs, t) -> list[tuple]:
    """Weights of all 2^len(zs) row configurations as (a, b) pairs; index
    s with bit i set means face i+1 glues.  Any number of faces works: the
    weights of the first k faces alone are row_weights(zs[:k], t)."""
    tp, *zps = ((x.a, x.b) for x in map(as_cyclo, [t, *zs]))
    w = [(1, 0)]
    for zp in zps:
        # pass tile u = q z - q^{-1} t, glue tile v = z - t
        u = pair_qdiff(zp, tp)
        v = (zp[0] - tp[0], zp[1] - tp[1])
        w = [pair_mul(x, u) for x in w] + [pair_mul(x, v) for x in w]
    return w


def _summed(keys, weights) -> list[tuple]:
    """(key, summed weight) for every key in ``keys``, in first-seen order:
    the weights are (a, b) pairs listed alongside the keys."""
    acc: dict = {}
    for k, (a, b) in zip(keys, weights):
        s = acc.get(k)
        acc[k] = (a, b) if s is None else (s[0] + a, s[1] + b)
    return list(acc.items())


def transfer_link_pairs(n: int, zs, t) -> list[list[tuple]]:
    """Link-basis transfer matrix as (a, b) coefficient pairs, tile route.

    The row factors at face n as T = B A: A[src] sums the weights of the
    first n faces by the state they reach (first of _tile_table), B[mid]
    the weights of the last n by the pattern they end in (second), and
    T[dst][src] = sum over mid of B[mid][dst] A[src][mid], one product per
    (src, mid, dst) triple the halves connect (27,429 at n = 6).  Plain
    Python, so importing the package and building small matrices never
    loads numpy; kernel_matrix_limbs is the numpy route the modular kernel
    uses."""
    _expect_parameters(n, zs)
    first, second = _tile_table(n)
    lo_w = row_weights(zs[:n], t)
    hi_w = row_weights(zs[n:], t)
    b = [_summed(row, hi_w) for row in second]
    cn = len(first)
    cols = []
    for row in first:
        ca = [0] * cn
        cb = [0] * cn
        for mid, wa in _summed(row, lo_w):
            for dst, wb in b[mid]:
                x, y = pair_mul(wb, wa)
                ca[dst] += x
                cb[dst] += y
        cols.append(list(zip(ca, cb)))
    return [list(r) for r in zip(*cols)]


#: row configurations per scatter chunk of kernel_matrix_limbs: whole
#: source patterns, so a chunk's gather of weight limbs stays near 1 MB
_SCATTER_CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _tile_scatter(n: int) -> tuple:
    """The row configurations regrouped by destination, in chunks of whole
    source patterns of about _SCATTER_CHUNK row configurations in all.

    Chunk entry is (order, starts, flat): ``order`` (uint16) lists, one
    source after another, the 2^{2n} row configurations sorted by the
    pattern they send the source to; ``starts`` are the segment starts in
    that list, and ``flat`` = dst * C + src the entry of the C x C matrix
    each segment sums into.  So the chunk's part of sum_s W[s] * (tile s)
    is ``np.add.reduceat(np.take(W, order, axis=0), starts, axis=0)`` at
    ``flat``, row s of W the limbs of configuration s: np.take converts
    the uint16 order itself, where the fancy index W[order] is far slower.

    Built on first use from the halves of _tile_table, one chunk at a
    time, so the full table is never held: one gather composes the
    chunk's rows, entry hi * 2^n + lo of row src being
    second[first[src][lo]][hi], and one stable argsort orders its uint16
    keys (source in chunk) * C + pattern, at most 672 (n = 5), each
    segment starting where the sorted key changes.  About 1.3 MB at n = 6.
    """
    import numpy as np

    first, second = (np.frombuffer(b"".join(half), dtype=np.uint16).reshape(len(half), -1)
                     for half in _tile_table(n))
    cn, size = len(first), first.shape[1] ** 2
    by_hi = np.ascontiguousarray(second.T)
    step = min(cn, max(1, _SCATTER_CHUNK // size))
    shift = (np.arange(step, dtype=np.uint16) * cn)[:, None]
    chunks = []
    for s0 in range(0, cn, step):
        part = first[s0:s0 + step]
        # rows[hi, s, x] = s * C + second[first[s0 + s][x]][hi]
        rows = by_hi[:, part] + shift[:len(part)]
        keys = rows.transpose(1, 0, 2).ravel()
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        seen = ordered[starts].astype(np.intp)
        chunks.append(((order & (size - 1)).astype(np.uint16), starts,
                       seen % cn * cn + seen // cn + s0))
    return tuple(chunks)


def _weight_limbs(n: int, zs, t):
    """row_weights(zs, t) as balanced int64 limbs in [-2^29, 2^29), shape
    (2L, 2^{2n}), rows (a limb 0, b limb 0, a limb 1, ...).

    A weight is the product of the weights of its two half rows, so only
    the 2 * 2^n half-row weights are Python ints.  Their balanced limbs
    meet in outer products of at most 3 * 2^58 (modular._room(3 << 58, 63) = 10),
    whose low and high 30 bits accumulate in separate limbs;
    balanced_carry normalizes the sums.
    """
    import numpy as np
    from math import isqrt

    mask = (1 << LIMB_BITS) - 1
    halves = [row_weights(zs[n:], t), row_weights(zs[:n], t)]
    # |a|, |b| <= sqrt(4/3 * norm), and the norm a^2 - a b + b^2 is
    # multiplicative, so the halves bound the limbs every weight needs;
    # the balanced limbs above those are zero
    norms = [max(a * a - a * b + b * b for a, b in h) for h in halves]
    nlimbs = (isqrt(4 * norms[0] * norms[1] // 3).bit_length() + 1) // LIMB_BITS + 1
    hi, lo = (balanced_split([a for a, _ in h] + [b for _, b in h]).reshape(-1, 2, len(h))
              for h in halves)
    acc = np.zeros((len(hi) + len(lo) + 1, 2, hi.shape[2] * lo.shape[2]), dtype=np.int64)
    for i in range(len(hi)):
        ha, hb = hi[i, 0][:, None], hi[i, 1][:, None]
        for j in range(len(lo)):
            la, lb = lo[j, 0], lo[j, 1]
            bd = hb * lb
            for part, x in enumerate((ha * la - bd, ha * lb + hb * la - bd)):
                x = x.ravel()
                acc[i + j, part] += x & mask
                acc[i + j + 1, part] += x >> LIMB_BITS
    return np.stack(balanced_carry(acc)[:nlimbs]).reshape(2 * nlimbs, -1)


def kernel_matrix_limbs(n: int, zs, t):
    """T - Lambda in numpy, exactly, as balanced int64 limbs.

    zs and t must be integral in Z[w]: ints, or Fractions and CycloNums
    with integral parts; anything else raises TypeError.  Returns an array
    of shape (2, L, C, C): the a and b parts of entry [r][c] of
    transfer_link_pairs, less eigenvalue(t, zs) when r == c, are
    sum_k limbs[0 or 1, k, r, c] * 2^(30 k), with every limb in
    [-2^29, 2^29).  A limb of the tile sum can reach 2^{29 + 2n};
    balanced_carry, after the eigenvalue is subtracted, brings it back,
    with one more limb where needed.
    """
    import numpy as np

    _expect_parameters(n, zs)
    # plain ints, as psi_point passes them, skip the coercion
    if any(type(x) is not int for x in (t, *zs)) and integer_pairs([t, *zs])[1] != 1:
        raise TypeError("kernel_matrix_limbs takes z and t integral in Z[w]")
    # row s of w: configuration s's limbs, moved as one row
    w = _weight_limbs(n, zs, t).T.copy()
    cn = len(_tile_table(n)[0])
    out = np.zeros((w.shape[1], cn * cn), dtype=np.int64)
    for order, starts, flat in _tile_scatter(n):
        out[:, flat] = np.add.reduceat(np.take(w, order, axis=0), starts, axis=0).T
    raw = out.reshape(-1, 2, cn, cn)
    lam = eigenvalue(t, zs)
    # |Lambda| is the modulus of the all-pass row weight, so Lambda needs
    # no more limbs than the weights
    lam_limbs = balanced_split([int(lam.a), int(lam.b)])
    diag = np.arange(cn)
    raw[:len(lam_limbs), :, diag, diag] -= lam_limbs[:, :, None]
    return np.stack(balanced_carry(raw), axis=1)


def transfer_link(t, zs, n: int) -> ExactMatrix:
    """The transfer matrix restricted to link patterns, canonical order,
    summed over the row tiles in the link basis (the tests check it against
    the spin representation on every embedded pattern)."""
    pairs = transfer_link_pairs(n, zs, t)
    return ExactMatrix([[CycloNum(a, b) for a, b in row] for row in pairs])


def eigenvalue(t, zs) -> CycloNum:
    """prod_i (q t - q^{-1} z_i), the groundstate eigenvalue.

    Computed in integer pairs: every factor has degree 1, so scaling t and
    the z_i by their common denominator d scales the product by
    d^len(zs)."""
    (tp, *zp), d = integer_pairs([t, *zs])
    acc = (1, 0)
    for z in zp:
        acc = pair_mul(acc, pair_qdiff(tp, z))
    return from_pair(acc, d ** len(zp))


def verify_spin_eigenvector(n: int, zs, t, values) -> bool:
    """Exact check that the embedded vector satisfies (T - Lambda) v = 0.

    This certificate runs entirely in the spin representation and is
    independent of how the candidate values were produced.
    """
    _expect_parameters(n, zs)
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
