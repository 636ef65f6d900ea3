"""MPoly's ring operations, structural maps and evaluation as one CycloNum
operation per term on exponent tuples, and its canonical JSON and str
through one CycloNum per term, kept as a test oracle.

MPoly stores the integer pairs of Z[w] under packed exponent keys; these loops work on {exponent tuple: CycloNum} dicts, as
MPoly.items() yields them, and return such a dict without zero
coefficients.  unpacked decodes the keys of MPoly.terms by the storage
rule alone (one byte per variable, first variable most significant).
"""

from loopsum.cyclo import ONE, ZERO, accumulate, as_cyclo


def unpacked(p) -> dict:
    """p.terms with each packed key decoded to its exponent tuple."""
    return {tuple(k.to_bytes(p.nvars, "big")): pair for k, pair in p.terms.items()}


def add_all(polys) -> dict:
    acc: dict = {}
    for p in polys:
        for e, c in p.items():
            accumulate(acc, e, c)
    return acc


def permute_args(p: dict, perm, nvars: int) -> dict:
    """The exponent on slot k moves to variable perm[k]."""
    out = {}
    for e, c in p.items():
        ne = [0] * nvars
        for k, x in zip(perm, e):
            ne[k] = x
        out[tuple(ne)] = c
    return out


def reversed_reciprocal(p: dict, d: int) -> dict:
    if any(x > d for e in p for x in e):
        raise ValueError("exponent exceeds the stated per-variable degree")
    return {tuple(d - x for x in reversed(e)): c for e, c in p.items()}


def evaluate(p: dict, point) -> object:
    total = ZERO
    for e, c in p.items():
        for x, k in zip(point, e):
            c = c * as_cyclo(x) ** k
        total = total + c
    return total


def mul(x: dict, y: dict) -> dict:
    acc: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            accumulate(acc, tuple(map(sum, zip(e1, e2))), c1 * c2)
    return acc


def divided_difference(p: dict, i: int, j: int) -> dict:
    """(p with z_i and z_j swapped - p) / (z_j - z_i), term by term."""
    terms: dict = {}
    for e, c in p.items():
        a, b = e[i], e[j]
        c = c if a > b else -c
        ne = list(e)
        for k in range(abs(a - b)):
            ne[i], ne[j] = min(a, b) + k, max(a, b) - 1 - k
            accumulate(terms, tuple(ne), c)
    return terms


def specialize_ratio(p: dict, var: int, target: int, scale) -> dict:
    """p with z_var := scale * z_target."""
    s = as_cyclo(scale)
    powers = [ONE]
    for _ in range(max((e[var] for e in p), default=0)):
        powers.append(powers[-1] * s)
    terms: dict = {}
    for e, c in p.items():
        k = e[var]
        ne = list(e)
        ne[var] = 0
        ne[target] += k
        accumulate(terms, tuple(ne), c * powers[k])
    return terms


def to_strings(x) -> list[str]:
    """A CycloNum's JSON form: the pair [str(a), str(b)] with '/' separated
    fractions, the inverse of CycloNum.from_strings."""
    return [str(x.a), str(x.b)]


def sorted_terms(p: dict) -> list:
    """The (exponent, CycloNum) terms in graded-lexicographic order."""
    return sorted(p.items(), key=lambda t: (sum(t[0]), t[0]))


def to_json(nvars: int, p: dict) -> dict:
    return {
        "nvars": nvars,
        "terms": [{"exp": list(e), "coeff": to_strings(c)} for e, c in sorted_terms(p)],
    }


def to_str(p: dict) -> str:
    if not p:
        return "0"
    bits = []
    for e, c in sorted_terms(p):
        mono = "*".join(f"z{v + 1}" + (f"^{k}" if k > 1 else "") for v, k in enumerate(e) if k)
        bits.append(f"({c})" + (f"*{mono}" if mono else ""))
    return " + ".join(bits)
