"""Independent brute-force recomputations used as test oracles.

Everything here takes a different route than the library: position scans
instead of ``find``, explicit alignment enumeration instead of overlap
case analysis, and raw polynomial arithmetic for reconstruction.  Tests
assert the library against these, never against itself.
"""

from fractions import Fraction

from ncgb.engine import BasisState
from ncgb.polynomial import NcPolynomial, add_scaled, leading


def occurrences_brute(pattern, text):
    """All (left, right) splits around ``pattern``, by a letterwise scan."""
    out = []
    for pos in range(len(text) - len(pattern) + 1):
        if all(text[pos + k] == pattern[k] for k in range(len(pattern))):
            out.append((text[:pos], text[pos + len(pattern):]))
    return out


def overlaps_brute(w1, w2):
    """Every agreeing placement of w2 against w1 that shares a letter.

    Returns (kind, witness, position) tuples under the same conventions the
    library uses: containments only as inside kinds, suffix/prefix
    witnesses strictly shorter than both words, identical words report each
    border once and no full coincidence.
    """
    out = []
    n1, n2 = len(w1), len(w2)
    same = w1 == w2
    for d in range(-(n2 - 1), n1):
        lo, hi = max(0, d), min(n1, d + n2)
        if lo >= hi:
            continue
        if any(w1[p] != w2[p - d] for p in range(lo, hi)):
            continue
        if d == 0 and n1 == n2:
            continue
        witness = w1[lo:hi]
        if d >= 0 and d + n2 <= n1:
            out.append(("second_inside_first", witness, d))
        elif d <= 0 and d + n2 >= n1:
            out.append(("first_inside_second", witness, -d))
        elif d > 0:
            out.append(("suffix_prefix", witness, d))
        elif not same:
            out.append(("prefix_suffix", witness, -d))
    return out


def nontrivial_obstructions_brute(i, j, G):
    """Cofactor tuples (wi, wi2, wj, wj2) from exhaustive alignment search.

    Enumerates every placement of the two leading words in which one copy
    starts the common word, the copies agree letter by letter, share at
    least one position, and jointly cover the common word.
    """
    lwi, lwj = G.leading_words[i], G.leading_words[j]
    ni, nj = len(lwi), len(lwj)
    found = set()
    if i == j:
        for t in range(1, ni):
            if lwi[t:] == lwi[:ni - t]:
                found.add((b"", lwi[ni - t:], lwi[:t], b""))
        return found
    # copy of g_i starts the common word, g_j sits at offset q
    for q in range(ni + 1):
        lo, hi = q, min(ni, q + nj)
        if lo >= hi:
            continue
        if lwi[lo:hi] != lwj[lo - q:hi - q]:
            continue
        common = lwi + lwj[ni - q:] if q + nj > ni else lwi
        found.add((b"", common[ni:], common[:q], common[q + nj:]))
    # copy of g_j starts the common word, g_i sits at offset p > 0
    for p in range(1, nj + 1):
        lo, hi = p, min(nj, p + ni)
        if lo >= hi:
            continue
        if lwj[lo:hi] != lwi[lo - p:hi - p]:
            continue
        common = lwj + lwi[nj - p:] if p + ni > nj else lwj
        found.add((common[:p], common[p + ni:], b"", common[nj:]))
    return found


def reference_divide(f, G, ordering):
    """Division by rescanning every live term for the largest word at each step.

    Same divisor rule as the library (smallest index, leftmost occurrence);
    returns (quotients, remainder) in the library's quotient format.
    """
    lws = G.leading_words
    v = dict(f.items())
    remainder = {}
    quotients = []
    while v:
        word = max(v, key=ordering.key)
        for i, lw in enumerate(lws):
            pos = word.find(lw)
            if pos >= 0:
                break
        else:
            remainder[word] = v.pop(word)
            continue
        left, right = word[:pos], word[pos + len(lw):]
        c = v[word]
        quotients.append((i, c, left, right))
        for u, cu in G.generators[i].items():
            w = left + u + right
            acc = v.get(w, 0) - c * cu
            if acc:
                v[w] = acc
            else:
                v.pop(w, None)
    return quotients, NcPolynomial(remainder)


def random_word(rng, nletters, lo, hi):
    return bytes(rng.randrange(nletters) for _ in range(rng.randint(lo, hi)))


def random_coeff(rng, integral=False):
    num = rng.choice([n for n in range(-6, 7) if n])
    return num if integral else Fraction(num, rng.randint(1, 4))


def random_polynomial(rng, nletters, max_terms=4, max_degree=5, integral=False):
    """A random non-zero polynomial with small rational (or integer) coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[random_word(rng, nletters, 0, max_degree)] = random_coeff(rng, integral)
        f = NcPolynomial(terms)
        if f:
            return f


def random_basis(rng, ordering, nletters, size, max_degree=5, integral=False):
    """A random basis whose leading words are short enough to overlap often.

    With ``integral`` every generator has integer coefficients and leading
    coefficient 1, so it stays integral when the basis makes it monic.
    """
    G = BasisState()
    for _ in range(size):
        f = random_polynomial(rng, nletters, max_degree=max_degree, integral=integral)
        if integral:
            lc, lw = leading(f, ordering)
            f = add_scaled(f, 1 - lc, NcPolynomial.from_term(lw))
        G.append(f, ordering)
    return G
