"""Independent brute-force recomputations used as test oracles.

Everything here takes a different route than the library: position scans
instead of ``find`` and slice comparison, explicit enumeration of the
placements in which one leading word starts the common word instead of
one loop over signed offsets, and raw polynomial arithmetic for
reconstruction, cofactor words instead of offsets for obstruction
coverage and order, a letter canvas to build an obstruction from its
offset, a check of every obstruction for the verdict and a sort of every
batch's survivors to name the failure (:func:`reference_verify`), a
pairwise scan for the minimal leading words
(:func:`minimal_leading_words_reference`), and string rewriting by
a printed binomial basis to list its normal words
(:func:`regular_representation`).  Tests
assert the library against these, never against itself.  The contract
checks recheck a library result against its inputs: ``assert_removals_dominated`` a criterion's report, and
``validate_division`` a remainder, which must equal
:func:`reference_divide`'s.  The library's division returns only the
remainder; the reference's quotients are checked once, in the division
tests, to rebuild the dividend.
"""

from fractions import Fraction

from ncgb.criteria import CriteriaReport
from ncgb.engine import BasisState
from ncgb.obstructions import Obstruction, obstruction_key
from ncgb.polynomial import NcPolynomial, add_scaled, leading, sandwich


def occurrences_brute(pattern, text):
    """All (left, right) splits around ``pattern``, by a letterwise scan."""
    out = []
    for pos in range(len(text) - len(pattern) + 1):
        if all(text[pos + k] == pattern[k] for k in range(len(pattern))):
            out.append((text[:pos], text[pos + len(pattern):]))
    return out


def overlaps_brute(w1, w2):
    """Offsets d (w2 starting d letters after w1) that share a letter and agree.

    Scans every candidate placement letter by letter; ascending.
    """
    out = []
    n1, n2 = len(w1), len(w2)
    for d in range(-n2, n1 + 1):
        shared = [p for p in range(n1) if 0 <= p - d < n2]
        if shared and all(w1[p] == w2[p - d] for p in shared):
            out.append(d)
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


def batch_brute(s, G):
    """(i, wi, wi2, wj, wj2) over the pairs (i, s), i <= s, by source, then offset.

    The pairwise alignment search of :func:`nontrivial_obstructions_brute`
    run once per source; the offset is ``len(wj) - len(wi)``.
    """
    return [(i,) + t for i in range(s + 1)
            for t in sorted(nontrivial_obstructions_brute(i, s, G),
                            key=lambda t: len(t[2]) - len(t[0]))]


def aligned(i, j, wi, wi2, wj, wj2, G) -> Obstruction:
    """Build an obstruction, checking that the two placements spell the same word."""
    common = wi + G.leading_words[i] + wi2
    if common != wj + G.leading_words[j] + wj2:
        raise ValueError("misaligned obstruction: the two placements differ")
    if i > j:
        raise ValueError("obstruction indices must satisfy i <= j")
    return Obstruction(i, j, wi, wi2, wj, wj2, common)


def obstruction_at(i, s, d, G) -> Obstruction:
    """The obstruction of the pair (i, s) at offset d, letter by letter.

    Writes lw(g_i) and lw(g_s) into one canvas, the second starting d
    letters after the first, and checks that the copies agree and share a
    position.
    """
    lwi, lws = G.leading_words[i], G.leading_words[s]
    x = max(-d, 0)
    y = x + d
    canvas = [None] * max(x + len(lwi), y + len(lws))
    shared = 0
    for start, word in ((x, lwi), (y, lws)):
        for k, letter in enumerate(word):
            if canvas[start + k] is not None:
                if canvas[start + k] != letter:
                    raise ValueError("the two copies disagree at this offset")
                shared += 1
            canvas[start + k] = letter
    if not shared:
        raise ValueError("the two copies share no position at this offset")
    common = bytes(canvas)
    return aligned(i, s, common[:x], common[x + len(lwi):], common[:y],
                   common[y + len(lws):], G)


def built(pairs, s, G):
    """:func:`obstruction_at` for each offset pair (i, d) of target s."""
    return [obstruction_at(i, s, d, G) for i, d in pairs]


def offset_pair(o):
    """The (source index, signed offset) pair of a built obstruction."""
    return o.i, len(o.wj) - len(o.wi)


def has_overlap(o, G) -> bool:
    """Whether the two placed leading word copies share a letter position."""
    a = len(o.wi)
    b = len(o.wj)
    return max(a, b) < min(a + len(G.leading_words[o.i]), b + len(G.leading_words[o.j]))


def covered(o, G, candidates) -> bool:
    """Whether the S-polynomial of ``o`` is already covered.

    It is when the placed copies are disjoint, or when ``o`` equals
    w * base * w2 for some base present in ``candidates`` (same indices,
    one common extension pair), found by comparing cofactor words.
    """
    if not has_overlap(o, G):
        return True
    for base in candidates:
        if base.i != o.i or base.j != o.j:
            continue
        cut = len(o.wi) - len(base.wi)
        if cut < 0 or not o.wi.endswith(base.wi) or not o.wi2.startswith(base.wi2):
            continue
        w = o.wi[:cut]
        w2 = o.wi2[len(base.wi2):]
        if o.wj == w + base.wj and o.wj2 == base.wj2 + w2:
            return True
    return False


def multiply_criterion_reference(news):
    """The multiply criterion by probing every cut of the target cofactors.

    For each member (u, u2) the cuts (u[a:], u2[:c]) go a = 0, 1, ...
    outside and c = 0, 1, ... inside, skipping (u, u2) itself; a cut that
    is the cofactor pair of a batch member removes it.  Like the criterion,
    it reports the survivors, in batch order, and the number removed.
    """
    news = list(news)
    cofs = {(o.wj, o.wj2) for o in news}
    survivors = []
    for o in news:
        u, u2 = o.wj, o.wj2
        if not any((u[a:], u2[:c]) in cofs for a in range(len(u) + 1)
                   for c in range(len(u2) + 1) if a or c < len(u2)):
            survivors.append(o)
    return CriteriaReport(survivors, removed_m=len(news) - len(survivors))


def leading_word_criterion_reference(news):
    """The leading-word criterion as a group minimum over built obstructions.

    Each member is compared with every member of equal target cofactors;
    the one with the smallest source index, then the shortest source-side
    left cofactor, stays and all the others go.  Survivors are reported in
    batch order, with the number removed.
    """
    news = list(news)
    survivors = []
    for o in news:
        group = [n for n in news if (n.wj, n.wj2) == (o.wj, o.wj2)]
        if sorted(group, key=lambda n: (n.i, len(n.wi)))[0] == o:
            survivors.append(o)
    return CriteriaReport(survivors, removed_f=len(news) - len(survivors))


def backward_criterion_reference(B, news, s, G):
    """The backward criterion by building both induced obstructions.

    A pending obstruction goes when the leftmost occurrence of lw(g_s) in
    its common word induces two obstructions against g_s that are each
    :func:`covered` by the members of ``news`` with the same indices.  Like
    the criterion, it reports the removed obstructions in the order of
    ``B``, and their number.
    """
    lw_s = G.leading_words[s]
    removed = []
    for o in B:
        pos = o.common.find(lw_s) if lw_s else -1
        if pos != -1:
            w, w2 = o.common[:pos], o.common[pos + len(lw_s):]
            if all(covered(aligned(k, s, wk, wk2, w, w2, G), G,
                           [n for n in news if n.i == k])
                   for k, wk, wk2 in ((o.i, o.wi, o.wi2), (o.j, o.wj, o.wj2))):
                removed.append(o)
    return CriteriaReport(removed=removed, removed_bk=len(removed))


def s_polynomial_reference(o, G):
    """wi g_i wi2 - wj g_j wj2 as two full sandwiches and one scaled sum.

    The leading terms are placed too and cancel in the sum.
    """
    return add_scaled(sandwich(o.wi, G[o.i], o.wi2), -1,
                      sandwich(o.wj, G[o.j], o.wj2))


def translated_obstruction_key(o, ordering):
    """The obstruction ordering with every cofactor compared as a word."""
    return (ordering.key(o.common), o.j, ordering.key(o.wj), o.i, ordering.key(o.wi))


def reference_find_divisor(word, leading_words):
    """(index, left, right) for the smallest index whose leading word occurs in ``word``.

    The plain divisor rule by a letterwise scan: indices in increasing
    order, the leftmost occurrence of the first that occurs; None when no
    leading word occurs.
    """
    for i, lw in enumerate(leading_words):
        splits = occurrences_brute(lw, word)
        if splits:
            return (i,) + splits[0]
    return None


def validate_division(f, remainder, G, ordering):
    """Check ``remainder = normal_remainder(f, G, ordering)`` against the rescan.

    Raises AssertionError when the remainder differs from
    :func:`reference_divide`'s.
    """
    if remainder != reference_divide(f, G, ordering)[1]:
        raise AssertionError("the remainder differs from the reference division's")


def assert_removals_dominated(news, report, s, G, ordering):
    """Check that each removal is dominated by some other member of its batch.

    Applies to the multiply and leading-word criteria run on the batch
    ``news`` of offset pairs of target s.  The report's survivors must be
    distinct members of the batch and its removal count the number of the
    others, which are the removed members.  For each of them the batch is
    searched for another member whose target cofactors (v, v2) it extends
    as (w*v, v2*w2), w and w2 possibly empty, such that the removed member
    is larger than both that member and the obstruction the two induce
    between their sources.  Backward removals carry no such guarantee.
    Raises AssertionError on violation.
    """
    def key(o):
        return obstruction_key(o, ordering)

    def dominates(o, base):
        w = o.wj[:len(o.wj) - len(base.wj)]
        w2 = o.wj2[len(base.wj2):]
        if o.i <= base.i:
            third = aligned(o.i, base.i, o.wi, o.wi2, w + base.wi, base.wi2 + w2, G)
        else:
            third = aligned(base.i, o.i, w + base.wi, base.wi2 + w2, o.wi, o.wi2, G)
        return key(o) > key(base) and key(o) > key(third)

    news = list(news)
    kept = set(report.survivors)
    if len(kept) != len(report.survivors) or not kept <= set(news):
        raise AssertionError("survivors are not distinct members of the batch")
    removed = [o for o in news if o not in kept]
    if len(removed) != report.removed_m + report.removed_f:
        raise AssertionError("the removal count differs from the removed members")
    batch = built(news, s, G)
    by_cof = {}
    for o in batch:
        by_cof.setdefault((o.wj, o.wj2), []).append(o)
    for o in built(removed, s, G):
        u, u2 = o.wj, o.wj2
        bases = (base for a in range(len(u) + 1) for c in range(len(u2) + 1)
                 for base in by_cof.get((u[a:], u2[:c]), ()) if base != o)
        if not any(dominates(o, base) for base in bases):
            raise AssertionError(f"removed {o!r} is dominated by no member of its batch")


def reference_divide(f, G, ordering):
    """Division by rescanning every live term for the largest word at each step.

    Same divisor rule as the library (smallest index, leftmost occurrence).
    Returns (quotients, remainder), one quotient tuple (divisor index,
    coefficient, left word, right word) per step, in step order; the
    generators are monic, so the coefficient is the rewritten word's.
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
        for u, cu in G[i].items():
            w = left + u + right
            acc = v.get(w, 0) - c * cu
            if acc:
                v[w] = acc
            else:
                v.pop(w, None)
    return quotients, NcPolynomial(remainder)


def reference_verify(G, ordering, truncation=None):
    """The exhaustive verdict, with the failure named among the survivors.

    Returns (True, []) or (False, [failure]).  Every obstruction from the
    exhaustive alignment search whose common word fits ``truncation`` is
    checked: its S-polynomial is built from two full sandwiches and divided
    by the rescan.  The failure named is the first, in s = 0, 1, ... and
    then in the obstruction ordering, among each batch's survivors of
    :func:`multiply_criterion_reference` and then
    :func:`leading_word_criterion_reference`.  A failure that no survivor
    shows would break the soundness of checking survivors only, and raises
    AssertionError.  Once some obstruction has failed, the verdict is known,
    and only survivors are checked further.
    """
    if truncation is not None and truncation < 1:
        raise ValueError("truncation must be positive")
    if truncation is not None and not all(f.is_homogeneous() for f in G):
        raise ValueError("truncation requires homogeneous generators")

    def fails(o):
        return bool(reference_divide(s_polynomial_reference(o, G), G, ordering)[1])

    failed = None  # the first failing obstruction the exhaustive pass meets
    for s in range(len(G)):
        batch = [o for o in (aligned(i, s, *cofactors, G) for i, *cofactors in batch_brute(s, G))
                 if truncation is None or len(o.common) <= truncation]
        survivors = leading_word_criterion_reference(
            multiply_criterion_reference(batch).survivors).survivors
        for o in sorted(survivors, key=lambda o: translated_obstruction_key(o, ordering)):
            if fails(o):
                return False, [o]
        if failed is None:
            kept = set(survivors)
            failed = next((o for o in batch if o not in kept and fails(o)), None)
    if failed is not None:
        raise AssertionError(f"{failed!r} fails, but every survivor reduces to zero")
    return True, []


def minimal_leading_words_reference(leading_words, ordering):
    """The indices ``interreduce`` keeps, ascending in the ordering, by a pairwise scan.

    The leading words are taken smallest first (the earlier index first
    among equal words), and each is kept unless a kept one occurs in it.
    """
    order = sorted(range(len(leading_words)),
                   key=lambda k: (ordering.key(leading_words[k]), k))
    kept = []
    for k in order:
        if not any(leading_words[k].find(leading_words[j]) >= 0 for j in kept):
            kept.append(k)
    return kept


def monic_reference(f, ordering):
    """``f`` divided by the coefficient of its largest word, found by sorting the support."""
    lw = sorted(f.support(), key=ordering.key)[-1]
    lc = Fraction(f.coefficient(lw))
    return NcPolynomial({w: c / lc for w, c in f.items()})


def coxeter_problem(matrix, precedence=None, monoid=False):
    """Problem file text for the Coxeter group of ``matrix``, or its Artin monoid.

    Letter i is named ``s<i+1>``, and ``precedence`` lists the letter
    indices largest first (the vars order when None).  The group's
    generators are s_i^2 - 1 and (s_i*s_j)^m - 1 for i < j and
    m = ``matrix[i][j]``.  With ``monoid`` they are the positive braid
    relations s_i*s_j*s_i... - s_j*s_i*s_j..., m letters on each side.
    """
    n = len(matrix)
    names = [f"s{i + 1}" for i in range(n)]
    lines = [f"vars {' '.join(names)}"]
    if precedence is not None:
        lines.append("order llex " + " ".join(names[k] for k in precedence))
    for i in range(n):
        if not monoid:
            lines.append(f"gen {names[i]}^2 - 1")
        for j in range(i + 1, n):
            m = matrix[i][j]
            if monoid:
                left = "*".join((names[i], names[j])[k % 2] for k in range(m))
                right = "*".join((names[j], names[i])[k % 2] for k in range(m))
                lines.append(f"gen {left} - {right}")
            else:
                lines.append(f"gen ({names[i]}*{names[j]})^{m} - 1")
    return "\n".join(lines) + "\n"


def artin_series(matrix, degree):
    """The coefficients up to ``degree`` of 1 / sum over J of (-1)^|J| t^l(w_J).

    That is the Hilbert series of the Artin monoid of a finite Coxeter
    group (Deligne 1972; Charney 1995), for J over the subsets of the
    letters.  The length l(w_J) of the longest element of W_J is summed
    over the components of J in the Coxeter graph (edges where m >= 3) as
    their numbers of positive roots: k(k+1)/2 for A_k, and k^2 for B_k,
    a chain with one edge labelled 4.  Other types raise ValueError.
    """
    n = len(matrix)
    denominator = [0] * (degree + 1)
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        length, seen = 0, set()
        for start in subset:
            if start in seen:
                continue
            component, stack = [], [start]
            seen.add(start)
            while stack:
                i = stack.pop()
                component.append(i)
                for j in subset:
                    if j not in seen and matrix[i][j] >= 3:
                        seen.add(j)
                        stack.append(j)
            k = len(component)
            labels = sorted(matrix[i][j] for i in component for j in component if i < j)
            edges = [m for m in labels if m >= 3]
            if len(edges) != k - 1 or any(m > 4 for m in edges) or edges.count(4) > 1:
                raise ValueError("only types A and B are supported")
            length += k * k if 4 in edges else k * (k + 1) // 2
        if length <= degree:
            denominator[length] += (-1) ** len(subset)
    series = []
    for d in range(degree + 1):
        series.append(int(d == 0) - sum(denominator[k] * series[d - k] for k in range(1, d + 1)))
    return series


def normal_word_counts(leading_words, nletters, degree):
    """The number of words of each length 0..``degree`` in which no leading word occurs.

    The words of length d + 1 are grown from the normal words of length d
    by one letter.  Every prefix of a normal word is normal, so a grown
    word is normal unless a leading word ends it, which ``endswith``
    decides one leading word at a time.
    """
    level = [] if b"" in leading_words else [b""]
    counts = [len(level)]
    for _ in range(degree):
        level = [w + bytes([x]) for w in level for x in range(nletters)]
        level = [w for w in level if not any(w.endswith(lw) for lw in leading_words)]
        counts.append(len(level))
    return counts


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
            f = add_scaled(f, 1 - lc, NcPolynomial({lw: 1}))
        G.append(f, ordering)
    return G


def regular_representation(gen_lines, alphabet, cap=100_000):
    """The normal words of a binomial basis and each letter's action on them.

    Every line is ``gen u - v`` with u the leading word, as ``ncgb run``
    prints a basis of monic binomials, read with ``alphabet``.  Each line is
    a string rewriting rule u -> v, and a word's normal form replaces any
    occurrence of any u until none is left: no divisor rule, index or memo
    takes part.  A breadth-first search from the empty word, appending one
    letter at a time, lists the normal words (every prefix of a normal word
    is normal), and stops with ValueError past ``cap`` of them.

    Returns ``(words, action)``: ``action[x][k]`` is the position in
    ``words`` of the normal form of ``words[k]`` followed by letter x.
    """
    rules = []
    for line in gen_lines:
        directive, _, body = line.partition(" ")
        u, sep, v = body.partition(" - ")
        if directive != "gen" or not sep:
            raise ValueError(f"not a binomial basis line: {line!r}")
        rules.append((alphabet.word(u), alphabet.word(v)))

    def normal_form(w):
        changed = True
        while changed:
            changed = False
            for u, v in rules:
                pos = w.find(u)
                if pos >= 0:
                    w = w[:pos] + v + w[pos + len(u):]
                    changed = True
        return w

    words, position = [b""], {b"": 0}
    action = [[] for _ in range(len(alphabet))]
    for w in words:  # grows while it is walked
        for x, row in enumerate(action):
            t = normal_form(w + bytes([x]))
            if t not in position:
                if len(words) == cap:
                    raise ValueError(f"more than {cap} normal words")
                position[t] = len(words)
                words.append(t)
            row.append(position[t])
    return words, action
