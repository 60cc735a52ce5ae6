"""The bar construction over a cdga presentation.

A bar word is a tuple of nonempty monomials (slots in the augmentation
ideal); a bar element maps bar words to Fraction coefficients, expanded
multilinearly so that slots are always single monomials.  The bar degree of a
word is the sum of the desuspended slot degrees (slot degree minus one), and
all signs below are Koszul signs computed on desuspended degrees.

The kernels run on an element's integer numerators over one common
denominator.  d_B multiplies them by the coefficients the presentation's
differential holds, ints for the integral models, so no other denominator
enters.

Hain's projector depends on a word only through its letter pattern: which
slots hold the same monomial, and the parity of each slot.  It is computed
once per pattern, on words of integer codes shared by every presentation,
and the result is relabelled with the monomials.  The shuffle product runs
on the bar words themselves.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import xor
from typing import Mapping

from .dgcore import CdgaPresentation
from .linalg import add_term, from_numerators, to_numerators

BarWord = tuple  # tuple[Monomial, ...]
BarElement = dict  # BarWord -> Fraction
BarTensor = dict  # (BarWord, BarWord) -> Fraction


class InvalidElementError(ValueError):
    """Raised by every kernel that takes a presentation on a constant slot or
    a slot holding a generator the presentation does not have (both checked
    in :func:`_slot`), and by the projecting kernels on the empty word."""


def bar_differential(b: BarElement, p: CdgaPresentation) -> BarElement:
    """d_B = D1 + D2: slotwise differential plus adjacent-slot multiplication.

    D1 carries the suspension sign -(-1)^(eta(i-1)) and D2 the sign
    -(-1)^(eta(i)), where eta is the running sum of desuspended slot degrees.
    The sum runs on b's integer numerators over its common denominator.
    """
    den, ints = to_numerators(b)
    return from_numerators(differential_numerators(ints, p), den)


def differential_numerators(b: Mapping[BarWord, int], p: CdgaPresentation) -> dict:
    """d_B of an element with integer coefficients.

    Its coefficients are those the presentation's differential gives: ints
    over an integral presentation, Fractions where the differential has
    them.  Zero coefficients are skipped.
    """
    out: dict = {}
    for word, c in b.items():
        if not c:
            continue
        odd = 0  # the parity of eta before slot i
        for i, m in enumerate(word):
            slot_odd, dm = _slot(p, m)
            if dm:
                sc = c if odd else -c
                for m2, c2 in dm:
                    key = word[:i] + (m2,) + word[i + 1 :]
                    out[key] = out.get(key, 0) + sc * c2
            odd ^= slot_odd
            if i + 1 < len(word):
                prod = _slot_product(p, m, word[i + 1])
                if prod is not None:
                    s, m2 = prod
                    key = word[:i] + (m2,) + word[i + 2 :]
                    out[key] = out.get(key, 0) + (s if odd else -s) * c
    return {w: v for w, v in out.items() if v}


@lru_cache(maxsize=None)
def _slot(p: CdgaPresentation, m) -> tuple:
    """(parity of the desuspended degree, d(m) as (monomial, coefficient) pairs).

    Every kernel reads each distinct slot here first, so a constant slot,
    or one with a generator the presentation does not have, is rejected
    once, here.
    """
    if not m:
        raise InvalidElementError("bar slot outside the augmentation ideal")
    for g in m:
        if g not in p.index:
            raise InvalidElementError(
                f"bar slot {m!r} holds {g!r}, which is not a generator of {p.name}"
            )
    return (p.monomial_degree(m) - 1) % 2, tuple(p.monomial_differential(m).items())


@lru_cache(maxsize=None)
def _slot_product(p: CdgaPresentation, m1, m2):
    """The product of two adjacent slots: (sign, monomial), or None if zero.

    The right slot is read through :func:`_slot` first, so that an unknown
    generator there is rejected before its product is taken.
    """
    _slot(p, m2)
    return p.multiply_monomials(m1, m2)


def coproduct(b: BarElement) -> BarTensor:
    """Full deconcatenation, including the two empty-ended splits."""
    out: BarTensor = {}
    for word, c in b.items():
        for i in range(len(word) + 1):
            add_term(out, (word[:i], word[i:]), c)
    return out


def _shuffle_pair(p: CdgaPresentation, w1: BarWord, w2: BarWord) -> tuple:
    """The signed shuffle of two bar words: (bar word, integer) pairs.

    row[j] is the shuffle of w1[i:] and w2[j:], built as i runs down: its
    words start with w1[i] (from the row before) or with w2[j] (from
    row[j + 1]), and moving w2[j] past w1[i:] is odd only when both are odd.
    """
    n2 = len(w2)
    odd2 = [_slot(p, m)[0] for m in w2]
    row = [{w2[j:]: 1} for j in range(n2 + 1)]
    tail = 0  # the parity of w1[i:]
    for i in range(len(w1) - 1, -1, -1):
        first = w1[i]
        tail ^= _slot(p, first)[0]
        row[n2] = {w1[i:]: 1}
        for j in range(n2 - 1, -1, -1):
            out = {(first,) + rest: s for rest, s in row[j].items()}
            lead = w2[j]
            sign = -1 if odd2[j] and tail else 1
            for rest, s in row[j + 1].items():
                word = (lead,) + rest
                out[word] = out.get(word, 0) + sign * s
            row[j] = out
    return tuple((word, c) for word, c in row[0].items() if c)


def _parity(p: CdgaPresentation, word: BarWord) -> int:
    """The parity of the bar degree of ``word``."""
    odd = 0
    for m in word:
        odd ^= _slot(p, m)[0]
    return odd


def shuffle(b1: BarElement, b2: BarElement, p: CdgaPresentation) -> BarElement:
    """The shuffle product, summed in integers over one common denominator."""
    den1, ints1 = to_numerators(b1)
    den2, ints2 = to_numerators(b2)
    out: dict = {}
    for w1, c1 in ints1.items():
        for w2, c2 in ints2.items():
            c12 = c1 * c2
            for word, c in _shuffle_pair(p, w1, w2):
                out[word] = out.get(word, 0) + c * c12
    return from_numerators(out, den1 * den2)


def tensor_shuffle(t1: BarTensor, t2: BarTensor, p: CdgaPresentation) -> BarTensor:
    """The shuffle product on the tensor square, legwise with the Koszul sign.

    (x1 @ x2)(y1 @ y2) = (-1)^(|x2||y1|) (x1 sh y1) @ (x2 sh y2), so that the
    coproduct is an algebra map: coproduct(a sh b) = coproduct(a) * coproduct(b).
    The terms are summed in integers over one common denominator.
    """
    den1, ints1 = to_numerators(t1)
    den2, ints2 = to_numerators(t2)
    out: dict = {}
    for (x1, x2), c1 in ints1.items():
        odd2 = _parity(p, x2)
        for (y1, y2), c2 in ints2.items():
            c = -c1 * c2 if odd2 and _parity(p, y1) else c1 * c2
            right = _shuffle_pair(p, x2, y2)
            for u, cu in _shuffle_pair(p, x1, y1):
                ccu = c * cu
                for v, cv in right:
                    out[(u, v)] = out.get((u, v), 0) + ccu * cv
    return from_numerators(out, den1 * den2)


@lru_cache(maxsize=None)
def _lcm_upto(n: int) -> int:
    """lcm(1..n), the common denominator of p on words of length n."""
    return math.lcm(*range(1, n + 1))


@lru_cache(maxsize=None)
def _hain_word(p: CdgaPresentation, word: BarWord) -> tuple:
    """p([word]) as (bar word, integer) pairs over lcm(1..len(word)).

    p([word]) depends on the word only through its letter pattern.  A slot's
    code is 2k + parity: k counts the distinct monomials before the first
    occurrence of the slot's monomial, and parity is that of its desuspended
    degree.  The pattern's projection is relabelled with the monomials.
    p is not defined on the empty word.
    """
    if not word:
        raise InvalidElementError("empty-word component present")
    first: dict = {}
    for m in word:
        if m not in first:
            first[m] = 2 * len(first) + _slot(p, m)[0]
    letter = {code: m for m, code in first.items()}.__getitem__
    codes = tuple(map(first.__getitem__, word))
    return tuple((tuple(map(letter, w)), c) for w, c in _hain_pattern(codes))


@lru_cache(maxsize=None)
def _hain_pattern(codes: tuple) -> tuple:
    """p of a code word as (code word, integer) pairs over lcm(1..len(codes)).

    Solomon's form of the first Eulerian idempotent (Reutenauer, ch. 3): p
    sends [a_0|...|a_(n-1)] to the sum over permutations pi of
    koszul(pi) (-1)^d / (n C(n-1, d)) [a_pi(0)|...|a_pi(n-1)], d the number
    of i with a_(i+1) placed before a_i.  The arrangements are built by
    inserting a_0, a_1, ... one at a time.  A state is an arrangement with
    the index of its last inserted letter: inserting the next letter at or
    before that index adds a descent, and moving an odd letter past an odd
    one flips the sign.  A state's value is one integer whose d-th digit is
    the signed count of d; states with the same key merge, so repeated
    letters cost little.  The last step weighs the counts of each
    arrangement by one multiplication (see below).
    """
    n = len(codes)
    if n == 1:
        return ((codes, 1),)
    denom = _lcm_upto(n)
    # a digit is wide enough for any count times any weight: |count| <= n!
    digit = (math.factorial(n) * denom).bit_length() + 1
    # an arrangement is an integer with letter j at bit width * j, and a
    # state's key puts the index of its last inserted letter below it
    width = max(codes).bit_length() or 1
    index_bits = n.bit_length()
    index_mask = (1 << index_bits) - 1
    shifts = [width * j for j in range(n)]
    states = {codes[0] << index_bits: 1}
    for k in range(1, n):
        a = codes[k]
        final = k == n - 1  # the last letter's index is not needed after it
        places = [(j, (1 << shifts[j]) - 1, a << shifts[j]) for j in range(k + 1)]
        nxt: dict = {}
        get = nxt.get
        for key, v in states.items():
            arr = key >> index_bits
            last = key & index_mask
            up = v << digit  # one descent more
            values = [up] * (last + 1) + [v] * (k - last)
            if a & 1:
                # inserted at j, a moves past arr[j:]
                flip = False
                for j in range(k - 1, -1, -1):
                    if arr >> shifts[j] & 1:
                        flip = not flip
                    if flip:
                        values[j] = -values[j]
            for j, low, placed in places:
                lo = arr & low
                w = ((arr - lo) << width) | placed | lo
                if not final:
                    w = (w << index_bits) | j
                nxt[w] = get(w, 0) + values[j]
        states = nxt
    # digit n-1 of v * weights is sum_d count_d (-1)^d denom / (n C(n-1, d));
    # adding half to every digit of the product makes each one nonnegative
    weights = 0
    for d in range(n):
        weights = (weights << digit) + (-1) ** d * denom // (n * math.comb(n - 1, d))
    half = 1 << (digit - 1)
    halves = sum(half << shift for shift in range(0, digit * n, digit))
    top = digit * (n - 1)
    mask = (1 << digit) - 1
    letter = (1 << width) - 1
    out = []
    for arr, v in states.items():
        c = (((v * weights + halves) >> top) & mask) - half
        if c:
            out.append((tuple(arr >> shift & letter for shift in shifts), c))
    return tuple(out)


def projector_numerators(b: Mapping[BarWord, int], p: CdgaPresentation, denom: int) -> dict:
    """p(b) of an element with integer coefficients, as numerators over ``denom``.

    ``denom`` must be a multiple of lcm(1..len(word)) for every word of b.
    Zero coefficients are skipped; a numerator is zero where terms cancel.
    """
    out: dict = {}
    for word, c in b.items():
        if not c:
            continue
        scale = c * (denom // _lcm_upto(len(word)))
        for w, num in _hain_word(p, word):
            out[w] = out.get(w, 0) + scale * num
    return out


def hain_projector(b: BarElement, p: CdgaPresentation) -> BarElement:
    """Hain's idempotent projector onto indecomposables.

    p([a_1|...|a_n]) = sum_i ((-1)^(i-1)/i) * shuffle of the i-fold reduced
    coproduct; single slots are fixed and proper shuffle products die.  The
    words' projections are summed in integers over one common denominator.
    """
    den, ints = to_numerators(b)
    if not ints:
        return {}
    denom = _lcm_upto(max(map(len, ints)))
    return from_numerators(projector_numerators(ints, p, denom), den * denom)


def tensor_swap(t: BarTensor, p: CdgaPresentation) -> BarTensor:
    """tau on the tensor square, with the Koszul sign of the bar degrees.

    A zero term is no term: its legs are not read.
    """
    # each distinct leg of a nonzero term, its parity read once, so every
    # slot of both legs is read through _slot
    odd = {w for w in set().union(*(k for k, c in t.items() if c)) if _parity(p, w)}
    out: BarTensor = {}
    for (w1, w2), c in t.items():
        add_term(out, (w2, w1), -c if w1 in odd and w2 in odd else c)
    return out


def delta_Q(b: BarElement, p: CdgaPresentation) -> BarTensor:
    """The cobracket on indecomposables: (1/2)(red - tau o red), Hain-projected.

    The input must be in the image of the Hain projector; the output is an
    antisymmetric tensor with both legs projected back to indecomposables.

    For such b only the right leg needs the projector:
    delta_Q(b) = (1/2) sum_w c_w sum_(w = u v) [u @ p(v) - eps v @ p(u)],
    eps = (-1)^(|u||v|).  Paired with u' @ v' this is <b, e1(u') e1(v')> =
    (1/2)<b, [e1 u', e1 v']>, e1 the first Eulerian idempotent (dual to p);
    and y -> <b, [y, l]> lies in the image of p for every Lie element l,
    because ad_l is a derivation that keeps the kernel of e1, so the raw
    left legs sum to projected ones.  The components whose left leg is at
    least as long as the right are built, and the others are their mirrors
    X(v, u) = -eps X(u, v); so only words of at most half the longest
    length are projected, and each output key is written once.

    One loop over the splits sums each raw pair (u, v), |u| >= |v|, as
    c(uv) - eps c(vu).  eps is read from the word's prefix parities, built
    only when the word has an odd slot.  p fixes a single slot, so a pair
    with a one-slot right leg is final; the longer right legs are grouped
    by leg, and each is projected once.  p permutes letters, so a projected
    leg has its raw leg's parity, and each mirror's sign is counted from the
    odd slots when it is written.
    """
    den, ints = to_numerators(b)
    slots = set().union(*ints)
    # the split loop reads no empty word, so it would drop one unseen
    if () in ints:
        raise InvalidElementError("empty-word component present")
    odd_slots = {m for m in slots if _slot(p, m)[0]}
    longest = max(map(len, ints), default=0)
    if longest < 2:
        return {}
    # the right legs have at most half the longest word's slots
    leg_denom = _lcm_upto(longest // 2)
    # raw left leg u -> {projected right leg v: numerator over leg_denom};
    # the pairs with a longer raw right leg v wait in groups, as
    # v -> {u: c(uv) - eps c(vu)}, until v is projected
    by_left: dict = {}
    groups: dict = {}
    for word, c in ints.items():
        n = len(word)
        prefix = None  # prefix[i]: the parity of word[:i], if a slot is odd
        if not odd_slots.isdisjoint(word):
            prefix = list(accumulate((m in odd_slots for m in word), xor, initial=0))
        for i in range(1, n // 2 + 1):
            # u @ p(v) at the split n - i, -eps v @ p(u) at the split i
            x = c if prefix and prefix[i] and prefix[n] ^ prefix[i] else -c
            if i == 1:
                rights = by_left.setdefault(word[:-1], {})
                v = word[-1:]
                rights[v] = rights.get(v, 0) + c * leg_denom
                rights = by_left.setdefault(word[1:], {})
                v = word[:1]
                rights[v] = rights.get(v, 0) + x * leg_denom
                continue
            lefts = groups.setdefault(word[n - i :], {})
            u = word[: n - i]
            lefts[u] = lefts.get(u, 0) + c
            lefts = groups.setdefault(word[:i], {})
            u = word[i:]
            lefts[u] = lefts.get(u, 0) + x
    for v, lefts in groups.items():
        lefts = [(u, r) for u, r in lefts.items() if r]
        if not lefts:
            continue
        scale = leg_denom // _lcm_upto(len(v))
        projected = [(w, scale * num) for w, num in _hain_word(p, v)]
        for u, r in lefts:
            rights = by_left.setdefault(u, {})
            for w, num in projected:
                rights[w] = rights.get(w, 0) + r * num
    out: dict = {}
    for u, rights in by_left.items():
        long = len(u)
        odd_u = odd_slots and sum(m in odd_slots for m in u) % 2
        for v, x in rights.items():
            if x:
                out[(u, v)] = x
                if long > len(v):
                    # the mirror X(v, u) = -eps X(u, v)
                    odd = odd_u and sum(m in odd_slots for m in v) % 2
                    out[(v, u)] = x if odd else -x
    return from_numerators(out, 2 * den * leg_denom)


def wedge_numerators(
    b1: Mapping[BarWord, int], b2: Mapping[BarWord, int], p: CdgaPresentation
) -> dict:
    """2 (b1 ^ b2) of elements with integer coefficients, without Fractions.

    b1 ^ b2 is (1/2)(b1 @ b2 -+ b2 @ b1), the projector normalization, with
    the Koszul sign of the bar degrees.  Zero coefficients are skipped; a
    numerator is zero where terms cancel.
    """
    out: dict = {}
    right = [(w2, c2, _parity(p, w2)) for w2, c2 in b2.items() if c2]
    for w1, c1 in b1.items():
        if not c1:
            continue
        odd1 = _parity(p, w1)
        for w2, c2, odd2 in right:
            c = c1 * c2
            out[(w1, w2)] = out.get((w1, w2), 0) + c
            out[(w2, w1)] = out.get((w2, w1), 0) + (c if odd1 and odd2 else -c)
    return out


def pi1(b: BarElement) -> dict:
    """Projection onto tensor degree 1, as a cdga element (dict of monomials)."""
    out: dict = {}
    for word, c in b.items():
        if len(word) == 1:
            add_term(out, word[0], c)
    return out
