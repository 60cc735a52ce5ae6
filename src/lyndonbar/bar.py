"""The bar construction over a cdga presentation.

A bar word is a tuple of nonempty monomials (slots in the augmentation
ideal); a bar element maps bar words to Fraction coefficients, expanded
multilinearly so that slots are always single monomials.  The bar degree of a
word is the sum of the desuspended slot degrees (slot degree minus one), and
all signs below are Koszul signs computed on desuspended degrees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .dgcore import CdgaPresentation
from .linalg import add_term, combine

BarWord = tuple  # tuple[Monomial, ...]
BarElement = dict  # BarWord -> Fraction
BarTensor = dict  # (BarWord, BarWord) -> Fraction

ONE = Fraction(1)
HALF = Fraction(1, 2)


class InvalidElementError(ValueError):
    """Raised on bar elements with constant slots or stray empty-word terms."""


def bar_degree(word: BarWord, p: CdgaPresentation) -> int:
    return sum(p.monomial_degree(m) - 1 for m in word)


def check_element(b: BarElement) -> BarElement:
    for word in b:
        if any(len(m) == 0 for m in word):
            raise InvalidElementError("bar slot outside the augmentation ideal")
    return b


def bar_differential(b: BarElement, p: CdgaPresentation) -> BarElement:
    """d_B = D1 + D2: slotwise differential plus adjacent-slot multiplication.

    D1 carries the suspension sign -(-1)^(eta(i-1)) and D2 the sign
    -(-1)^(eta(i)), where eta is the running sum of desuspended slot degrees.
    """
    check_element(b)
    out: BarElement = {}
    for word, c in b.items():
        n = len(word)
        eta = [0] * (n + 1)
        for i, m in enumerate(word):
            eta[i + 1] = eta[i] + p.monomial_degree(m) - 1
        for i, m in enumerate(word):
            dm = p.monomial_differential(m)
            if dm:
                sign = -(-1) ** (eta[i] % 2)
                for m2, c2 in dm.items():
                    add_term(out, word[:i] + (m2,) + word[i + 1 :], sign * c * c2)
        for i in range(n - 1):
            prod = p.multiply_monomials(word[i], word[i + 1])
            if prod is None:
                continue
            s, m2 = prod
            sign = -(-1) ** (eta[i + 1] % 2)
            add_term(out, word[:i] + (m2,) + word[i + 2 :], sign * s * c)
    return out


def coproduct(b: BarElement) -> BarTensor:
    """Full deconcatenation, including the two empty-ended splits."""
    out: BarTensor = {}
    for word, c in b.items():
        for i in range(len(word) + 1):
            add_term(out, (word[:i], word[i:]), c)
    return out


def reduced_coproduct(b: BarElement) -> BarTensor:
    out: BarTensor = {}
    for word, c in b.items():
        for i in range(1, len(word)):
            add_term(out, (word[:i], word[i:]), c)
    return out


def iterated_reduced_coproduct(b: BarElement, parts: int) -> dict:
    """All splits into ``parts`` nonempty blocks: dict[tuple of words] -> coeff."""
    out: dict = {}
    for word, c in b.items():
        n = len(word)
        if parts > n:
            continue
        for cuts in combinations(range(1, n), parts - 1):
            bounds = (0,) + cuts + (n,)
            key = tuple(word[a:b] for a, b in zip(bounds, bounds[1:]))
            add_term(out, key, c)
    return out


@lru_cache(maxsize=None)
def _shuffle_words(p: CdgaPresentation, w1: BarWord, w2: BarWord) -> tuple:
    def sdeg(m):
        return p.monomial_degree(m) - 1

    def rec(a: BarWord, b: BarWord):
        if not a:
            yield b, 1
            return
        if not b:
            yield a, 1
            return
        for rest, s in rec(a[1:], b):
            yield (a[0],) + rest, s
        cross = sdeg(b[0]) * sum(sdeg(m) for m in a)
        factor = -1 if cross % 2 else 1
        for rest, s in rec(a, b[1:]):
            yield (b[0],) + rest, s * factor

    out: BarElement = {}
    for word, s in rec(w1, w2):
        add_term(out, word, Fraction(s))
    return tuple(sorted(out.items()))


def shuffle(b1: BarElement, b2: BarElement, p: CdgaPresentation) -> BarElement:
    out: BarElement = {}
    for w1, c1 in b1.items():
        for w2, c2 in b2.items():
            for word, c in _shuffle_words(p, w1, w2):
                add_term(out, word, c * c1 * c2)
    return out


def tensor_shuffle(t1: BarTensor, t2: BarTensor, p: CdgaPresentation) -> BarTensor:
    """The shuffle product on the tensor square, legwise with the Koszul sign.

    (x1 @ x2)(y1 @ y2) = (-1)^(|x2||y1|) (x1 sh y1) @ (x2 sh y2), so that the
    coproduct is an algebra map: coproduct(a sh b) = coproduct(a) * coproduct(b).
    """
    out: BarTensor = {}
    for (x1, x2), c1 in t1.items():
        for (y1, y2), c2 in t2.items():
            sign = -1 if (bar_degree(x2, p) * bar_degree(y1, p)) % 2 else 1
            for u, cu in shuffle({x1: ONE}, {y1: ONE}, p).items():
                for v, cv in shuffle({x2: ONE}, {y2: ONE}, p).items():
                    add_term(out, (u, v), sign * c1 * c2 * cu * cv)
    return out


def multi_shuffle(words: tuple, p: CdgaPresentation) -> BarElement:
    out: BarElement = {words[0]: ONE}
    for w in words[1:]:
        out = shuffle(out, {w: ONE}, p)
    return out


@lru_cache(maxsize=None)
def _hain_word(p: CdgaPresentation, word: BarWord) -> tuple:
    out: BarElement = {word: ONE}
    n = len(word)
    for i in range(2, n + 1):
        coeff = Fraction((-1) ** (i - 1), i)
        for blocks, c in iterated_reduced_coproduct({word: ONE}, i).items():
            for sh_word, sh_c in multi_shuffle(blocks, p).items():
                add_term(out, sh_word, coeff * c * sh_c)
    return tuple(out.items())


def hain_projector(b: BarElement, p: CdgaPresentation) -> BarElement:
    """Hain's idempotent projector onto indecomposables.

    p([a_1|...|a_n]) = sum_i ((-1)^(i-1)/i) * shuffle of the i-fold reduced
    coproduct; single slots are fixed and proper shuffle products die.
    """
    check_element(b)
    if () in b:
        raise InvalidElementError("empty-word component present")
    out: BarElement = {}
    for word, c in b.items():
        for w2, c2 in _hain_word(p, word):
            add_term(out, w2, c * c2)
    return out


def tensor_swap(t: BarTensor, p: CdgaPresentation) -> BarTensor:
    """tau on the tensor square, with the Koszul sign of the bar degrees."""
    out: BarTensor = {}
    for (w1, w2), c in t.items():
        sign = -1 if (bar_degree(w1, p) * bar_degree(w2, p)) % 2 else 1
        add_term(out, (w2, w1), sign * c)
    return out


def delta_Q(b: BarElement, p: CdgaPresentation) -> BarTensor:
    """The cobracket on indecomposables: (1/2)(red - tau o red), Hain-projected.

    The input must be in the image of the Hain projector; the output is an
    antisymmetric tensor with both legs projected back to indecomposables.
    """
    red = reduced_coproduct(b)
    anti = combine((HALF, red), (-HALF, tensor_swap(red, p)))
    out: BarTensor = {}
    for (w1, w2), c in anti.items():
        for v1, c1 in _hain_word(p, w1):
            for v2, c2 in _hain_word(p, w2):
                add_term(out, (v1, v2), c * c1 * c2)
    return out


def tensor_part(t: BarTensor, shape: tuple[int, int]) -> BarTensor:
    """The component with prescribed tensor degrees on the two legs."""
    return {
        (w1, w2): c
        for (w1, w2), c in t.items()
        if (len(w1), len(w2)) == shape
    }


def wedge_pair(b1: BarElement, b2: BarElement, p: CdgaPresentation) -> BarTensor:
    """b1 ^ b2 in the projector normalization: (1/2)(b1 @ b2 -+ b2 @ b1)."""
    out: BarTensor = {}
    for w1, c1 in b1.items():
        for w2, c2 in b2.items():
            sign = -1 if (bar_degree(w1, p) * bar_degree(w2, p)) % 2 else 1
            add_term(out, (w1, w2), HALF * c1 * c2)
            add_term(out, (w2, w1), -sign * HALF * c1 * c2)
    return out


def pi1(b: BarElement) -> dict:
    """Projection onto tensor degree 1, as a cdga element (dict of monomials)."""
    out: dict = {}
    for word, c in b.items():
        if len(word) == 1:
            add_term(out, word[0], c)
    return out
