"""Packed exponent words, shared by standard pairs and the Groebner kernel.

A layout ``Words(n, w)`` packs an exponent vector u of Q[x_1..x_n] into
one int, the sum of u_i << (i * F), with fields of F = w + 1 bits: w data
bits under one guard bit, x_1 in the lowest field. With H the mask of
the guard bits (``guards``) and every field of u and v below 2^w:

* x^g divides x^v iff ((v | H) - g) & H == H: a field of v | H minus
  the same field of g keeps its guard bit iff v_i >= g_i, and no field
  borrows from the next;
* lcm(u, v) takes the fields of u where (u | H) - v keeps its guard,
  and the fields of v elsewhere (``lcm``);
* the product x^u x^v is u + v, exact unless some u_i + v_i reaches 2^w,
  and then that field's guard bit is set: (u + v) & H is nonzero exactly
  when the sum has left the layout;
* the quotient x^v / x^g for x^g | x^v is v - g;
* a proper divisor is a smaller int.

A module term of the Groebner kernel is one int too, ``term``: the word,
above it (from bit n * F, ``top``) the total degree in a field of
``span`` bits, which holds the degree of every word of the layout, and
above that (from bit ``ctop``) the component. A product or quotient of
terms of one component is still one addition or subtraction, the
degree field adding up with the words; the component is out of reach of
both. Only an lcm leaves the degree field to be filled in.

A ``VecPoly`` holds the terms of one element of a free module and their
layout. A term that does not fit a layout raises ``WordOverflow``;
``widening`` runs a computation on vecdicts repacked into one layout,
twice as wide again after each overflow.
"""

from __future__ import annotations

from operator import lshift, mul
from typing import Callable, Iterable, Sequence

Exps = tuple[int, ...]

# the least number of data bits a fitted layout gets: 8-bit fields hold
# every exponent below 128, so small inputs all share one layout
_MIN_WIDTH = 7


class WordOverflow(Exception):
    """An exponent left the layout: some field reached 2^width."""


class Words:
    """The layout of ``nvars`` fields of ``width`` data bits and one guard
    bit each; two layouts are equal when both numbers are."""

    __slots__ = (
        "nvars", "width", "bits", "top", "shifts", "low", "mask", "guards", "data", "span", "ctop",
        "body",
    )

    def __init__(self, nvars: int, width: int) -> None:
        self.nvars = nvars
        self.width = width
        self.bits = bits = width + 1
        self.top = top = nvars * bits
        self.shifts = tuple(range(0, top, bits))
        self.low = (1 << width) - 1
        self.mask = (1 << top) - 1
        # the int with a one at the bottom of every field
        ones = self.mask // ((1 << bits) - 1)
        self.guards = ones << width
        self.data = ones * self.low
        # a total degree is below nvars * 2^width <= 2^span
        self.span = width + nvars.bit_length()
        self.ctop = top + self.span
        self.body = (1 << self.ctop) - 1

    @classmethod
    def fit(cls, nvars: int, largest: int) -> "Words":
        """A layout for exponents up to ``largest``, with one bit to spare
        and at least ``_MIN_WIDTH`` data bits."""
        return cls(nvars, max(_MIN_WIDTH, largest.bit_length() + 1))

    def wider(self) -> "Words":
        """The layout with twice the data bits."""
        return Words(self.nvars, 2 * max(self.width, 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Words):
            return NotImplemented
        return self.width == other.width and self.nvars == other.nvars

    def __hash__(self) -> int:
        return hash((self.nvars, self.width))

    def __repr__(self) -> str:
        return f"Words({self.nvars}, {self.width})"

    def pack(self, exps: Sequence[int]) -> int:
        """The word of an exponent vector whose entries are below 2^width."""
        return sum(map(lshift, exps, self.shifts))

    def unpack(self, word: int) -> Exps:
        """The exponent vector of a word."""
        return tuple(map(self.low.__and__, map(word.__rshift__, self.shifts)))

    def term(self, comp: int, exps: Sequence[int]) -> int:
        """The module term x^exps e_comp."""
        return comp << self.ctop | sum(exps) << self.top | sum(map(lshift, exps, self.shifts))

    def repack(self, t: int, words: "Words") -> int:
        """The term t of this layout as a term of ``words``."""
        e = self.unpack(t & self.mask)
        if max(e, default=0) > words.low:
            raise WordOverflow
        return words.term(t >> self.ctop, e)

    @property
    def degree(self) -> Callable[[int], int]:
        """The total degree of a word: the form with every weight 1."""
        return self.form((1,) * self.nvars)

    def form(self, weights: Sequence[int]) -> Callable[[int], int]:
        """The linear form word -> sum of weights[i] * e_i."""
        weights, shifts, low = tuple(weights), self.shifts, self.low
        return lambda word: sum(map(mul, weights, map(low.__and__, map(word.__rshift__, shifts))))


class VecPoly(dict):
    """An element of a free module R^t, packed: module term -> nonzero
    coefficient, with the layout ``words`` of its terms."""

    __slots__ = ("words",)

    def __init__(self, words: Words, terms=()) -> None:
        super().__init__(terms)
        self.words = words


def common_layout(vecs: Iterable[dict], nvars: int = 0) -> Words:
    """The widest layout of the nonempty vecdicts, all over one ring; a
    fitted one over ``nvars`` variables when there is none."""
    widest = max((v.words for v in vecs if v), key=lambda w: w.width, default=None)
    return widest or Words.fit(nvars, 0)


def vec_repack(v: dict, words: Words) -> dict:
    """v with its terms packed in ``words``."""
    if not v or v.words is words or v.words == words:
        return v
    repack = v.words.repack
    return VecPoly(words, {repack(t, words): c for t, c in v.items()})


def widening(run: Callable, *modules: Sequence[dict], nvars: int = 0):
    """run(words, *modules) with every module repacked into their widest
    layout, repacked twice as wide and run again on a WordOverflow."""
    words = common_layout((v for m in modules for v in m), nvars)
    while True:
        try:
            return run(words, *([vec_repack(v, words) for v in m] for m in modules))
        except WordOverflow:
            words = words.wider()


def lcm(a: int, b: int, guards: int, width: int) -> int:
    """The field-wise maximum of two words of one layout."""
    # fields where a >= b, widened from their guard bits to their data bits
    ge = ((a | guards) - b) & guards
    return b ^ ((a ^ b) & (ge - (ge >> width)))


def in_ideal(word: int, gens: Sequence[int], guards: int) -> bool:
    """Does some word of ``gens`` divide ``word``?"""
    wg = word | guards
    for g in gens:
        if (wg - g) & guards == guards:
            return True
    return False


def minimal_words(words: Sequence[int], guards: int) -> list[int]:
    """Inclusion-minimal words, deduplicated, in increasing order. A proper
    divisor is a smaller int, so each word needs testing only against the
    words already kept."""
    kept: list[int] = []
    for v in sorted(set(words)):
        if not in_ideal(v, kept, guards):
            kept.append(v)
    return kept
