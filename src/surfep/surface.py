"""Genus-g surface maps into finite groups.

A homomorphism from the group <x_1..x_g, y_1..y_g | prod [x_i, y_i] = 1> to a
finite group is just the 2g images, provided the single relation holds; this
module evaluates words in the generators, selects repeated image pairs, and
rewrites the generating tuple by the conjugation moves used when pulling a
pair to the front of the relation.

Conventions: [a, b] = a^-1 b^-1 a b, products evaluated left to right, and
generator positions are 1-based throughout the public API.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import eq
from typing import Iterable, Sequence

from .errors import (
    GenusTooSmall,
    IndexOutOfRange,
    NoRepeatedPair,
    PositionOutOfRange,
    RelationViolated,
)
from .groups import FiniteGroup, GroupHom, SubgroupHandle, subgroup_closure


# --- words in the generators --------------------------------------------------

Factor = tuple[str, int, int]  # (kind 'x' or 'y', 1-based index, nonzero exponent)

_FACTOR_RE = re.compile(r"^([xy])(\d+)(?:\^(-?\d+))?$")


def _normalize(factors: Iterable[Factor]) -> tuple[Factor, ...]:
    # merge adjacent factors on the same symbol, drop zero exponents;
    # no free reduction beyond that
    out: list[Factor] = []
    for kind, idx, exp in factors:
        if exp == 0:
            continue
        if out and out[-1][0] == kind and out[-1][1] == idx:
            merged = out[-1][2] + exp
            out.pop()
            if merged != 0:
                out.append((kind, idx, merged))
        else:
            out.append((kind, idx, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A word in the surface generators, as (symbol, exponent) factors."""

    factors: tuple[Factor, ...] = ()

    def __mul__(self, other: "Word") -> "Word":
        return Word(_normalize(self.factors + other.factors))

    def inverse(self) -> "Word":
        return Word(tuple((k, i, -e) for k, i, e in reversed(self.factors)))

    def conjugated_by(self, c: "Word") -> "Word":
        return c.inverse() * self * c

    def max_index(self) -> int:
        return max((i for _, i, _ in self.factors), default=0)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for kind, idx, exp in self.factors:
            parts.append(f"{kind}{idx}" if exp == 1 else f"{kind}{idx}^{exp}")
        return " ".join(parts)


def word_x(i: int, exp: int = 1) -> Word:
    return Word(_normalize([("x", i, exp)]))


def word_y(i: int, exp: int = 1) -> Word:
    return Word(_normalize([("y", i, exp)]))


def commutator_word(a: Word, b: Word) -> Word:
    return a.inverse() * b.inverse() * a * b


def parse_word(text: str) -> Word:
    """Parse "x1^-1 x14 y2^3" (whitespace-separated factors; "1" is empty)."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    factors = []
    for token in text.split():
        m = _FACTOR_RE.match(token)
        if not m:
            raise ValueError(f"bad word factor {token!r}")
        kind, idx, exp = m.group(1), int(m.group(2)), m.group(3)
        if idx < 1:
            raise ValueError(f"generator index must be >= 1 in {token!r}")
        factors.append((kind, idx, 1 if exp is None else int(exp)))
    return Word(_normalize(factors))


def expand_word(
    word: Word, x_words: Sequence[Word], y_words: Sequence[Word]
) -> Word:
    """Substitute each generator by its defining word (both lists 1-based
    via position: x_words[i-1] stands for x_i)."""
    out = Word()
    for kind, idx, exp in word.factors:
        base = x_words[idx - 1] if kind == "x" else y_words[idx - 1]
        piece = base if exp > 0 else base.inverse()
        for _ in range(abs(exp)):
            out = out * piece
    return out


def identity_basis_words(genus: int) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    return (
        tuple(word_x(i) for i in range(1, genus + 1)),
        tuple(word_y(i) for i in range(1, genus + 1)),
    )


# --- surface tuples ------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceTuple:
    """Images of a genus-g surface basis in a finite group.

    Tuples read from input (beta_bar and nu of a workspace problem, the
    oracle's samples, the free-product restriction) are built through
    make_surface_tuple, which checks the defining relation.  Tuples derived
    from a checked one are built directly: map_tuple pushes it through a
    validated homomorphism, normalize_to_front rewrites it by basis
    moves, which are automorphisms of the surface group, and
    solver.eta_construct keeps each block's commutator power trivial.  Each
    of these keeps the relation, and verify_solution checks it once more on
    the final phi.
    """

    target: FiniteGroup
    genus: int
    ximg: tuple[int, ...]
    yimg: tuple[int, ...]

    def x(self, i: int) -> int:
        if not 1 <= i <= self.genus:
            raise IndexOutOfRange(i, self.genus)
        return self.ximg[i - 1]

    def y(self, i: int) -> int:
        if not 1 <= i <= self.genus:
            raise IndexOutOfRange(i, self.genus)
        return self.yimg[i - 1]


def relation_value(
    target: FiniteGroup, ximg: Sequence[int], yimg: Sequence[int]
) -> int:
    # acc * [a, b] = acc a^-1 b^-1 a b, one table lookup per factor
    mul, inv = target.mul, target.inv
    acc = target.identity
    for a, b in zip(ximg, yimg):
        acc = mul[mul[mul[mul[acc][inv[a]]][inv[b]]][a]][b]
    return acc


def make_surface_tuple(
    target: FiniteGroup, ximg: Sequence[int], yimg: Sequence[int]
) -> SurfaceTuple:
    g = len(ximg)
    if g < 1 or len(yimg) != g:
        raise ValueError("need equal-length nonempty image lists")
    n = target.order
    if not (0 <= min(min(ximg), min(yimg)) and max(max(ximg), max(yimg)) < n):
        bad = next(a for a in (*ximg, *yimg) if not 0 <= a < n)
        raise ValueError(f"image {bad} out of range for order {n}")
    value = relation_value(target, ximg, yimg)
    if value != target.identity:
        raise RelationViolated(value)
    return SurfaceTuple(target, g, tuple(ximg), tuple(yimg))


def evaluate_word(t: SurfaceTuple, word: Word) -> int:
    acc = t.target.identity
    for kind, idx, exp in word.factors:
        if not 1 <= idx <= t.genus:
            raise IndexOutOfRange(idx, t.genus)
        base = t.ximg[idx - 1] if kind == "x" else t.yimg[idx - 1]
        acc = t.target.mul[acc][t.target.power(base, exp)]
    return acc


def tuple_image(t: SurfaceTuple) -> SubgroupHandle:
    return subgroup_closure(t.target, [*t.ximg, *t.yimg])


def map_tuple(hom: GroupHom, t: SurfaceTuple) -> SurfaceTuple:
    """Push a surface tuple through a homomorphism.

    The relation is not checked again: a homomorphism sends the product of
    commutators of t, which is the identity, to that of the image."""
    if hom.domain != t.target:
        raise ValueError("homomorphism domain does not match tuple target")
    f = hom.map.__getitem__
    return SurfaceTuple(
        hom.codomain, t.genus, tuple(map(f, t.ximg)), tuple(map(f, t.yimg))
    )


def repeated_pair(
    pairs: Iterable[tuple[int, int]], multiplicity: int
) -> tuple[int, int]:
    """The lexicographically smallest value pair occurring at least
    multiplicity times among pairs (NoRepeatedPair if none does)."""
    if multiplicity < 1:
        raise ValueError("multiplicity must be positive")
    winners = [p for p, c in Counter(pairs).items() if c >= multiplicity]
    if not winners:
        raise NoRepeatedPair(multiplicity)
    return min(winners)


def pair_positions(
    pairs: Iterable[tuple[int, int]], pair: tuple[int, int]
) -> list[int]:
    """The 1-based positions at which pairs holds pair."""
    return list(compress(count(1), map(eq, pairs, repeat(pair))))


def pigeonhole_select(
    pairs: Sequence[tuple[int, int]], multiplicity: int
) -> list[int]:
    """First positions (1-based) of the lexicographically smallest value pair
    attaining the requested multiplicity: repeated_pair, then the first
    multiplicity of its pair_positions."""
    keys = list(map(tuple, pairs))
    return pair_positions(keys, repeated_pair(keys, multiplicity))[:multiplicity]


def open_subgroup_genus(g: int, index: int) -> int:
    """Genus of an index-`index` open subgroup of a genus-g surface group."""
    if g < 2:
        raise GenusTooSmall(2, g)
    if index < 1:
        raise ValueError("index must be positive")
    return index * (g - 1) + 1


# --- basis rewriting ------------------------------------------------------------

@dataclass(frozen=True)
class BasisState:
    """A surface basis tracked through conjugation moves, by values only.

    channels[ch] is the current basis read through tracked channel ch: one
    SurfaceTuple of flat x and y image lists, the same channel as
    originals[ch] composed with the moves.  The defining words of the
    current basis in the original one are not stored: basis_words derives
    them from the move program when a caller asks for them.
    """

    genus: int
    originals: tuple[SurfaceTuple, ...]
    channels: tuple[SurfaceTuple, ...]

    @property
    def slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """slots[p - 1][ch] is the (x, y) image pair of basis position p
        under channel ch, derived from channels."""
        return tuple(zip(*(zip(c.ximg, c.yimg) for c in self.channels)))

    def channel_tuple(self, channel: int) -> SurfaceTuple:
        """The images of the current basis under channel.  The relation is
        not checked again: the moves are automorphisms of the surface group,
        so the tuple is the checked original composed with one."""
        return self.channels[channel]


def initial_basis_state(channels: Sequence[SurfaceTuple]) -> BasisState:
    if not channels:
        raise ValueError("need at least one channel")
    g = channels[0].genus
    if any(c.genus != g for c in channels):
        raise ValueError("all channels must share the same genus")
    return BasisState(g, tuple(channels), tuple(channels))


def _checked_positions(genus: int, positions: Sequence[int]) -> list[int]:
    """positions as a list, once they are strictly increasing and lie in
    1..genus."""
    positions = list(positions)
    if positions != sorted(set(positions)):
        raise ValueError("positions must be strictly increasing")
    if positions and (positions[-1] > genus or positions[0] < 1):
        raise PositionOutOfRange(positions[-1], positions[0], genus)
    return positions


def _runs(genus: int, positions: list[int]) -> Iterable[tuple[int, int, int]]:
    """(a, lo, hi) for each run of unmoved positions, 0-based: run a is the
    slice lo:hi between the a-th and the (a+1)-th of the checked positions,
    and its conjugator is c_{a+1} ... c_m."""
    edges = [0, *positions, genus + 1]
    for a in range(len(positions) + 1):
        yield a, edges[a], edges[a + 1] - 1


def _moved_channel(t: SurfaceTuple, positions: list[int]) -> SurfaceTuple:
    """t read on the basis normalize_to_front produces: the moved entries,
    then each run of unmoved ones in order (_runs).

    A run whose conjugator C is 1 is copied as one slice; any other run is
    conjugated entry by entry, z -> C^-1 z C.
    """
    grp = t.target
    mul, inv, e = grp.mul, grp.inv, grp.identity
    xs, ys = t.ximg, t.yimg
    m = len(positions)
    # suffix[a] = c_{a+1} * ... * c_m; c = [x, y] = x^-1 y^-1 x y
    suffix = [e] * (m + 1)
    c = e
    for a in range(m - 1, -1, -1):
        x, y = xs[positions[a] - 1], ys[positions[a] - 1]
        c = suffix[a] = mul[mul[mul[mul[inv[x]][inv[y]]][x]][y]][c]
    front = [j - 1 for j in positions]
    new_x = list(map(xs.__getitem__, front))
    new_y = list(map(ys.__getitem__, front))
    for a, lo, hi in _runs(t.genus, positions):
        c = suffix[a]
        if c == e:
            new_x.extend(xs[lo:hi])
            new_y.extend(ys[lo:hi])
        else:
            left = mul[inv[c]]
            new_x.extend([mul[left[z]][c] for z in xs[lo:hi]])
            new_y.extend([mul[left[z]][c] for z in ys[lo:hi]])
    return SurfaceTuple(grp, t.genus, tuple(new_x), tuple(new_y))


def normalize_to_front(state: BasisState, positions: Sequence[int]) -> BasisState:
    """Move the given (strictly increasing) positions to the leading slots.

    Equivalent to moving the pair at j_t to slot t for t = 1..m in ascending
    order, where every later source is still at its starting position and
    already-placed slots are never conjugated again.  The slot at an
    unmoved position p picks up exactly the conjugators c_t of the moves
    whose source lies beyond p, in ascending order, so its total conjugator
    is the suffix product c_{a+1} c_{a+2} ... c_m with a the number of
    moved positions below p.  That is one conjugator per run of unmoved
    positions between two moved ones: each channel's image lists are
    rebuilt from the moved entries and then one slice per run, copied when
    its conjugator is 1 (_moved_channel), after a loop over the m suffix
    products.
    """
    positions = _checked_positions(state.genus, positions)
    if not positions:
        return state
    channels = tuple(_moved_channel(t, positions) for t in state.channels)
    return BasisState(state.genus, state.originals, channels)


def basis_words(
    genus: int, positions: Sequence[int]
) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """The defining words, in the original basis, of the basis that
    normalize_to_front(initial_basis_state(...), positions) produces.

    One symbolic expansion of the move program: the commutator words of the
    selected pairs, their shared suffix products C_a = c_{a+1} ... c_m, and
    C_a^-1 x_p C_a, C_a^-1 y_p C_a for each unmoved position p of run a.
    """
    positions = _checked_positions(genus, positions)
    m = len(positions)
    suffix = [Word()] * (m + 1)
    for t in range(m - 1, -1, -1):
        j = positions[t]
        suffix[t] = commutator_word(word_x(j), word_y(j)) * suffix[t + 1]
    x_words = [word_x(j) for j in positions]
    y_words = [word_y(j) for j in positions]
    for a, lo, hi in _runs(genus, positions):
        c = suffix[a]
        c_inv = c.inverse()
        for p in range(lo + 1, hi + 1):
            x_words.append(c_inv * word_x(p) * c)
            y_words.append(c_inv * word_y(p) * c)
    return tuple(x_words), tuple(y_words)
