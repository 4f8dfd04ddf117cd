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
from dataclasses import dataclass
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
    validated homomorphism, BasisState.channel_tuple rewrites it by basis
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
    for a in (*ximg, *yimg):
        if not 0 <= a < target.order:
            raise ValueError(f"image {a} out of range for order {target.order}")
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
    f = hom.map
    return SurfaceTuple(
        hom.codomain,
        t.genus,
        tuple(f[a] for a in t.ximg),
        tuple(f[a] for a in t.yimg),
    )


def pigeonhole_select(
    pairs: Sequence[tuple[int, int]], multiplicity: int
) -> list[int]:
    """First positions (1-based) of the lexicographically smallest value pair
    attaining the requested multiplicity."""
    if multiplicity < 1:
        raise ValueError("multiplicity must be positive")
    counts: dict[tuple[int, int], list[int]] = {}
    for pos, pair in enumerate(pairs, start=1):
        counts.setdefault(tuple(pair), []).append(pos)
    winners = sorted(p for p, ps in counts.items() if len(ps) >= multiplicity)
    if not winners:
        raise NoRepeatedPair(multiplicity)
    return counts[winners[0]][:multiplicity]


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

    slots[p - 1][ch] is the (x, y) image pair of basis position p under
    tracked channel ch.  The defining words of the slots in the original
    basis are not stored: basis_words derives them from the move program
    when a caller asks for them.
    """

    genus: int
    originals: tuple[SurfaceTuple, ...]
    slots: tuple[tuple[tuple[int, int], ...], ...]

    def channel_tuple(self, channel: int) -> SurfaceTuple:
        """The images of the current basis under channel.  The relation is
        not checked again: the moves are automorphisms of the surface group,
        so the tuple is the checked original composed with one."""
        return SurfaceTuple(
            self.originals[channel].target,
            self.genus,
            tuple(slot[channel][0] for slot in self.slots),
            tuple(slot[channel][1] for slot in self.slots),
        )


def initial_basis_state(channels: Sequence[SurfaceTuple]) -> BasisState:
    if not channels:
        raise ValueError("need at least one channel")
    g = channels[0].genus
    if any(c.genus != g for c in channels):
        raise ValueError("all channels must share the same genus")
    slots = tuple(zip(*(zip(c.ximg, c.yimg) for c in channels)))
    return BasisState(g, tuple(channels), slots)


def _move_program(genus: int, positions: list[int]) -> list[tuple[int, int]]:
    """The pigeonhole moves as (source position, a) per new slot, in order.

    The selected positions come first, then the others in their original
    order; a slot's conjugator is the suffix product c_{a+1} ... c_m of the
    selected commutators, so a = m (the empty product) leaves it untouched.
    """
    if positions != sorted(set(positions)):
        raise ValueError("positions must be strictly increasing")
    if positions and (positions[-1] > genus or positions[0] < 1):
        raise PositionOutOfRange(positions[-1], positions[0], genus)
    m = len(positions)
    selected = set(positions)
    program = [(j, m) for j in positions]
    a = 0  # selected positions seen so far
    for p in range(1, genus + 1):
        if p in selected:
            a += 1
        else:
            program.append((p, a))
    return program


def normalize_to_front(state: BasisState, positions: Sequence[int]) -> BasisState:
    """Move the given (strictly increasing) positions to the leading slots.

    Equivalent to moving the pair at j_t to slot t for t = 1..m in ascending
    order, where every later source is still at its starting position and
    already-placed slots are never conjugated again.  Computed in one pass
    on the channel values: the slot at a non-selected position p picks up
    exactly the conjugators c_t of the moves whose source lies beyond p, in
    ascending order, so its total conjugator is the suffix product
    c_{a+1} c_{a+2} ... c_m with a the number of selected positions below p.
    """
    positions = list(positions)
    program = _move_program(state.genus, positions)
    m = len(positions)
    if not m:
        return state
    targets = [t.target for t in state.originals]
    tables = [(g.mul, g.inv) for g in targets]
    slots = state.slots

    # suffix[t][ch] = c_{t+1} * ... * c_m in channel ch; suffix[m] is empty;
    # c = [x, y] = x^-1 y^-1 x y
    suffix = [tuple(g.identity for g in targets)] * (m + 1)
    for t in range(m - 1, -1, -1):
        pairs = slots[positions[t] - 1]
        suffix[t] = tuple(
            mul[mul[mul[mul[inv[x]][inv[y]]][x]][y]][st]
            for (mul, inv), (x, y), st in zip(tables, pairs, suffix[t + 1])
        )

    # x^C = C^-1 x C; conj[a][ch] is (table, row of C^-1, C) for C = suffix[a]
    conj = [
        tuple((mul, mul[inv[c]], c) for (mul, inv), c in zip(tables, cs))
        for cs in suffix
    ]
    new_slots = []
    for p, a in program:
        slot = slots[p - 1]
        if a < m:
            slot = tuple(
                (mul[left[x]][c], mul[left[y]][c])
                for (mul, left, c), (x, y) in zip(conj[a], slot)
            )
        new_slots.append(slot)
    return BasisState(state.genus, state.originals, tuple(new_slots))


def basis_words(
    genus: int, positions: Sequence[int]
) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """The defining words, in the original basis, of the basis that
    normalize_to_front(initial_basis_state(...), positions) produces.

    One symbolic expansion of the move program: the commutator words of the
    selected pairs, their shared suffix products C_a = c_{a+1} ... c_m, and
    C_a^-1 x_p C_a, C_a^-1 y_p C_a for each slot.
    """
    positions = list(positions)
    program = _move_program(genus, positions)
    m = len(positions)
    suffix = [Word()] * (m + 1)
    for t in range(m - 1, -1, -1):
        j = positions[t]
        suffix[t] = commutator_word(word_x(j), word_y(j)) * suffix[t + 1]
    inverses = [w.inverse() for w in suffix]
    x_words, y_words = [], []
    for p, a in program:
        x_words.append(inverses[a] * word_x(p) * suffix[a])
        y_words.append(inverses[a] * word_y(p) * suffix[a])
    return tuple(x_words), tuple(y_words)
