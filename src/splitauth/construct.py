"""Cyclic construction of splitting designs from base blocks over Z_v.

Points are 1..v.  A block is a tuple of u parts, each part a tuple of c
points; the parts of one block are pairwise disjoint.  Development
translates every base block by each element of Z_v and keeps one copy
of each distinct translate (block equality ignores part order and the
order of points inside a part).

A block list is in developed form when it is a concatenation of runs:
every block of a run is the translate by 1 of the one before it, point
for point, and one more translate of its last block gives its first
block back part for part, each part taken as a point set.  Such a list,
as a multiset of blocks with ordered parts, is fixed by x -> x+1, so it
is fixed as a design and as a code: whatever it counts is the same on a
set of points or messages and on every translate of that set, and the
blocks through point 1 decide it; and since translation keeps a block's
shape, its run-first blocks decide :func:`_shape_defects`.  A short
orbit whose closing translate permutes the parts of its block, as the
shift by 2 maps {1}|{3} to {3}|{1} over Z_4, is one orbit of the design
but not a run, so a list holding one takes the whole count.
:func:`developed_runs` detects the form and :func:`through_point_1`
picks the blocks through point 1.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice

from ._record import frozen

Part = tuple[int, ...]
Block = tuple[Part, ...]


def _block_key(block: Block) -> frozenset[frozenset[int]]:
    """Canonical form for block equality: a set of sets of points."""
    return frozenset(frozenset(part) for part in block)


# How shape defects name a block, a part and a point, then their texts for no
# blocks, a first block without parts and a first part without points.
_BLOCK_WORDS = (
    "block", "part", "point", "design has no blocks",
    "block 1 is degenerate: {!r}", "block 1 is degenerate: {!r}",
)


def _shape_defects(
    blocks, v: int, words=_BLOCK_WORDS, u: int | None = None, c: int | None = None
) -> tuple[list[str], int, int]:
    """Defects of blocks that should each be u pairwise-disjoint parts of
    c points from 1..v, and that (c, u).  A given c or u holds every
    block to it; otherwise it is read off the first block.  Blocks that
    all lack a given u by the same part count get one defect for it, once
    they have no other.
    """
    name, part_name, point_name, no_blocks, no_parts, empty_part = words
    if not blocks:
        return [no_blocks], 0, 0
    first = blocks[0]
    if not first or not first[0]:
        return [(empty_part if first else no_parts).format(first)], 0, 0
    parts, size = len(first), c or len(first[0])
    if u is not None and (c or any(len(block) != parts for block in blocks)):
        parts = u
    defects: list[str] = []
    for idx, block in enumerate(blocks, start=1):
        if len(block) != parts:
            defects.append(f"{name} {idx} has {len(block)} {part_name}s, expected {parts}")
            continue
        seen: set[int] = set()
        for part in block:
            if len(part) != size:
                defects.append(
                    f"{name} {idx} has a {part_name} of size {len(part)}, expected {size}"
                )
            for x in part:
                if not 1 <= x <= v:
                    defects.append(f"{name} {idx} uses {point_name} {x} outside 1..{v}")
                elif x in seen:
                    defects.append(f"{name} {idx} repeats {point_name} {x}")
                seen.add(x)
    if not defects and u is not None and parts != u:
        defects.append(f"{name}s have {parts} {part_name}s, expected u={u}")
    return defects, size, parts


@frozen
class BaseBlockFamily:
    """Base blocks to be developed cyclically over Z_v.

    May be empty (developing an empty family gives an empty design).
    Every base block must consist of u pairwise-disjoint parts of c
    points each.
    """

    v: int
    u: int
    c: int
    base_blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        if self.v < 1 or self.u < 1 or self.c < 1:
            raise ValueError("v, u, c must be positive")
        if self.c * self.u > self.v:
            raise ValueError(f"block size c*u={self.c * self.u} exceeds v={self.v}")
        defects = _shape_defects(self.base_blocks, self.v, u=self.u, c=self.c)[0]
        if self.base_blocks and defects:  # each defect begins with "block"
            raise ValueError("base " + defects[0])


@frozen
class SplittingDesign:
    """A concrete splitting design: points 1..v and an explicit block list.

    Blocks form a multiset; duplicates are permitted and count with
    multiplicity.  ``t`` is the intended strength, metadata only --
    nothing is trusted until :func:`splitauth.verify.verify_design`
    confirms it.  ``orbit_lengths`` lists the length of each orbit, in
    base-block order, when the design came from cyclic development.

    The fields are treated as immutable, blocks and parts included:
    ``runs`` and ``shape`` are found once and kept, ``verify_design``
    keeps its result per strength, and ``code_from_design`` hands the
    design it checked to its code as the code's ``design``.
    """

    v: int
    blocks: tuple[Block, ...]
    t: int = 2
    orbit_lengths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError("v must be positive")
        if self.t < 1:
            raise ValueError("t must be positive")

    @property
    def b(self) -> int:
        return len(self.blocks)

    @cached_property
    def runs(self) -> list[tuple[int, int]] | None:
        """The blocks' :func:`developed_runs`, found on first use and kept
        (not a field, so equality, hash and repr do not see it)."""
        return developed_runs(self.blocks, self.v)

    @cached_property
    def shape(self) -> tuple[list[str], int, int]:
        """The blocks' :func:`_shape_defects` and (c, u), found on first
        use and kept like ``runs``.  A list in developed form is checked
        by the first block of each run (see the module docstring); when
        those have a defect, or the list is in no such form, every block
        is, so each defect keeps its text and index."""
        blocks, runs = self.blocks, self.runs
        shape = _shape_defects(blocks if runs is None else [blocks[a] for a, _ in runs], self.v)
        if shape[0] and runs:
            shape = _shape_defects(blocks, self.v)
        return shape


def translate_block(block: Block, j: int, v: int) -> Block:
    """Shift every point of a block by j in Z_v, on points 1..v.

    Part structure and part order are preserved, so developed cells
    keep the wrap-around point order (e.g. (9, 1) rather than (1, 9)).
    """
    return tuple(tuple((x - 1 + j) % v + 1 for x in part) for part in block)


def orbit_of(block: Block, v: int) -> tuple[Block, ...]:
    """All distinct translates of a block of points in 1..v, in
    translation order j = 0, 1, ...

    Two translates are equal when they have the same parts as an
    unordered set of point sets.  The shifts that fix the block form a
    subgroup of Z_v, so the orbit length is the least divisor j of v
    whose translate equals the block, and translates 0..j-1 are the
    distinct ones; the orbit is full when its length is v.  Point x runs
    through x, x+1, ..., v, 1, ..., x-1 as j grows, so the translates are
    these point ranges zipped into parts and the parts into blocks, the
    same tuples :func:`translate_block` gives.
    """
    return _translates(block, v, _period(block, v, _block_key, range(1, v + 1)))


def _translates(block: Block, v: int, length: int) -> tuple[Block, ...]:
    """Translates 0..length-1 of a block, length <= v, as :func:`orbit_of`
    lays them out."""
    parts = (zip(*(chain(range(x, v + 1), range(1, x)) for x in part)) for part in block)
    return tuple(islice(zip(*parts), length))


def _period(block: Block, v: int, key, shifts) -> int | None:
    """The first of ``shifts`` that divides v and whose translate of the
    block has the block's ``key``, or None."""
    own = key(block)
    return next(
        (j for j in shifts if v % j == 0 and key(translate_block(block, j, v)) == own),
        None,
    )


def developed_runs(blocks, v: int) -> list[tuple[int, int]] | None:
    """The runs of a block list in developed form, as (start, length)
    pairs, or None when the list is not in that form.

    Any list of blocks of integer points is taken, shape defects and
    all: an empty list has no runs, and a list with an empty block or
    part, or a point outside 1..v, is not in developed form, since no
    translate gives those back.  Ragged parts and points repeated in a
    block are translated like any other, so a list in developed form
    has the shape of its run-first blocks.  A run closes only when a
    translate gives back its first block part for part, each part as a
    point set, so that every cell of a code maps to its own source; a
    translate that permutes the parts never closes it (see the module
    docstring).  Each run is cut at the least divisor of v whose
    translate closes its first block, so a run that goes round twice is
    two runs.  Every run's last block is checked before any run is
    compared block for block with the translates of its first, so a
    list with a block dropped, or one relabeled or shuffled, is turned
    away after a few block translates.
    """
    b, runs, a = len(blocks), [], 0
    divisors = [j for j in range(1, min(v, b) + 1) if v % j == 0]
    while a < b:
        first = blocks[a]
        length = _period(first, v, lambda block: [*map(frozenset, block)], divisors)
        if (
            length is None
            or a + length > b
            or blocks[a + length - 1] != translate_block(first, length - 1, v)
        ):
            return None
        runs.append((a, length))
        a += length
    if any(blocks[a : a + n] != _translates(blocks[a], v, n) for a, n in runs):
        return None
    return runs


def through_point_1(blocks, v: int, runs) -> list[int]:
    """Indices of the blocks that hold point 1 in developed ``runs``:
    translate j of a run's first block holds it when that block holds
    point 1 - j, for each j below the run's length."""
    return [
        a + j
        for a, length in runs
        for x in chain.from_iterable(blocks[a])
        if (j := (1 - x) % v) < length
    ]


def develop_cyclic(family: BaseBlockFamily) -> SplittingDesign:
    """Develop every base block over Z_v and concatenate the orbits.

    Block order is: all translates of base block 1 for j = 0, 1, ...,
    then base block 2, and so on.  If two base blocks generate the same
    orbit the blocks repeat and count with multiplicity; deciding
    whether that was intended is the verifier's job, not ours.
    """
    orbits = [orbit_of(base, family.v) for base in family.base_blocks]
    return SplittingDesign(
        v=family.v,
        blocks=tuple(block for orbit in orbits for block in orbit),
        orbit_lengths=tuple(map(len, orbits)),
    )


def family_u2(c: int, n: int) -> BaseBlockFamily:
    """Base blocks of a 2-(2c²n+1, (2c²n+1)n, 2c, 1) splitting design.

    v = 2*c^2*n + 1 points and u = 2 parts of size c per block.  Base
    block h (1 <= h <= n) pairs {1, ..., c} with the c-term arithmetic
    progression of step c starting at 2*c^2*h - (2*c^2 - c) + 1.
    """
    if c < 1 or n < 1:
        raise ValueError("c and n must be positive")
    v = 2 * c * c * n + 1
    blocks: list[Block] = []
    for h in range(1, n + 1):
        first = tuple(range(1, c + 1))
        start = 2 * c * c * h - (2 * c * c - c) + 1
        second = tuple(start + i * c for i in range(c))
        blocks.append((first, second))
    return BaseBlockFamily(v=v, u=2, c=c, base_blocks=tuple(blocks))
