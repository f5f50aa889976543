"""Pieces of a symmetrized relator set and the C(p) / T(q) conditions.

A piece is a word occurring as a subword at two or more distinct
positions of the symmetrized relator set (different relator, or
different offset or orientation within one).  C(p) holds when no
relator is a concatenation of fewer than p pieces.  T(q) is reported
as the link girth: every embedded loop in the link has at least q
edges.  (The classical star-graph formulation of T(q) is not computed
separately; the reported value is girth in that operational sense.)

Pieces are counted from the 2-cells of the complex a link was built
from, never from words.  A cell (h, u, v) stands for h^-1 u v and its
inverse v^-1 u^-1 h, so the symmetrized set has exactly 6 positions
per cell: cells are distinct (two equal cells are parallel link
edges), and no length-3 relator with one inverted letter
is a proper power or the inverse of another.  A length-2 subword l1 l2
is a corner of a cell, naming the link edge from the terminal end of
l1 to the initial end of l2; read backwards it is another word,
l2^-1 l1^-1.  So a length-2 piece is two corners with the same ends, a
parallel edge that ``build_link`` refuses, and a longer piece starts
with one.  Every piece is therefore one letter (the star graph of
Lyndon and Schupp, *Combinatorial Group Theory*, V.2): g and g^-1 are
pieces when g occurs twice among the cells.  A relator is a product of
3 pieces when its three letters are pieces, and of none otherwise.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

from .complex_link import LinkGraph
from .errors import InternalInconsistencyError
from .presentations import Presentation
from .words import CyclicWord, FreeWord

CONDITION_CAP = 12


class PieceTable(NamedTuple):
    pieces: tuple[FreeWord, ...]
    max_piece_len: int
    decompositions: dict[CyclicWord, int | None]  # min piece count per relator

    def to_text(self) -> str:
        lines = [f"max piece length: {self.max_piece_len}"]
        for w in self.pieces:
            lines.append(f"piece: {w}")
        for r in sorted(self.decompositions):
            n = self.decompositions[r]
            lines.append(f"relator {r}: {n if n is not None else 'no'} pieces")
        return "\n".join(lines) + "\n"


def _occurrences(link: LinkGraph) -> tuple[Presentation, Counter]:
    """The presentation of ``link`` and how often each generator id
    occurs among its cells.

    ``link`` must be built from cells, so that its parallel-edge check
    has ruled out pieces longer than one letter.
    """
    pres = link.complex
    if pres is None:
        raise InternalInconsistencyError(f"{link!r} is not built from cells")
    return pres, Counter(chain.from_iterable(pres.cells))


def compute_pieces(link: LinkGraph) -> PieceTable:
    """The pieces of the presentation of ``link``, sorted, and per
    relator the fewest pieces it is a product of (None if it is none)."""
    pres, occ = _occurrences(link)
    gens = pres.generators
    pieces = sorted(
        FreeWord([(gens[g], e)]) for g, n in occ.items() if n > 1 for e in (1, -1)
    )
    decompositions = {
        r: 3 if all(occ[g] > 1 for g in cell) else None
        for r, cell in zip(pres.relators, pres.cells)
    }
    return PieceTable(tuple(pieces), 1 if pieces else 0, decompositions)


class SmallCancellation(NamedTuple):
    c_value: int  # largest p with C(p), capped
    t_value: int  # link girth, capped; "T(q)" in the operational sense


def check_conditions(link: LinkGraph, link_girth: int | None) -> SmallCancellation:
    """Largest C(p) and T(q) (both capped at 12) for the triangular
    presentation whose cells ``link`` was built from, and the link's
    girth ``girth(link)[0]`` (None for a forest).

    Raises :class:`InternalInconsistencyError` for a link not built from
    cells.
    """
    pres, occ = _occurrences(link)
    # A relator of three pieces bounds C(p) by 3; one with a letter that
    # is no piece is no product of pieces and bounds nothing.
    splits = any(occ[h] > 1 and occ[u] > 1 and occ[v] > 1 for h, u, v in pres.cells)
    c_value = 3 if splits else CONDITION_CAP
    t_value = CONDITION_CAP if link_girth is None else min(link_girth, CONDITION_CAP)
    return SmallCancellation(c_value, t_value)
