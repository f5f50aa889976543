"""Pieces of a symmetrized relator set and the C(p) / T(q) conditions.

A piece is a word occurring as a subword at two or more distinct
positions of the symmetrized relator set (different relator, or
different offset or orientation within one).  C(p) holds when no
relator is a concatenation of fewer than p pieces.  T(q) is reported
as the link girth: every embedded loop in the link has at least q
edges.  (The classical star-graph formulation of T(q) is not computed
separately; the reported value is girth in that operational sense.)

Pieces are found by brute-force subword indexing; relators here are
tiny, so clarity wins over cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complex_link import LinkGraph
from .cycles import girth
from .presentations import Presentation
from .words import CyclicWord, FreeWord

CONDITION_CAP = 12


def symmetrize(p: Presentation) -> tuple[CyclicWord, ...]:
    """Relators closed under inversion, as canonical cyclic words."""
    out = set()
    for r in p.relators:
        out.add(r)
        out.add(r.inverse())
    return tuple(sorted(out))


@dataclass(frozen=True)
class PieceTable:
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


def compute_pieces(p: Presentation) -> PieceTable:
    symmetrized = symmetrize(p)
    positions: dict[tuple, set[tuple[int, int]]] = {}
    for ri, cw in enumerate(symmetrized):
        n = len(cw)
        doubled = cw.letters * 2
        for length in range(1, n + 1):
            for off in range(n):
                key = doubled[off : off + length]
                positions.setdefault(key, set()).add((ri, off))
    piece_keys = {key for key, pos in positions.items() if len(pos) >= 2}
    pieces = tuple(sorted(FreeWord(key) for key in piece_keys))
    max_len = max((len(key) for key in piece_keys), default=0)

    decompositions = {}
    for r in p.relators:
        decompositions[r] = _min_piece_decomposition(r, piece_keys)
    return PieceTable(pieces, max_len, decompositions)


def _min_piece_decomposition(r: CyclicWord, piece_keys: set[tuple]) -> int | None:
    """Fewest pieces concatenating to some rotation of ``r``; None if
    the relator cannot be written as a product of pieces at all."""
    best: int | None = None
    n = len(r)
    doubled = r.letters * 2
    for start in range(n):
        window = doubled[start : start + n]
        dp: list[int | None] = [None] * (n + 1)
        dp[0] = 0
        for j in range(1, n + 1):
            options = [
                dp[i] + 1
                for i in range(j)
                if dp[i] is not None and window[i:j] in piece_keys
            ]
            if options:
                dp[j] = min(options)
        if dp[n] is not None and (best is None or dp[n] < best):
            best = dp[n]
    return best


class SmallCancellation(NamedTuple):
    c_value: int  # largest p with C(p), capped
    t_value: int  # link girth, capped; "T(q)" in the operational sense

    @property
    def satisfies_c3(self) -> bool:
        return self.c_value >= 3

    @property
    def satisfies_t6(self) -> bool:
        return self.t_value >= 6


_UNKNOWN = object()


def check_conditions(
    p: Presentation, link: LinkGraph, link_girth: int | None | object = _UNKNOWN
) -> SmallCancellation:
    """Largest C(p) and T(q) (both capped at 12) for a presentation and
    the link of its complex.

    A caller that already has ``girth(link)[0]`` (None for a forest)
    passes it as ``link_girth`` to save a second search.
    """
    table = compute_pieces(p)
    # An undecomposable relator is never a product of < p pieces, so it
    # contributes no constraint; only decomposable relators bound C(p).
    finite = [n for n in table.decompositions.values() if n is not None]
    c_value = min(min(finite), CONDITION_CAP) if finite else CONDITION_CAP
    g = girth(link)[0] if link_girth is _UNKNOWN else link_girth
    t_value = CONDITION_CAP if g is None else min(g, CONDITION_CAP)
    return SmallCancellation(c_value, t_value)
