"""Free-group words over a named generator alphabet.

A letter pairs a generator name with an exponent of +1 or -1, and a word
is an immutable sequence of letters.  Everything downstream of the
presentation rewriting (link corners, piece tables, curvature reports)
reduces to exact manipulation of these words, so free reduction and the
cyclic canonical form live here.

Words print as space-separated letters with a ``^-1`` suffix for
inverses, e.g. ``x^-1 a b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class RecursiveSubstitutionError(ValueError):
    """The replacement word mentions the generator being replaced."""


class Letter(NamedTuple):
    gen: str
    exp: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.exp)

    def __str__(self) -> str:
        return self.gen if self.exp == 1 else f"{self.gen}^-1"


def _as_letters(letters: Iterable) -> tuple[Letter, ...]:
    out = []
    for item in letters:
        lt = item if isinstance(item, Letter) else Letter(*item)
        if not lt.gen or not isinstance(lt.gen, str):
            raise ValueError(f"generator name must be a non-empty string: {lt!r}")
        if lt.exp not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1: {lt!r}")
        out.append(lt)
    return tuple(out)


def _new(cls, letters: tuple[Letter, ...]):
    """A ``cls`` word of ``letters`` as given, without their checks."""
    w = object.__new__(cls)
    object.__setattr__(w, "letters", letters)
    return w


@dataclass(frozen=True, init=False, repr=False)
class FreeWord:
    """A word in a free group, not necessarily reduced.

    Concatenation (``*``) is plain juxtaposition; call :meth:`reduce`
    for the unique freely reduced form.
    """

    __slots__ = ("letters",)  # not ``slots=True``: that rebuilds the class
    letters: tuple[Letter, ...]

    def __init__(self, letters: Iterable = ()):
        object.__setattr__(self, "letters", _as_letters(letters))

    def __reduce__(self):  # pickle and copy through the constructor
        return FreeWord, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __lt__(self, other: "FreeWord") -> bool:
        return self.letters < other.letters

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return _new(FreeWord, self.letters + other.letters)

    def __pow__(self, n: int) -> "FreeWord":
        if n < 0:
            return self.inverse() ** (-n)
        return _new(FreeWord, self.letters * n)

    def inverse(self) -> "FreeWord":
        return _new(FreeWord, tuple(lt.inverse() for lt in reversed(self.letters)))

    def reduce(self) -> "FreeWord":
        """Unique freely reduced form; never longer than the input."""
        stack: list[Letter] = []
        for lt in self.letters:
            if stack and stack[-1].gen == lt.gen and stack[-1].exp == -lt.exp:
                stack.pop()
            else:
                stack.append(lt)
        return _new(FreeWord, tuple(stack))

    def substitute(self, gen: str, replacement: "FreeWord") -> "FreeWord":
        """Replace every occurrence of ``gen``^±1 by ``replacement``^±1.

        The result is freely reduced.  Raises
        :class:`RecursiveSubstitutionError` if the replacement itself
        mentions ``gen``.
        """
        if any(lt.gen == gen for lt in replacement.letters):
            raise RecursiveSubstitutionError(
                f"replacement for {gen!r} mentions {gen!r}"
            )
        rep_inv = replacement.inverse()
        out: list[Letter] = []
        for lt in self.letters:
            if lt.gen == gen:
                out.extend(replacement.letters if lt.exp == 1 else rep_inv.letters)
            else:
                out.append(lt)
        return FreeWord(out).reduce()

    def cyclic_core(self) -> "FreeWord":
        """Freely reduce, then strip conjugating pairs from the two ends."""
        w = self.reduce().letters
        i, j = 0, len(w)
        while j - i >= 2 and w[i].gen == w[j - 1].gen and w[i].exp == -w[j - 1].exp:
            i += 1
            j -= 1
        return FreeWord(w[i:j])

    def __str__(self) -> str:
        return " ".join(str(lt) for lt in self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({str(self)!r})"


def _least_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    n = len(letters)
    if n == 0:
        return letters
    doubled = letters + letters
    return min(doubled[i : i + n] for i in range(n))


@dataclass(frozen=True, init=False, repr=False)
class CyclicWord:
    """A word read around a circle, e.g. the boundary of a 2-cell.

    The stored representative is cyclically reduced and is the
    lexicographically least rotation, so equality and hashing are
    rotation-invariant and O(1) after construction.
    """

    __slots__ = ("letters",)
    letters: tuple[Letter, ...]

    def __init__(self, word):
        if isinstance(word, CyclicWord):
            core = FreeWord(word.letters)
        elif isinstance(word, FreeWord):
            core = word.cyclic_core()
        else:
            core = FreeWord(word).cyclic_core()
        object.__setattr__(self, "letters", _least_rotation(core.letters))

    def __reduce__(self):
        return CyclicWord, (self.letters,)

    @classmethod
    def _from_cyclically_reduced(cls, letters: tuple[Letter, ...]) -> "CyclicWord":
        # Callers guarantee the letters are already cyclically reduced.
        return _new(cls, _least_rotation(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __lt__(self, other: "CyclicWord") -> bool:
        return self.letters < other.letters

    def inverse(self) -> "CyclicWord":
        return CyclicWord(FreeWord(self.letters).inverse())

    def __str__(self) -> str:
        return " ".join(str(lt) for lt in self.letters)

    def __repr__(self) -> str:
        return f"CyclicWord({str(self)!r})"
