import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinlink import CyclicWord, FreeWord, Letter, RecursiveSubstitutionError

W = FreeWord.parse


def test_reduce_single_cancellation():
    assert W("a a^-1").reduce() == W("")
    assert W("a b b^-1 a").reduce() == W("a a")


def test_reduce_cascading():
    assert W("a b c c^-1 b^-1 a").reduce() == W("a a")


def test_reduce_ten_letter_concatenation():
    # u * v^-1 with u = a1 a2 a1 a2 a1 and v = a1 a1 a2 a1 a2: no letter
    # cancels at the seam, so the reduced form is the concatenation itself.
    w = W("a1 a2 a1 a2 a1") * W("a1 a1 a2 a1 a2").inverse()
    reduced = w.reduce()
    assert len(reduced) == 10
    assert reduced == W("a1 a2 a1 a2 a1 a2^-1 a1^-1 a2^-1 a1^-1 a1^-1")


def test_reduce_never_lengthens():
    w = W("a b^-1 b a^-1 a")
    assert len(w.reduce()) <= len(w)


def test_substitute_hub_into_chain_relator():
    # x x a1 x^-1 x^-1 a1^-1 under x -> a1 a2, then cyclic reduction,
    # is the standard four-letter relator read backwards.
    w = W("x x a1 x^-1 x^-1 a1^-1")
    out = w.substitute("x", W("a1 a2"))
    assert out == W("a1 a2 a1 a2 a1 a2^-1 a1^-1 a2^-1 a1^-1 a1^-1")
    assert out.cyclic_core() == W("a2 a1 a2 a1 a2^-1 a1^-1 a2^-1 a1^-1")
    standard = W("a1 a2 a1 a2") * W("a2 a1 a2 a1").inverse()
    assert CyclicWord(out) == CyclicWord(standard.inverse())


def test_substitute_single_letter():
    assert W("g").substitute("g", W("h")) == W("h")


def test_substitute_absent_generator_is_identity():
    w = W("a b a^-1")
    assert w.substitute("g", W("h")) == w


def test_substitute_rejects_recursion():
    with pytest.raises(RecursiveSubstitutionError):
        W("g").substitute("g", W("a g"))


def test_word_serialization_round_trip():
    w = W("x^-1 a b")
    assert str(w) == "x^-1 a b"
    assert FreeWord.parse(str(w)) == w


def test_free_word_iterates_and_indexes_its_letters():
    w = W("a b^-1 c")
    assert list(w) == [Letter("a", 1), Letter("b", -1), Letter("c", 1)]
    assert w[1] == Letter("b", -1) and w[-1] == Letter("c", 1)
    assert w[:2] == (Letter("a", 1), Letter("b", -1))


def test_cyclic_word_of_a_cyclic_word_is_equal():
    c = CyclicWord(W("b x^-1 a"))
    again = CyclicWord(c)
    assert again == c and again.letters == c.letters


def test_cyclic_word_rotation_invariance():
    c1 = CyclicWord(W("x^-1 a b"))
    c2 = CyclicWord(W("a b x^-1"))
    c3 = CyclicWord(W("b x^-1 a"))
    assert c1 == c2 == c3
    assert len({c1, c2, c3}) == 1


def test_cyclic_word_cyclically_reduces():
    assert CyclicWord(W("a b a^-1")) == CyclicWord(W("b"))


def test_cyclic_word_not_equal_to_inverse():
    c = CyclicWord(W("x^-1 a b"))
    assert c != c.inverse()


letters = st.sampled_from(
    [Letter(g, e) for g in ("a", "b", "c") for e in (1, -1)]
)
words = st.lists(letters, max_size=12).map(FreeWord)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(words)
def test_reduce_is_idempotent(w):
    assert w.reduce().reduce() == w.reduce()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(words)
def test_word_times_inverse_reduces_to_identity(w):
    assert (w * w.inverse()).reduce() == FreeWord()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(words, words)
def test_substitute_commutes_with_concatenation(u, v):
    rep = W("b c^-1")
    lhs = (u * v).substitute("a", rep)
    rhs = (u.substitute("a", rep) * v.substitute("a", rep)).reduce()
    assert lhs == rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(words, st.integers(min_value=0, max_value=11))
def test_cyclic_word_equal_under_any_rotation(w, k):
    core = w.cyclic_core()
    if not core:
        return
    k %= len(core)
    rotated = FreeWord(core.letters[k:] + core.letters[:k])
    assert CyclicWord(rotated) == CyclicWord(core)


def test_letter_validation():
    with pytest.raises(ValueError):
        FreeWord([("a", 2)])
    with pytest.raises(ValueError):
        FreeWord([("", 1)])


def _text(letters):
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in letters)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(words, words, st.integers(min_value=-2, max_value=2))
def test_words_are_values_of_their_letters(u, v, n):
    core = (u * v).cyclic_core()
    free = [u, v, core, u * v, u**n, u.inverse(), ~v, (u * u.inverse()).reduce()]
    cyclic = [
        CyclicWord(u),
        CyclicWord(core),
        CyclicWord._from_cyclically_reduced(core.letters),
        CyclicWord(v).inverse(),
    ]
    for kind, built in ((FreeWord, free), (CyclicWord, cyclic)):
        for x in built:
            for y in built:
                assert (x == y) == (x.letters == y.letters)
                assert x != y or hash(x) == hash(y)
            if kind is FreeWord:  # the fast paths against the constructor
                assert x == FreeWord(x.letters) and hash(x) == hash(FreeWord(x.letters))
            else:
                assert x != FreeWord(x.letters) and FreeWord(x.letters) != x
            with pytest.raises(AttributeError):
                x.letters = ()
            assert bool(x) == bool(x.letters)
            assert str(x) == _text(x.letters)
            assert repr(x) == f"{kind.__name__}({_text(x.letters)!r})"
        assert [x.letters for x in sorted(built)] == sorted(x.letters for x in built)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(words)
def test_words_pickle_and_copy_through_their_constructor(w):
    import copy
    import pickle

    for x in (w, w.reduce(), CyclicWord(w)):
        for twin in (
            pickle.loads(pickle.dumps(x)),
            copy.copy(x),
            copy.deepcopy(x),
        ):
            assert twin == x and type(twin) is type(x) and str(twin) == str(x)
