"""The equivalence primitives' exact-type fast path against the chain it skips.

``eq?``/``eqv?``/``equal?`` and the ``memq``/``memv``/``member`` and
``assq``/``assv``/``assoc`` searches decide same-exact-type operands (and
same-type list elements) without walking their ``isinstance`` chains. The
oracle below is those chains as they stood before the fast path, kept
here verbatim so the library holds a single implementation. Every
generated operand pair, list and key must get the identical answer from
both: the same boolean, or the same tail pair / entry object.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheme.datum import NIL, Char, Pair, SchemeVector, Symbol, scheme_list
from repro.scheme.primitives import make_global_env
from repro.scheme.syntax import Syntax

# -- the oracle: the isinstance chains, verbatim ------------------------------------


def _unwrap_seq(x: object) -> object:
    """Unwrap syntax wrappers whose datum is list structure."""
    while isinstance(x, Syntax):
        datum = x.datum
        if isinstance(datum, Pair) or datum is NIL:
            x = datum
        else:
            return x
    return x


def _eqv(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float, Fraction)) and isinstance(b, (int, float, Fraction)):
        return type(a) is type(b) and a == b
    if isinstance(a, Char) and isinstance(b, Char):
        return a == b
    return a is b


def _eqp(a, b):
    if isinstance(a, (int, Char)) and isinstance(b, (int, Char)):
        # Small ints / chars behave like immediates.
        return _eqv(a, b)
    return a is b


def _equalp(a, b):
    if _eqv(a, b):
        return True
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, Pair) and isinstance(b, Pair):
        return a == b
    if isinstance(a, SchemeVector) and isinstance(b, SchemeVector):
        return len(a) == len(b) and all(_equalp(x, y) for x, y in zip(a, b))
    if a is NIL and b is NIL:
        return True
    if isinstance(a, (int, float, Fraction)) and isinstance(b, (int, float, Fraction)):
        if isinstance(a, bool) or isinstance(b, bool):
            return a is b
        return a == b
    return False


def _member_by(pred, x, lst):
    node = _unwrap_seq(lst)
    while isinstance(node, Pair):
        if pred(x, node.car):
            return node
        node = _unwrap_seq(node.cdr)
    return False


def _assoc_by(pred, x, alist):
    node = _unwrap_seq(alist)
    while isinstance(node, Pair):
        entry = _unwrap_seq(node.car)
        if isinstance(entry, Pair) and pred(x, entry.car):
            return entry
        node = _unwrap_seq(node.cdr)
    return False


# -- generated operands -----------------------------------------------------------------


class IntSub(int):
    """An int subclass: never on the fast path."""


class CharSub(Char):
    """A Char subclass: never on the fast path."""

    __slots__ = ()


def _fresh_float(value: float) -> float:
    # A new float object each time, so identity and value can differ.
    return float(repr(value))


_atoms = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.0, float("nan"), float("inf")]).map(
        _fresh_float
    ),
    st.builds(
        Fraction,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=3),
    ),
    st.sampled_from("ab1 ").map(Char),
    st.sampled_from("a1").map(CharSub),
    st.integers(min_value=0, max_value=2).map(IntSub),
    st.sampled_from(["a", "b", "else", "1"]).map(Symbol),
    st.sampled_from(["", "a", "s"]),
    st.just(NIL),
)


def _spine(items: list, tail: object, wrap: list[bool]) -> object:
    """A list of ``items`` ending in ``tail``; each cdr position whose
    ``wrap`` flag is set is a Syntax-wrapped spine."""
    node = tail
    for item, wrapped in zip(reversed(items), reversed(wrap)):
        node = Pair(item, node)
        if wrapped:
            node = Syntax(node)
    return node


@st.composite
def _lists(draw, elements):
    items = draw(st.lists(elements, max_size=6))
    tail = draw(st.one_of(st.just(NIL), st.just(NIL), _atoms))
    wrap = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return _spine(items, tail, wrap)


_values = st.recursive(
    _atoms,
    lambda children: st.one_of(
        _lists(children),
        st.lists(children, max_size=3).map(SchemeVector),
        st.lists(children, max_size=3).map(lambda xs: Syntax(scheme_list(*xs))),
    ),
    max_leaves=8,
)

_entries = st.one_of(
    st.tuples(_values, _values).map(lambda kv: Pair(*kv)),
    st.tuples(_values, _values).map(lambda kv: Syntax(Pair(*kv))),
    _atoms,
)

_ENV = make_global_env()


def _primitive(name: str):
    return _ENV.lookup(Symbol(name))


_PREDICATES = [("eq?", _eqp), ("eqv?", _eqv), ("equal?", _equalp)]
_SEARCHES = [
    ("memq", _member_by, _eqp),
    ("memv", _member_by, _eqv),
    ("member", _member_by, _equalp),
    ("assq", _assoc_by, _eqp),
    ("assv", _assoc_by, _eqv),
    ("assoc", _assoc_by, _equalp),
]


def _copy(x: object) -> object:
    """An equal atom that is a distinct object where the type allows one."""
    if isinstance(x, float):
        return _fresh_float(x)
    if isinstance(x, Char):
        return type(x)(x.value)
    if isinstance(x, Fraction):
        return Fraction(x.numerator, x.denominator)
    return x


def _key(draw, items: list) -> object:
    """A key: often one of the searched elements or an equal copy of it."""
    if items and draw(st.booleans()):
        picked = draw(st.sampled_from(items))
        return _copy(picked) if draw(st.booleans()) else picked
    return draw(_values)


def _items(lst: object, entries: bool) -> list:
    """The elements a search compares its key with: cars, or entry keys."""
    found = []
    node = _unwrap_seq(lst)
    while isinstance(node, Pair):
        item = node.car
        if entries:
            item = _unwrap_seq(item)
            if not isinstance(item, Pair):
                node = _unwrap_seq(node.cdr)
                continue
            item = item.car
        found.append(item)
        node = _unwrap_seq(node.cdr)
    return found


# -- properties -------------------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_predicates_agree_with_the_isinstance_chains(data):
    a = data.draw(st.one_of(_atoms, _values), label="a")
    b = data.draw(
        st.one_of(_atoms, _values, st.just(a), st.just(_copy(a))), label="b"
    )
    for name, oracle in _PREDICATES:
        got = _primitive(name)(a, b)
        want = oracle(a, b)
        assert got is want, f"({name} {a!r} {b!r}): {got!r}, oracle {want!r}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_member_family_agrees_with_the_isinstance_chains(data):
    lst = data.draw(_lists(st.one_of(_atoms, _values)), label="list")
    key = _key(data.draw, _items(lst, entries=False))
    for name, by, pred in _SEARCHES[:3]:
        got = _primitive(name)(key, lst)
        want = by(pred, key, lst)
        assert got is want, f"({name} {key!r} {lst!r}): {got!r}, oracle {want!r}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_assoc_family_agrees_with_the_isinstance_chains(data):
    alist = data.draw(_lists(_entries), label="alist")
    key = _key(data.draw, _items(alist, entries=True))
    for name, by, pred in _SEARCHES[3:]:
        got = _primitive(name)(key, alist)
        want = by(pred, key, alist)
        assert got is want, f"({name} {key!r} {alist!r}): {got!r}, oracle {want!r}"


#: One of each kind of atom, and an equal but distinct copy of each.
_SAMPLE_ATOMS = [
    0, 1, IntSub(1), True, False, 1.0, -0.0, 0.0, float("nan"), Fraction(1, 2),
    Fraction(1), Char("a"), Char("1"), CharSub("a"), Symbol("a"), "a", NIL,
]
_SAMPLE_ATOMS += [_copy(x) for x in _SAMPLE_ATOMS]


def test_every_atom_pair_agrees_with_the_isinstance_chains():
    for a in _SAMPLE_ATOMS:
        for b in _SAMPLE_ATOMS:
            for name, oracle in _PREDICATES:
                assert _primitive(name)(a, b) is oracle(a, b), (name, a, b)
    lst = scheme_list(*_SAMPLE_ATOMS[::-1])
    alist = scheme_list(*[Pair(x, i) for i, x in enumerate(_SAMPLE_ATOMS)])
    for key in _SAMPLE_ATOMS:
        for name, by, pred in _SEARCHES:
            target = alist if by is _assoc_by else lst
            assert _primitive(name)(key, target) is by(pred, key, target), (name, key)


def test_cross_type_numbers_keep_the_dialects_answers():
    # Fixed points the generators above also reach, pinned by name.
    equal, eqv, member = (_primitive(n) for n in ("equal?", "eqv?", "member"))
    assert equal(1, 1.0) is True and eqv(1, 1.0) is False
    assert equal(True, 1) is False and equal(Fraction(1), 1) is True
    nan = float("nan")
    assert eqv(nan, nan) is False and _primitive("eq?")(nan, nan) is True
    assert member(1.0, scheme_list(Char("a"), 1)).car == 1
    assert member(CharSub("a"), scheme_list(Char("a"))) is not False
