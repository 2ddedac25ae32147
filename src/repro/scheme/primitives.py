"""Primitive procedures for the Scheme substrate.

Two environment builders are exported:

* :func:`make_global_env` — the run-time global environment: numbers, pairs,
  vectors, strings, characters, hashtables, higher-order list operations,
  sorting, output.
* :func:`make_expand_env` — everything above *plus* the expand-time
  meta-programming toolkit: syntax-object accessors and, crucially, the
  paper's Figure-4 PGMP operations (``profile-query``,
  ``make-profile-point``, ``annotate-expr``, ``store-profile``,
  ``load-profile``), wired to the ambient
  :func:`repro.core.api.current_profile_information`.

Higher-order primitives apply Scheme closures through
:func:`repro.scheme.interpreter.apply_procedure`, so user procedures and
primitives are interchangeable.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction

from repro.core import api as core_api
from repro.core.errors import EvalError, SchemeUserError
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.obs.tracer import active_tracer
from repro.scheme.datum import (
    EOF_OBJECT,
    MultipleValues,
    NIL,
    UNSPECIFIED,
    Char,
    Nil,
    Pair,
    SchemeVector,
    Symbol,
    display_datum,
    gensym,
    is_scheme_list,
    iter_pairs,
    pylist_from_scheme,
    scheme_list,
    write_datum,
)
from repro.scheme.env import GlobalEnvironment
from repro.scheme.interpreter import apply_procedure
from repro.scheme.syntax import (
    Syntax,
    datum_to_syntax,
    is_identifier,
    syntax_to_datum,
)

__all__ = [
    "make_global_env",
    "make_expand_env",
    "OutputPort",
    "current_output",
    "set_current_output",
]


# -- output redirection ---------------------------------------------------------


class OutputPort:
    """A captureable output sink for ``display``/``write``/``printf``."""

    def __init__(self) -> None:
        self.buffer = io.StringIO()
        self.echo: bool = False

    def write(self, text: str) -> None:
        self.buffer.write(text)
        if self.echo:
            print(text, end="")

    def getvalue(self) -> str:
        return self.buffer.getvalue()

    def clear(self) -> None:
        self.buffer = io.StringIO()


_CURRENT_OUTPUT = OutputPort()


def current_output() -> OutputPort:
    return _CURRENT_OUTPUT


def set_current_output(port: OutputPort) -> OutputPort:
    global _CURRENT_OUTPUT
    previous = _CURRENT_OUTPUT
    _CURRENT_OUTPUT = port
    return previous


# -- registry ---------------------------------------------------------------------

_RUNTIME: dict[str, object] = {}
_EXPAND_ONLY: dict[str, object] = {}


def primitive(name: str, registry: dict[str, object] = _RUNTIME):
    """Register a Python function as a Scheme primitive named ``name``."""

    def wrap(fn):
        fn.scheme_name = name
        registry[name] = fn
        return fn

    return wrap


def expand_primitive(name: str):
    return primitive(name, _EXPAND_ONLY)


def _check_number(x: object, who: str) -> object:
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
        raise EvalError(f"{who}: expected a number, got {write_datum(x)}")
    return x


def _exactify(x: float | Fraction) -> object:
    """Collapse integral Fractions to ints (Scheme exactness convention)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


# -- syntax transparency -----------------------------------------------------------
#
# In Chez Scheme a syntax object wrapping a list *is* a list of syntax
# objects (annotations unwrap lazily), so transformers apply ordinary list
# operations — ``(sort #'(clause ...) ...)`` in the paper's Figure 7 — to
# syntax directly. We reproduce that: list primitives unwrap syntax
# wrappers along the spine, leaving the elements (which are themselves
# syntax objects) intact.


def _unwrap_seq(x: object) -> object:
    """Unwrap syntax wrappers whose datum is list structure."""
    while isinstance(x, Syntax):
        datum = x.datum
        if isinstance(datum, Pair) or datum is NIL:
            x = datum
        else:
            return x
    return x


def _to_pylist(x: object, who: str) -> list[object]:
    """A (possibly syntax-wrapped) proper list's elements as a Python list."""
    items: list[object] = []
    node = _unwrap_seq(x)
    while True:
        if node is NIL:
            return items
        if isinstance(node, Pair):
            items.append(node.car)
            node = _unwrap_seq(node.cdr)
            continue
        raise EvalError(f"{who}: expected a proper list, got {write_datum(x)}")


# -- numbers ------------------------------------------------------------------------


@primitive("+")
def _add(*args):
    total: object = 0
    for a in args:
        total = total + _check_number(a, "+")  # type: ignore[operator]
    return _exactify(total)


@primitive("-")
def _sub(first, *rest):
    _check_number(first, "-")
    if not rest:
        return _exactify(-first)
    total = first
    for a in rest:
        total = total - _check_number(a, "-")
    return _exactify(total)


@primitive("*")
def _mul(*args):
    total: object = 1
    for a in args:
        total = total * _check_number(a, "*")  # type: ignore[operator]
    return _exactify(total)


@primitive("/")
def _div(first, *rest):
    _check_number(first, "/")
    if not rest:
        rest = (first,)
        first = 1
    total = Fraction(first) if isinstance(first, int) else first
    for a in rest:
        _check_number(a, "/")
        if a == 0 and not isinstance(a, float):
            raise EvalError("/: division by zero")
        if isinstance(total, Fraction) and isinstance(a, int):
            total = total / a
        else:
            total = total / a
    return _exactify(total)


def _chain(name: str, op):
    def compare(first, *rest):
        _check_number(first, name)
        prev = first
        for a in rest:
            _check_number(a, name)
            if not op(prev, a):
                return False
            prev = a
        return True

    compare.scheme_name = name
    _RUNTIME[name] = compare
    return compare


_chain("=", lambda a, b: a == b)
_chain("<", lambda a, b: a < b)
_chain(">", lambda a, b: a > b)
_chain("<=", lambda a, b: a <= b)
_chain(">=", lambda a, b: a >= b)


@primitive("sqr")
def _sqr(x):
    return _exactify(_check_number(x, "sqr") ** 2)


@primitive("abs")
def _abs(x):
    return abs(_check_number(x, "abs"))


@primitive("min")
def _min(*args):
    if not args:
        raise EvalError("min: requires at least one argument")
    return min(_check_number(a, "min") for a in args)


@primitive("max")
def _max(*args):
    if not args:
        raise EvalError("max: requires at least one argument")
    return max(_check_number(a, "max") for a in args)


@primitive("quotient")
def _quotient(a, b):
    if b == 0:
        raise EvalError("quotient: division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


@primitive("remainder")
def _remainder(a, b):
    if b == 0:
        raise EvalError("remainder: division by zero")
    return a - b * _quotient(a, b)


@primitive("modulo")
def _modulo(a, b):
    if b == 0:
        raise EvalError("modulo: division by zero")
    return a % b


@primitive("expt")
def _expt(a, b):
    result = a**b
    return _exactify(result) if isinstance(result, Fraction) else result


@primitive("sqrt")
def _sqrt(x):
    _check_number(x, "sqrt")
    if isinstance(x, int) and x >= 0:
        root = math.isqrt(x)
        if root * root == x:
            return root
    return math.sqrt(x)


@primitive("exact->inexact")
def _exact_to_inexact(x):
    return float(_check_number(x, "exact->inexact"))


@primitive("inexact->exact")
def _inexact_to_exact(x):
    _check_number(x, "inexact->exact")
    return _exactify(Fraction(x).limit_denominator(10**12)) if isinstance(x, float) else x


@primitive("floor")
def _floor(x):
    return math.floor(_check_number(x, "floor")) if not isinstance(x, float) else float(math.floor(x))


@primitive("ceiling")
def _ceiling(x):
    return math.ceil(_check_number(x, "ceiling")) if not isinstance(x, float) else float(math.ceil(x))


@primitive("round")
def _round(x):
    _check_number(x, "round")
    return round(x) if not isinstance(x, float) else float(round(x))


@primitive("truncate")
def _truncate(x):
    _check_number(x, "truncate")
    return math.trunc(x) if not isinstance(x, float) else float(math.trunc(x))


@primitive("gcd")
def _gcd(*args):
    return math.gcd(*[abs(int(a)) for a in args]) if args else 0


@primitive("lcm")
def _lcm(*args):
    return math.lcm(*[abs(int(a)) for a in args]) if args else 1


@primitive("add1")
def _add1(x):
    return _check_number(x, "add1") + 1


@primitive("sub1")
def _sub1(x):
    return _check_number(x, "sub1") - 1


@primitive("zero?")
def _zerop(x):
    return _check_number(x, "zero?") == 0


@primitive("positive?")
def _positivep(x):
    return _check_number(x, "positive?") > 0


@primitive("negative?")
def _negativep(x):
    return _check_number(x, "negative?") < 0


@primitive("even?")
def _evenp(x):
    return int(x) % 2 == 0


@primitive("odd?")
def _oddp(x):
    return int(x) % 2 == 1


@primitive("number?")
def _numberp(x):
    return not isinstance(x, bool) and isinstance(x, (int, float, Fraction))


@primitive("integer?")
def _integerp(x):
    if isinstance(x, bool):
        return False
    if isinstance(x, int):
        return True
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, Fraction) and x.denominator == 1


@primitive("number->string")
def _number_to_string(x):
    return write_datum(_check_number(x, "number->string"))


@primitive("string->number")
def _string_to_number(s):
    from repro.scheme.reader import _parse_number

    result = _parse_number(s)
    return result if result is not None else False


# -- booleans and equivalence ----------------------------------------------------------


@primitive("not")
def _not(x):
    return x is False


@primitive("boolean?")
def _booleanp(x):
    return isinstance(x, bool)


@primitive("procedure?")
def _procedurep(x):
    from repro.scheme.interpreter import Closure

    return isinstance(x, Closure) or callable(x)


# The equivalence predicates decide two values of one exact type listed
# here at once; all other operands take the isinstance chain after that.
_SAME_TYPE_NUMBERS = frozenset((int, float, Fraction))
_SAME_TYPE_IDENTITY = frozenset((bool, Symbol, Nil))
_SAME_TYPE_EQV = _SAME_TYPE_NUMBERS | _SAME_TYPE_IDENTITY | {Char}
#: list-search keys whose same-type elements all three predicates match alike
_INLINE_KEY_TYPES = _SAME_TYPE_IDENTITY | {Char}


def _eqv(a, b):
    kind = type(a)
    if kind is type(b):
        if kind is Char:
            return a.value == b.value
        if kind in _SAME_TYPE_NUMBERS:
            return a == b
        if kind in _SAME_TYPE_IDENTITY:
            return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float, Fraction)) and isinstance(b, (int, float, Fraction)):
        return type(a) is type(b) and a == b
    if isinstance(a, Char) and isinstance(b, Char):
        return a == b
    return a is b


@primitive("eq?")
def _eqp(a, b):
    kind = type(a)
    if kind is type(b):
        if kind is Char:
            return a.value == b.value
        if kind is int:
            return a == b
        if kind in _SAME_TYPE_EQV:
            return a is b
    if isinstance(a, (int, Char)) and isinstance(b, (int, Char)):
        # Small ints / chars behave like immediates.
        return _eqv(a, b)
    return a is b


@primitive("eqv?")
def _eqvp(a, b):
    return _eqv(a, b)


@primitive("equal?")
def _equalp(a, b):
    kind = type(a)
    if kind is type(b) and kind in _SAME_TYPE_EQV:
        return _eqv(a, b)
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


# -- pairs and lists ----------------------------------------------------------------------


@primitive("cons")
def _cons(a, b):
    return Pair(a, b)


def _check_pair(x, who):
    x = _unwrap_seq(x)
    if not isinstance(x, Pair):
        raise EvalError(f"{who}: expected a pair, got {write_datum(x)}")
    return x


@primitive("car")
def _car(p):
    return _check_pair(p, "car").car


@primitive("cdr")
def _cdr(p):
    return _check_pair(p, "cdr").cdr


@primitive("set-car!")
def _set_car(p, v):
    _check_pair(p, "set-car!").car = v
    return UNSPECIFIED


@primitive("set-cdr!")
def _set_cdr(p, v):
    _check_pair(p, "set-cdr!").cdr = v
    return UNSPECIFIED


def _cxr(path: str):
    def access(p):
        value = p
        for step in reversed(path):
            value = _check_pair(value, f"c{path}r").car if step == "a" else _check_pair(value, f"c{path}r").cdr
        return value

    return access


for _path in ("aa", "ad", "da", "dd", "aaa", "aad", "ada", "add", "daa", "dad", "dda", "ddd"):
    fn = _cxr(_path)
    fn.scheme_name = f"c{_path}r"
    _RUNTIME[f"c{_path}r"] = fn


@primitive("pair?")
def _pairp(x):
    return isinstance(_unwrap_seq(x), Pair)


@primitive("null?")
def _nullp(x):
    return _unwrap_seq(x) is NIL


@primitive("list?")
def _listp(x):
    x = _unwrap_seq(x)
    try:
        _to_pylist(x, "list?")
        return True
    except EvalError:
        return False


@primitive("list")
def _list(*args):
    return scheme_list(*args)


@primitive("length")
def _length(lst):
    return len(_to_pylist(lst, "length"))


@primitive("append")
def _append(*lists):
    if not lists:
        return NIL
    result = lists[-1]
    for lst in reversed(lists[:-1]):
        items = _to_pylist(lst, "append")
        result = scheme_list(*items, tail=result)
    return result


@primitive("reverse")
def _reverse(lst):
    return scheme_list(*reversed(_to_pylist(lst, "reverse")))


@primitive("list-ref")
def _list_ref(lst, n):
    items = _to_pylist(lst, "list-ref")
    if not 0 <= n < len(items):
        raise EvalError(f"list-ref: index {n} out of range")
    return items[n]


@primitive("list-tail")
def _list_tail(lst, n):
    for _ in range(n):
        lst = _check_pair(lst, "list-tail").cdr
    return lst


@primitive("last-pair")
def _last_pair(lst):
    p = _check_pair(lst, "last-pair")
    while isinstance(p.cdr, Pair):
        p = p.cdr
    return p


@primitive("list-copy")
def _list_copy(lst):
    return scheme_list(*_to_pylist(lst, "list-copy"))


@primitive("iota")
def _iota(n, start=0, step=1):
    return scheme_list(*[start + i * step for i in range(n)])


def _member_by(pred, x, lst):
    kind = type(x) if type(x) in _INLINE_KEY_TYPES else None
    node = lst
    while True:
        if isinstance(node, Syntax):
            node = _unwrap_seq(node)
        if not isinstance(node, Pair):
            return False
        item = node.car
        if type(item) is kind:
            if item is x or (kind is Char and item.value == x.value):
                return node
        elif pred(x, item):
            return node
        node = node.cdr


@primitive("memq")
def _memq(x, lst):
    return _member_by(_eqp, x, lst)


@primitive("memv")
def _memv(x, lst):
    return _member_by(_eqv, x, lst)


@primitive("member")
def _member(x, lst):
    return _member_by(_equalp, x, lst)


def _assoc_by(pred, x, alist):
    kind = type(x) if type(x) in _INLINE_KEY_TYPES else None
    node = alist
    while True:
        if isinstance(node, Syntax):
            node = _unwrap_seq(node)
        if not isinstance(node, Pair):
            return False
        entry = _unwrap_seq(node.car)
        if isinstance(entry, Pair):
            item = entry.car
            if type(item) is kind:
                if item is x or (kind is Char and item.value == x.value):
                    return entry
            elif pred(x, item):
                return entry
        node = node.cdr


@primitive("assq")
def _assq(x, alist):
    return _assoc_by(_eqp, x, alist)


@primitive("assv")
def _assv(x, alist):
    return _assoc_by(_eqv, x, alist)


@primitive("assoc")
def _assoc(x, alist):
    return _assoc_by(_equalp, x, alist)


# -- higher-order list operations ------------------------------------------------------------


@primitive("map")
def _map(proc, *lists):
    columns = [_to_pylist(lst, "map") for lst in lists]
    if len(set(map(len, columns))) > 1:
        raise EvalError("map: lists differ in length")
    return scheme_list(*[apply_procedure(proc, list(row)) for row in zip(*columns)])


@primitive("for-each")
def _for_each(proc, *lists):
    columns = [_to_pylist(lst, "for-each") for lst in lists]
    if len(set(map(len, columns))) > 1:
        raise EvalError("for-each: lists differ in length")
    for row in zip(*columns):
        apply_procedure(proc, list(row))
    return UNSPECIFIED


@primitive("filter")
def _filter(pred, lst):
    return scheme_list(
        *[x for x in _to_pylist(lst, "filter") if apply_procedure(pred, [x]) is not False]
    )


@primitive("fold-left")
def _fold_left(proc, init, *lists):
    columns = [_to_pylist(lst, "fold-left") for lst in lists]
    acc = init
    for row in zip(*columns):
        acc = apply_procedure(proc, [acc, *row])
    return acc


@primitive("fold-right")
def _fold_right(proc, init, *lists):
    columns = [_to_pylist(lst, "fold-right") for lst in lists]
    acc = init
    for row in reversed(list(zip(*columns))):
        acc = apply_procedure(proc, [*row, acc])
    return acc


@primitive("sort")
def _sort(lst, less, key=None):
    """(sort lst less [key]) — stable sort by the ``less`` ordering.

    The optional ``key`` procedure mirrors Racket's ``#:key`` argument,
    which the paper's Figure 7 uses to sort clauses by profile weight.
    """
    import functools

    items = _to_pylist(lst, "sort")
    if key is not None:
        decorated = [(apply_procedure(key, [x]), x) for x in items]
        decorated.sort(
            key=functools.cmp_to_key(
                lambda a, b: -1 if apply_procedure(less, [a[0], b[0]]) is not False else (
                    1 if apply_procedure(less, [b[0], a[0]]) is not False else 0
                )
            )
        )
        return scheme_list(*[x for _, x in decorated])
    items.sort(
        key=functools.cmp_to_key(
            lambda a, b: -1 if apply_procedure(less, [a, b]) is not False else (
                1 if apply_procedure(less, [b, a]) is not False else 0
            )
        )
    )
    return scheme_list(*items)


@primitive("find")
def _find(pred, lst):
    for x in _to_pylist(lst, "find"):
        if apply_procedure(pred, [x]) is not False:
            return x
    return False


@primitive("remove")
def _remove(pred, lst):
    return scheme_list(
        *[x for x in _to_pylist(lst, "remove") if apply_procedure(pred, [x]) is False]
    )


@primitive("partition")
def _partition(pred, lst):
    yes: list[object] = []
    no: list[object] = []
    for x in _to_pylist(lst, "partition"):
        (yes if apply_procedure(pred, [x]) is not False else no).append(x)
    return Pair(scheme_list(*yes), scheme_list(*no))


@primitive("for-all")
def _for_all(pred, lst):
    return all(
        apply_procedure(pred, [x]) is not False for x in _to_pylist(lst, "for-all")
    )


@primitive("exists")
def _exists(pred, lst):
    for x in _to_pylist(lst, "exists"):
        result = apply_procedure(pred, [x])
        if result is not False:
            return result
    return False


@primitive("memp")
def _memp(pred, lst):
    node = _unwrap_seq(lst)
    while isinstance(node, Pair):
        if apply_procedure(pred, [node.car]) is not False:
            return node
        node = _unwrap_seq(node.cdr)
    return False


@primitive("assp")
def _assp(pred, alist):
    node = _unwrap_seq(alist)
    while isinstance(node, Pair):
        entry = _unwrap_seq(node.car)
        if isinstance(entry, Pair) and apply_procedure(pred, [entry.car]) is not False:
            return entry
        node = _unwrap_seq(node.cdr)
    return False


@primitive("list-index")
def _list_index(pred, lst):
    for i, x in enumerate(_to_pylist(lst, "list-index")):
        if apply_procedure(pred, [x]) is not False:
            return i
    return False


@primitive("filter-map")
def _filter_map(proc, lst):
    out: list[object] = []
    for x in _to_pylist(lst, "filter-map"):
        value = apply_procedure(proc, [x])
        if value is not False:
            out.append(value)
    return scheme_list(*out)


@primitive("take")
def _take(lst, n):
    items = _to_pylist(lst, "take")
    if n > len(items):
        raise EvalError(f"take: index {n} out of range")
    return scheme_list(*items[:n])


@primitive("drop")
def _drop(lst, n):
    items = _to_pylist(lst, "drop")
    if n > len(items):
        raise EvalError(f"drop: index {n} out of range")
    return scheme_list(*items[n:])


@primitive("apply")
def _apply(proc, *args):
    if not args:
        return apply_procedure(proc, [])
    spread = list(args[:-1]) + _to_pylist(args[-1], "apply")
    return apply_procedure(proc, spread)


@primitive("curry")
def _curry(proc, *fixed):
    """Left-section a procedure (Racket's ``curry``, used in Figure 6)."""

    def curried(*more):
        return apply_procedure(proc, list(fixed) + list(more))

    curried.scheme_name = "curried"
    return curried


# -- symbols ------------------------------------------------------------------------------------


@primitive("symbol?")
def _symbolp(x):
    return isinstance(x, Symbol)


@primitive("symbol->string")
def _symbol_to_string(s):
    if not isinstance(s, Symbol):
        raise EvalError(f"symbol->string: expected a symbol, got {write_datum(s)}")
    return s.name


@primitive("string->symbol")
def _string_to_symbol(s):
    return Symbol(s)


@primitive("gensym")
def _gensym(prefix="g"):
    return gensym(prefix if isinstance(prefix, str) else str(prefix))


# -- characters ------------------------------------------------------------------------------------


@primitive("char?")
def _charp(x):
    return isinstance(x, Char)


@primitive("char->integer")
def _char_to_integer(c):
    return ord(c.value)


@primitive("integer->char")
def _integer_to_char(n):
    return Char(chr(n))


@primitive("char=?")
def _char_eq(a, *rest):
    return all(a == b for b in rest)


@primitive("char<?")
def _char_lt(a, b):
    return a.value < b.value


@primitive("char-alphabetic?")
def _char_alpha(c):
    return c.value.isalpha()


@primitive("char-numeric?")
def _char_numeric(c):
    return c.value.isdigit()


@primitive("char-whitespace?")
def _char_whitespace(c):
    return c.value.isspace()


@primitive("char-upcase")
def _char_upcase(c):
    return Char(c.value.upper())


@primitive("char-downcase")
def _char_downcase(c):
    return Char(c.value.lower())


# -- strings ------------------------------------------------------------------------------------


@primitive("string?")
def _stringp(x):
    return isinstance(x, str)


@primitive("string-length")
def _string_length(s):
    return len(s)


@primitive("string-ref")
def _string_ref(s, i):
    if not 0 <= i < len(s):
        raise EvalError(f"string-ref: index {i} out of range")
    return Char(s[i])


@primitive("substring")
def _substring(s, start, end=None):
    return s[start : end if end is not None else len(s)]


@primitive("string-append")
def _string_append(*parts):
    return "".join(parts)


@primitive("string=?")
def _string_eq(a, *rest):
    return all(a == b for b in rest)


@primitive("string<?")
def _string_lt(a, b):
    return a < b


@primitive("string-upcase")
def _string_upcase(s):
    return s.upper()


@primitive("string-downcase")
def _string_downcase(s):
    return s.lower()


@primitive("string->list")
def _string_to_list(s):
    return scheme_list(*[Char(c) for c in s])


@primitive("list->string")
def _list_to_string(lst):
    return "".join(c.value for c in _to_pylist(lst, "list->string"))


@primitive("string-contains?")
def _string_contains(haystack, needle):
    return needle in haystack


@primitive("string-split")
def _string_split(s, sep=" "):
    return scheme_list(*s.split(sep))


@primitive("string-join")
def _string_join(lst, sep=" "):
    return sep.join(_to_pylist(lst, "string-join"))


# -- vectors ------------------------------------------------------------------------------------


@primitive("vector?")
def _vectorp(x):
    return isinstance(x, SchemeVector)


@primitive("make-vector")
def _make_vector(n, fill=0):
    return SchemeVector([fill] * n)


@primitive("vector")
def _vector(*args):
    return SchemeVector(args)


@primitive("vector-length")
def _vector_length(v):
    return len(v)


@primitive("vector-ref")
def _vector_ref(v, i):
    if not isinstance(v, SchemeVector):
        raise EvalError(f"vector-ref: expected a vector, got {write_datum(v)}")
    if not 0 <= i < len(v):
        raise EvalError(f"vector-ref: index {i} out of range for length {len(v)}")
    return v[i]


@primitive("vector-set!")
def _vector_set(v, i, value):
    if not 0 <= i < len(v):
        raise EvalError(f"vector-set!: index {i} out of range for length {len(v)}")
    v[i] = value
    return UNSPECIFIED


@primitive("vector->list")
def _vector_to_list(v):
    return scheme_list(*v.items)


@primitive("list->vector")
def _list_to_vector(lst):
    return SchemeVector(_to_pylist(lst, "list->vector"))


@primitive("vector-fill!")
def _vector_fill(v, value):
    for i in range(len(v)):
        v[i] = value
    return UNSPECIFIED


@primitive("vector-map")
def _vector_map(proc, v):
    return SchemeVector([apply_procedure(proc, [x]) for x in v])


@primitive("vector-for-each")
def _vector_for_each(proc, v):
    for x in v:
        apply_procedure(proc, [x])
    return UNSPECIFIED


@primitive("vector-copy")
def _vector_copy(v):
    return SchemeVector(list(v.items))


@primitive("vector-append")
def _vector_append(*vs):
    out: list[object] = []
    for v in vs:
        out.extend(v.items)
    return SchemeVector(out)


# -- hashtables (Chez naming) ---------------------------------------------------------------------


class EqHashtable:
    """A Chez-style eq hashtable over Scheme values."""

    def __init__(self) -> None:
        self._table: dict[object, object] = {}

    @staticmethod
    def _key(key: object) -> object:
        if isinstance(key, (Symbol, str, int, float, Fraction, bool, Char)):
            return key
        return id(key)

    def set(self, key: object, value: object) -> None:
        self._table[self._key(key)] = value

    def ref(self, key: object, default: object) -> object:
        return self._table.get(self._key(key), default)

    def contains(self, key: object) -> bool:
        return self._key(key) in self._table

    def delete(self, key: object) -> None:
        self._table.pop(self._key(key), None)

    def size(self) -> int:
        return len(self._table)

    def keys(self) -> list[object]:
        return list(self._table)

    def __repr__(self) -> str:
        return f"#<eq-hashtable ({len(self._table)})>"


@primitive("make-eq-hashtable")
def _make_eq_hashtable():
    return EqHashtable()


@primitive("hashtable?")
def _hashtablep(x):
    return isinstance(x, EqHashtable)


@primitive("hashtable-set!")
def _hashtable_set(ht, key, value):
    ht.set(key, value)
    return UNSPECIFIED


@primitive("hashtable-ref")
def _hashtable_ref(ht, key, default=False):
    return ht.ref(key, default)


@primitive("hashtable-contains?")
def _hashtable_contains(ht, key):
    return ht.contains(key)


@primitive("hashtable-delete!")
def _hashtable_delete(ht, key):
    ht.delete(key)
    return UNSPECIFIED


@primitive("hashtable-size")
def _hashtable_size(ht):
    return ht.size()


@primitive("hashtable-keys")
def _hashtable_keys(ht):
    return scheme_list(*ht.keys())


# -- control and errors -----------------------------------------------------------------------------


@primitive("values")
def _values(*args):
    if len(args) == 1:
        return args[0]
    return MultipleValues(tuple(args))


@primitive("call-with-values")
def _call_with_values(producer, consumer):
    produced = apply_procedure(producer, [])
    if isinstance(produced, MultipleValues):
        return apply_procedure(consumer, list(produced.values))
    return apply_procedure(consumer, [produced])


@primitive("make-case-lambda")
def _make_case_lambda(*arity_proc_pairs):
    """Runtime dispatcher for ``case-lambda`` (see the expander).

    Arguments come in (arity, procedure) pairs; a non-negative arity is an
    exact argument count, and ``-(n+1)`` means "n or more" (a rest clause).
    """
    clauses = list(zip(arity_proc_pairs[0::2], arity_proc_pairs[1::2]))

    def dispatch(*args):
        n = len(args)
        for arity, proc in clauses:
            if arity >= 0:
                if n == arity:
                    return apply_procedure(proc, list(args))
            elif n >= -arity - 1:
                return apply_procedure(proc, list(args))
        raise EvalError(f"case-lambda: no clause accepts {n} arguments")

    dispatch.scheme_name = "case-lambda"
    return dispatch


@primitive("void")
def _void(*_args):
    return UNSPECIFIED


@primitive("error")
def _error(who, message="", *irritants):
    raise SchemeUserError(
        who.name if isinstance(who, Symbol) else who, str(message), tuple(irritants)
    )


@primitive("assert")
def _assert(value):
    if value is False:
        raise SchemeUserError("assert", "assertion failed")
    return UNSPECIFIED


# -- output -------------------------------------------------------------------------------------------


@primitive("display")
def _display(x, *_port):
    _CURRENT_OUTPUT.write(display_datum(x))
    return UNSPECIFIED


@primitive("write")
def _write(x, *_port):
    _CURRENT_OUTPUT.write(write_datum(x))
    return UNSPECIFIED


@primitive("newline")
def _newline(*_port):
    _CURRENT_OUTPUT.write("\n")
    return UNSPECIFIED


@primitive("printf")
def _printf(fmt, *args):
    """A useful subset of Chez's format directives: ~a ~s ~d ~% ~n ~~."""
    out: list[str] = []
    arg_iter = iter(args)
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "~" and i + 1 < len(fmt):
            directive = fmt[i + 1]
            if directive in ("a", "A"):
                out.append(display_datum(next(arg_iter)))
            elif directive in ("s", "S"):
                out.append(write_datum(next(arg_iter)))
            elif directive in ("d", "D"):
                out.append(str(next(arg_iter)))
            elif directive in ("%", "n"):
                out.append("\n")
            elif directive == "~":
                out.append("~")
            else:
                raise EvalError(f"printf: unknown directive ~{directive}")
            i += 2
            continue
        out.append(ch)
        i += 1
    _CURRENT_OUTPUT.write("".join(out))
    return UNSPECIFIED


# -- expand-time: syntax objects and the Figure-4 PGMP API -----------------------------------------------


@expand_primitive("syntax->datum")
def _syntax_to_datum_prim(stx):
    return syntax_to_datum(stx)


@expand_primitive("datum->syntax")
def _datum_to_syntax_prim(context, datum):
    ctx = context if isinstance(context, Syntax) else None
    return datum_to_syntax(datum, context=ctx)


@expand_primitive("syntax?")
def _syntaxp(x):
    return isinstance(x, Syntax)


@expand_primitive("identifier?")
def _identifierp(x):
    return is_identifier(x)


@expand_primitive("free-identifier=?")
def _free_identifier_eq(a, b):
    # Name-based approximation, adequate for the case studies.
    return (
        is_identifier(a)
        and is_identifier(b)
        and a.symbol_name == b.symbol_name
    )


@expand_primitive("syntax-e")
def _syntax_e(stx):
    if not isinstance(stx, Syntax):
        raise EvalError("syntax-e: expected a syntax object")
    return stx.datum


@expand_primitive("syntax->list")
def _syntax_to_list(stx):
    from repro.scheme.syntax import syntax_pylist

    try:
        return scheme_list(*syntax_pylist(stx))
    except TypeError:
        return False


@expand_primitive("syntax-source")
def _syntax_source(stx):
    if not isinstance(stx, Syntax):
        raise EvalError("syntax-source: expected a syntax object")
    return stx.srcloc


@expand_primitive("generate-temporaries")
def _generate_temporaries(lst):
    from repro.scheme.syntax import syntax_pylist

    items = _to_pylist(lst, "generate-temporaries")
    return scheme_list(
        *[datum_to_syntax(gensym("tmp")) for _ in items]
    )


@expand_primitive("profile-query")
def _profile_query(expr):
    """``(profile-query e)`` — the profile weight of ``e``'s profile point."""
    return core_api.profile_query(expr)


@expand_primitive("profile-query-count")
def _profile_query_known(expr):
    """Whether any profile data exists for ``e``'s point (weight may be 0)."""
    point = core_api.point_of_expr(expr)
    if point is None:
        return False
    return core_api.current_profile_information().known(point)


@expand_primitive("profile-data-available?")
def _profile_data_available():
    """Whether the ambient database holds any profile data at all."""
    return core_api.current_profile_information().has_data()


@expand_primitive("expression-profile-point")
def _expression_profile_point(expr):
    """The profile point of a syntax object (explicit or implicit), or #f.

    Lets meta-programs *transfer* a source expression's point onto the
    code they generate for it (pair with ``annotate-expr``).
    """
    point = core_api.point_of_expr(expr)
    return point if point is not None else False


@expand_primitive("make-profile-point")
def _make_profile_point(base=None):
    if isinstance(base, Syntax):
        base = base.srcloc
    if base is not None and not isinstance(base, (SourceLocation, ProfilePoint)):
        raise EvalError("make-profile-point: bad base")
    return core_api.make_profile_point(base)


@expand_primitive("annotate-expr")
def _annotate_expr(expr, point):
    if not isinstance(expr, Syntax):
        raise EvalError("annotate-expr: expected a syntax object")
    if not isinstance(point, ProfilePoint):
        raise EvalError("annotate-expr: expected a profile point")
    return core_api.annotate_expr(expr, point)


def _decision_labels(value) -> list[str]:
    """Render a trace-decision alternative (datum or list of datums) as
    human-readable labels."""
    if isinstance(value, Syntax):
        value = syntax_to_datum(value)
    if value is NIL or is_scheme_list(value):
        items = pylist_from_scheme(value) if value is not NIL else []
        return [
            write_datum(
                syntax_to_datum(item) if isinstance(item, Syntax) else item
            )
            for item in items
        ]
    return [write_datum(value)]


@expand_primitive("trace-decision")
def _trace_decision(construct, where, chosen, rejected=NIL, note=None):
    """``(trace-decision 'construct stx chosen rejected [note])`` — record a
    profile-guided decision on the ambient tracer.

    A no-op (constructing nothing) when tracing is disabled, so case
    studies call it unconditionally at expand time. ``chosen`` and
    ``rejected`` are datums or lists of datums naming the selected and
    discarded alternatives; the inputs consulted are claimed automatically
    from the ``profile-query`` calls the transformer made since its last
    decision.
    """
    tracer = active_tracer()
    if tracer is None:
        return UNSPECIFIED
    location = where.srcloc if isinstance(where, Syntax) else None
    if isinstance(construct, Syntax):
        construct = syntax_to_datum(construct)
    name = construct.name if isinstance(construct, Symbol) else str(construct)
    note_text = ""
    if note is not None:
        if isinstance(note, Syntax):
            note = syntax_to_datum(note)
        note_text = note if isinstance(note, str) else display_datum(note)
    tracer.decision(
        name,
        "scheme",
        chosen=_decision_labels(chosen),
        rejected=_decision_labels(rejected),
        location=location,
        note=note_text,
    )
    return UNSPECIFIED


@expand_primitive("store-profile")
def _store_profile(filename):
    core_api.store_profile(filename)
    return UNSPECIFIED


@expand_primitive("load-profile")
def _load_profile(filename):
    core_api.load_profile(filename)
    return UNSPECIFIED


# -- environment builders ------------------------------------------------------------------------------------


#: Non-procedure global constants.
_CONSTANTS: dict[str, object] = {"pi": math.pi}


def make_global_env() -> GlobalEnvironment:
    """A fresh run-time global environment with all runtime primitives."""
    env = GlobalEnvironment()
    for name, fn in _RUNTIME.items():
        env.define(Symbol(name), fn)
    for name, value in _CONSTANTS.items():
        env.define(Symbol(name), value)
    return env


def make_expand_env() -> GlobalEnvironment:
    """A fresh expand-time environment: runtime primitives + the
    meta-programming toolkit (syntax accessors and the Figure-4 API)."""
    env = make_global_env()
    for name, fn in _EXPAND_ONLY.items():
        env.define(Symbol(name), fn)
    return env
