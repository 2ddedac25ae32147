"""The programs each workload runs, and the seeded inputs they run on.

Every Scheme program reads its input from the global ``bench-input``,
which the benchmark defines in the system's run-time environment before a
run. The program text is therefore the same for the profiling run and the
evaluation run, so a stored profile is never stale against it, while the
training and evaluation inputs come from distinct derived seeds of the
same skewed distribution.
"""

from __future__ import annotations

import random

from repro.pyast import pycase
from repro.scheme.datum import Char, intern_symbol, scheme_list

INPUT_NAME = intern_symbol("bench-input")

# -- case-dispatch -----------------------------------------------------------

#: §6.1: the Figure 5 character parser, `case` rewritten by Figure 6 into
#: an `exclusive-cond` whose clauses the profile reorders.
PARSER_SOURCE = r"""
(define (classify c)
  (case c
    [(#\a #\b #\c #\d #\e #\f #\g #\h #\i #\j #\k #\l #\m) 0]
    [(#\0 #\1 #\2 #\3 #\4 #\5 #\6 #\7 #\8 #\9) 1]
    [(#\+ #\- #\* #\/ #\= #\< #\>) 2]
    [(#\() 3]
    [(#\)) 4]
    [(#\space #\tab #\newline) 5]
    [else 6]))
(define (tally cs counts)
  (if (null? cs)
      (vector->list counts)
      (let ([i (classify (car cs))])
        (vector-set! counts i (+ (vector-ref counts i) 1))
        (tally (cdr cs) counts))))
(tally bench-input (make-vector 7 0))
"""

#: Character classes of the parser (one per clause, `else` last) and the
#: skew the training and evaluation streams share: white space and
#: parentheses dominate, as in Figure 8, while the source order puts the
#: rare letter and digit clauses first.
PARSER_CLASSES = (
    "abcdefghijklm",
    "0123456789",
    "+-*/=<>",
    "(",
    ")",
    " \t\n",
    "xyz_.!?",
)
PARSER_SKEW = (2, 6, 4, 22, 22, 42, 2)

#: Figure 10's classes, loaded as a library so the expand-time class
#: registry is filled once, not once per compile of the program.
SHAPES_LIBRARY = """
(class Square ((length 0))
  (define-method (area this) (sqr (field this length))))
(class Circle ((radius 0))
  (define-method (area this) (* pi (sqr (field this radius)))))
(class Triangle ((base 0) (height 0))
  (define-method (area this) (* 1/2 (field this base) (field this height))))
(define (build-shapes specs acc)
  (if (null? specs)
      (reverse acc)
      (let ([s (car specs)])
        (build-shapes
          (cdr specs)
          (cons (cond
                  [(eq? (car s) 'circle) (make-Circle (cadr s))]
                  [(eq? (car s) 'square) (make-Square (cadr s))]
                  [else (make-Triangle (cadr s) (caddr s))])
                acc)))))
"""

#: §6.2: one `method` call site whose receiver mix the profile turns into
#: a polymorphic inline cache.
SHAPES_SOURCE = """
(define (total-area shapes acc)
  (if (null? shapes)
      acc
      (total-area (cdr shapes) (+ acc (method (car shapes) area)))))
(total-area bench-input 0)
"""

#: Receiver-class mix (circle, square, triangle).
SHAPES_SKEW = (70, 22, 8)


def classify_char(c):
    """The pyast `pycase` parser: same classes as the Scheme parser."""
    return pycase(
        c,
        (("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m"), 0),
        (("0", "1", "2", "3", "4", "5", "6", "7", "8", "9"), 1),
        (("+", "-", "*", "/", "=", "<", ">"), 2),
        (("(",), 3),
        ((")",), 4),
        ((" ", "\t", "\n"), 5),
        default=6,
    )


def char_stream(rng: random.Random, n: int, skew=PARSER_SKEW) -> str:
    """``n`` characters drawn class-first from ``skew``."""
    classes = rng.choices(PARSER_CLASSES, weights=skew, k=n)
    return "".join(rng.choice(cls) for cls in classes)


def drifted_skew(rng: random.Random, step: int) -> list[int]:
    """The parser's class mix at one step of the drift schedule: the
    hottest class moves on every step, so each fresh profile drifts."""
    skew = [rng.randint(1, 4) for _ in PARSER_SKEW]
    skew[step % len(skew)] = rng.randint(40, 80)
    return skew


def shape_specs(rng: random.Random, n: int) -> object:
    """A Scheme list of ``(kind size [height])`` shape constructors."""
    kinds = rng.choices(("circle", "square", "triangle"), weights=SHAPES_SKEW, k=n)
    specs = []
    for kind in kinds:
        if kind == "triangle":
            specs.append(
                scheme_list(intern_symbol(kind), rng.randint(1, 40), rng.randint(1, 40))
            )
        else:
            specs.append(scheme_list(intern_symbol(kind), rng.randint(1, 40)))
    return scheme_list(*specs)


def scheme_chars(text: str) -> object:
    return scheme_list(*[Char(c) for c in text])


# -- arith-inline ------------------------------------------------------------

#: The `define-inlinable` inliner over seeded integer ranges: hot call
#: sites inline, and the loop runs on guarded inline arithmetic.
INLINER_SOURCE = """
(define-inlinable (sq n) (* n n))
(define-inlinable (poly n) (+ (sq n) (+ (* 3 n) 1)))
(define-inlinable (clamp n) (if (> n 1000000) (- n 1000000) n))
(define (sum-range i hi acc)
  (if (> i hi) acc (sum-range (+ i 1) hi (+ acc (clamp (poly i))))))
(define (sum-ranges rs acc)
  (if (null? rs)
      acc
      (sum-ranges (cdr rs) (sum-range (car (car rs)) (cdr (car rs)) acc))))
(sum-ranges bench-input 0)
"""

#: `and-r` short-circuit reordering over the same ranges: every operand is
#: inline arithmetic, so the reordering is all that moves the run time.
BOOLEAN_SOURCE = """
(define (keep? n)
  (and-r (> n 150) (< (* 2 n) 1900) (> (- 1000 n) 40) (< (* n 3) 2700)))
(define (count-range i hi acc)
  (if (> i hi) acc (count-range (+ i 1) hi (if (keep? i) (+ acc 1) acc))))
(define (count-ranges rs acc)
  (if (null? rs)
      acc
      (count-ranges (cdr rs) (count-range (car (car rs)) (cdr (car rs)) acc))))
(count-ranges bench-input 0)
"""


def int_ranges(rng: random.Random, n: int, width: int) -> object:
    """A Scheme list of ``n`` ``(lo . hi)`` ranges inside ``[0, 1000)``."""
    from repro.scheme.datum import Pair

    ranges = []
    for _ in range(n):
        lo = rng.randrange(0, 1000 - width)
        ranges.append(Pair(lo, lo + width - 1))
    return scheme_list(*ranges)
