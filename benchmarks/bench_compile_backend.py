"""Experiment CB — the compiled backend vs the tree-walking interpreter.

The artifact backend's claim (and this PR sequence's reason to exist):
translating expanded core forms to Python eliminates the interpretive
overhead without changing a single observable — so on compute-bound
case-study workloads (inliner, boolean reordering) the compiled program
runs ≥10× faster, while dispatch workloads whose cost sits in shared
primitives (the Figure-5/8 `case` parser spends its time inside
`member`, whose exact-type fast path compares character keys inline)
clear ≥5×.

Every workload is first checked for *value* agreement between backends;
a speedup over a wrong answer would not be a speedup.

``PGMP_BENCH_SMOKE=1`` shrinks the workloads for CI: thresholds drop to
the smoke floor (2× / 1.3×) because tiny runs amortize less startup.
"""

import gc
import os
import time

from benchmarks.conftest import report
from repro.casestudies.boolean_reorder import make_boolean_system
from repro.casestudies.exclusive_cond import make_case_system
from repro.casestudies.inliner import make_inliner_system

SMOKE = os.environ.get("PGMP_BENCH_SMOKE") == "1"

N = 8_000 if SMOKE else 100_000
PARSER_REPS = 15 if SMOKE else 150
COMPUTE_THRESHOLD = 2.0 if SMOKE else 10.0
DISPATCH_THRESHOLD = 1.3 if SMOKE else 5.0

INLINER = """
(define-inlinable (sq n) (* n n))
(define-inlinable (poly n) (+ (sq n) (+ (* 3 n) 1)))
(define (total i acc)
  (if (= i 0) acc (total (- i 1) (+ acc (poly i)))))
(total {n} 0)
"""

BOOLEAN = """
(define (keep? n) (and-r (> n 100) (< n 110) (= (modulo n 2) 0)))
(define (count i acc)
  (if (= i 0) acc (count (- i 1) (if (keep? i) (+ acc 1) acc))))
(count {n} 0)
"""

_PARSE = r"""
(define (parse-char c)
  (case c
    [(#\0 #\1 #\2 #\3 #\4 #\5 #\6 #\7 #\8 #\9) 'digit]
    [(#\() 'start-paren]
    [(#\)) 'end-paren]
    [(#\space #\tab) 'white-space]
    [else 'other]))
"""
_STREAM = " " * 55 + "(" * 23 + ")" * 23 + "0123456789"
PARSER = (
    _PARSE
    + "(define (count-stream cs acc)\n"
    "  (if (null? cs) acc\n"
    "      (count-stream (cdr cs)\n"
    "        (if (eq? (parse-char (car cs)) 'other) acc (+ acc 1)))))\n"
    f'(define stream (string->list "{_STREAM}"))\n'
    "(define (run n acc)\n"
    "  (if (= n 0) acc (run (- n 1) (count-stream stream acc))))\n"
    "(run {n} 0)"
)


def _prepare(factory, template, n, backend):
    """A profiled, compiled and warmed run of the workload on one backend,
    plus the value it computes."""
    os.environ["PGMP_BACKEND"] = backend
    try:
        system = factory(policy="warn")
    finally:
        del os.environ["PGMP_BACKEND"]
    system.profile_run(template.replace("{n}", str(max(1, n // 20))), "bench.ss")
    program = system.compile(template.replace("{n}", str(n)), "bench.ss")
    value = str(system.run(program).value)  # also warms the artifact memo
    return (lambda: system.run(program)), value


def _ratio(name, factory, template, n, threshold):
    runs = {b: _prepare(factory, template, n, b) for b in ("interp", "compile")}
    interp_value, compile_value = runs["interp"][1], runs["compile"][1]
    assert interp_value == compile_value, (
        f"{name}: backends disagree ({interp_value!r} vs {compile_value!r})"
    )
    # Best of 3 per backend, the backends alternating, so that a change in
    # the shared host's speed during the measurement reaches both sides;
    # each run starts from a collected heap, so that neither side pays for
    # collecting the other's garbage.
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(3):
        for backend, (run, _value) in runs.items():
            gc.collect()
            start = time.perf_counter()
            run()
            best[backend] = min(best[backend], time.perf_counter() - start)
    interp_time, compile_time = best["interp"], best["compile"]
    ratio = interp_time / compile_time
    report(
        f"compile-backend/{name}",
        f"target: >={threshold:g}x over the interpreter"
        + (" (smoke floor)" if SMOKE else ""),
        f"{ratio:.1f}x (interp {interp_time * 1000:.1f} ms, "
        f"compiled {compile_time * 1000:.1f} ms, n={n})",
    )
    assert ratio >= threshold, f"{name}: only {ratio:.2f}x, need {threshold}x"


def test_inliner_case_study_speedup():
    _ratio("inliner", make_inliner_system, INLINER, N, COMPUTE_THRESHOLD)


def test_boolean_reorder_case_study_speedup():
    _ratio("boolean", make_boolean_system, BOOLEAN, N, COMPUTE_THRESHOLD)


def test_case_parser_dispatch_speedup():
    _ratio(
        "case-parser", make_case_system, PARSER, PARSER_REPS, DISPATCH_THRESHOLD
    )
