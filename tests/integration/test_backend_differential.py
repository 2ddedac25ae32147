"""Backend differential pin: interp and compile must be indistinguishable.

Three layers of evidence, per the equal-semantics guarantee:

* every ``examples/*.py`` prints the same thing under ``PGMP_BACKEND=interp``
  and ``PGMP_BACKEND=compile`` (wall-clock timing lines masked);
* every case-study library produces the same values *and* the same profile
  counters through the full profile→recompile cycle on both backends;
* decision-provenance traces are byte-identical JSON under both backends.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.core.api import reset_generated_points
from repro.obs.export import render_trace_json
from repro.obs.tracer import Tracer, using_tracer
from repro.scheme.datum import write_datum
from repro.scheme.instrument import ProfileMode
from repro.scheme.pipeline import SchemeSystem
from repro.scheme.syntax import strip_all

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")
BACKENDS = ("interp", "compile")

#: Lines whose only content is wall-clock measurement; everything else in an
#: example's output is semantics and must match byte for byte.
_TIMING = re.compile(r"\s*\d+(\.\d+)?\s*(ms|s)\b|speedup: *\d+(\.\d+)?x")


def _mask_timing(text: str) -> str:
    return "\n".join(
        _TIMING.sub("<t>", line) for line in text.splitlines()
    )


def _run_example(name: str, backend: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["PGMP_BACKEND"] = backend
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


@pytest.mark.parametrize(
    "example",
    sorted(f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")),
)
def test_example_output_parity(example):
    runs = {b: _run_example(example, b) for b in BACKENDS}
    for run in runs.values():
        assert run.returncode == 0, run.stderr
    assert _mask_timing(runs["interp"].stdout) == _mask_timing(
        runs["compile"].stdout
    )


# -- case studies through the full profile→recompile cycle --------------------------

#: factory-module attribute → a workload exercising its profile-guided
#: construct, including at least one recursion the codegen converts.
CASE_STUDIES = {
    "if_r.make_if_r_system": """
        (define (f n) (if-r (< n 5) 'lo 'hi))
        (define (walk xs acc)
          (if (null? xs) acc (walk (cdr xs) (cons (f (car xs)) acc))))
        (walk (list 1 6 7 8 9 2 6 6) '())
    """,
    "exclusive_cond.make_case_system": """
        (define (g n) (case n ((1 2) 'small) ((8 9) 'big) (else 'mid)))
        (map g (list 8 8 8 9 1 5 8 2))
    """,
    "receiver_class.make_object_system": """
        (class Circle ((r 0)) (define-method (area this) (field this r)))
        (class Square ((s 0)) (define-method (area this) (field this s)))
        (define shapes (list (make-Circle 2) (make-Circle 3) (make-Square 4)))
        (map (lambda (s) (method s area)) shapes)
    """,
    "boolean_reorder.make_boolean_system": """
        (define (h n) (and-r (> n 0) (< n 10)))
        (map h (list -1 5 20 3 4 5 6))
    """,
    "inliner.make_inliner_system": """
        (define-inlinable (sq n) (* n n))
        (define (k n) (sq (+ n 1)))
        (map k (list 1 2 3 4 5))
    """,
    "datastructs.make_datastructs_system": """
        (define s (profiled-seq 10 20 30 40 50))
        (define (go n acc)
          (if (= n 0) acc (go (- n 1) (+ acc (seq-ref s (modulo n 5))))))
        (go 50 0)
    """,
}


def _factory(dotted: str):
    import importlib

    module_name, attr = dotted.split(".")
    module = importlib.import_module(f"repro.casestudies.{module_name}")
    return getattr(module, attr)


def _cycle(dotted: str, program: str, backend: str, monkeypatch):
    """profile → recompile → run under one backend; all observables."""
    monkeypatch.setenv("PGMP_BACKEND", backend)
    system = _factory(dotted)(policy="warn")
    assert system.backend == backend
    profiled = system.profile_run(program, "study.ss")
    optimized = system.compile(program, "study.ss")
    result = system.run(optimized)
    return (
        write_datum(strip_all(profiled.value)),
        {str(p): c for p, c in profiled.counters.snapshot().items()},
        write_datum(strip_all(result.value)),
    )


@pytest.mark.parametrize("dotted", sorted(CASE_STUDIES))
def test_case_study_cycle_parity(dotted, monkeypatch):
    program = CASE_STUDIES[dotted]
    outcomes = {
        b: _cycle(dotted, program, b, monkeypatch) for b in BACKENDS
    }
    assert outcomes["interp"] == outcomes["compile"]
    assert sum(outcomes["interp"][1].values()) > 0, "the workload was profiled"


# -- decision-provenance traces ------------------------------------------------------


def _traced_json(dotted: str, program: str, backend: str, db, cached: bool) -> str:
    system = _factory(dotted)(policy="warn")
    system.profile_db = db
    system.backend = backend
    reset_generated_points()
    tracer = Tracer()
    with using_tracer(tracer):
        if cached:
            system.compile_cached(program, "study.ss")
        else:
            system.compile(program, "study.ss")
    return render_trace_json(tracer)


@pytest.mark.parametrize("dotted", sorted(CASE_STUDIES))
def test_trace_parity_across_backends(dotted):
    # Decision provenance must not depend on how the optimized program is
    # subsequently *executed*: with real profile data loaded, tracing a
    # compile under either backend setting yields byte-identical JSON.
    program = CASE_STUDIES[dotted]
    seed = _factory(dotted)(policy="warn")
    seed.profile_run(program, "study.ss", mode=ProfileMode.EXPR)
    db = seed.profile_db

    docs = {b: _traced_json(dotted, program, b, db, cached=False) for b in BACKENDS}
    assert '"decisions"' in docs["interp"]
    assert docs["interp"] == docs["compile"]


def test_artifact_cache_decisions_are_themselves_traced():
    # The cache layer adds provenance rather than perturbing it: the
    # compile_cached path records an artifact_cache span with the outcome
    # and both fingerprints, on top of the same expansion trace.
    dotted = "exclusive_cond.make_case_system"
    program = CASE_STUDIES[dotted]
    seed = _factory(dotted)(policy="warn")
    seed.profile_run(program, "study.ss", mode=ProfileMode.EXPR)
    doc = _traced_json(dotted, program, "compile", seed.profile_db, cached=True)
    assert '"artifact_cache"' in doc
    assert '"outcome": "miss"' in doc
    assert '"source_fp"' in doc and '"profile_fp"' in doc


# -- equivalence fast path: case over mixed key types ---------------------------------

#: One clause per key type. ``case`` tests with ``equal?``, which compares
#: numbers with ``=`` across exactness, so 1.0 takes the (1) clause; #t is
#: not 1 and falls to else.
MIXED_KEY_CASE = r"""
(define (dispatch k)
  (case k
    [(1) 'one] [(1/2) 'half] [(#\a) 'char] [(a) 'symbol]
    [("s") 'string] [(()) 'nil] [else 'other]))
(define (walk ks acc)
  (if (null? ks)
      (reverse acc)
      (begin (display (dispatch (car ks))) (newline)
             (walk (cdr ks) (cons (dispatch (car ks)) acc)))))
(walk (list 1.0 #t 1 #\a 'a "s" '()) '())
"""


def test_mixed_key_case_parity_in_every_flavor(monkeypatch):
    from repro.core.policy import StepBudget

    observed = {}
    for backend in BACKENDS:
        monkeypatch.setenv("PGMP_BACKEND", backend)
        system = _factory("exclusive_cond.make_case_system")(policy="warn")
        assert system.backend == backend
        program = system.compile(MIXED_KEY_CASE, "mixed.ss")
        for instrument in (None, ProfileMode.EXPR):
            for budget in (None, StepBudget(10**6)):
                result = system.run(program, instrument=instrument, budget=budget)
                counters = result.counters.snapshot() if result.counters else {}
                observed[backend, instrument, budget is not None] = (
                    write_datum(strip_all(result.value)),
                    result.output,
                    {str(p): c for p, c in counters.items()},
                    budget.initial - budget.remaining if budget else None,
                )
    for (backend, instrument, budgeted), outcome in observed.items():
        assert outcome == observed["interp", instrument, budgeted], (instrument, budgeted)
    value, output, counters, _ = observed["interp", ProfileMode.EXPR, True]
    assert value == "(one other one char symbol string nil)"
    assert output.split() == value.strip("()").split()
    assert sum(counters.values()) > 0
