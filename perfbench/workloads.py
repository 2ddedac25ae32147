"""The three workloads: their programs, inputs, phases and checks.

Each workload is one closed loop in this process. A run sets up several
times (the last set-up is kept), then spends fixed shares of its
measuring time on five phases, interleaved:

* ``profile`` — the first compile's instrumented run on the training
  input, ``record`` and ``store_profile``;
* ``compile`` — the paper's second compile: ``load_profile``, read,
  expand and codegen to a runnable artifact;
* ``run`` — one evaluation pass of every program over the evaluation
  input, checked against a reference the code under test did not make;
* ``swap`` — drift-triggered guarded swaps of the workload's first
  Scheme program through ``RecompileController`` and ``RolloutGuard``;
* ``ingest`` — the simulated fleet's delta frames to a ``pgmp serve``
  subprocess, first at saturation, then at a fixed offered rate.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass

from perfbench import programs as P
from perfbench import service
from perfbench.trace import Spans
from repro.casestudies import (
    BOOLEAN_REORDER_LIBRARY,
    CASE_LIBRARY,
    EXCLUSIVE_COND_LIBRARY,
    INLINER_LIBRARY,
)
from repro.casestudies.receiver_class import (
    OBJECT_SYSTEM_LIBRARY,
    RECEIVER_CLASS_LIBRARY,
)
from repro.core.database import ProfileDatabase
from repro.pyast import PyAstSystem
from repro.scheme.compile_py import compile_program
from repro.scheme.datum import write_datum
from repro.scheme.pipeline import SchemeSystem
from repro.service import (
    GenerationJournal,
    RecompileController,
    RolloutGuard,
    scheme_canary,
    scheme_recompiler,
    scheme_static_verifier,
    weight_drift,
)

with open(os.path.join(os.path.dirname(__file__), "layers.json"), encoding="utf-8") as _spec:
    _INGEST = json.load(_spec)["ingest"]
#: Offered load of each workload's open-loop ingest phase, in deltas/s,
#: and the limit on its ack latency tail (``ingest_ms_tail``); layers.json
#: records both and how the rates were chosen. Fixed, never derived from
#: a measurement, so that a slower server shows as higher latency.
OPEN_LOOP_RATES = {name: float(rate) for name, rate in _INGEST["open_loop_rate_deltas_per_s"].items()}
INGEST_TAIL_LIMIT_MS = float(_INGEST["ingest_tail_limit_ms"])
#: Unacknowledged frames allowed in the saturation phase.
SATURATION_WINDOW = 16
#: Frames per saturation unit, and seconds per open-loop unit, of the
#: interleaved schedule.
SATURATION_SEGMENT_FRAMES = 256
OPEN_LOOP_SEGMENT_S = 0.3
#: Frames after which the traced run reads the server's counts, so that
#: those counts cover the same seeded frames on every run.
COUNT_PROBE_FRAMES = 1024
#: Drift threshold of the recompile controller (its default).
DRIFT_THRESHOLD = 0.05
#: Share of swaps that flap back to a profile an earlier swap deployed.
FLAP_SHARE = 0.2


def derived(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, all fixed by the run's seed."""
    return random.Random(f"{seed}:{purpose}")


def scheme_system(libraries) -> SchemeSystem:
    # Strict: a profile that fails to load or is quarantined raises, so it
    # fails the op instead of passing as a faster, unoptimised compile.
    system = SchemeSystem(policy="strict", backend="compile")
    for index, library in enumerate(libraries):
        system.load_library(library, f"library-{index}.ss")
    return system


def render(result) -> tuple[str, str]:
    return write_datum(result.value), result.output


# -- programs ----------------------------------------------------------------


class SchemeProgram:
    """One Scheme program with its system, inputs and reference output."""

    kind = "scheme"

    def __init__(self, name, libraries, source, make_input, train_size, eval_size,
                 drift_input=None, input_program=None):
        self.name = name
        self.libraries = libraries
        self.source = source
        self.filename = f"{name}.ss"
        self.make_input = make_input
        self.train_size = train_size
        self.eval_size = eval_size
        self.drift_input = drift_input
        self.input_program = input_program

    def datum(self, system, rng, size):
        """A seeded input, built by the program's library when needed."""
        raw = self.make_input(rng, size)
        if self.input_program is None:
            return raw
        system.runtime_env.define(P.INPUT_NAME, raw)
        return system.run_source(self.input_program, "build-input.ss").value

    def setup(self, seed: int, workdir: str) -> None:
        self.system = scheme_system(self.libraries)
        self.train = self.datum(self.system, derived(seed, f"{self.name}:train"), self.train_size)
        self.eval = self.datum(self.system, derived(seed, f"{self.name}:eval"), self.eval_size)
        self.profile_path = os.path.join(workdir, f"{self.name}.profile.json")
        # The reference: the tree-walking interpreter on the unoptimised
        # expansion (an empty profile database).
        reference = SchemeSystem(policy="strict", backend="interp")
        for index, library in enumerate(self.libraries):
            reference.load_library(library, f"library-{index}.ss")
        reference.runtime_env.define(P.INPUT_NAME, self.eval)
        self.expected = render(reference.run(reference.compile(self.source, self.filename)))
        self.program = None
        self.run_system = None

    def renew(self) -> None:
        """A fresh system for the next profile or compile op, as each of
        the paper's two compiles starts from one. A system keeps every
        binding its expansions made (the expander's hygiene table), so in
        one system each compile resolves identifiers more slowly than the
        one before: compile time doubled over a few hundred compiles, and
        a run's figures would depend on how many it managed."""
        self.system = scheme_system(self.libraries)

    def profile_op(self, spans: Spans) -> bool:
        system = self.system
        system.hot_swap_profile(ProfileDatabase())
        system.runtime_env.define(P.INPUT_NAME, self.train)
        with spans.span("scheme.profile_run"):
            result = system.profile_run(self.source, self.filename)
        with spans.span("core.store"):
            system.store_profile(self.profile_path)
        return result.counters.total() > 0

    def compile_op(self, spans: Spans) -> bool:
        system = self.system
        with spans.span("core.load"):
            system.load_profile(self.profile_path)
        with spans.span("core.merge"):
            system.profile_db.merged()
        with spans.span("scheme.compile"):
            program = system.compile(self.source, self.filename)
        with spans.span("codegen"):
            artifact = compile_program(program, self.filename)
        # Runs use the first compile's program, in the system that
        # compiled it, translated once by a warm-up run; later compiles
        # are measured, and each must emit the first one's code: the
        # stored profile is the same.
        if self.program is None:
            self.program = program
            self.run_system = system
            self.first_source = artifact.python_source
        self.artifact = artifact
        return artifact.python_source == self.first_source

    def run_op(self, spans: Spans) -> bool:
        system = self.run_system
        system.runtime_env.define(P.INPUT_NAME, self.eval)
        with spans.span(f"run.{self.name}"):
            result = system.run(self.program)
        with spans.span("bench.check"):
            return render(result) == self.expected


class PyAstProgram:
    """The pyast `pycase` parser; its reference is the undecorated function."""

    kind = "pyast"
    name = "pycase"

    def __init__(self, train_size: int, eval_size: int) -> None:
        self.train_size = train_size
        self.eval_size = eval_size

    def setup(self, seed: int, workdir: str) -> None:
        self.system = PyAstSystem(policy="strict")
        train = P.char_stream(derived(seed, "pycase:train"), self.train_size)
        self.train = [(c,) for c in train]
        self.eval = P.char_stream(derived(seed, "pycase:eval"), self.eval_size)
        self.expected = [P.classify_char(c) for c in self.eval]
        self.profile_path = os.path.join(workdir, "pycase.profile.json")
        self.fn = None

    def renew(self) -> None:
        """Nothing to renew: expanding a Python function keeps no state."""

    def profile_op(self, spans: Spans) -> bool:
        system = self.system
        system.hot_swap_profile(ProfileDatabase())
        with spans.span("pyast.instrument"):
            instrumented = system.expand(P.classify_char)
        with spans.span("pyast.profile"):
            counters = system.profile(instrumented, self.train)
        with spans.span("core.store"):
            system.store_profile(self.profile_path)
        self.instrumented = instrumented
        return counters.total() > 0

    def compile_op(self, spans: Spans) -> bool:
        with spans.span("core.load"):
            self.system.load_profile(self.profile_path)
        with spans.span("pyast.expand"):
            fn = self.system.expand(P.classify_char)
        if self.fn is None:
            self.fn = fn
        return fn.__pgmp_source__ == self.fn.__pgmp_source__

    def run_op(self, spans: Spans) -> bool:
        fn = self.fn
        with spans.span("pyast.run"):
            got = [fn(c) for c in self.eval]
        with spans.span("bench.check"):
            return got == self.expected


def _parser(train, eval_):
    return SchemeProgram(
        "parser", [EXCLUSIVE_COND_LIBRARY, CASE_LIBRARY], P.PARSER_SOURCE,
        lambda rng, n: P.scheme_chars(P.char_stream(rng, n)), train, eval_,
        drift_input=lambda rng, step: P.scheme_chars(
            P.char_stream(rng, 200, P.drifted_skew(rng, step))
        ),
    )


def _shapes(train, eval_):
    return SchemeProgram(
        "shapes", [OBJECT_SYSTEM_LIBRARY, RECEIVER_CLASS_LIBRARY, P.SHAPES_LIBRARY],
        P.SHAPES_SOURCE, P.shape_specs, train, eval_,
        input_program="(build-shapes bench-input '())",
    )


def _inliner(train, eval_):
    return SchemeProgram(
        "inliner", [INLINER_LIBRARY], P.INLINER_SOURCE,
        lambda rng, n: P.int_ranges(rng, n, 400), train, eval_,
        # Many short ranges and a few long ones alternate, which moves the
        # outer loop's weight relative to the inner one.
        drift_input=lambda rng, step: (
            P.int_ranges(rng, rng.randint(40, 60), 10)
            if step % 2
            else P.int_ranges(rng, rng.randint(1, 4), 200)
        ),
    )


def _boolean(train, eval_):
    return SchemeProgram(
        "boolean", [BOOLEAN_REORDER_LIBRARY], P.BOOLEAN_SOURCE,
        lambda rng, n: P.int_ranges(rng, n, 400), train, eval_,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make_programs: object
    #: share of the measuring time per phase
    shares: dict
    #: factory of the swap phase's program (its evaluation input feeds the
    #: canary)
    swap_program: object
    #: repetitions per sample of an op kind (default 1): each sample is
    #: the mean of that many back-to-back repetitions, which averages out
    #: sub-second swings in the speed of a shared machine while leaving
    #: enough samples for a tail
    reps: dict


#: Phase shares of the two run-heavy workloads.
RUN_HEAVY = {"profile": 0.12, "compile": 0.12, "run": 0.33, "swap": 0.23, "ingest": 0.20}

WORKLOADS = {
    "case-dispatch": Workload(
        "case-dispatch",
        lambda: [_parser(1000, 4000), _shapes(400, 1500), PyAstProgram(1000, 4000)],
        RUN_HEAVY,
        lambda: _parser(400, 60),
        {"profile": 2, "compile": 10, "run": 2, "swap": 3},
    ),
    "arith-inline": Workload(
        "arith-inline",
        lambda: [_inliner(3, 20), _boolean(3, 20)],
        RUN_HEAVY,
        lambda: _inliner(2, 1),
        {"profile": 2, "compile": 12, "run": 8, "swap": 3},
    ),
    "profile-service": Workload(
        "profile-service",
        lambda: [_parser(400, 2000)],
        {"profile": 0.08, "compile": 0.08, "run": 0.12, "swap": 0.24, "ingest": 0.48},
        lambda: _parser(400, 60),
        {"profile": 3, "compile": 20, "run": 3, "swap": 3},
    ),
}


def parameters(workload: Workload) -> dict:
    """The values a run of ``workload`` uses, for its log."""
    return {
        "workload": workload.name,
        "shares": workload.shares,
        "reps": workload.reps,
        "programs": {
            p.name: {"train": p.train_size, "eval": p.eval_size} for p in workload.make_programs()
        },
        "open_loop_rate_deltas_per_s": OPEN_LOOP_RATES[workload.name],
        "ingest_tail_limit_ms": INGEST_TAIL_LIMIT_MS,
        "saturation_window": SATURATION_WINDOW,
        "fleet_bodies_per_program": FLEET_BODIES,
        "fleet_chunk_share": FLEET_CHUNK_SHARE,
        **service.PARAMETERS,
    }


# -- the swap path -------------------------------------------------------------


class Timed:
    """Wraps a callable the controller or guard calls, timing each call."""

    def __init__(self, fn, spans: Spans, name: str) -> None:
        self.fn = fn
        self.spans = spans
        self.name = name
        self.seconds: list[float] = []
        self.results: list[object] = []

    def __call__(self, *args):
        start = time.perf_counter()
        with self.spans.span(self.name):
            result = self.fn(*args)
        self.seconds.append(time.perf_counter() - start)
        self.results.append(result)
        return result


class SwapDriver:
    """Guarded swaps of one program along a seeded drift schedule."""

    def __init__(self, program: SchemeProgram, seed: int, workdir: str, spans: Spans):
        program.setup(seed, workdir)
        self.program = program
        self.rng = derived(seed, "drift")
        system = program.system
        system.runtime_env.define(P.INPUT_NAME, program.eval)
        self.recompile = Timed(scheme_recompiler(system, program.source, program.filename), spans, "controller.recompile")
        self.verify = Timed(scheme_static_verifier(), spans, "verify")
        self.canary = Timed(scheme_canary(system), spans, "canary")
        journal = GenerationJournal(os.path.join(workdir, "journal"))
        # The guard journals each generation (fsynced) before the swap.
        journal.record = self.journal = Timed(journal.record, spans, "journal.record")
        guard = RolloutGuard(validator=self.canary, static_verifier=self.verify, journal=journal)
        self.controller = RecompileController(self.recompile, threshold=DRIFT_THRESHOLD, guard=guard)
        # Drift profiles come from instrumented runs on a separate system,
        # as a worker's would.
        self.profiler = scheme_system(program.libraries)
        self.deployed: list[ProfileDatabase] = []
        self.current: ProfileDatabase | None = None
        self.step = 0

    def next_profile(self) -> ProfileDatabase:
        """The next step of the drift schedule: mostly a fresh profile,
        sometimes a flap back to one deployed before that drifts from
        the current one."""
        current = self.current.merged().as_key_mapping() if self.current else {}
        earlier = [
            db for db in self.deployed
            if weight_drift(current, db.merged().as_key_mapping()) > DRIFT_THRESHOLD
        ]
        if earlier and self.rng.random() < FLAP_SHARE:
            return self.rng.choice(earlier)
        # A fresh profile that happens to land within the threshold of
        # the current one is redrawn from the next step of the schedule.
        while True:
            db = ProfileDatabase()
            self.profiler.hot_swap_profile(db)
            self.step += 1
            drift = self.program.drift_input(self.rng, self.step)
            self.profiler.runtime_env.define(P.INPUT_NAME, drift)
            self.profiler.profile_run(self.program.source, self.program.filename)
            if weight_drift(current, db.merged().as_key_mapping()) > DRIFT_THRESHOLD:
                return db

    def swap_op(self, spans: Spans, db: ProfileDatabase) -> tuple[bool, float]:
        """One ``maybe_recompile``: (recompiled, its wall time)."""
        start = time.perf_counter()
        with spans.span("controller.maybe_recompile"):
            decision = self.controller.maybe_recompile(db)
        elapsed = time.perf_counter() - start
        if decision.recompiled:
            self.current = db
            if db not in self.deployed:
                self.deployed.append(db)
        return decision.recompiled, elapsed


# -- the fleet's delta bodies -------------------------------------------------------

#: Delta bodies cut per Scheme program for the fleet to draw from, and
#: the largest share of the program's training input one body covers.
FLEET_BODIES = 8
FLEET_CHUNK_SHARE = 0.25


def fleet_pools(programs, rng: random.Random) -> list[tuple[str, list[dict[str, int]]]]:
    """Per Scheme program, its dataset name and the counter increments of
    instrumented runs over seeded chunks of its training distribution:
    what a worker's shipper cuts after a flush interval of such work."""
    pools = []
    for program in programs:
        if program.kind != "scheme":
            continue
        system = program.system
        instrumented = system.compile(program.source, program.filename)
        bodies = []
        for _ in range(FLEET_BODIES):
            size = rng.randint(1, max(1, int(program.train_size * FLEET_CHUNK_SHARE)))
            chunk = program.datum(system, rng, size)
            system.runtime_env.define(P.INPUT_NAME, chunk)
            counters = system.run(instrumented, instrument=system.mode).counters
            bodies.append({k: n for k, n in sorted(counters.as_key_mapping().items()) if n > 0})
        pools.append((program.name, bodies))
    return pools
