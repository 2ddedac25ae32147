"""The repository's benchmark: one seeded, layer-attributed run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload case-dispatch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same phases with spans on and prints the per-layer
metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. BENCHMARK.json names
the workloads and metrics and says what each one measures.

End-to-end timings and rates are scaled to a reference machine speed
measured around every op (see ``perfbench/speed.py``), and so are the two
tails reported per layer (``compile_ms_tail``, ``ingest_ms_tail``); the
other per-layer timings are wall times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import sysconfig
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: String hashing seed of the run and of the server it starts. A random
#: one gives each process its own dict and set layouts, which moved the
#: same op's time by up to a fifth between runs.
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {SRC}; run from the repository root",
            file=sys.stderr,
        )
        sys.exit(2)


_check_checkout()
sys.path[:0] = [SRC, ROOT]

from perfbench import service  # noqa: E402
from perfbench.speed import Speed  # noqa: E402
from perfbench import trace as T  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from repro.core.counters import CounterSet  # noqa: E402
from repro.core.database import ProfileDatabase  # noqa: E402
from repro.core.policy import StepBudget  # noqa: E402
from repro.obs.metrics import get_global_metrics  # noqa: E402
from repro.obs.tracer import Tracer, using_tracer  # noqa: E402
from repro.pyast.profiler import collecting_counters  # noqa: E402
from repro.scheme.compile_py import compile_program  # noqa: E402
from repro.scheme.instrument import ProfileMode  # noqa: E402
from repro.scheme.reader import read_string  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Minimum ops per phase, so every tail has at least ten samples beyond it.
MIN_OPS = 11
#: Largest share of an op's wall time that the per-layer metrics
#: reported for its kind may leave unaccounted for.
UNATTRIBUTED_LIMIT = 0.10
#: Op kinds on the workloads' blocking path, with the per-layer metrics
#: (ms per op) that should account for their wall time.
ATTRIBUTED = {
    "compile": ("reader.ms", "expander.ms", "codegen.ms", "core.load_ms", "core.merge_ms", "pyast.expand_ms"),
    "run": ("run.generated_ms", "run.glue_ms", "run.primitives_ms", "pyast.run_ms"),
    "swap": ("controller.recompile_ms", "verify.ms", "canary.ms", "swap.residual_ms"),
}


def tail(samples: list[float]) -> float:
    """The highest sample with at least ten samples beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def counter(name: str) -> float:
    return get_global_metrics().snapshot()["counters"].get(name, 0)


class Run:
    def __init__(self, workload: W.Workload, seed: int, seconds: float, traced: bool, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.spans = T.Spans(traced)
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.layer: dict[str, float] = {}
        self.server = None
        self.conn = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """The median set-up time, scaled to the reference speed."""
        times = []
        for index in range(SETUPS):
            if index:
                self.teardown()
            start = time.perf_counter()
            _, slowdown = self.speed.around(self._setup_once)
            times.append((time.perf_counter() - start) / slowdown)
        return statistics.median(times)

    def _setup_once(self) -> None:
        workdir = tempfile.mkdtemp(dir=self.workdir)
        self.programs = self.workload.make_programs()
        for program in self.programs:
            program.setup(self.seed, workdir)
        self.swapper = W.SwapDriver(self.workload.swap_program(), self.seed, workdir, self.spans)
        pools = W.fleet_pools(self.programs, W.derived(self.seed, "fleet-bodies"))
        self.fleet = service.Fleet(W.derived(self.seed, "fleet"), pools)
        self.fleet.check_encoding()
        self.server = service.ServeProcess(workdir, SRC)
        self.conn = service.Connection(self.server.address)

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            code = self.server.stop()
            self.server = None
            if code != 0:
                self.attempted += 1
                self.failed += 1

    # -- ops ---------------------------------------------------------------

    def op(self, kind: str, fn) -> float | None:
        """One checked op under an ``op.<kind>`` root span: ``fn`` repeated
        the workload's number of times for ``kind``. Records each
        repetition's wall time and their mean; returns the mean."""
        reps = self.workload.reps.get(kind, 1)
        self.attempted += 1
        self.spans.new_op(reps)
        times = []

        def body() -> bool:
            with self.spans.span(f"op.{kind}"):
                ok = True
                for _ in range(reps):
                    start = time.perf_counter()
                    ok = fn() and ok
                    times.append(time.perf_counter() - start)
            return ok

        try:
            ok, slowdown = self.speed.around(body)
        except Exception as exc:  # a failing op is counted, never retried
            print(f"perfbench: {kind} op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            return None
        return self.record(kind, times, [slowdown] * len(times))

    def record(self, kind: str, times: list[float], slowdowns: list[float]) -> float:
        """Keeps the wall times as ``<kind>/wall`` and, each divided by
        the slowdown measured around it, the repetitions as ``<kind>/rep``
        and their mean as ``<kind>``; returns the mean wall time."""
        self.samples.setdefault(f"{kind}/wall", []).extend(times)
        scaled = [t / s for t, s in zip(times, slowdowns)]
        self.samples.setdefault(kind, []).append(statistics.fmean(scaled))
        self.samples.setdefault(f"{kind}/rep", []).extend(scaled)
        return statistics.fmean(times)

    def all_programs(self, method: str):
        def call():
            return all([getattr(p, method)(self.spans) for p in self.programs])
        return call

    def renewed(self, kind: str) -> float | None:
        """A ``kind`` op of every program, each from a fresh system made
        before the op is timed."""
        for program in self.programs:
            program.renew()
        return self.op(kind, self.all_programs(f"{kind}_op"))

    def swap(self) -> None:
        """Consecutive guarded swaps along the drift schedule. Each swap's
        pause is a sample of its own: flaps back to an earlier profile are
        artifact-cache hits, much faster than fresh recompiles, and a mean
        over a few swaps would mix the two kinds in a varying share."""
        pauses, slowdowns = [], []
        for _ in range(self.workload.reps.get("swap", 1)):
            # Drawing the drift profile is no part of a swap: a root span
            # of its own, outside every op.
            self.spans.new_op()
            with self.spans.span("drift.profile"):
                db = self.swapper.next_profile()
            self.attempted += 1
            self.spans.new_op()

            def body():
                with self.spans.span("op.swap"):
                    return self.swapper.swap_op(self.spans, db)

            try:
                (recompiled, pause), slowdown = self.speed.around(body)
            except Exception as exc:
                print(f"perfbench: swap failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                recompiled = False
            if recompiled:
                pauses.append(pause)
                slowdowns.append(slowdown)
            else:
                self.failed += 1
        if pauses:
            self.record("swap", pauses, slowdowns)

    # -- ingest ------------------------------------------------------------

    def ingest_probe(self) -> None:
        """A fixed seeded prefix of frames, then the server's counts, so
        the traced counts cover the same frames on every run."""
        _acked, _elapsed, frames, mismatches, _wire = service.run_saturation(
            self.conn, self.fleet, self.spans, W.COUNT_PROBE_FRAMES, W.SATURATION_WINDOW
        )
        self.attempted += frames
        self.failed += mismatches
        self.probe_stats = service.server_stats(self.conn)
        self.sat = {"acked": 0, "wire": 0, "rates": []}
        self.open = {"due": [], "scaled": [], "send": [], "lags": []}

    def saturation(self) -> None:
        (acked, elapsed, frames, mismatches, wire), slowdown = self.speed.around(
            lambda: service.run_saturation(
                self.conn, self.fleet, self.spans, W.SATURATION_SEGMENT_FRAMES, W.SATURATION_WINDOW
            )
        )
        self.attempted += frames
        self.failed += mismatches
        self.sat["acked"] += acked
        self.sat["wire"] += wire
        self.sat["rates"].append(acked / elapsed * slowdown)

    def open_loop(self) -> None:
        (due, sent, lags, frames, mismatches), slowdown = self.speed.around(
            lambda: service.run_open_loop(
                self.conn, self.fleet, self.spans, W.OPEN_LOOP_SEGMENT_S,
                W.OPEN_LOOP_RATES[self.workload.name],
            )
        )
        self.attempted += frames
        self.failed += mismatches
        # Wall times, as the per-layer split uses them, and scaled to the
        # reference speed, for ingest_ms_p50, ingest_ms_tail and its limit.
        self.open["due"].extend(due)
        self.open["scaled"].extend(t / slowdown for t in due)
        self.open["send"].extend(sent)
        self.open["lags"].extend(lags)

    def ingest_totals(self) -> None:
        stats = service.server_stats(self.conn)
        self.attempted += 1
        if not service.stats_match(stats, self.fleet):
            print(f"perfbench: server stats disagree with what was shipped: {stats['metrics']['counters']}", file=sys.stderr)
            self.failed += 1
        # The median segment: a stretch in which the shared machine stalled
        # either process weighs as one segment, not by its length.
        self.samples["ingest_rate"] = [statistics.median(self.sat["rates"])]
        self.samples["ingest"] = self.open["scaled"]
        # The open loop's tail limit is a check like any other: over it,
        # the run has a failed op. The tail is scaled to the reference speed
        # like the other end-to-end timings: a stall of the server that
        # would stay within the limit at that speed can pass it on a host
        # that runs the benchmark twice as slowly.
        ingest_tail = tail(self.open["scaled"]) * 1e3
        over = ingest_tail > W.INGEST_TAIL_LIMIT_MS
        self.attempted += 1
        self.failed += over
        print(
            f"perfbench: ingest_ms_tail {ingest_tail:.3f} ms at {W.OPEN_LOOP_RATES[self.workload.name]:g} "
            f"deltas/s, {'over' if over else 'within'} its {W.INGEST_TAIL_LIMIT_MS:g} ms limit",
            file=sys.stderr,
        )
        if self.workload.name == "profile-service":
            self.peak_rss = self.server.peak_rss_mb()
        if self.traced:
            counters = self.probe_stats["metrics"]["counters"]
            quantiles = stats["metrics"]["latency_quantiles"]
            batch = quantiles["batch_latency"]
            delta_p50 = quantiles["ingest_latency"]["0.5"]
            n_batches = stats["metrics"]["latency_counts"]["batch_latency"]
            # The highest reported quantile with ten batches beyond it.
            tail_q = max(
                (q for q in batch if n_batches * (1 - float(q)) >= 10), key=float, default="0.5"
            )
            encode_s = []
            for deltas in self.fleet.recent:
                began = time.perf_counter()
                self.fleet.library_frame(deltas)
                encode_s.append(time.perf_counter() - began)
            self.layer.update({
                "delta.encode_ms": statistics.median(encode_s) * 1e3,
                "wire.bytes_per_delta": self.sat["wire"] / self.sat["acked"],
                "aggregator.batch_ms_p50": batch["0.5"] * 1e3,
                "aggregator.batch_ms_tail": batch[tail_q] * 1e3,
                "aggregator.applied": counters.get("deltas_applied_total", 0),
                "aggregator.duplicates": counters.get("deltas_duplicate_total", 0),
                "aggregator.rejected": counters.get("deltas_rejected_total", 0),
                "aggregator.delta_ms_p50": delta_p50 * 1e3,
                "transport.overhead_ms": (statistics.median(self.open["send"]) - delta_p50) * 1e3,
                "loadgen.lag_ms": statistics.median(self.open["lags"]) * 1e3,
                "ingest_ms_tail": ingest_tail,
            })

    # -- the run -----------------------------------------------------------

    def measure(self) -> None:
        """Interleave the phases for the whole measuring time.

        Each step runs one unit of the phase furthest behind its share of
        time, so every metric's samples spread over the whole run and a
        slow stretch of the machine weighs on all of them alike.
        """
        spans = self.spans
        run_all = self.all_programs("run_op")
        untraced: list[float] = []

        def run_op():
            if self.traced and len(untraced) < len(self.samples.get("run", ())):
                # Every other op with spans off gives trace.overhead.
                spans.enabled = False
                elapsed = self.op("run", run_all)
                spans.enabled = True
                if elapsed is not None:
                    untraced.append(self.samples["run"].pop())
                return
            self.op("run", run_all)

        shares = dict(self.workload.shares)
        ingest = shares.pop("ingest")
        shares["saturation"] = 0.45 * ingest
        shares["open"] = 0.55 * ingest
        units = {
            "profile": lambda: self.renewed("profile"),
            "compile": lambda: self.renewed("compile"),
            "run": run_op,
            "swap": self.swap,
            "saturation": self.saturation,
            "open": self.open_loop,
        }
        minimum = {"profile": 5, "compile": MIN_OPS, "run": MIN_OPS, "swap": MIN_OPS,
                   "saturation": 1, "open": 1}
        # A profile to compile against, a program to run and the ingest
        # probe come first.
        units["profile"]()
        units["compile"]()
        self.op("warmup", run_all)
        self.ingest_probe()
        hits, misses = counter("artifact_cache_hits_total"), counter("artifact_cache_misses_total")
        spent = dict.fromkeys(units, 0.0)
        done = dict.fromkeys(units, 0)
        start = time.perf_counter()
        while True:
            over = time.perf_counter() - start >= self.seconds
            behind = [k for k in units if done[k] < minimum[k]] if over else list(units)
            if not behind:
                break
            kind = min(behind, key=lambda k: spent[k] / shares[k])
            began = time.perf_counter()
            try:
                units[kind]()
            except Exception as exc:  # counted, never retried
                print(f"perfbench: {kind} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                self.attempted += 1
                self.failed += 1
            spent[kind] += time.perf_counter() - began
            done[kind] += 1
        self.cache = (counter("artifact_cache_hits_total") - hits, counter("artifact_cache_misses_total") - misses)
        self.ingest_totals()
        if self.traced:
            self.layer["trace.overhead"] = statistics.median(self.samples["run"]) / statistics.median(untraced)
            self.layer["calibration.slowdown"] = self.speed.median()
            self.layer["compile_ms_tail"] = tail(self.samples["compile/rep"]) * 1e3

    # -- traced extras: counts and attribution -------------------------------

    def traced_layers(self) -> None:
        layer = self.layer
        scheme = [p for p in self.programs if p.kind == "scheme"]
        pyast = [p for p in self.programs if p.kind == "pyast"]

        # Compile path: one compile per program under the program's own
        # tracer, and one under cProfile for the read/expand/codegen split.
        datums = nodes = queries = decisions = expansions = source_bytes = 0
        compile_groups: dict[str, float] = {}
        for program in scheme:
            datums += T.datum_count(read_string(program.source, program.filename))
            tracer = Tracer()
            with using_tracer(tracer):
                expanded = program.system.compile(program.source, program.filename)
            queries += len(tracer.queries())
            decisions += len(tracer.decisions())
            expansions += sum(1 for span in tracer.spans if span.kind == "expand")
            nodes += T.core_node_count(expanded)
            source_bytes += len(program.artifact.python_source)
            _, stats = T.profile_call(
                lambda p=program: compile_program(p.system.compile(p.source, p.filename), p.filename)
            )
            for name, seconds in T.attribute(stats, compile_group).items():
                compile_groups[name] = compile_groups.get(name, 0.0) + seconds
        wall, own = self.spans.per_rep()
        self.op_wall_ms = {kind: seconds * 1e3 for kind, seconds in wall.items()}

        def per_op(kind: str, name: str) -> float:
            """Self ms of span ``name`` per repetition of a ``kind`` op."""
            return own.get(kind, {}).get(name, 0.0) * 1e3

        compile_ms = per_op("compile", "scheme.compile") + per_op("compile", "codegen")
        profiled = sum(compile_groups.values()) or 1.0
        layer.update({
            "reader.ms": compile_ms * compile_groups.get("reader", 0.0) / profiled,
            "reader.datums": datums,
            "expander.ms": compile_ms * compile_groups.get("expander", 0.0) / profiled,
            "expander.core_nodes": nodes,
            "expander.expansions": expansions,
            "core.queries": queries,
            "core.decisions": decisions,
            "core.merge_ms": per_op("compile", "core.merge"),
            "core.load_ms": per_op("compile", "core.load"),
            "codegen.ms": compile_ms * compile_groups.get("codegen", 0.0) / profiled,
            "codegen.source_bytes": source_bytes,
            "pyast.expand_ms": per_op("compile", "pyast.expand"),
        })

        # Profiling: hooks against a plain run of the same expansion.
        bumps = 0
        plain_s = instrumented_s = 0.0
        profile_bytes = 0
        for program in scheme:
            system = program.system
            system.hot_swap_profile(ProfileDatabase())
            system.runtime_env.define(W.P.INPUT_NAME, program.train)
            first = system.compile(program.source, program.filename)
            system.run(first)
            system.run(first, instrument=ProfileMode.EXPR)
            start = time.perf_counter()
            system.run(first)
            plain_s += time.perf_counter() - start
            start = time.perf_counter()
            result = system.run(first, instrument=ProfileMode.EXPR)
            instrumented_s += time.perf_counter() - start
            bumps += result.counters.total()
            profile_bytes += os.path.getsize(program.profile_path)
        for program in pyast:
            profile_bytes += os.path.getsize(program.profile_path)
        layer.update({
            "hooks.ms": (instrumented_s - plain_s) * 1e3,
            "hooks.bumps": bumps,
            "hooks.overhead": instrumented_s / plain_s if plain_s else 0.0,
            "core.store_ms": per_op("profile", "core.store"),
            "core.profile_bytes": profile_bytes,
        })
        if pyast:
            program = pyast[0]
            start = time.perf_counter()
            for args in program.train:
                W.P.classify_char(*args)
            plain = time.perf_counter() - start
            start = time.perf_counter()
            with collecting_counters(CounterSet(name="overhead")):
                for args in program.train:
                    program.instrumented(*args)
            profiled_run = time.perf_counter() - start
            layer["pyast.profile_ms"] = per_op("profile", "pyast.profile")
            layer["pyast.profile_overhead"] = profiled_run / plain
            layer["pyast.run_ms"] = per_op("run", "pyast.run")
        else:
            layer.update({"pyast.profile_ms": 0.0, "pyast.profile_overhead": 0.0, "pyast.run_ms": 0.0})

        # Run split: one pass per program under cProfile, attributed by
        # source module and scaled to the time the traced passes took
        # without cProfile.
        run_groups: dict[str, float] = {}
        prim_calls = eqv_calls = member_calls = abc_checks = 0
        interp_s = compiled_s = unopt_s = 0.0
        evals_opt = evals_unopt = 0
        fallbacks = 0
        for program in scheme:
            system = program.run_system
            system.runtime_env.define(W.P.INPUT_NAME, program.eval)
            before = counter("backend_fallbacks_total")
            _, stats = T.profile_call(system.run, program.program)
            fallbacks += counter("backend_fallbacks_total") - before
            for name, seconds in T.attribute(stats, run_group).items():
                run_groups[name] = run_groups.get(name, 0.0) + seconds
            prim_calls += T.call_count(stats, "scheme/primitives.py")
            eqv_calls += T.call_count(stats, "scheme/primitives.py", "_eqv")
            member_calls += T.call_count(stats, "scheme/primitives.py", "_member")
            abc_checks += T.call_count(stats, "<frozen abc>", "__instancecheck__")
            start = time.perf_counter()
            system.run(program.program, backend="interp")
            interp_s += time.perf_counter() - start
            start = time.perf_counter()
            system.run(program.program)
            compiled_s += time.perf_counter() - start
            unoptimised = system.hot_swap_profile(ProfileDatabase())
            plain = system.compile(program.source, program.filename)
            system.hot_swap_profile(unoptimised)
            system.run(plain)
            start = time.perf_counter()
            system.run(plain)
            unopt_s += time.perf_counter() - start
            for target, is_opt in ((program.program, True), (plain, False)):
                budget = StepBudget(10**12)
                system.run(target, budget=budget)
                steps = budget.initial - budget.remaining
                if is_opt:
                    evals_opt += steps
                else:
                    evals_unopt += steps
        scheme_run_ms = sum(per_op("run", f"run.{p.name}") for p in scheme)
        profiled = sum(run_groups.values()) or 1.0
        share = run_groups.get("primitives", 0.0) / profiled
        layer.update({
            "run.generated_ms": scheme_run_ms * run_groups.get("generated", 0.0) / profiled,
            "run.glue_ms": scheme_run_ms * run_groups.get("glue", 0.0) / profiled,
            "run.primitives_ms": scheme_run_ms * share,
            "run.primitives_share": share,
            "codegen.fallbacks": fallbacks,
            "primitives.calls": prim_calls,
            "primitives.eqv_calls": eqv_calls,
            "primitives.member_calls": member_calls,
            "run.abc_checks": abc_checks,
            "interp.run_ms": interp_s * 1e3,
            "interp.speedup": interp_s / compiled_s,
            "pgo.evals_ratio": evals_opt / evals_unopt,
            "pgo.run_ratio": compiled_s / unopt_s,
        })

        # Swap path, from the wrapped controller and guard callables: the
        # mean of each over its calls (one per swap that reached it).
        swapper = self.swapper
        hits, misses = self.cache
        blocked = sum(
            1 for decision in swapper.controller.log
            if not decision.recompiled and decision.reason != "drift within threshold"
        )
        layer.update({
            "controller.recompile_ms": statistics.fmean(swapper.recompile.seconds) * 1e3,
            "verify.ms": statistics.fmean(swapper.verify.seconds) * 1e3,
            "verify.artifacts": swapper.verify.results[0].artifacts,
            "canary.ms": statistics.fmean(swapper.canary.seconds) * 1e3,
            "swap.residual_ms": statistics.fmean(swapper.journal.seconds) * 1e3,
            "artifact_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "rollout.blocked": blocked,
        })
        # A traced swap op is one swap; its wall time is the pause.
        self.op_wall_ms["swap"] = statistics.fmean(self.samples["swap/wall"]) * 1e3

    def attribution_check(self) -> bool:
        """Each blocking-path op kind's wall time per op against the sum of
        the per-layer metrics this run reports for it. The remainder is
        what no reported layer covers: the benchmark's own loop and
        checks, and code outside the named layers' modules."""
        ok = True
        remainders = {}
        for kind, names in ATTRIBUTED.items():
            wall = self.op_wall_ms[kind]
            remainder = wall - sum(self.layer[name] for name in names)
            remainders[kind] = remainder
            if abs(remainder) > UNATTRIBUTED_LIMIT * wall:
                ok = False
                print(
                    f"perfbench: {kind} ops: {remainder:.3f} of {wall:.3f} ms per op "
                    f"unattributed, over {UNATTRIBUTED_LIMIT:.0%}",
                    file=sys.stderr,
                )
        shares = {kind: f"{r:.3f}/{self.op_wall_ms[kind]:.3f} ms" for kind, r in remainders.items()}
        print(f"perfbench: unattributed per op: {shares}", file=sys.stderr)
        self.layer["unattributed_ms"] = sum(abs(r) for r in remainders.values())
        return ok


#: Modules the expander runs: its own, and the interpreter, environment,
#: primitives and profile queries that macro transformers run on.
EXPANDER_MODULES = tuple(
    f"/repro/scheme/{name}.py"
    for name in ("expander", "syntax", "hygiene", "patterns", "template", "simplify",
                 "core_forms", "instrument", "interpreter", "env", "primitives", "datum")
)


STDLIB = sysconfig.get_paths()["stdlib"]


def _credited_to_caller(filename: str) -> bool:
    """Builtins, frozen modules and the standard library belong to no
    layer: their time goes to the layer that called them."""
    return filename.startswith(("~", "<frozen", STDLIB))


def compile_group(filename: str) -> str | None:
    if filename.endswith("/repro/scheme/reader.py"):
        return "reader"
    if "/repro/scheme/compile_py/" in filename:
        return "codegen"
    if filename.endswith(EXPANDER_MODULES) or "/repro/core/" in filename:
        return "expander"
    if _credited_to_caller(filename):
        return None
    return "other"


def run_group(filename: str) -> str | None:
    if filename.startswith("<pgmp-compiled"):
        return "generated"
    if filename.endswith(("compile_py/runtime.py", "scheme/env.py")):
        return "glue"
    if filename.endswith(("scheme/primitives.py", "scheme/datum.py")):
        return "primitives"
    if _credited_to_caller(filename):
        return None
    return "other"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    workload = W.WORKLOADS[args.workload]
    # One CPU for this process and the server it starts. Across two CPUs
    # every ack wakes an idle CPU, after a delay the shared host sets; on
    # one, the client's wait hands the CPU straight to the server, and the
    # speed measured around each op is the speed both processes ran at.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(f"perfbench: parameters: {json.dumps(W.parameters(workload))}", file=sys.stderr)
    run = Run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        setup_s = run.setup()
        # Set-up objects stay live for the whole run; keep the collector
        # from rescanning them during the measured ops.
        gc.collect()
        gc.freeze()
        run.measure()
        attributed = True
        if run.traced:
            run.traced_layers()
            attributed = run.attribution_check()
            run.spans.dump(os.path.join(scratch_root, f"spans-{args.workload}-{args.seed}.json"))
    finally:
        run.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = run.samples
    if args.workload == "profile-service":
        peak_rss = run.peak_rss
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.traced:
        metrics = dict(run.layer)
        metrics["error_rate"] = run.failed / run.attempted
        values = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    else:
        e2e = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "run_ms_p50": statistics.median(samples["run"]) * 1e3,
            "run_ms_tail": tail(samples["run/rep"]) * 1e3,
            "compile_ms_p50": statistics.median(samples["compile"]) * 1e3,
            "profile_run_ms_p50": statistics.median(samples["profile"]) * 1e3,
            "ingest_deltas_per_s": samples["ingest_rate"][0],
            "ingest_ms_p50": statistics.median(samples["ingest"]) * 1e3,
            "swap_ms_p50": statistics.median(samples["swap/rep"]) * 1e3,
            "swap_ms_tail": tail(samples["swap/rep"]) * 1e3,
        }
        values = {name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()}
        fleet = run.fleet
        frames = sum(fleet.frame_sizes.values())
        lone = fleet.frame_sizes[1]
        print(
            f"perfbench: fleet frames {frames}: {lone / frames:.3f} lone, "
            f"{1 - lone / (fleet.unique_deltas + fleet.duplicates):.3f} of deltas in batches, "
            f"{fleet.duplicates} duplicates, {fleet.dropped} dropped from full queues",
            file=sys.stderr,
        )
        counts = {kind: len(s) for kind, s in samples.items()}
        print(f"perfbench: samples per metric: {counts}", file=sys.stderr)
        wall = {kind: statistics.median(samples[f"{kind}/wall"]) * 1e3 for kind in ("run", "compile", "swap")}
        print(
            f"perfbench: median slowdown {run.speed.median():.3f} over {len(run.speed.factors)} ops; "
            f"unscaled median ms per repetition: {json.dumps(wall)}",
            file=sys.stderr,
        )
    correct = run.failed == 0 and attributed
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": values,
    }))
    return 0


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        bench = json.load(spec)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


UNITS = _units()

if __name__ == "__main__":
    sys.exit(main())
