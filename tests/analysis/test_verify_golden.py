"""Golden findings for the PGMP5xx translation validator.

``verify_golden.json`` pins the exact diagnostics — code, severity,
message, line, column, in order — that :func:`verify_artifact` reports
for a fixed corpus:

* every artifact of the compile backend's parity battery, in all four
  flavors (all clean);
* every ``examples/`` program, verified through ``verify_path``;
* a tamper corpus of genuinely compiled artifacts edited so that each one
  carries several findings at once (two or more free names, a sequential
  rebind inside a nested function's ``while True`` loop, unguarded
  arithmetic next to an unguarded ``.car``, hook/charge misordering, ...),
  plus hand-written sources that probe traversal order (``try``/``else``/
  ``finally``, ``match``, nested loops and functions);
* a seeded random-mutation corpus over real artifacts.

Each pass reports at most one finding, so which of several candidate
findings wins is part of the contract this file pins. Regenerate the
fixture only for a deliberate diagnostics change::

    PYTHONPATH=src python -m tests.analysis.test_verify_golden --regenerate
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import json
import os
import random
import re
import sys
import textwrap
from collections.abc import Callable

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.verify import ALL_FLAVORS, verify_artifact, verify_path
from repro.scheme.compile_py.artifact import CompiledArtifact, compile_program
from repro.scheme.pipeline import SchemeSystem
from repro.testing.faults import poison_compiled_program
from tests.analysis.test_verify import TAIL_LOOP

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURE = os.path.join(HERE, "verify_golden.json")

NESTED = """
(define (sum-to n) (let loop ((i n) (acc 0)) (if (= i 0) acc (loop (- i 1) (+ acc i)))))
(define (count-down k) (if (< k 1) (car (cons k '())) (count-down (- k 1))))
(define (pick xs) (cdr (car xs)))
(sum-to 4)
(count-down 3)
(pick (list (cons 1 2)))
"""

#: A syntax template surviving to run time: every flavor falls back.
FALLBACK = "(define stx #'(a b)) (pair? 1)"

Finding = list  # [code, severity, message, line, column]


def findings(report: AnalysisReport) -> list[Finding]:
    return [
        [
            d.code,
            d.severity.value,
            d.message,
            d.location.line if d.location is not None else 0,
            d.location.column if d.location is not None else 0,
        ]
        for d in report.diagnostics
    ]


def _program(source: str, filename: str = "<golden>"):
    return SchemeSystem().compile(source, filename)


def _artifact(source: str, flavor: str) -> CompiledArtifact:
    return compile_program(_program(source), "<golden>", flavor)


def _edit(artifact: CompiledArtifact, *edits: tuple[str, str]) -> CompiledArtifact:
    """The artifact with regex edits applied, each required to match."""
    text = artifact.python_source
    for pattern, replacement in edits:
        text, count = re.subn(pattern, replacement, text)
        assert count, f"tamper pattern {pattern!r} did not match"
    return dataclasses.replace(artifact, python_source=text)


def _nest_loop_function(artifact: CompiledArtifact) -> CompiledArtifact:
    """Move TAIL_LOOP's self-tail-call loop function inside a wrapper
    whose own ``_a`` parameters include ``v_z_0``, and rebind the loop
    parameters sequentially after assigning ``v_z_0``: the wrapper sees a
    three-assignment run, the nested function a two-assignment one."""
    lines = artifact.python_source.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("    def f_loop_"))
    end = next(i for i, l in enumerate(lines) if ".scheme_name = 'loop'" in l)
    body = ["    " + line for line in lines[start:end]]
    wrapper = [
        "    def f_wrap_0(*_a):",
        "        v_z_0 = _a[0]",
        "        v_n_2 = _a[1]",
        "        v_acc_3 = _a[2]",
        *body,
        "        return f_loop_1",
        "    f_loop_1 = f_wrap_0(0, 0, 0)",
    ]
    text = "\n".join(lines[:start] + wrapper + lines[end:]) + "\n"
    text, count = re.subn(
        r"( +)v_n_(\d+), v_acc_(\d+) = (.+), (.+)\n",
        r"\1v_z_0 = 1\n\1v_n_\2 = \4\n\1v_acc_\3 = \5\n",
        text,
    )
    assert count == 1
    return dataclasses.replace(artifact, python_source=text)


# -- hand-written sources probing traversal order ----------------------------

#: ``name -> (flavor, hook sites recorded, source)``. Verified without an
#: expected-order oracle and with an unknown charge count, so the
#: source-level invariants decide alone. Each source carries several
#: candidate findings per pass; which one a pass reports is the point.
SYNTHETIC: dict[str, tuple[str, int, str]] = {
    # PGMP501: statement order visits try bodies as body, else, finally,
    # handlers; H[3] in the handler is last, so this is clean.
    "hooks-try-clean": ("instr", 4, """
        def _pgmp_main(GB, H, C):
            try:
                H[0]()
            except GB:
                H[3]()
            else:
                H[1]()
            finally:
                H[2]()
        """),
    "hooks-try-handler-first": ("instr", 4, """
        def _pgmp_main(GB, H, C):
            try:
                H[0]()
            except GB:
                H[1]()
            else:
                H[2]()
            finally:
                H[3]()
        """),
    "hooks-inside-match-are-unseen": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            match GB:
                case 1:
                    H[0]()
                    C()
            return GB
        """),
    "hooks-nested-statement-order": ("instr", 3, """
        def _pgmp_main(GB, H, C):
            if GB:
                H[0]()
            def f():
                H[1]()
            while GB:
                H[2]()
            else:
                H[0]()
        """),
    # PGMP502 charge-then-bump: blocks are scanned outermost first, so
    # H[2] (outer block) is reported before H[0] (nested block).
    "charges-block-order": ("instr+budget", 3, """
        def _pgmp_main(GB, H, C):
            if GB:
                H[0]()
            C()
            H[1]()
            H[2]()
        """),
    "charges-try-block-order": ("instr+budget", 4, """
        def _pgmp_main(GB, H, C):
            C()
            H[0]()
            try:
                C()
                H[1]()
            except GB:
                H[3]()
            finally:
                H[2]()
        """),
    "charges-first-in-non-budget": ("instr", 1, """
        def _pgmp_main(GB, H, C):
            try:
                pass
            except GB:
                C()
            finally:
                C()
            C()
            H[0]()
        """),
    # PGMP503: the first top-level function with a free name reports the
    # one its LIFO scan meets first (the last in source order).
    "scope-last-in-source": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            a = free_one
            def inner(*_a):
                b = free_two + [late_local]
                return (lambda q: q + free_three)
            late_local = 1
            return a.free_attr
        """),
    "scope-nested-def-header-unscanned": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            @decorator_free
            def inner(x=default_free, *rest):
                return x, rest, inner, GB
            return inner
        """),
    "scope-first-function-wins": ("plain", 0, """
        import os.path as osp
        from sys import argv as av

        def _pgmp_main(GB, H, C):
            return [v for v in GB if v > osp.sep], av, hoisted[0]

        def helper(*_a):
            try:
                pass
            except GB as err:
                return err
            return second_free

        hoisted = [0]
        if GB:
            def hidden():
                return never_scanned
        """),
    "scope-class-and-async": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            class K:
                attr = class_free
                def method(self):
                    return attr
            async def coro():
                inside_async = 1
                return async_free
            return K, inside_async
        """),
    # PGMP504: functions in breadth-first order, then their loops in
    # breadth-first order, then blocks outermost first.
    "tail-loops-function-bfs": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            def f_outer(*_a):
                v_o = _a[0]
                def f_deep(*_a):
                    v_x, v_y, v_z = _a[0], _a[1], _a[2]
                    while True:
                        v_x = 1
                        v_y = 2
                        v_z = 3
                        continue
                return f_deep
            def f_shallow(*_a):
                v_p = _a[0]
                v_q = _a[1]
                while True:
                    v_p = v_q
                    v_q = v_p
                    continue
            return f_outer, f_shallow
        """),
    "tail-loops-loop-bfs": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            def f_a(*_a):
                v_p = _a[0]
                v_q = _a[1]
                v_r = _a[2]
                if v_p:
                    if v_q:
                        while True:
                            v_p = 1
                            v_q = 2
                            v_r = 3
                            continue
                while True:
                    v_p, v_q = v_q
                    continue
            return f_a
        """),
    "tail-loops-block-order": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            def f_a(*_a):
                v_p = _a[0]
                v_q = _a[1]
                while True:
                    if v_p:
                        v_p = v_q
                        v_q = v_p
                        continue
                    try:
                        pass
                    except GB:
                        v_p, v_q = 1, 2, 3
                        continue
                    finally:
                        v_p, v_p = 1, 2
                        continue
                    v_q = 1
                    v_p = 2
                    v_q = 3
                    continue
            return f_a
        """),
    "tail-loops-try-order": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            def f_a(*_a):
                v_p = _a[0]
                v_q = _a[1]
                while True:
                    try:
                        pass
                    except GB:
                        v_p, v_q = 1, 2, 3
                        continue
                    finally:
                        v_p, v_p = 1, 2
                        continue
            return f_a
        """),
    "tail-loops-enclosing-params": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            def f_wrap(*_a):
                v_w = _a[0]
                def f_in(*_a):
                    v_i = _a[0]
                    while True:
                        v_w = 1
                        v_i = 2
                        continue
                while True:
                    v_w = 5
                    continue
                else:
                    while True:
                        v_w, v_w2 = 1
                        continue
                v_w2 = _a[1]
            return f_wrap
        """),
    "tail-loops-match-cases": ("plain", 0, """
        def _pgmp_main(GB, H, C):
            def f_m(*_a):
                v_p = _a[0]
                v_q = _a[1]
                while True:
                    match v_p:
                        case 1:
                            v_p = 1
                            v_q = 2
                            continue
                        case _:
                            while True:
                                v_p, v_q = v_q
                                continue
            return f_m
        """),
    # PGMP505: the first unguarded fast path in source order, with the
    # guard covering an if's body but never its else branch.
    "guards-first-in-order": ("plain", 0, """
        from repro.scheme.compile_py import runtime as RT

        def _pgmp_main(GB, H, C):
            t1 = GB
            if t1 is RT.P_car and type(t1) is int:
                t2 = t1.car + 1
                if len(GB) > 2:
                    t3 = t1 < 2
            else:
                t4 = (t1).cdr
            if t1 is RT.P_add:
                t5 = t1 - 1
            return t1 * 2
        """),
    "guards-test-is-outside-the-guard": ("plain", 0, """
        from repro.scheme.compile_py import runtime as RT

        def _pgmp_main(GB, H, C):
            t1 = GB
            t1.car = RT.car
            if t1 is RT.P_car and t1.cdr:
                t2 = t1.car
            return t1
        """),
    "guards-nested-kinds-and-ifexp": ("plain", 0, """
        from repro.scheme.compile_py import runtime as RT

        def _pgmp_main(GB, H, C):
            t1 = GB
            if t1 is RT.P_lt:
                if [type(t1)]:
                    t2 = t1 < 3
                t3 = t1.car if t1 is RT.P_car else 0
                t4 = t1 + 1
            return t1
        """),
}


# -- the corpus --------------------------------------------------------------


def _parity_cases() -> dict[str, Callable[[], AnalysisReport]]:
    from tests.scheme.test_compile_backend import PARITY_PROGRAMS

    cases: dict[str, Callable[[], AnalysisReport]] = {}
    for i, source in enumerate(PARITY_PROGRAMS):
        for flavor in ALL_FLAVORS:

            def case(source=source, i=i, flavor=flavor) -> AnalysisReport:
                program = _program(source, f"<parity-{i}>")
                artifact = compile_program(program, f"<parity-{i}>", flavor)
                return verify_artifact(artifact, program=program)

            cases[f"parity-{i}/{flavor}"] = case
    return cases


def _example_cases() -> dict[str, Callable[[], AnalysisReport]]:
    paths = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
    return {
        f"examples/{os.path.basename(path)}": (lambda path=path: verify_path(path))
        for path in paths
    }


def _tampered() -> dict[str, Callable[[], AnalysisReport]]:
    loop = lambda flavor: _artifact(TAIL_LOOP, flavor)  # noqa: E731
    nested = lambda flavor: _artifact(NESTED, flavor)  # noqa: E731

    def poisoned(flavor: str) -> AnalysisReport:
        program = _program(TAIL_LOOP)
        poison_compiled_program(program)
        return verify_artifact(program.artifacts[flavor], program=program)

    def hook_sites_reordered() -> AnalysisReport:
        program = _program(TAIL_LOOP)
        artifact = compile_program(program, "<golden>", "instr+budget")
        sites = artifact.hook_sites
        swapped = [sites[1], sites[0], *sites[2:]]
        return verify_artifact(
            dataclasses.replace(artifact, hook_sites=swapped), program=program
        )

    def foreign_program() -> AnalysisReport:
        # the expected-order oracle raises on the fallback program
        return verify_artifact(loop("instr"), program=_program(FALLBACK))

    cases: dict[str, Callable[[], AnalysisReport]] = {
        "free-names": lambda: verify_artifact(
            _edit(
                loop("plain"),
                (r"_B\.get\(S0\)", "_B_one.get(S0)"),
                (r"_B\.get\(S1\)", "_B_two.get(S1)"),
                (r"_B\.get\(S5\)", "_B_three.get(S5)"),
            )
        ),
        "free-names-nested": lambda: verify_artifact(
            _edit(
                nested("instr"),
                (r"t(\d+) = v_loop_(\d+)\[0\]", r"t\1 = v_gone[0]"),
                (r"_B\.get\(S1\)", "_B_outer.get(S1)"),
            )
        ),
        "free-names-module-level": lambda: verify_artifact(
            _edit(
                loop("budget"),
                (r"\n\ndef _pgmp_main", "\nlate_bound = 1\n\ndef _pgmp_main"),
                (r"_B\.get\(S0\)", "late_bound.get(S0)"),
                (r"return _result", "return _result or _never"),
            )
        ),
        "nested-sequential-rebind": lambda: verify_artifact(
            _nest_loop_function(loop("plain"))
        ),
        "nested-sequential-rebind-instr": lambda: verify_artifact(
            _nest_loop_function(loop("instr+budget"))
        ),
        "duplicate-and-sequential-rebind": lambda: verify_artifact(
            _edit(
                loop("budget"),
                (
                    r"( +)v_n_(\d+), v_acc_(\d+) = (.+), (.+)\n",
                    r"\1v_n_\2, v_n_\2 = \4, \5\n",
                ),
            )
        ),
        "unguarded-arith-and-car": lambda: verify_artifact(
            _edit(
                loop("plain"),
                (r"t(\d+) is RT\.P_add and ", ""),
                (r"t(\d+) is RT\.P_car and ", ""),
            )
        ),
        "unguarded-car-before-arith": lambda: verify_artifact(
            _edit(
                nested("budget"),
                (r"t(\d+) is RT\.P_cdr and ", ""),
                (r"t(\d+) is RT\.P_car and ", ""),
                (r" and type\(v_k_(\d+)\) is int and type\(1\) is int", ""),
            )
        ),
        "hook-charge-misorder": lambda: verify_artifact(
            _edit(
                loop("instr+budget"),
                (r"( *)C\(\)\n( *)H\[5\]\(\)", r"\1H[5]()\n\2C()"),
                (r"( *)C\(\)\n( *)H\[17\]\(\)", r"\1H[17]()\n\2C()"),
            )
        ),
        "hook-swap-and-charge-drop": lambda: verify_artifact(
            _edit(
                loop("instr+budget"),
                (r"H\[3\]\(\)", "H[99]()"),
                (r"H\[4\]\(\)", "H[3]()"),
                (r"H\[99\]\(\)", "H[4]()"),
                (r"\n *C\(\)\n( *)H\[20\]", r"\n\1H[20]"),
            )
        ),
        "every-pass-at-once": lambda: verify_artifact(
            _edit(
                loop("instr+budget"),
                (r"def _pgmp_main\(GB, H, C\):", "def _pgmp_main(GB, H):"),
                (r"H\[6\]\(\)", "H[60]()"),
                (r"_B\.get\(S4\)", "_B_lost.get(S4)"),
                (
                    r"( +)v_n_(\d+), v_acc_(\d+) = (.+), (.+)\n",
                    r"\1v_n_\2 = \4\n\1v_acc_\3 = \5\n",
                ),
                (r"t(\d+) is RT\.P_sub and ", ""),
            )
        ),
        "non-instr-hook-and-charge": lambda: verify_artifact(
            _edit(
                loop("plain"),
                (
                    r"    _B = GB\.bindings\n",
                    "    _B = GB.bindings\n    C()\n    H[3]()\n",
                ),
                (r"( +)return v_acc_(\d+)\n", r"\1H[0]()\n\1return v_acc_\2\n"),
            )
        ),
        "missing-entry-point": lambda: verify_artifact(
            _edit(loop("instr"), (r"def _pgmp_main\(", "def _pgmp_other("))
        ),
        "hook-sites-reordered": hook_sites_reordered,
        "charge-count-mismatch": lambda: verify_artifact(
            dataclasses.replace(loop("budget"), charge_count=3)
        ),
        "foreign-program": foreign_program,
        "fallback-artifact": lambda: verify_artifact(_artifact(FALLBACK, "plain")),
        "plain-without-source": lambda: verify_artifact(
            dataclasses.replace(loop("plain"), python_source="")
        ),
        "instr-without-source": lambda: verify_artifact(
            dataclasses.replace(loop("instr"), python_source="")
        ),
    }
    for flavor in ALL_FLAVORS:
        cases[f"poisoned/{flavor}"] = lambda flavor=flavor: poisoned(flavor)
    for name, (flavor, hooks, source) in SYNTHETIC.items():
        synthetic = dataclasses.replace(
            loop(flavor),
            python_source=textwrap.dedent(source).lstrip("\n"),
            hook_sites=[None] * hooks,
            program=None,
            charge_count=-1,
        )
        cases[f"synthetic/{name}"] = (
            lambda synthetic=synthetic: verify_artifact(synthetic)
        )
    return cases


def _mutate(source: str, rng: random.Random) -> str:
    """One random line edit of generated source; the result may not parse."""
    lines = source.splitlines()
    op = rng.randrange(6)
    i = rng.randrange(len(lines))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2 and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif op == 3:
        names = sorted(set(re.findall(r"\b(?:[tv]\w*|_B|_a|RT|GB|H|C)\b", lines[i])))
        if names:
            name = names[rng.randrange(len(names))]
            lines[i] = re.sub(rf"\b{name}\b", "zz_free", lines[i], count=1)
    elif op == 4:
        lines[i] = re.sub(r"t\d+ is RT\.P_\w+ and ", "", lines[i])
        lines[i] = re.sub(r" and type\([^)]*\) is (?:int|RT\.Pair)", "", lines[i])
    else:
        match = re.match(r"( +)(v_\w+), (v_\w+) = (.+), (.+)$", lines[i])
        if match:
            pad, a, b, x, y = match.groups()
            lines[i : i + 1] = [f"{pad}{a} = {x}", f"{pad}{b} = {y}"]
    return "\n".join(lines) + "\n"


def _mutants() -> dict[str, Callable[[], AnalysisReport]]:
    cases: dict[str, Callable[[], AnalysisReport]] = {}
    for base_name, source in (("loop", TAIL_LOOP), ("nested", NESTED)):
        for flavor in ALL_FLAVORS:
            rng = random.Random(f"{base_name}/{flavor}")
            artifact = _artifact(source, flavor)
            made = 0
            while made < 10:
                text = artifact.python_source
                for _ in range(1 + rng.randrange(3)):
                    text = _mutate(text, rng)
                try:
                    ast.parse(text)
                except SyntaxError:
                    continue  # parse-error text differs across Python versions
                mutant = dataclasses.replace(artifact, python_source=text)
                cases[f"mutant/{base_name}/{flavor}/{made}"] = (
                    lambda mutant=mutant: verify_artifact(mutant)
                )
                made += 1
    return cases


GROUPS: dict[str, Callable[[], dict[str, Callable[[], AnalysisReport]]]] = {
    "parity": _parity_cases,
    "examples": _example_cases,
    "tampered": _tampered,
    "mutants": _mutants,
}


def _record(group: str) -> dict[str, list[Finding]]:
    return {name: findings(case()) for name, case in GROUPS[group]().items()}


def _load_fixture() -> dict[str, dict[str, list[Finding]]]:
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _assert_group_matches(group: str) -> None:
    want = _load_fixture()[group]
    got = _record(group)
    assert sorted(got) == sorted(want), f"{group}: corpus and fixture differ"
    for name in want:
        assert got[name] == want[name], f"{group} case {name!r} diverged"


def test_parity_battery_findings_are_golden():
    _assert_group_matches("parity")


def test_example_findings_are_golden():
    _assert_group_matches("examples")


def test_tamper_corpus_findings_are_golden():
    _assert_group_matches("tampered")


def test_mutant_findings_are_golden():
    _assert_group_matches("mutants")


def test_tamper_corpus_carries_multiple_findings():
    """The corpus must actually exercise the one-finding-per-pass choice."""
    fixture = _load_fixture()
    tampered = fixture["tampered"]
    codes = [f[0] for f in tampered["every-pass-at-once"]]
    assert codes == ["PGMP503", "PGMP501", "PGMP503", "PGMP504", "PGMP505"]
    assert sum(bool(f) for f in tampered.values()) >= len(tampered) - 5
    mutants = fixture["mutants"]
    assert sum(bool(f) for f in mutants.values()) >= len(mutants) // 3


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.analysis.test_verify_golden --regenerate")
    recorded = {group: _record(group) for group in GROUPS}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, recorded.values()))} cases to {FIXTURE}")
