"""Translation-validation passes over one compiled artifact (PGMP5xx).

Given a :class:`~repro.scheme.compile_py.artifact.CompiledArtifact`,
:func:`verify_artifact` statically checks the generated Python AST
against the properties the compiled backend's observational-equality
contract rests on — without executing the artifact:

* **PGMP501** — ``H[i]()`` instrumentation sites appear exactly once per
  recorded hook site, with sequential indices in textual order, and
  (when the expanded program is available) the recorded sites match the
  interpreter-order sites re-derived from the core forms;
* **PGMP502** — ``C()`` step-budget charges are present in the expected
  count for budget flavors, absent otherwise, and each profile bump is
  immediately preceded by its charge (the interpreter's charge-then-bump
  order);
* **PGMP503** — every name the generated module reads resolves through
  the lexical environment codegen established (function scopes, the
  runtime import, a tiny builtin whitelist), and a runnable artifact
  actually defines the ``_pgmp_main(GB, H, C)`` entry point;
* **PGMP504** — parameter rebinding before a ``continue`` in a
  self-tail-call ``while`` loop is a single parallel (tuple) assignment,
  never a sequential one that could read an already-clobbered parameter;
* **PGMP505** — every inlined primitive fast path (int arithmetic and
  comparisons, ``car``/``cdr`` field access) sits under an identity
  guard (``... is RT.P_x``) so a redefined primitive falls back to the
  generic call;
* **PGMP506** (info) — artifacts the backend could not translate are
  enumerated with their fallback reason instead of failing silently.

Each artifact is parsed once and its AST walked once (:class:`_Walk`);
the passes then judge what the walk collected. Every pass reports at
most one finding. All diagnostics use ``pass_name="verify"`` and anchor
to the artifact's filename, with generated-source line numbers where the
finding has one.
"""

from __future__ import annotations

import ast
from collections.abc import Callable

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.verify.expected import ExpectedEvents, expected_events
from repro.core.srcloc import SourceLocation
from repro.scheme.compile_py.artifact import CompiledArtifact
from repro.scheme.core_forms import Program

__all__ = ["PASS_NAME", "verify_artifact"]

PASS_NAME = "verify"

#: Builtins the generated code is allowed to read (arity checks, inline
#: type guards, the recursion backstop); anything else outside the
#: module/function scopes is a PGMP503 finding.
_ALLOWED_BUILTINS = frozenset({"len", "type", "int", "RecursionError"})

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult)
_ORDER_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

#: What the expected-order oracle yields: its events, the error it raised,
#: or None when there is no expanded program to derive them from.
_Derived = ExpectedEvents | Exception | None
#: One pass's finding: its message and the node it anchors to, if any.
_Finding = tuple[str, ast.AST | None]


def _anchor(filename: str, node: ast.AST | None = None) -> SourceLocation:
    line = getattr(node, "lineno", 0) if node is not None else 0
    column = getattr(node, "col_offset", 0) if node is not None else 0
    return SourceLocation(filename, 0, 0, line=line, column=column)


# -- AST helpers -------------------------------------------------------------


def _hook_index(stmt: ast.stmt) -> int | None:
    """The ``i`` of an ``H[i]()`` statement, or None."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return None
    call = stmt.value
    if call.args or call.keywords:
        return None
    func = call.func
    if (
        isinstance(func, ast.Subscript)
        and isinstance(func.value, ast.Name)
        and func.value.id == "H"
        and isinstance(func.slice, ast.Constant)
        and isinstance(func.slice.value, int)
    ):
        return func.slice.value
    return None


def _is_charge(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` is a bare ``C()`` budget charge."""
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "C"
        and not stmt.value.args
        and not stmt.value.keywords
    )


def _is_identity_guard(node: ast.Compare) -> bool:
    """``x is RT.P_<name>``: the primitive has not been redefined."""
    right = node.comparators[0]
    return (
        len(node.ops) == 1
        and isinstance(node.ops[0], ast.Is)
        and isinstance(right, ast.Attribute)
        and isinstance(right.value, ast.Name)
        and right.value.id == "RT"
        and right.attr.startswith("P_")
    )


def _is_arity_check(node: ast.Compare) -> bool:
    left = node.left
    return (
        isinstance(left, ast.Call)
        and isinstance(left.func, ast.Name)
        and left.func.id == "len"
    )


# -- the single walk ---------------------------------------------------------


class _Function:
    """One generated ``def``: its scope frame and its loop parameters."""

    __slots__ = ("parent", "names", "params", "rank")

    def __init__(
        self, parent: _Function | None, names: set[str], rank: tuple[int, int]
    ) -> None:
        self.parent = parent
        #: every name bound in the body (nested function bodies excluded)
        self.names = names
        #: loop variables: names the top of the body assigns from ``_a``
        self.params: set[str] = set()
        #: (depth, preorder position): compares in breadth-first order
        self.rank = rank

    def encloses(self, other: _Function | None) -> bool:
        while other is not None and other is not self:
            other = other.parent
        return other is self


#: A self-tail-call loop: its breadth-first rank and enclosing function.
_Loop = tuple[tuple[int, int], _Function | None]
#: A name the scope pass must resolve, and the function reading it.
_Read = tuple[ast.Name, _Function]


class _Streams:
    """Statement-level facts, in the order the passes scan statements."""

    __slots__ = ("hooks", "charges", "unchained", "continues")

    def __init__(self) -> None:
        #: ``(statement, i)`` per ``H[i]()``, statements in source order
        self.hooks: list[tuple[ast.stmt, int]] = []
        #: ``C()`` statements, in source order
        self.charges: list[ast.stmt] = []
        #: hook calls not preceded by a sibling charge, outer blocks first
        self.unchained: list[ast.stmt] = []
        #: ``(block, position, enclosing loops)`` per ``continue`` in a
        #: self-tail-call loop, outer blocks first
        self.continues: list[tuple[list[ast.stmt], int, tuple[_Loop, ...]]] = []

    def extend(self, other: _Streams) -> None:
        self.hooks += other.hooks
        self.charges += other.charges
        self.unchained += other.unchained
        self.continues += other.continues


class _Walk:
    """One walk over a generated module, collecting what every PGMP5xx
    pass needs.

    Each pass reports one finding, so orders matter. Nodes are visited in
    ``ast.iter_child_nodes`` order. The statement streams follow the
    passes' statement order instead: a ``try`` reads as body, else,
    finally, then handlers, and ``match`` cases hold no hooks or charges.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.out = _Streams()
        #: per top-level function, in module order: the reads of its body
        #: and of the functions nested in it, in preorder
        self.scopes: list[list[_Read]] = []
        #: PGMP505: the first inline fast path outside its guard
        self.unguarded: _Finding | None = None
        self._function: _Function | None = None
        #: the function whose reads and stores the scope pass sees; None
        #: outside the bodies of top-level functions and their nested ones
        self._scan: _Function | None = None
        self._reads: list[_Read] = []
        self._loops: tuple[_Loop, ...] = ()
        self._hooked = True  # False inside ``match`` cases
        self._preorder = 0
        #: (identity guard, int type test) in force
        self._guard = (False, False)
        # what the current ``if`` test (or assigned value) contains
        self._identity = self._typed = self._reads_args = False
        self._block(tree.body, 1)

    def _block(self, stmts: list[ast.stmt], depth: int) -> None:
        out, loops = self.out, self._loops
        charged = False
        for position, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Expr):
                if self._hooked and not charged and _hook_index(stmt) is not None:
                    out.unchained.append(stmt)
                charged = _is_charge(stmt)
                continue
            charged = False
            if loops and isinstance(stmt, ast.Continue):
                out.continues.append((stmts, position, loops))
        for stmt in stmts:
            self._statement(stmt, depth)

    def _statement(self, stmt: ast.stmt, depth: int) -> None:
        if isinstance(stmt, ast.Expr):
            if self._hooked:
                index = _hook_index(stmt)
                if index is not None:
                    self.out.hooks.append((stmt, index))
                elif _is_charge(stmt):
                    self.out.charges.append(stmt)
            self._visit(stmt.value)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._visit(target)
            self._reads_args = False
            self._visit(stmt.value)
            function, target = self._function, stmt.targets[0]
            if (
                self._reads_args
                and function is not None
                and depth == function.rank[0] + 1
                and len(stmt.targets) == 1
                and isinstance(target, ast.Name)
            ):
                function.params.add(target.id)
        elif isinstance(stmt, ast.If):
            self._identity = self._typed = False
            self._visit(stmt.test)
            outer = self._guard
            self._guard = (outer[0] or self._identity, outer[1] or self._typed)
            self._block(stmt.body, depth + 1)
            # The else branch is the generic fallback: the guard does NOT
            # cover it, so fast ops there are findings.
            self._guard = outer
            self._block(stmt.orelse, depth + 1)
        elif isinstance(stmt, ast.While):
            self._visit(stmt.test)
            loops = self._loops
            if isinstance(stmt.test, ast.Constant) and stmt.test.value is True:
                self._preorder += 1
                self._loops += (((depth, self._preorder), self._function),)
            self._block(stmt.body, depth + 1)
            self._loops = loops
            self._block(stmt.orelse, depth + 1)
        elif isinstance(stmt, ast.FunctionDef):
            self._function_def(stmt, depth)
        elif isinstance(stmt, (ast.Try, ast.TryStar)):
            self._block(stmt.body, depth + 1)
            # Handlers come first in the AST but last in statement order:
            # divert their streams and append them after the finally.
            main, self.out = self.out, _Streams()
            for handler in stmt.handlers:
                if handler.type is not None:
                    self._visit(handler.type)
                if handler.name and self._scan is not None:
                    self._scan.names.add(handler.name)
                self._block(handler.body, depth + 2)
            handlers, self.out = self.out, main
            self._block(stmt.orelse, depth + 1)
            self._block(stmt.finalbody, depth + 1)
            main.extend(handlers)
        elif isinstance(stmt, ast.Match):
            self._visit(stmt.subject)
            hooked, loops = self._hooked, self._loops
            self._hooked, self._loops = False, ()
            for case in stmt.cases:
                self._visit(case.pattern)
                if case.guard is not None:
                    self._visit(case.guard)
                self._block(case.body, depth + 2)
            self._hooked, self._loops = hooked, loops
        else:
            for _, field in ast.iter_fields(stmt):
                if isinstance(field, ast.AST):
                    self._visit(field)
                elif field and isinstance(field, list):
                    if isinstance(field[0], ast.stmt):
                        self._block(field, depth + 1)
                    else:
                        for item in field:
                            if isinstance(item, ast.AST):
                                self._visit(item)

    def _function_def(self, fn: ast.FunctionDef, depth: int) -> None:
        enclosing, scan, reads = self._function, self._scan, self._reads
        if scan is not None:
            scan.names.add(fn.name)
        # The scope pass skips the header (defaults, decorators,
        # annotations); the guard pass does not.
        self._scan = None
        self._visit(fn.args)
        names = {arg.arg for arg in fn.args.args}
        if fn.args.vararg is not None:
            names.add(fn.args.vararg.arg)
        self._preorder += 1
        self._function = _Function(enclosing, names, (depth, self._preorder))
        if depth == 1:
            self._reads = []
            self.scopes.append(self._reads)
        if depth == 1 or scan is not None:
            self._scan = self._function
        self._block(fn.body, depth + 1)
        self._function, self._scan = enclosing, None
        for node in (*fn.decorator_list, fn.returns, *getattr(fn, "type_params", ())):
            if node is not None:
                self._visit(node)
        self._scan, self._reads = scan, reads

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            if node.id == "_a":
                self._reads_args = True
            if self._scan is not None:
                if isinstance(node.ctx, ast.Load):
                    self._reads.append((node, self._scan))
                elif isinstance(node.ctx, ast.Store):
                    self._scan.names.add(node.id)
            return
        if isinstance(node, ast.Constant):
            return
        guarded = self._guard[0] and self._guard[1]
        if isinstance(node, ast.Compare):
            self._identity = self._identity or _is_identity_guard(node)
            if (
                not guarded
                and any(isinstance(op, _ORDER_OPS) for op in node.ops)
                and not _is_arity_check(node)
            ):
                self._unguarded(node, "comparison")
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "type":
                self._typed = True
        elif isinstance(node, ast.BinOp):
            if isinstance(node.op, _ARITH_OPS) and not guarded:
                self._unguarded(node, "arithmetic")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("car", "cdr")
            and not self._guard[0]
            and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "RT")
        ):
            self.unguarded = self.unguarded or (
                f"inlined .{node.attr} field access is not protected by a "
                "primitive identity guard",
                node,
            )
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _unguarded(self, node: ast.AST, fast_path: str) -> None:
        self.unguarded = self.unguarded or (
            f"inlined {fast_path} fast path is not protected by an identity "
            "guard plus int type test",
            node,
        )


# -- the passes, judging what the walk collected -----------------------------


def _entry_point_finding(tree: ast.Module) -> _Finding | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "_pgmp_main":
            params = [arg.arg for arg in stmt.args.args]
            if params == ["GB", "H", "C"] and stmt.args.vararg is None:
                return None
            return (
                f"_pgmp_main has parameters ({', '.join(params)}); the "
                "execution contract requires (GB, H, C)",
                stmt,
            )
    return (
        "runnable artifact's source defines no _pgmp_main(GB, H, C) entry "
        "point — the callable cannot be the code it claims to be",
        None,
    )


def _hook_finding(
    hooks: list[tuple[ast.stmt, int]],
    artifact: CompiledArtifact,
    expected: ExpectedEvents | None,
) -> _Finding | None:
    """PGMP501: instrumentation-site order."""
    if "instr" not in artifact.flavor:
        if not hooks:
            return None
        stmt, index = hooks[0]
        return f"non-instrumented flavor emits hook call H[{index}]", stmt
    for position, (stmt, index) in enumerate(hooks):
        if index != position:
            return (
                f"hook call #{position} in textual order has index {index}; "
                "emission order must match traversal order",
                stmt,
            )
    if len(hooks) != len(artifact.hook_sites):
        return (
            f"generated source contains {len(hooks)} hook call(s) but the "
            f"artifact records {len(artifact.hook_sites)} hook site(s)",
            None,
        )
    if expected is None:
        return None
    derived = expected.hook_sites
    recorded = [tuple(site) for site in artifact.hook_sites]
    if len(recorded) != len(derived):
        return (
            f"artifact records {len(recorded)} hook site(s) but the "
            f"interpreter traversal produces {len(derived)}",
            None,
        )
    for index, (got, want) in enumerate(zip(recorded, derived)):
        if got != want:
            return (
                f"hook site #{index} diverges from interpreter order: "
                f"recorded point {got[0]} (is_app={got[1]}), expected "
                f"{want[0]} (is_app={want[1]})",
                None,
            )
    return None


def _charge_finding(
    out: _Streams, artifact: CompiledArtifact, expected: ExpectedEvents | None
) -> _Finding | None:
    """PGMP502: step-budget charge sites."""
    charges = out.charges
    if "budget" not in artifact.flavor:
        if charges:
            return "non-budget flavor emits a C() charge", charges[0]
        return None
    if artifact.charge_count >= 0 and len(charges) != artifact.charge_count:
        return (
            f"generated source contains {len(charges)} C() charge(s) but "
            f"codegen recorded {artifact.charge_count}",
            None,
        )
    if expected is not None and len(charges) != expected.charge_count:
        return (
            f"generated source contains {len(charges)} C() charge(s) but "
            f"the interpreter traversal evaluates {expected.charge_count} "
            "node(s)",
            None,
        )
    # Charge-then-bump: in instr+budget artifacts every hook call must be
    # immediately preceded by its node's charge, as sibling statements.
    if "instr" in artifact.flavor and out.unchained:
        return (
            "hook call is not immediately preceded by its C() charge "
            "(interpreter order is charge, then bump)",
            out.unchained[0],
        )
    return None


def _scope_finding(walk: _Walk, tree: ast.Module) -> _Finding | None:
    """PGMP503: a read that no enclosing scope binds."""
    bound = set(_ALLOWED_BUILTINS)
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            bound.update(a.asname or a.name for a in stmt.names)
        elif isinstance(stmt, ast.FunctionDef):
            bound.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    # Reads are judged last first, the order of the pass's LIFO scan;
    # judging them after the walk lets a later store still bind a name.
    for reads in walk.scopes:
        for node, function in reversed(reads):
            frame: _Function | None = function
            while frame is not None and node.id not in frame.names:
                frame = frame.parent
            if frame is None and node.id not in bound:
                return (
                    f"generated code reads {node.id!r}, which is bound in no "
                    "enclosing scope of the core-form lexical environment",
                    node,
                )
    return None


def _tail_loop_finding(out: _Streams) -> _Finding | None:
    """PGMP504: a ``continue`` in a self-tail-call loop is checked against
    the loop parameters of every function enclosing the loop. The pass
    reports the first finding with functions breadth-first, then their
    loops breadth-first, then blocks outer first."""
    first: tuple[tuple[tuple[int, int], tuple[int, int], int], _Finding] | None
    first = None
    for order, (block, position, loops) in enumerate(out.continues):
        function = loops[-1][1]
        while function is not None:
            if function.params:
                loop = next(rank for rank, fn in loops if function.encloses(fn))
                key = (function.rank, loop, order)
                if first is None or key < first[0]:
                    finding = _rebind_finding(block, position, function.params)
                    if finding is not None:
                        first = key, finding
            function = function.parent
    return first[1] if first is not None else None


def _is_param_assign(stmt: ast.stmt, params: set[str]) -> bool:
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return False
    target = stmt.targets[0]
    elts = target.elts if isinstance(target, ast.Tuple) else [target]
    names = [elt.id for elt in elts if isinstance(elt, ast.Name)]
    return len(names) == len(elts) and not params.isdisjoint(names)


def _rebind_finding(
    block: list[ast.stmt], position: int, params: set[str]
) -> _Finding | None:
    run: list[ast.Assign] = []
    index = position - 1
    while index >= 0 and _is_param_assign(block[index], params):
        assign = block[index]
        assert isinstance(assign, ast.Assign)
        run.append(assign)
        index -= 1
    if len(run) > 1:
        return (
            f"self-tail-call rebinds loop parameters in {len(run)} sequential "
            "assignments before continue; a later assignment can read an "
            "already-rebound parameter",
            run[0],
        )
    if not run or isinstance(run[0].targets[0], ast.Name):
        return None  # a bare continue, or one variable: nothing to clobber
    assign = run[0]
    target = assign.targets[0]
    assert isinstance(target, ast.Tuple)
    value = assign.value
    if not isinstance(value, ast.Tuple) or len(value.elts) != len(target.elts):
        return (
            "self-tail-call rebinding is not a parallel tuple assignment of "
            "matching arity",
            assign,
        )
    names = {elt.id for elt in target.elts if isinstance(elt, ast.Name)}
    if len(names) != len(target.elts):
        return (
            "self-tail-call rebinding assigns the same loop parameter twice "
            "in one tuple assignment",
            assign,
        )
    return None


# -- the per-artifact entry point --------------------------------------------


def _derive_expected(program: Program | None) -> _Derived:
    """Run the expected-order oracle, capturing its failure."""
    if program is None:
        return None
    try:
        return expected_events(program)
    except Exception as exc:
        return exc


def verify_artifact(
    artifact: CompiledArtifact,
    program: Program | None = None,
    filename: str | None = None,
) -> AnalysisReport:
    """Statically validate one compiled artifact (PGMP5xx diagnostics).

    ``program`` is the expanded program the artifact claims to implement;
    it defaults to the artifact's own carried Program. Without one (e.g.
    a disk-loaded cache entry) the expected-order comparison degrades to
    the source-level invariants, which still catch swapped indices,
    missing charges, scope escapes, unsafe rebinding, and unguarded fast
    paths.
    """
    target = program if program is not None else artifact.program
    return _verify_artifact(artifact, filename, lambda: _derive_expected(target))


def _verify_artifact(
    artifact: CompiledArtifact, filename: str | None, derive: Callable[[], _Derived]
) -> AnalysisReport:
    """:func:`verify_artifact` with the oracle supplied by the caller, so
    that the flavors of one program share one derivation. ``derive`` runs
    only for an artifact with source to check."""
    report = AnalysisReport()
    name = filename if filename is not None else artifact.filename

    def emit(
        code: str,
        message: str,
        node: ast.AST | None = None,
        severity: Severity | None = None,
    ) -> None:
        message = f"artifact[{artifact.flavor}]: {message}"
        report.emit(code, message, _anchor(name, node), PASS_NAME, severity)

    if not artifact.runnable:
        reason = artifact.unsupported_reason or "artifact is expansion-only"
        emit("PGMP506", f"interpreter fallback: {reason}")
        return report
    if not artifact.python_source:
        # Mirrors CompiledArtifact.self_check: instr flavors legitimately
        # drop their source; a plain/budget runnable artifact must not.
        if "instr" not in artifact.flavor:
            emit("PGMP503", "runnable artifact carries no generated source to verify")
        return report
    try:
        tree = ast.parse(artifact.python_source)
    except SyntaxError as exc:
        emit("PGMP503", f"generated source does not parse: {exc}")
        return report
    derived = derive()
    if isinstance(derived, Exception):
        emit(
            "PGMP501",
            "could not re-derive expected instrumentation sites: "
            f"{type(derived).__name__}: {derived}",
            severity=Severity.WARNING,
        )
    expected = derived if isinstance(derived, ExpectedEvents) else None
    walk = _Walk(tree)
    for code, finding in (
        ("PGMP503", _entry_point_finding(tree)),
        ("PGMP501", _hook_finding(walk.out.hooks, artifact, expected)),
        ("PGMP502", _charge_finding(walk.out, artifact, expected)),
        ("PGMP503", _scope_finding(walk, tree)),
        ("PGMP504", _tail_loop_finding(walk.out)),
        ("PGMP505", walk.unguarded),
    ):
        if finding is not None:
            emit(code, *finding)
    return report
