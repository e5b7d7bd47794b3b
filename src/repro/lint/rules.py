"""The determinism / sim-safety rule catalog.

Each rule is a pure function of one :class:`~repro.lint.walker.
ModuleContext`, yielding :class:`~repro.lint.report.Finding`s; the
scoped rules read the module-prefix constants :data:`SIM_PATH` and
:data:`SPEC_MODULES`.  Rules are
AST-only — no imports, no type inference — so every check here is a
conservative syntactic approximation of the runtime invariant it
guards; the docs/LINTING.md catalog states each rule's rationale and
its known blind spots.

The catalog:

* **D1** — no wall-clock reads in sim-path modules.
* **D2** — no global / un-seeded RNG use.
* **D3** — no unordered ``set`` / ``frozenset`` / ``dict.keys()``
  iteration in sim-path code without ``sorted(...)``.
* **D4** — sweep specs must be picklable by construction.
* **D5** — event emission must sit inside a tracer-enabled guard.
* **E1** — every ``raise`` uses the ``repro.errors`` hierarchy.

``RULE_CATALOG`` maps rule id -> instance; adding a rule is one class
plus one ``@register`` line (see docs/LINTING.md, "Adding a rule").
"""

from __future__ import annotations

import ast
from typing import Iterator

from .report import Finding
from .walker import ModuleContext, in_scope

#: Modules whose code executes under the simulated clock and must be
#: deterministic (D1/D3/D5 scope).  Benchmarking, profiling, progress
#: reporting and the ops telemetry layer measure the host, and sit
#: outside it.
SIM_PATH = (
    "repro.net",
    "repro.p2p",
    "repro.experiments",
    "repro.abr",
    "repro.player",
)

#: Modules holding the picklable sweep specs checked by D4.
SPEC_MODULES = ("repro.parallel.spec",)

RULE_CATALOG: dict[str, "Rule"] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to :data:`RULE_CATALOG`."""
    rule = cls()
    RULE_CATALOG[rule.rule_id] = rule
    return cls


class Rule:
    """One static check: identity, fix hint, and a visitor.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`finding` stamps the shared fields so rule bodies only
    supply a location and a message.
    """

    rule_id: str = ""
    hint: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``ctx``."""
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint,
        )


#: Wall-clock reads that leak host time into simulated behaviour.
#: ``time.perf_counter`` is deliberately absent: it is the sanctioned
#: *profiling* clock (engine wall-time profile, worker timing) and
#: never feeds simulation state — see docs/LINTING.md.
_WALLCLOCK_NAMES = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@register
class WallClockRule(Rule):
    """D1: sim-path modules must not read the wall clock.

    Sim-path code runs on the simulated clock (``sim.now``); a host
    clock read makes behaviour depend on machine speed and breaks
    bit-identical replay.  Matches both calls and bare references
    (``clock=time.monotonic`` stores the banned clock just as
    surely as calling it).
    """

    rule_id = "D1"
    hint = (
        "use the simulated clock (sim.now) or move the measurement "
        "out of the sim-path modules; time.perf_counter is the "
        "sanctioned profiling clock"
    )

    def check(self, ctx):
        if not in_scope(ctx.module, SIM_PATH):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Attribute chains resolve at their outermost node only:
            # flagging "time.monotonic" must not also flag the inner
            # "time" Name.
            parent = ctx.parents.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue
            dotted = ctx.dotted(node)
            if dotted in _WALLCLOCK_NAMES:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read '{dotted}' in sim-path module "
                    f"{ctx.module}",
                )


#: ``numpy.random`` entry points that *construct* an RNG rather than
#: touching the hidden global generator; allowed when given a seed.
#: Includes the bit-generator classes so spec-seeded compositions like
#: ``Generator(PCG64(seed))`` or ``SeedSequence(seed).spawn(n)`` (the
#: vectorized swarm backend's idiom) pass, while their un-seeded forms
#: — which seed themselves from OS entropy — are still flagged.
_NUMPY_CONSTRUCTORS = frozenset({
    "default_rng",
    "RandomState",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
})


@register
class GlobalRandomRule(Rule):
    """D2: no module-level or un-seeded RNG use.

    All randomness must flow from spec-carried seeds through
    ``random.Random(seed)`` instances (or seeded numpy generators):
    the process-global generators (``random.random()``,
    ``numpy.random.*``) are shared mutable state that couples runs
    together and diverges across worker processes.
    """

    rule_id = "D2"
    hint = (
        "thread a seeded random.Random(seed) (or "
        "numpy.random.default_rng(seed)) down from the run spec "
        "instead of touching the global generator"
    )

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted is None:
                continue
            if dotted.startswith("random."):
                yield from self._check_stdlib(ctx, node, dotted)
            elif dotted.startswith("numpy.random."):
                yield from self._check_numpy(ctx, node, dotted)

    def _check_stdlib(self, ctx, node, dotted):
        name = dotted[len("random."):]
        if name == "Random":
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "un-seeded random.Random() (seeds itself from "
                    "the OS entropy pool)",
                )
            elif self._at_module_level(ctx, node):
                yield self.finding(
                    ctx, node,
                    "module-level random.Random(...) is shared "
                    "mutable state across runs",
                )
        elif "." not in name:
            yield self.finding(
                ctx, node,
                f"'{dotted}' uses the process-global random "
                f"generator",
            )

    def _check_numpy(self, ctx, node, dotted):
        name = dotted[len("numpy.random."):]
        if name in _NUMPY_CONSTRUCTORS:
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node, f"un-seeded '{dotted}()'"
                )
        elif "." not in name:
            yield self.finding(
                ctx, node,
                f"'{dotted}' uses numpy's global random state",
            )

    @staticmethod
    def _at_module_level(ctx, node):
        return (
            ctx.enclosing_function(node) is None
            and ctx.enclosing_class(node) is None
        )


#: Annotation heads that mark a binding as set-typed.
_SET_ANNOTATIONS = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
    "MutableSet",
})

#: Calls whose result is a set.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Iteration-consuming builtins that preserve the receiver's order —
#: feeding them a set leaks the unordered sequence onward.
_ORDER_LEAKING_CALLS = frozenset({"list", "tuple", "iter", "enumerate"})


@register
class UnorderedIterRule(Rule):
    """D3: no unordered iteration in sim-path code.

    Iterating a ``set``/``frozenset`` (or ``dict.keys()``) drives
    event scheduling in hash order; for str/object elements that
    order varies across processes and interpreter runs, which is
    exactly the class of bug that breaks golden traces and
    cross-worker digest parity.  Wrap the receiver in ``sorted(...)``
    or suppress with a reason when every per-element operation is
    provably order-independent (commutative reductions).

    Detection is name-based: a receiver is set-typed when it was
    annotated or assigned a set in the same scope (function body,
    ``self.X`` across the class, or module level).  Literal set
    displays are exempt per the rule definition.
    """

    rule_id = "D3"
    hint = (
        "iterate sorted(<receiver>) to pin the order, or suppress "
        "with '# repro: lint-ok[D3] <why order cannot matter>'"
    )

    def check(self, ctx):
        if not in_scope(ctx.module, SIM_PATH):
            return
        set_names = self._collect_set_bindings(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                yield from self._check_iter(ctx, node.iter, set_names)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp),
            ):
                for generator in node.generators:
                    yield from self._check_iter(
                        ctx, generator.iter, set_names
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_LEAKING_CALLS
                    and node.args
                ):
                    yield from self._check_iter(
                        ctx, node.args[0], set_names
                    )

    def _check_iter(self, ctx, iter_node, set_names):
        described = self._describe_set(ctx, iter_node, set_names)
        if described is not None:
            yield self.finding(
                ctx, iter_node,
                f"iteration over unordered {described}",
            )

    def _describe_set(self, ctx, node, set_names) -> str | None:
        """Why ``node`` is set-valued, or ``None`` if it is not."""
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _SET_CONSTRUCTORS
            ):
                return f"{func.id}(...) result"
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "keys"
                and not isinstance(func.value, (ast.Dict, ast.DictComp))
            ):
                return ".keys() view"
            return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            key = self._binding_key(ctx, node)
            if key is not None and key in set_names:
                label = (
                    node.id if isinstance(node, ast.Name)
                    else ast.unparse(node)
                )
                return f"set-typed binding '{label}'"
        return None

    # -- set-binding collection ---------------------------------------

    def _collect_set_bindings(self, ctx) -> set[tuple]:
        """Keys of every name/attribute bound to a set.

        Keys are ``(scope-node-or-None, kind, name)``: function-local
        names scope to their function, ``self.X`` attributes to their
        class, plain module-level names to the module (``None``).
        """
        bindings: set[tuple] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign):
                if self._is_set_annotation(node.annotation):
                    self._add_binding(ctx, bindings, node.target)
                continue
            if isinstance(node, ast.Assign):
                if self._is_set_value(node.value):
                    for target in node.targets:
                        self._add_binding(ctx, bindings, target)
        return bindings

    def _add_binding(self, ctx, bindings, target):
        key = self._binding_key(ctx, target)
        if key is not None:
            bindings.add(key)

    def _binding_key(self, ctx, node) -> tuple | None:
        if isinstance(node, ast.Name):
            function = ctx.enclosing_function(node)
            if function is not None:
                return (function, "local", node.id)
            return (None, "global", node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return (ctx.enclosing_class(node), "attr", node.attr)
        return None

    @staticmethod
    def _is_set_annotation(annotation) -> bool:
        head = annotation
        if isinstance(head, ast.Subscript):
            head = head.value
        if isinstance(head, ast.Attribute):  # typing.Set[...]
            return head.attr in _SET_ANNOTATIONS
        return (
            isinstance(head, ast.Name) and head.id in _SET_ANNOTATIONS
        )

    @staticmethod
    def _is_set_value(value) -> bool:
        if isinstance(value, ast.SetComp):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _SET_CONSTRUCTORS
        )


@register
class SpecPicklableRule(Rule):
    """D4: sweep specs must be picklable by construction.

    ``RunSpec``/``CellSpec`` instances cross process boundaries; a
    lambda, nested-function closure, or open file handle anywhere in
    a spec dataclass's field defaults turns into a runtime
    ``PicklingError`` inside a worker, far from the definition site.
    """

    rule_id = "D4"
    hint = (
        "give the field a picklable default (scalar, tuple, module-"
        "level function) or reconstruct the resource inside the "
        "worker"
    )

    def check(self, ctx):
        if not in_scope(ctx.module, SPEC_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_dataclass(ctx, node):
                continue
            for statement in node.body:
                if not isinstance(
                    statement, (ast.Assign, ast.AnnAssign)
                ):
                    continue
                value = statement.value
                if value is None:
                    continue
                yield from self._check_default(ctx, node, value)

    def _check_default(self, ctx, cls, value):
        for sub in ast.walk(value):
            if isinstance(sub, ast.Lambda):
                yield self.finding(
                    ctx, sub,
                    f"lambda in field default of spec dataclass "
                    f"{cls.name} (unpicklable)",
                )
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "open"
            ):
                yield self.finding(
                    ctx, sub,
                    f"open file in field default of spec dataclass "
                    f"{cls.name} (unpicklable)",
                )

    @staticmethod
    def _is_dataclass(ctx, node) -> bool:
        for decorator in node.decorator_list:
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            dotted = ctx.dotted(target)
            if dotted is not None and (
                dotted == "dataclass"
                or dotted.endswith(".dataclass")
            ):
                return True
        return False


@register
class NullPathRule(Rule):
    """D5: event emission only inside a tracer-enabled guard.

    The zero-cost null path (PR 1) rests on the call-site pattern
    ``if tracer.enabled: tracer.emit(Event(...))`` — the disabled
    case pays one attribute check.  An unguarded ``emit`` builds the
    event object (f-strings, dicts, dataclass allocation) on every
    call even when tracing is off, which is exactly the overhead the
    null path exists to avoid.

    A guard is an enclosing ``if``/ternary whose test reads
    ``.enabled``, or reads a local that was assigned from an
    expression containing ``.enabled`` (the engine hoists
    ``tracing = tracer is not None and tracer.enabled`` out of its
    hot loop).
    """

    rule_id = "D5"
    hint = (
        "wrap the call site: 'if tracer.enabled: "
        "tracer.emit(Event(...))' so the disabled path allocates "
        "nothing"
    )

    def check(self, ctx):
        if not in_scope(ctx.module, SIM_PATH):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr == "emit"
            ):
                continue
            if not self._is_tracer(func.value):
                continue
            if not self._guarded(ctx, node):
                receiver = ast.unparse(func.value)
                yield self.finding(
                    ctx, node,
                    f"'{receiver}.emit(...)' outside a tracer-"
                    f"enabled guard allocates events on the null "
                    f"path",
                )

    @staticmethod
    def _is_tracer(receiver) -> bool:
        """Whether the receiver expression names a tracer."""
        name = None
        if isinstance(receiver, ast.Name):
            name = receiver.id
        elif isinstance(receiver, ast.Attribute):
            name = receiver.attr
        return name is not None and "tracer" in name.lower()

    def _guarded(self, ctx, node) -> bool:
        guard_names = self._guard_names(ctx, node)
        child = node
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.If) and self._is_guard_test(
                ancestor.test, guard_names
            ):
                # Guarded only on the *then* side; the else branch of
                # "if tracer.enabled" is the null path itself.
                if child in ancestor.orelse:
                    return False
                return True
            if isinstance(ancestor, ast.IfExp) and self._is_guard_test(
                ancestor.test, guard_names
            ):
                return child is ancestor.body
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return False
            child = ancestor
        return False

    @staticmethod
    def _guard_names(ctx, node) -> set[str]:
        """Locals assigned from an ``.enabled``-bearing expression."""
        function = ctx.enclosing_function(node)
        if function is None:
            return set()
        names: set[str] = set()
        for statement in ast.walk(function):
            if not isinstance(statement, ast.Assign):
                continue
            if not any(
                isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                for sub in ast.walk(statement.value)
            ):
                continue
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_guard_test(test, guard_names) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id in guard_names:
                return True
        return False


#: Builtin exceptions that must not be raised directly: every failure
#: surfaced by the library goes through ``repro.errors`` so callers
#: can catch ``ReproError`` once.  ``NotImplementedError`` (abstract
#: method protocol) and ``SystemExit``/``KeyboardInterrupt`` (process
#: control) are deliberately not listed.
_BUILTIN_EXCEPTIONS = frozenset({
    "ArithmeticError", "AssertionError", "AttributeError",
    "BaseException", "BufferError", "EOFError", "Exception",
    "FileExistsError", "FileNotFoundError", "IOError", "IndexError",
    "KeyError", "LookupError", "MemoryError", "NameError",
    "OSError", "OverflowError", "PermissionError", "RuntimeError",
    "StopAsyncIteration", "StopIteration", "TypeError",
    "UnicodeDecodeError", "UnicodeEncodeError", "ValueError",
    "ZeroDivisionError",
})


@register
class RaiseHierarchyRule(Rule):
    """E1: every raise uses the ``repro.errors`` hierarchy.

    Bare builtin exceptions escape the library's documented contract
    ("catch :class:`ReproError` once") and cannot be attributed to a
    subsystem by sweep-failure reporting.  Re-raises (``raise`` /
    ``raise exc``) and exception *chaining* are untouched; only
    direct ``raise ValueError(...)``-style statements are flagged.
    """

    rule_id = "E1"
    hint = (
        "raise the closest repro.errors subclass (add one if no "
        "subsystem error fits), or suppress with "
        "'# repro: lint-ok[E1] <why a builtin is required>'"
    )

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if not isinstance(exc, ast.Name):
                continue
            name = exc.id
            if name in _BUILTIN_EXCEPTIONS:
                yield self.finding(
                    ctx, node,
                    f"raise of builtin {name} outside the "
                    f"repro.errors hierarchy",
                )


def rule_ids() -> tuple[str, ...]:
    """Every registered rule id, sorted."""
    return tuple(sorted(RULE_CATALOG))
