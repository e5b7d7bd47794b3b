"""Per-rule fixture tests: each rule has at least one snippet that
produces a finding and one that passes.

Snippets are linted in-memory through :func:`repro.lint.lint_source`;
the ``module`` argument controls scope classification (a
``repro.p2p.*`` name lands in ``SIM_PATH``, ``repro.obs.*``
does not).
"""

import textwrap

from repro.lint import lint_source

SIM_MODULE = "repro.p2p.fixture"
NON_SIM_MODULE = "repro.obs.fixture"


def findings_for(source, module=SIM_MODULE, *, rule):
    """The findings of ``rule`` alone; every rule runs on each snippet."""
    result = lint_source(textwrap.dedent(source), module=module)
    return [finding for finding in result.findings if finding.rule == rule]


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


class TestD1WallClock:
    def test_flags_time_monotonic_call_in_sim_path(self):
        findings = findings_for(
            """
            import time

            def elapsed():
                return time.monotonic()
            """,
            rule="D1",
        )
        assert rules_of(findings) == ["D1"]
        assert "time.monotonic" in findings[0].message

    def test_flags_aliased_and_from_imports(self):
        findings = findings_for(
            """
            import time as t
            from time import time as wall
            from datetime import datetime

            def stamp():
                return t.time(), wall(), datetime.now()
            """,
            rule="D1",
        )
        assert len(findings) == 3

    def test_flags_bare_reference_used_as_default(self):
        findings = findings_for(
            """
            import time

            def make(clock=time.monotonic):
                return clock()
            """,
            rule="D1",
        )
        assert rules_of(findings) == ["D1"]

    def test_perf_counter_is_the_sanctioned_profiling_clock(self):
        assert not findings_for(
            """
            from time import perf_counter

            def profile():
                return perf_counter()
            """,
            rule="D1",
        )

    def test_non_sim_path_module_passes(self):
        assert not findings_for(
            """
            import time

            def elapsed():
                return time.monotonic()
            """,
            module=NON_SIM_MODULE,
            rule="D1",
        )


class TestD2GlobalRandom:
    def test_flags_global_generator_call(self):
        findings = findings_for(
            """
            import random

            def jitter():
                return random.random()
            """,
            rule="D2",
        )
        assert rules_of(findings) == ["D2"]

    def test_flags_unseeded_random_instance(self):
        findings = findings_for(
            """
            import random

            def fresh():
                return random.Random()
            """,
            rule="D2",
        )
        assert "un-seeded" in findings[0].message

    def test_flags_module_level_rng_even_when_seeded(self):
        findings = findings_for(
            """
            import random

            RNG = random.Random(7)
            """,
            rule="D2",
        )
        assert "module-level" in findings[0].message

    def test_flags_numpy_global_state(self):
        findings = findings_for(
            """
            import numpy as np

            def sample():
                return np.random.randint(0, 10)
            """,
            rule="D2",
        )
        assert rules_of(findings) == ["D2"]

    def test_seeded_instance_plumbing_passes(self):
        assert not findings_for(
            """
            import random

            def build(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
            rule="D2",
        )

    def test_seeded_numpy_generator_passes(self):
        assert not findings_for(
            """
            import numpy as np

            def build(seed):
                return np.random.default_rng(seed)
            """,
            rule="D2",
        )

    def test_flags_unseeded_numpy_bit_generator(self):
        findings = findings_for(
            """
            import numpy as np

            def build():
                return np.random.Generator(np.random.PCG64())
            """,
            rule="D2",
        )
        assert rules_of(findings) == ["D2"]
        assert "un-seeded" in findings[0].message

    def test_seeded_numpy_bit_generator_composition_passes(self):
        assert not findings_for(
            """
            import numpy as np

            def build(seed):
                streams = np.random.SeedSequence(seed).spawn(2)
                return [
                    np.random.Generator(np.random.PCG64(s))
                    for s in streams
                ]
            """,
            rule="D2",
        )


class TestD3UnorderedIteration:
    def test_flags_for_over_set_typed_local(self):
        findings = findings_for(
            """
            def fanout(names):
                pending = set(names)
                for name in pending:
                    print(name)
            """,
            rule="D3",
        )
        assert rules_of(findings) == ["D3"]
        assert "pending" in findings[0].message

    def test_flags_self_attribute_annotated_as_set(self):
        findings = findings_for(
            """
            class Peer:
                def __init__(self):
                    self._known: set[str] = set()

                def announce(self):
                    for name in self._known:
                        print(name)
            """,
            rule="D3",
        )
        assert len(findings) == 1
        assert "self._known" in findings[0].message

    def test_flags_comprehension_and_keys_view(self):
        findings = findings_for(
            """
            def rates(flows, table):
                chosen = frozenset(flows)
                totals = [f.rate for f in chosen]
                for key in table.keys():
                    totals.append(key)
                return totals
            """,
            rule="D3",
        )
        assert len(findings) == 2

    def test_flags_order_leaking_list_conversion(self):
        findings = findings_for(
            """
            def snapshot(names):
                live = set(names)
                return list(live)
            """,
            rule="D3",
        )
        assert rules_of(findings) == ["D3"]

    def test_sorted_wrapper_passes(self):
        assert not findings_for(
            """
            def fanout(names):
                pending = set(names)
                for name in sorted(pending):
                    print(name)
            """,
            rule="D3",
        )

    def test_membership_and_aggregates_pass(self):
        assert not findings_for(
            """
            def check(names, candidate):
                pending = set(names)
                return candidate in pending and len(pending) > 0
            """,
            rule="D3",
        )

    def test_non_sim_path_module_passes(self):
        assert not findings_for(
            """
            def fanout(names):
                pending = set(names)
                for name in pending:
                    print(name)
            """,
            module=NON_SIM_MODULE,
            rule="D3",
        )


class TestD4SpecPicklability:
    def test_flags_lambda_default(self):
        findings = findings_for(
            """
            from dataclasses import dataclass

            @dataclass
            class BadSpec:
                key = lambda self: 1
            """,
            module="repro.parallel.spec",
            rule="D4",
        )
        assert rules_of(findings) == ["D4"]

    def test_flags_open_file_default(self):
        findings = findings_for(
            """
            from dataclasses import dataclass

            @dataclass
            class BadSpec:
                log = open("/tmp/x", "w")
            """,
            module="repro.parallel.spec",
            rule="D4",
        )
        assert "open file" in findings[0].message

    def test_plain_defaults_pass(self):
        assert not findings_for(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class GoodSpec:
                seed: int = 1
                label: str = ""
            """,
            module="repro.parallel.spec",
            rule="D4",
        )

    def test_lambda_outside_spec_modules_passes(self):
        assert not findings_for(
            """
            from dataclasses import dataclass

            @dataclass
            class Elsewhere:
                key = lambda self: 1
            """,
            module="repro.obs.fixture",
            rule="D4",
        )


class TestD5NullPathPurity:
    def test_flags_unguarded_emit(self):
        findings = findings_for(
            """
            def receive(self, tracer, name):
                tracer.emit(dict(event="received", peer=f"{name}"))
            """,
            rule="D5",
        )
        assert rules_of(findings) == ["D5"]

    def test_flags_emit_on_else_branch_of_guard(self):
        findings = findings_for(
            """
            def receive(self, tracer):
                if tracer.enabled:
                    pass
                else:
                    tracer.emit({"event": "received"})
            """,
            rule="D5",
        )
        assert rules_of(findings) == ["D5"]

    def test_guarded_emit_passes(self):
        assert not findings_for(
            """
            def receive(self, name):
                if self._tracer.enabled:
                    self._tracer.emit({"peer": f"{name}"})
            """,
            rule="D5",
        )

    def test_hoisted_guard_name_passes(self):
        assert not findings_for(
            """
            def run(self, tracer):
                tracing = tracer is not None and tracer.enabled
                if tracing:
                    tracer.emit({"event": "started"})
            """,
            rule="D5",
        )

    def test_non_tracer_emit_passes(self):
        assert not findings_for(
            """
            def publish(self, bus):
                bus.emit("topic")
            """,
            rule="D5",
        )


class TestE1RaiseHierarchy:
    def test_flags_builtin_raise_anywhere(self):
        findings = findings_for(
            """
            def check(value):
                if value < 0:
                    raise ValueError(f"bad {value}")
            """,
            module=NON_SIM_MODULE,
            rule="E1",
        )
        assert rules_of(findings) == ["E1"]
        assert "ValueError" in findings[0].message

    def test_repro_errors_and_reraise_pass(self):
        assert not findings_for(
            """
            from repro.errors import ConfigurationError

            def check(value):
                if value < 0:
                    raise ConfigurationError(f"bad {value}")
                try:
                    return 1 / value
                except ZeroDivisionError as exc:
                    raise
            """,
            rule="E1",
        )

    def test_not_implemented_error_passes(self):
        assert not findings_for(
            """
            class Base:
                def check(self):
                    raise NotImplementedError
            """,
            rule="E1",
        )


class TestCatalog:
    def test_every_rule_has_identity_and_hint(self):
        from repro.lint import RULE_CATALOG

        assert set(RULE_CATALOG) == {
            "D1", "D2", "D3", "D4", "D5", "E1",
        }
        for rule in RULE_CATALOG.values():
            assert rule.hint
