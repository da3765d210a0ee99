"""Per-rule fixture snippets for the simulator-invariant linter.

Each rule gets at least one failing fixture (placed at a path inside the
rule's scope) and one scoping fixture showing the same code is ignored
outside the scope.  Suppression handling is covered at the end.
"""

import textwrap

from repro.lint import check_source


def lint(source, path):
    report = check_source(textwrap.dedent(source), path)
    assert report.error is None, report.error
    return report


def codes(report):
    return [d.code for d in report.diagnostics]


class TestR001WallClock:
    def test_time_module_calls_flagged(self):
        report = lint(
            """
            import time

            def adapt():
                started = time.perf_counter()
                wall = time.time()
                return started, wall
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == ["R001", "R001"]
        assert "perf_counter" in report.diagnostics[0].message

    def test_from_import_alias_flagged(self):
        report = lint(
            """
            from time import perf_counter as tick

            def f():
                return tick()
            """,
            "repro/engine/fixture.py",
        )
        assert "R001" in codes(report)

    def test_datetime_now_flagged(self):
        report = lint(
            """
            import datetime

            def f():
                return datetime.datetime.now()
            """,
            "repro/streams/fixture.py",
        )
        assert codes(report) == ["R001"]

    def test_out_of_scope_module_ignored(self):
        report = lint(
            """
            import time

            def bench():
                return time.perf_counter()
            """,
            "repro/experiments/fixture.py",
        )
        assert codes(report) == []

    def test_virtual_clock_usage_clean(self):
        report = lint(
            """
            def service(clock):
                return clock.now
            """,
            "repro/engine/fixture.py",
        )
        assert codes(report) == []


class TestR002GlobalRng:
    def test_stdlib_random_import_flagged(self):
        report = lint(
            """
            import random

            def draw():
                return random.random()
            """,
            "repro/analysis/fixture.py",
        )
        assert "R002" in codes(report)

    def test_numpy_legacy_global_flagged(self):
        report = lint(
            """
            import numpy as np

            def draw():
                np.random.seed(42)
                return np.random.random()
            """,
            "repro/core/fixture.py",
        )
        assert codes(report).count("R002") == 2

    def test_from_numpy_random_draw_flagged(self):
        report = lint(
            """
            from numpy.random import uniform

            def draw():
                return uniform()
            """,
            "repro/streams/fixture.py",
        )
        assert "R002" in codes(report)

    def test_injected_generator_clean(self):
        report = lint(
            """
            import numpy as np

            class Sampler:
                def __init__(self, rng=None):
                    self._rng = np.random.default_rng(rng)

                def draw(self):
                    return self._rng.random()
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == []


class TestR003MutableDefaults:
    def test_list_default_flagged(self):
        report = lint(
            """
            def collect(items=[]):
                return items
            """,
            "repro/experiments/fixture.py",
        )
        assert codes(report) == ["R003"]

    def test_dict_and_call_defaults_flagged(self):
        report = lint(
            """
            def f(a={}, b=list(), *, c=set()):
                return a, b, c
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == ["R003", "R003", "R003"]

    def test_none_default_clean(self):
        report = lint(
            """
            def collect(items=None):
                return items or []
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == []


class TestR004ListHeadOps:
    def test_pop_zero_flagged_in_hot_path(self):
        report = lint(
            """
            def drain(queue):
                return queue.pop(0)
            """,
            "repro/engine/fixture.py",
        )
        assert codes(report) == ["R004"]

    def test_insert_zero_flagged_in_hot_path(self):
        report = lint(
            """
            def stage(queue, item):
                queue.insert(0, item)
            """,
            "repro/joins/fixture.py",
        )
        assert codes(report) == ["R004"]

    def test_positional_insert_clean(self):
        report = lint(
            """
            def place(queue, pos, item):
                queue.insert(pos, item)
                queue.pop()
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == []

    def test_out_of_scope_ignored(self):
        report = lint(
            """
            def drain(queue):
                return queue.pop(0)
            """,
            "repro/streams/fixture.py",
        )
        assert codes(report) == []


class TestR005FloatEquality:
    def test_float_literal_eq_flagged(self):
        report = lint(
            """
            def feasible(cost):
                return cost == 0.0
            """,
            "repro/core/cost_model.py",
        )
        assert codes(report) == ["R005"]

    def test_noteq_and_negative_literal_flagged(self):
        report = lint(
            """
            def f(z):
                return z != 1.0 or z == -0.5
            """,
            "repro/core/greedy.py",
        )
        assert codes(report) == ["R005", "R005"]

    def test_int_comparison_clean(self):
        report = lint(
            """
            def f(n, m):
                return n == 0 and len(m) == 3
            """,
            "repro/core/throttle.py",
        )
        assert codes(report) == []

    def test_out_of_scope_module_ignored(self):
        report = lint(
            """
            def f(cost):
                return cost == 0.0
            """,
            "repro/core/grubjoin.py",
        )
        assert codes(report) == []


class TestR006Slots:
    def test_plain_class_flagged(self):
        report = lint(
            """
            class HotTuple:
                def __init__(self, ts):
                    self.ts = ts
            """,
            "repro/streams/tuples.py",
        )
        assert codes(report) == ["R006"]

    def test_slots_declared_clean(self):
        report = lint(
            """
            class HotTuple:
                __slots__ = ("ts",)

                def __init__(self, ts):
                    self.ts = ts
            """,
            "repro/streams/tuples.py",
        )
        assert codes(report) == []

    def test_dataclass_slots_clean(self):
        report = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class HotTuple:
                ts: float
            """,
            "repro/core/basic_windows.py",
        )
        assert codes(report) == []

    def test_enum_and_error_exempt(self):
        report = lint(
            """
            from enum import IntEnum

            class Kind(IntEnum):
                A = 0

            class BufferError2(ValueError):
                pass
            """,
            "repro/engine/events.py",
        )
        assert codes(report) == []

    def test_namedtuple_exempt_plain_class_still_flagged(self):
        # a NamedTuple sets ``__slots__ = ()`` itself and forbids one in
        # its body, so it cannot (and need not) satisfy the rule literally
        report = lint(
            """
            from typing import Any, NamedTuple

            class Event(NamedTuple):
                time: float
                payload: Any = None

            class Plain:
                def __init__(self, time):
                    self.time = time
            """,
            "repro/engine/events.py",
        )
        assert codes(report) == ["R006"]
        assert "`Plain`" in report.diagnostics[0].message

    def test_out_of_scope_module_ignored(self):
        report = lint(
            """
            class Anything:
                def __init__(self):
                    self.x = 1
            """,
            "repro/engine/graph.py",
        )
        assert codes(report) == []


class TestR007ProcessAllocations:
    def test_comprehensions_and_builtin_calls_flagged(self):
        report = lint(
            """
            class Operator:
                def process(self, tup, now):
                    values = [t.value for t in tup]
                    lookup = dict()
                    keys = {v: 1 for v in values}
                    uniq = set(values)
                    gen = (v for v in values)
                    return lookup, keys, uniq, gen
            """,
            "repro/joins/fixture.py",
        )
        assert codes(report) == ["R007"] * 5
        assert "process()" in report.diagnostics[0].message

    def test_other_methods_and_free_functions_ignored(self):
        report = lint(
            """
            class Operator:
                def __init__(self):
                    self.orders = [list(range(3)) for _ in range(3)]

                def on_adapt(self, now, stats, interval):
                    return [s.pushed for s in stats]

            def process(tup):
                return [tup]
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == []

    def test_literals_allowed(self):
        report = lint(
            """
            class Operator:
                def process(self, tup, now):
                    outputs = []
                    state = {}
                    outputs.append(tup)
                    return outputs, state
            """,
            "repro/joins/fixture.py",
        )
        assert codes(report) == []

    def test_out_of_scope_package_ignored(self):
        report = lint(
            """
            class Node:
                def process(self, tup, now):
                    return [t for t in tup]
            """,
            "repro/engine/fixture.py",
        )
        assert codes(report) == []

    def test_per_line_suppression(self):
        report = lint(
            """
            class Operator:
                def process(self, tup, now):
                    return [t for t in tup]  # lint: disable=R007
            """,
            "repro/joins/fixture.py",
        )
        assert codes(report) == []
        assert report.suppressed == 1


class TestSuppressions:
    def test_matching_code_suppresses(self):
        report = lint(
            """
            import time

            def f():
                return time.perf_counter()  # lint: disable=R001
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == []
        assert report.suppressed == 1

    def test_multiple_codes_on_one_line(self):
        report = lint(
            """
            import numpy as np
            import time

            def f():
                return time.time(), np.random.random()  # lint: disable=R001,R002
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == []
        assert report.suppressed == 2

    def test_bare_disable_suppresses_everything(self):
        report = lint(
            """
            import time

            def f():
                return time.time()  # lint: disable
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == []

    def test_wrong_code_does_not_suppress(self):
        report = lint(
            """
            import time

            def f():
                return time.time()  # lint: disable=R002
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == ["R001"]

    def test_suppression_is_line_scoped(self):
        report = lint(
            """
            import time

            def f():
                a = time.time()  # lint: disable=R001
                b = time.time()
                return a, b
            """,
            "repro/core/fixture.py",
        )
        assert codes(report) == ["R001"]


class TestCheckerInfrastructure:
    def test_syntax_error_reported_not_raised(self):
        report = check_source("def broken(:\n", "repro/core/bad.py")
        assert report.error is not None
        assert "syntax error" in report.error

    def test_select_restricts_rules(self):
        report = check_source(
            "import time\nx = time.time()\nq = [].pop(0)\n",
            "repro/core/fixture.py",
            select=["R004"],
        )
        assert codes(report) == ["R004"]

    def test_module_path_resolution(self):
        from repro.lint import module_path_of

        assert module_path_of("src/repro/core/greedy.py") == "core/greedy.py"
        assert module_path_of("/a/b/repro/engine/cpu.py") == "engine/cpu.py"
        assert module_path_of("elsewhere/thing.py") == "elsewhere/thing.py"
