"""Pointcut parser edge cases and weaver fast-path dispatch semantics.

The weaver compiles one of two wrappers per advice chain (the monitor fast
path for the Aspect Component's shape, the general path for every other
chain); these tests pin down that both behave exactly like the seed's single
generic wrapper — including runtime enable/disable toggling, which must never
require re-weaving.
"""

from __future__ import annotations

import itertools
import re

import pytest

from repro.aop.aspect import Aspect, after, after_returning, after_throwing, around, before
from repro.aop.joinpoint import JoinPoint, Signature, compile_join_point_class
from repro.aop.pointcut import ExecutionPointcut, PointcutSyntaxError, parse_pointcut
from repro.aop.weaver import Weaver
from repro.perf.seed_reference import SeedWeaver


# --------------------------------------------------------------------------- #
# Pointcut parser edge cases
# --------------------------------------------------------------------------- #
class TestPointcutParserEdgeCases:
    def test_nested_parentheses_in_boolean_expressions(self):
        pointcut = parse_pointcut(
            "((execution(a.b.*.x) || execution(a.c.*.y)) && !within(a.b.Bad)) || within(z.Only)"
        )
        assert pointcut.matches_signature("a.b.Good", "x")
        assert not pointcut.matches_signature("a.b.Bad", "x")
        assert pointcut.matches_signature("z.Only", "anything")

    def test_double_negation(self):
        pointcut = parse_pointcut("!!execution(a.B.m)")
        assert pointcut.matches_signature("a.B", "m")
        assert not pointcut.matches_signature("a.C", "m")

    def test_argument_list_forms_are_tolerated(self):
        for expression in [
            "execution(org.tpcw..*.service(..))",
            "execution(org.tpcw..*.service())",
            "execution(* org.tpcw..*.service(..))",
            "execution(void org.tpcw..*.service(..))",
        ]:
            pointcut = parse_pointcut(expression)
            assert pointcut.matches_signature("org.tpcw.servlet.TPCW_home", "service"), expression

    def test_dotdot_trailing_type_pattern(self):
        # "a.b..*" must match arbitrarily deep sub-packages and the package root.
        pointcut = parse_pointcut("execution(a.b..*.m)")
        assert pointcut.matches_signature("a.b.C", "m")
        assert pointcut.matches_signature("a.b.c.d.E", "m")
        assert not pointcut.matches_signature("a.x.C", "m")

    def test_dotdot_mid_pattern(self):
        pointcut = parse_pointcut("execution(org..servlet.*.do*)")
        assert pointcut.matches_signature("org.tpcw.servlet.Home", "doGet")
        assert not pointcut.matches_signature("org.tpcw.filters.Home", "doGet")

    def test_star_stays_within_one_segment(self):
        pointcut = parse_pointcut("execution(a.*.m)")
        assert pointcut.matches_signature("a.B", "m")
        assert not pointcut.matches_signature("a.b.C", "m")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "execution()",
            "execution(nomethod)",
            "foo(a.b.c)",
            "execution(a.b.c.m) &&",
            "execution(a.b!c.m)",
            "(execution(a.B.m)",
            "execution(a.B.m))",
            "!",
            "within()",
            "execution(a b c)",
            "&& execution(a.B.m)",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(PointcutSyntaxError):
            parse_pointcut(bad)

    def test_signature_match_caching_is_transparent(self):
        pointcut = parse_pointcut("execution(a.b.*.m)")
        for _ in range(3):
            assert pointcut.matches_signature("a.b.C", "m")
            assert not pointcut.matches_signature("a.x.C", "m")

    def test_parse_cache_returns_equivalent_tree(self):
        first = parse_pointcut("execution(cacheprobe.unique.B.m)")
        second = parse_pointcut("execution(cacheprobe.unique.B.m)")
        assert first is second  # shared immutable tree
        assert second.matches_signature("cacheprobe.unique.B", "m")

    def test_execution_pointcuts_share_compiled_patterns(self, monkeypatch):
        """Each Aspect Component builds its own pointcut; a pattern compiles once."""
        first = ExecutionPointcut("cacheprobe.shared.*Servlet", "do*")
        compiled = []
        real_compile = re.compile
        monkeypatch.setattr(
            re, "compile", lambda *args: compiled.append(args) or real_compile(*args)
        )
        second = ExecutionPointcut("cacheprobe.shared.*Servlet", "do*")
        assert compiled == []
        assert second is not first
        assert second._type_re is first._type_re
        assert second._method_re is first._method_re
        assert second.matches_signature("cacheprobe.shared.HomeServlet", "doGet")
        assert not second.matches_signature("cacheprobe.shared.sub.HomeServlet", "doGet")


# --------------------------------------------------------------------------- #
# Weaver fast-path shapes
# --------------------------------------------------------------------------- #
class _Servlet:
    java_class_name = "org.tpcw.servlet.TPCW_fastpath"
    component_name = "fastpath"

    def __init__(self):
        self.calls = 0

    def service(self, value):
        self.calls += 1
        if value == "boom":
            raise RuntimeError("servlet failure")
        return value * 2


class _MonitorAspect(Aspect):
    """The AC shape: exactly one before + one after (monitor fast path)."""

    def __init__(self):
        super().__init__()
        self.events = []

    @before("execution(org.tpcw..*.service)")
    def record_before(self, jp):
        self.events.append(("before", jp.component, jp.args))

    @after("execution(org.tpcw..*.service)")
    def record_after(self, jp):
        self.events.append(("after", jp.result, jp.exception))


class _SelfDisablingAspect(Aspect):
    """Disables itself in its before advice (mid-call toggle)."""

    def __init__(self):
        super().__init__()
        self.events = []

    @before("execution(org.tpcw..*.service)")
    def sabotage(self, jp):
        self.events.append("before")
        self.disable()

    @after("execution(org.tpcw..*.service)")
    def never(self, jp):
        self.events.append("after")


class _FullAspect(Aspect):
    """All five advice kinds (general path)."""

    def __init__(self):
        super().__init__()
        self.kinds = []

    @before("execution(org.tpcw..*.service)")
    def b(self, jp):
        self.kinds.append("before")

    @after("execution(org.tpcw..*.service)")
    def a(self, jp):
        self.kinds.append("after")

    @after_returning("execution(org.tpcw..*.service)")
    def ar(self, jp):
        self.kinds.append("after_returning")

    @after_throwing("execution(org.tpcw..*.service)")
    def at(self, jp):
        self.kinds.append("after_throwing")

    @around("execution(org.tpcw..*.service)")
    def ao(self, jp, proceed):
        self.kinds.append("around-enter")
        try:
            return proceed()
        finally:
            self.kinds.append("around-exit")


def _weave(aspects):
    servlet = _Servlet()
    weaver = Weaver()
    for aspect in aspects:
        weaver.register_aspect(aspect)
    woven = weaver.weave_object(servlet)
    assert woven == ["service"]
    return servlet, weaver


class TestMonitorFastPath:
    def test_advice_sequence_and_join_point_fields(self):
        aspect = _MonitorAspect()
        servlet, _ = _weave([aspect])
        assert servlet.service(21) == 42
        assert aspect.events == [
            ("before", "fastpath", (21,)),
            ("after", 42, None),
        ]

    def test_exception_path(self):
        aspect = _MonitorAspect()
        servlet, _ = _weave([aspect])
        with pytest.raises(RuntimeError):
            servlet.service("boom")
        kind, result, exception = aspect.events[-1]
        assert kind == "after" and result is None
        assert isinstance(exception, RuntimeError)

    def test_toggle_without_reweaving(self):
        aspect = _MonitorAspect()
        servlet, _ = _weave([aspect])
        aspect.disable()
        assert servlet.service(2) == 4
        assert aspect.events == []
        assert servlet.calls == 1  # original still runs while disabled
        aspect.enable()
        assert servlet.service(3) == 6
        assert [event[0] for event in aspect.events] == ["before", "after"]
        aspect.disable()
        assert servlet.service(4) == 8
        assert len(aspect.events) == 2  # unchanged

    def test_mid_call_self_disable_skips_after(self):
        # Seed semantics: enabled is probed per advice invocation, so an
        # aspect disabling itself in `before` must not see its `after`.
        aspect = _SelfDisablingAspect()
        servlet, _ = _weave([aspect])
        assert servlet.service(1) == 2
        assert aspect.events == ["before"]

    def test_disabled_at_entry_sees_nothing_even_if_enabled_mid_call(self):
        # Documented refinement over the seed (see weaver module docstring):
        # when no aspect is enabled at entry the call bypasses interception
        # entirely, so enabling the aspect *during* the call has no effect
        # until the next call.
        aspect = _MonitorAspect()

        class TogglingServlet(_Servlet):
            def service(self, value):
                aspect.enable()
                return super().service(value)

        servlet = TogglingServlet()
        weaver = Weaver()
        weaver.register_aspect(aspect)
        weaver.weave_object(servlet, method_names=["service"])
        aspect.disable()
        assert servlet.service(1) == 2
        assert aspect.events == []          # this call was never observed
        assert servlet.service(2) == 4      # next call is (aspect re-enabled)
        assert [event[0] for event in aspect.events] == ["before", "after"]

    def test_join_points_are_independent_per_call(self):
        captured = []

        class Capture(Aspect):
            @before("execution(org.tpcw..*.service)")
            def grab_before(self, jp):
                jp.context["mark"] = jp.args[0]
                captured.append(jp)

            @after("execution(org.tpcw..*.service)")
            def grab_after(self, jp):
                captured.append(jp)

        servlet, _ = _weave([Capture()])
        servlet.service(1)
        servlet.service(2)
        assert captured[0] is captured[1]          # same call, same join point
        assert captured[1] is not captured[2]      # different calls differ
        assert captured[0].context == {"mark": 1}
        assert captured[2].context == {"mark": 2}
        assert captured[2].result == 4

    def test_clock_timestamp_stamped(self):
        class FakeClock:
            now = 77.5

        stamped = []

        class Stamp(Aspect):
            @before("execution(org.tpcw..*.service)")
            def s_before(self, jp):
                stamped.append(jp.timestamp)

            @after("execution(org.tpcw..*.service)")
            def s_after(self, jp):
                stamped.append(jp.timestamp)

        servlet = _Servlet()
        weaver = Weaver(clock=FakeClock())
        weaver.register_aspect(Stamp())
        weaver.weave_object(servlet)
        servlet.service(1)
        assert stamped == [77.5, 77.5]

    def test_overridden_enabled_property_still_honoured(self):
        # An aspect overriding `enabled` must not take the _enabled-probing
        # monitor path; dispatch falls back to the property-checking wrapper.
        class VetoAspect(_MonitorAspect):
            veto = False

            @property
            def enabled(self):
                return not self.veto

        aspect = VetoAspect()
        servlet, _ = _weave([aspect])
        servlet.service(1)
        assert len(aspect.events) == 2
        aspect.veto = True
        servlet.service(2)
        assert len(aspect.events) == 2  # vetoed: no advice ran


class TestOtherCompiledShapes:
    def test_general_path_order_matches_seed(self):
        aspect = _FullAspect()
        servlet, _ = _weave([aspect])
        assert servlet.service(5) == 10
        assert aspect.kinds == [
            "around-enter",
            "before",
            "after_returning",
            "after",
            "around-exit",
        ]
        aspect.kinds.clear()
        with pytest.raises(RuntimeError):
            servlet.service("boom")
        assert aspect.kinds == [
            "around-enter",
            "before",
            "after_throwing",
            "after",
            "around-exit",
        ]

    def test_general_path_toggling(self):
        aspect = _FullAspect()
        servlet, _ = _weave([aspect])
        aspect.disable()
        assert servlet.service(1) == 2
        assert aspect.kinds == []
        aspect.enable()
        servlet.service(1)
        assert aspect.kinds[0] == "around-enter"

    def test_multi_aspect_no_around_path(self):
        first, second = _MonitorAspect(), _MonitorAspect()
        servlet, _ = _weave([first, second])
        servlet.service(1)
        assert [event[0] for event in first.events] == ["before", "after"]
        assert [event[0] for event in second.events] == ["before", "after"]
        # Disabling one aspect must not affect the other.
        first.disable()
        servlet.service(2)
        assert len(first.events) == 2
        assert len(second.events) == 4

    def test_unweave_restores_plain_calls(self):
        aspect = _MonitorAspect()
        servlet, weaver = _weave([aspect])
        weaver.unweave_object(servlet)
        assert servlet.service(3) == 6
        assert aspect.events == []


_NO_AROUND_DECORATORS = {
    "before": before,
    "after": after,
    "after_returning": after_returning,
    "after_throwing": after_throwing,
}
#: Every non-empty subset of the advice kinds other than ``around``.
_NO_AROUND_SHAPES = [
    kinds
    for size in range(1, len(_NO_AROUND_DECORATORS) + 1)
    for kinds in itertools.combinations(_NO_AROUND_DECORATORS, size)
]


class _FixedClock:
    now = 12.5


def _recording_aspect(tag, kinds, log):
    """An aspect with one advice per kind in ``kinds``; each logs what it saw."""

    def advice(kind):
        def record(self, jp):
            exception = jp.exception
            log.append(
                (
                    tag,
                    kind,
                    jp.kind,
                    jp.target,
                    jp.signature.full_name,
                    jp.args,
                    jp.kwargs,
                    jp.component,
                    jp.timestamp,
                    jp.result,
                    None if exception is None else (type(exception), str(exception)),
                )
            )

        return _NO_AROUND_DECORATORS[kind]("execution(org.tpcw..*.service)")(record)

    namespace = {f"on_{kind}": advice(kind) for kind in kinds}
    return type(f"Recording{tag}", (Aspect,), namespace)()


def _observed_calls(weaver_class, kinds, aspect_count):
    """Advice log, call outcomes and original-method calls of one weaving."""
    log = []
    aspects = [_recording_aspect(index, kinds, log) for index in range(aspect_count)]
    servlet = _Servlet()
    weaver = weaver_class(clock=_FixedClock())
    for aspect in aspects:
        weaver.register_aspect(aspect)
    assert weaver.weave_object(servlet) == ["service"]
    outcomes = []

    def call(value):
        try:
            outcomes.append(("returned", servlet.service(value)))
        except RuntimeError as exc:
            outcomes.append(("raised", type(exc), str(exc)))

    call(3)
    call("boom")
    aspects[0].disable()
    call(4)
    call("boom")
    aspects[0].enable()
    call(5)
    # Targets differ between the two weavings; compare their identity instead.
    log = [entry[:3] + (entry[3] is servlet,) + entry[4:] for entry in log]
    return log, outcomes, servlet.calls


class TestNoAroundShapesMatchSeed:
    @pytest.mark.parametrize("aspect_count", [1, 2])
    @pytest.mark.parametrize("kinds", _NO_AROUND_SHAPES, ids="+".join)
    def test_general_wrapper_matches_seed_weaver(self, kinds, aspect_count):
        current = _observed_calls(Weaver, kinds, aspect_count)
        seed = _observed_calls(SeedWeaver, kinds, aspect_count)
        assert current == seed
        log, outcomes, calls = current
        assert calls == 5
        assert [outcome[0] for outcome in outcomes] == [
            "returned", "raised", "returned", "raised", "returned",
        ]
        assert log  # some advice observed every shape


class TestCompiledJoinPointClass:
    def test_constants_live_on_the_class(self):
        signature = Signature("a.B", "m")
        cls = compile_join_point_class("the-target", signature, "comp")
        jp = cls.__new__(cls)
        jp.args = (1,)
        jp.kwargs = {}
        assert isinstance(jp, JoinPoint)
        assert jp.target == "the-target"
        assert jp.component == "comp"
        assert jp.full_name == "a.B.m"
        assert jp.result is None and jp.exception is None
        # Mutating one instance never leaks into another.
        jp.result = 99
        other = cls.__new__(cls)
        assert other.result is None
        assert jp.context == {} and jp.context is not other.context
