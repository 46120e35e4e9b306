"""Runtime weaver.

Applies the advices of registered aspects to target objects by replacing
matching bound methods with interception wrappers (the Python analogue of
AspectJ's load-time weaving).  Weaving is always reversible: the weaver
remembers what it replaced and :meth:`Weaver.unweave` restores it, which is
how the framework honours the paper's requirement that monitoring can be
switched off at runtime without redeploying the application.

Advice chain semantics for a single woven method call::

    around_1( around_2( ... {
        before_*;                       # in order
        result = original(*args)        # or raises
        after_returning_* / after_throwing_*
        after_*                         # finally
    } ... ))

A disabled aspect's advices are skipped at call time (checked through the
aspect's ``enabled`` flag at each advice invocation), so toggling needs no
re-weaving.  One deliberate refinement over the seed: when **no** owning
aspect is enabled at call entry, the wrapper calls the original method
directly and no :class:`JoinPoint` is allocated.  Consequently an aspect
that is disabled at entry but becomes enabled *during* the intercepted call
(only possible if the woven method itself, or another aspect's advice,
toggles it) does not see that call's after advices — the seed, which always
allocated the join point, would have run them.  Toggling between calls —
the paper's activate/deactivate knob — behaves identically to the seed.

Dispatch compilation
--------------------
The advice chain is compiled **at weave time** into one of two wrappers:

* *Monitor fast path* — the shape the framework weaves into every
  component (the paper's Aspect Component: one aspect contributing one
  ``before`` and one ``after``): a flat wrapper with no per-call closure allocation and a
  single enabled check up front.  When the aspect is disabled the original
  method is called directly and **no** :class:`JoinPoint` is allocated.
* *General path* — every other chain: the seed's inside-out chain over
  precomputed ``(advice_body, aspect)`` pairs, built per call (around
  semantics require per-call closures; with no around advice the chain is
  just the core), again skipping the join point entirely when every aspect
  is disabled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.aop.advice import Advice, AdviceKind
from repro.aop.aspect import Aspect
from repro.aop.joinpoint import (
    JoinPoint,
    Signature,
    compile_join_point_class,
    declaring_type_of,
)


class WeavingError(RuntimeError):
    """Raised for invalid weaving operations (double weave, missing method...)."""


@dataclass
class _WovenMethod:
    """Bookkeeping for one replaced method."""

    target: Any
    method_name: str
    original: Callable
    wrapper: Callable
    advices: List[Tuple[Advice, Aspect]] = field(default_factory=list)


class Weaver:
    """Weaves aspects into target objects.

    Parameters
    ----------
    clock:
        Optional clock-like object with a ``now`` attribute; when provided,
        join points are stamped with the current simulated time.
    """

    def __init__(self, clock: Optional[Any] = None) -> None:
        self._clock = clock
        self._aspects: List[Aspect] = []
        self._woven: Dict[Tuple[int, str], _WovenMethod] = {}
        #: Advice lists built once per registered aspect; ``Aspect.advices``
        #: re-scans the class dict on every call, which the weave loop would
        #: otherwise repeat for every candidate method of every target.
        self._advice_cache: Dict[int, List[Advice]] = {}

    # ------------------------------------------------------------------ #
    # Aspect management
    # ------------------------------------------------------------------ #
    def register_aspect(self, aspect: Aspect) -> None:
        """Add an aspect whose advices will be considered by future weaves."""
        if not isinstance(aspect, Aspect):
            raise TypeError(f"expected an Aspect, got {type(aspect).__name__}")
        if aspect in self._aspects:
            raise WeavingError(f"aspect {aspect.name!r} is already registered")
        self._aspects.append(aspect)
        self._advice_cache[id(aspect)] = aspect.advices()

    def unregister_aspect(self, aspect: Aspect) -> None:
        """Remove an aspect (does not touch already-woven methods)."""
        try:
            self._aspects.remove(aspect)
        except ValueError as exc:
            raise WeavingError(f"aspect {aspect.name!r} is not registered") from exc
        self._advice_cache.pop(id(aspect), None)

    @property
    def aspects(self) -> List[Aspect]:
        """Registered aspects, in registration order."""
        return list(self._aspects)

    # ------------------------------------------------------------------ #
    # Weaving
    # ------------------------------------------------------------------ #
    def weave_object(
        self,
        target: Any,
        method_names: Optional[List[str]] = None,
        component: Optional[str] = None,
    ) -> List[str]:
        """Weave all registered aspects into ``target``.

        Parameters
        ----------
        target:
            The object whose methods are to be intercepted.
        method_names:
            Restrict weaving to these method names; by default every public
            callable attribute defined by the target's class is considered.
        component:
            Logical component name recorded on join points.  Defaults to the
            target's ``component_name`` attribute or its class name.

        Returns
        -------
        list of str
            Names of methods that were actually woven (at least one advice
            matched).
        """
        declaring_type = declaring_type_of(target)
        component_name = component or getattr(target, "component_name", None) or declaring_type
        candidate_names = (
            method_names
            if method_names is not None
            else [
                name
                for name in dir(type(target))
                if not name.startswith("_") and callable(getattr(type(target), name, None))
            ]
        )

        woven_names: List[str] = []
        for method_name in candidate_names:
            matched: List[Tuple[Advice, Aspect]] = []
            for aspect in self._aspects:
                for advice in self._advice_cache[id(aspect)]:
                    if advice.applies_to(declaring_type, method_name):
                        matched.append((advice, aspect))
            if not matched:
                continue
            self._weave_method(target, declaring_type, method_name, component_name, matched)
            woven_names.append(method_name)
        return woven_names

    def _weave_method(
        self,
        target: Any,
        declaring_type: str,
        method_name: str,
        component_name: str,
        matched: List[Tuple[Advice, Aspect]],
    ) -> None:
        key = (id(target), method_name)
        if key in self._woven:
            raise WeavingError(
                f"method {declaring_type}.{method_name} on this instance is already woven"
            )
        original = getattr(target, method_name, None)
        if original is None or not callable(original):
            raise WeavingError(f"{declaring_type} has no callable method {method_name!r}")

        signature = Signature(declaring_type=declaring_type, method_name=method_name)
        wrapper = self._compile_wrapper(
            target, original, signature, component_name, matched
        )
        wrapper.__woven__ = True  # type: ignore[attr-defined]
        setattr(target, method_name, wrapper)
        self._woven[key] = _WovenMethod(
            target=target,
            method_name=method_name,
            original=original,
            wrapper=wrapper,
            advices=matched,
        )

    # ------------------------------------------------------------------ #
    # Dispatch compilation
    # ------------------------------------------------------------------ #
    def _compile_wrapper(
        self,
        target: Any,
        original: Callable,
        signature: Signature,
        component_name: str,
        matched: List[Tuple[Advice, Aspect]],
    ) -> Callable:
        """Build the cheapest wrapper honouring the matched advice chain."""
        befores = [(a.body, s) for a, s in matched if a.kind is AdviceKind.BEFORE]
        afters = [(a.body, s) for a, s in matched if a.kind is AdviceKind.AFTER]
        after_returnings = [
            (a.body, s) for a, s in matched if a.kind is AdviceKind.AFTER_RETURNING
        ]
        after_throwings = [
            (a.body, s) for a, s in matched if a.kind is AdviceKind.AFTER_THROWING
        ]
        arounds = [(a, s) for a, s in matched if a.kind is AdviceKind.AROUND]

        clock = self._clock
        aspects = []
        for _, aspect in matched:
            if aspect not in aspects:
                aspects.append(aspect)

        if (
            not arounds
            and not after_returnings
            and not after_throwings
            and len(aspects) == 1
            and len(befores) == 1
            and len(afters) == 1
            # The monitor wrapper probes `_enabled` directly, which is only
            # equivalent while the `enabled` property is not overridden.
            and type(aspects[0]).enabled is Aspect.enabled
        ):
            wrapper = self._compile_monitor_wrapper(
                target,
                original,
                signature,
                component_name,
                aspects[0],
                befores[0][0],
                afters[0][0],
                clock,
            )
        else:
            wrapper = self._compile_general_wrapper(
                target,
                original,
                signature,
                component_name,
                aspects,
                befores,
                afters,
                after_returnings,
                after_throwings,
                arounds,
                clock,
            )
        return functools.wraps(original)(wrapper)

    @staticmethod
    def _compile_monitor_wrapper(
        target: Any,
        original: Callable,
        signature: Signature,
        component_name: str,
        aspect: Aspect,
        before_body: Callable,
        after_body: Callable,
        clock: Optional[Any],
    ) -> Callable:
        """One aspect, exactly one before and one after: the AC shape.

        This wrapper runs on every monitored request, so the per-call enabled
        probe reads the aspect's ``_enabled`` attribute directly (the
        ``enabled`` property is unmodified — :meth:`_compile_wrapper` only
        selects this path in that case) and the clock read is specialised at
        weave time (no ``getattr``/``float`` dance per call).  The join point
        comes from a per-method compiled subclass whose constants are class
        attributes, so only the per-call fields are stored.
        """
        jp_class = compile_join_point_class(target, signature, component_name)
        new_jp = jp_class.__new__

        if clock is None or not hasattr(clock, "now"):

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not aspect._enabled:
                    return original(*args, **kwargs)
                join_point = new_jp(jp_class)
                join_point.args = args
                join_point.kwargs = kwargs
                before_body(join_point)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    join_point.exception = exc
                    if aspect._enabled:
                        after_body(join_point)
                    raise
                join_point.result = result
                if aspect._enabled:
                    after_body(join_point)
                return result

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not aspect._enabled:
                    return original(*args, **kwargs)
                join_point = new_jp(jp_class)
                join_point.args = args
                join_point.kwargs = kwargs
                join_point.timestamp = clock.now
                before_body(join_point)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    join_point.exception = exc
                    if aspect._enabled:
                        after_body(join_point)
                    raise
                join_point.result = result
                if aspect._enabled:
                    after_body(join_point)
                return result

        return wrapper

    @staticmethod
    def _compile_general_wrapper(
        target: Any,
        original: Callable,
        signature: Signature,
        component_name: str,
        aspects: List[Aspect],
        befores: List[Tuple[Callable, Aspect]],
        afters: List[Tuple[Callable, Aspect]],
        after_returnings: List[Tuple[Callable, Aspect]],
        after_throwings: List[Tuple[Callable, Aspect]],
        arounds: List[Tuple[Advice, Aspect]],
        clock: Optional[Any],
    ) -> Callable:
        """Any chain but the monitor shape: build the inside-out chain per call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            for live in aspects:
                if live.enabled:
                    break
            else:
                return original(*args, **kwargs)
            join_point = JoinPoint(
                "method-execution",
                target,
                signature,
                args,
                kwargs,
                component_name,
                float(getattr(clock, "now", 0.0)) if clock is not None else 0.0,
            )

            def run_core() -> Any:
                for body, aspect in befores:
                    if aspect.enabled:
                        body(join_point)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    join_point.exception = exc
                    for body, aspect in after_throwings:
                        if aspect.enabled:
                            body(join_point)
                    for body, aspect in afters:
                        if aspect.enabled:
                            body(join_point)
                    raise
                join_point.result = result
                for body, aspect in after_returnings:
                    if aspect.enabled:
                        body(join_point)
                for body, aspect in afters:
                    if aspect.enabled:
                        body(join_point)
                return result

            call_chain: Callable[[], Any] = run_core
            for advice, aspect in reversed(arounds):
                call_chain = Weaver._wrap_around(advice, aspect, join_point, call_chain)
            return call_chain()

        return wrapper

    @staticmethod
    def _wrap_around(
        advice: Advice, aspect: Aspect, join_point: JoinPoint, inner: Callable[[], Any]
    ) -> Callable[[], Any]:
        def call() -> Any:
            if not aspect.enabled:
                return inner()
            return advice.body(join_point, inner)

        return call

    # ------------------------------------------------------------------ #
    # Unweaving / introspection
    # ------------------------------------------------------------------ #
    def unweave_object(self, target: Any) -> List[str]:
        """Restore every woven method of ``target``; returns restored names."""
        restored: List[str] = []
        for key in [k for k in self._woven if k[0] == id(target)]:
            record = self._woven.pop(key)
            # The original was a bound method resolved from the class; removing
            # the instance attribute restores normal lookup.
            try:
                delattr(record.target, record.method_name)
            except AttributeError:
                setattr(record.target, record.method_name, record.original)
            restored.append(record.method_name)
        return sorted(restored)

    def unweave_all(self) -> int:
        """Restore every woven method everywhere; returns how many."""
        count = 0
        for key in list(self._woven):
            record = self._woven.pop(key)
            try:
                delattr(record.target, record.method_name)
            except AttributeError:
                setattr(record.target, record.method_name, record.original)
            count += 1
        return count

    def is_woven(self, target: Any, method_name: str) -> bool:
        """Whether the given instance method is currently woven."""
        return (id(target), method_name) in self._woven

    @property
    def woven_count(self) -> int:
        """Number of currently woven methods."""
        return len(self._woven)

    def woven_signatures(self) -> List[str]:
        """Fully qualified names of all woven methods (sorted)."""
        out = []
        for record in self._woven.values():
            out.append(f"{declaring_type_of(record.target)}.{record.method_name}")
        return sorted(out)
