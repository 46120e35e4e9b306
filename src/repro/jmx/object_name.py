"""``javax.management.ObjectName`` analogue.

An object name has the canonical form ``domain:key1=value1,key2=value2``.
Names may be *patterns*: ``*`` and ``?`` wildcards in the domain, a trailing
``,*`` (or a lone ``*``) in the key-property list meaning "and any further
properties", and ``*``/``?`` wildcards inside property values.  Every other
character, ``[`` and ``]`` included, matches only itself.  Pattern
matching is what lets the JMX Manager Agent discover monitoring agents and
Aspect Components it has never been told about — the decoupling the paper
emphasises.

A name is an immutable value: its canonical form, hash and compiled
wildcards are computed once, when it is built.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Pattern, Tuple


class MalformedObjectNameError(ValueError):
    """Raised for syntactically invalid object names."""


_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def _wildcard(text: str) -> Optional[Pattern[str]]:
    """``text`` compiled as a ``*``/``?`` wildcard, or ``None`` without one."""
    if "*" not in text and "?" not in text:
        return None
    body = "".join(
        ".*" if ch == "*" else "." if ch == "?" else re.escape(ch) for ch in text
    )
    return re.compile(body, re.DOTALL)


def _wildcard_match(wildcard: Optional[Pattern[str]], literal: str, text: str) -> bool:
    """Whether ``text`` matches ``literal`` (compiled as ``wildcard``)."""
    if wildcard is None:
        return text == literal
    return wildcard.fullmatch(text) is not None


class ObjectName:
    """A structured MBean name: ``domain:key=value,...``.

    Parameters
    ----------
    name:
        Either a full canonical string, or just the domain when
        ``properties`` is given.
    properties:
        Key-property mapping used when ``name`` is only the domain.
    """

    __slots__ = (
        "_domain",
        "_properties",
        "_property_list_pattern",
        "_canonical",
        "_hash",
        "_is_pattern",
        "_domain_wildcard",
        "_value_wildcards",
    )

    def __init__(self, name: str, properties: Optional[Mapping[str, str]] = None) -> None:
        if properties is not None:
            self._build(name, {str(k): str(v) for k, v in properties.items()}, False)
            return

        if ":" not in name:
            raise MalformedObjectNameError(f"missing ':' separator in object name {name!r}")
        domain, _, prop_text = name.partition(":")
        parsed: Dict[str, str] = {}
        property_list_pattern = False

        prop_text = prop_text.strip()
        if not prop_text:
            raise MalformedObjectNameError(f"empty key-property list in {name!r}")

        parts = [p.strip() for p in prop_text.split(",")]
        for index, part in enumerate(parts):
            if part == "*":
                property_list_pattern = True
                if index != len(parts) - 1:
                    raise MalformedObjectNameError(
                        f"property-list wildcard '*' must be last in {name!r}"
                    )
                continue
            if "=" not in part:
                raise MalformedObjectNameError(f"invalid key property {part!r} in {name!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise MalformedObjectNameError(f"empty key or value in {part!r} of {name!r}")
            if key in parsed:
                raise MalformedObjectNameError(f"duplicate key {key!r} in {name!r}")
            parsed[key] = value
        self._build(domain, parsed, property_list_pattern)

    def _build(self, domain: str, properties: Dict[str, str], property_list_pattern: bool) -> None:
        """Validate the parts and compute everything derived from them."""
        if not domain:
            raise MalformedObjectNameError("object name domain must be non-empty")
        if not properties and not property_list_pattern:
            raise MalformedObjectNameError(
                f"object name {domain!r} must have at least one key property"
            )
        for key in properties:
            if not _KEY_RE.match(key):
                raise MalformedObjectNameError(f"invalid property key {key!r}")
        self._domain = domain
        self._properties = properties
        self._property_list_pattern = property_list_pattern

        props = ",".join(f"{k}={properties[k]}" for k in sorted(properties))
        if property_list_pattern:
            props = f"{props},*" if props else "*"
        self._canonical = f"{domain}:{props}"
        self._hash = hash(self._canonical)

        self._domain_wildcard = _wildcard(domain)
        self._value_wildcards = tuple(
            (key, value, _wildcard(value)) for key, value in properties.items()
        )
        self._is_pattern = (
            property_list_pattern
            or self._domain_wildcard is not None
            or any(wildcard is not None for _, _, wildcard in self._value_wildcards)
        )

    # ------------------------------------------------------------------ #
    @property
    def domain(self) -> str:
        """The domain part (before the ``:``)."""
        return self._domain

    @property
    def properties(self) -> Mapping[str, str]:
        """Read-only view of the key properties."""
        return MappingProxyType(self._properties)

    @property
    def canonical(self) -> str:
        """Canonical string form with keys sorted alphabetically."""
        return self._canonical

    @property
    def is_pattern(self) -> bool:
        """Whether this name contains any wildcard."""
        return self._is_pattern

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Value of a key property (or ``default``)."""
        return self._properties.get(key, default)

    # ------------------------------------------------------------------ #
    def matches(self, other: "ObjectName") -> bool:
        """Whether this (pattern) name matches the concrete name ``other``.

        A non-pattern name matches only an equal name.
        """
        if not self._is_pattern:
            return self._canonical == other._canonical
        if not _wildcard_match(self._domain_wildcard, self._domain, other._domain):
            return False
        other_properties = other._properties
        for key, value, wildcard in self._value_wildcards:
            other_value = other_properties.get(key)
            if other_value is None or not _wildcard_match(wildcard, value, other_value):
                return False
        # Without the property-list wildcard the property sets must coincide.
        return self._property_list_pattern or len(other_properties) == len(self._properties)

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectName):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return self._hash

    # Pickle the parts and rebuild the rest: string hashes differ between
    # processes, so a cached hash must not travel to a pool worker.
    def __getstate__(self) -> Tuple[str, Dict[str, str], bool]:
        return (self._domain, self._properties, self._property_list_pattern)

    def __setstate__(self, state: Tuple[str, Dict[str, str], bool]) -> None:
        self._build(*state)

    def __str__(self) -> str:
        return self._canonical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectName({self._canonical!r})"

    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, domain: str, **properties: str) -> "ObjectName":
        """Convenience constructor: ``ObjectName.of('repro.agents', type='memory')``."""
        return cls(domain, properties=properties)


def to_object_name(name: "ObjectName | str") -> ObjectName:
    """Coerce a string or ObjectName into an ObjectName."""
    if isinstance(name, ObjectName):
        return name
    return ObjectName(name)
