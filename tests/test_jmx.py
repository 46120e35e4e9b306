"""Tests for the JMX substrate: object names, MBeans, server, notifications, connector."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.jmx.connector import JmxConnector, JmxConnectorError
from repro.jmx.mbean import MBean, MBeanAttributeError, MBeanOperationError, attribute, operation
from repro.jmx.mbean_server import (
    InstanceAlreadyExistsError,
    InstanceNotFoundError,
    MBeanServer,
    REGISTRATION_NOTIFICATION,
)
from repro.jmx.notifications import NotificationBroadcaster, type_filter
from repro.jmx.object_name import MalformedObjectNameError, ObjectName


class _SampleBean(MBean, NotificationBroadcaster):
    """Small MBean used throughout these tests."""

    description = "sample"

    def __init__(self) -> None:
        NotificationBroadcaster.__init__(self)
        self._level = 3
        self.reset_calls = 0

    @attribute
    def Level(self) -> int:
        return self._level

    @attribute(writable=True)
    def Threshold(self) -> int:
        return getattr(self, "_threshold", 10)

    def set_Threshold(self, value: int) -> None:
        self._threshold = value

    @operation
    def reset(self) -> str:
        self.reset_calls += 1
        return "ok"

    @operation
    def add(self, a: int, b: int) -> int:
        return a + b


class TestObjectName:
    def test_parse_canonical_form(self):
        name = ObjectName("repro.agents:type=memory,name=a1")
        assert name.domain == "repro.agents"
        assert name.get("type") == "memory"
        assert name.canonical == "repro.agents:name=a1,type=memory"

    def test_constructor_with_properties(self):
        name = ObjectName.of("d", type="x", id="1")
        assert name == ObjectName("d:type=x,id=1")
        assert hash(name) == hash(ObjectName("d:id=1,type=x"))

    def test_malformed_names(self):
        for bad in ["nodomain", "d:", "d:novalue", "d:k=", "d:k=v,k=w", ":k=v", "d:*,k=v"]:
            with pytest.raises(MalformedObjectNameError):
                ObjectName(bad)

    def test_pattern_matching_property_list_wildcard(self):
        pattern = ObjectName("repro.agents:type=memory,*")
        assert pattern.is_pattern
        assert pattern.matches(ObjectName("repro.agents:type=memory,name=a1"))
        assert not pattern.matches(ObjectName("repro.agents:type=cpu,name=a1"))

    def test_pattern_matching_value_wildcards(self):
        pattern = ObjectName("repro.*:component=TPCW_*,*")
        assert pattern.matches(ObjectName("repro.aspects:component=TPCW_home,x=1"))
        assert not pattern.matches(ObjectName("other:component=TPCW_home"))

    def test_exact_name_requires_same_property_set(self):
        exact = ObjectName("d:a=1")
        assert not exact.matches(ObjectName("d:a=1,b=2"))
        assert exact.matches(ObjectName("d:a=1"))

    def test_brackets_match_only_themselves(self):
        # Only ``*`` and ``?`` are wildcards; ``[...]`` is no character class.
        bracketed = ObjectName("d:name=a[1]")
        assert not bracketed.is_pattern
        assert bracketed.matches(bracketed)
        plain = ObjectName("d:name=[ab]")
        assert not plain.is_pattern
        assert not plain.matches(ObjectName("d:name=a"))
        domain = ObjectName("d[x]:k=v")
        assert domain.matches(domain)
        assert not domain.matches(ObjectName("dx:k=v"))

    def test_pattern_escapes_everything_but_star_and_question_mark(self):
        pattern = ObjectName("d:name=a[1]*")
        assert pattern.is_pattern
        assert pattern.matches(ObjectName("d:name=a[1]x"))
        assert not pattern.matches(ObjectName("d:name=a1x"))
        single = ObjectName("d.?:name=a.c?")
        assert single.matches(ObjectName("d.x:name=a.cd"))
        assert not single.matches(ObjectName("d.x:name=abcd"))
        assert not single.matches(ObjectName("d.x:name=a.c"))
        assert not single.matches(ObjectName("dxx:name=a.cd"))

    def test_query_finds_a_registered_bracketed_name(self):
        server = MBeanServer()
        server.register("d:name=a[1]", _SampleBean())
        server.register("d:name=a", _SampleBean())
        assert server.query_names("d:name=a[1]") == [ObjectName("d:name=a[1]")]
        assert server.query_names("d:name=[ab]") == []

    def test_properties_are_read_only(self):
        name = ObjectName("d:k=v")
        with pytest.raises(TypeError):
            name.properties["k"] = "w"  # type: ignore[index]
        with pytest.raises(AttributeError):
            name.properties = {"k": "w"}  # type: ignore[misc]
        with pytest.raises(AttributeError):
            name.domain = "e"  # type: ignore[misc]
        assert name.canonical == "d:k=v"
        assert name == ObjectName("d:k=v")

    def test_names_pickle_and_copy_as_values(self):
        names = [
            ObjectName("d:b=2,a=1"),
            ObjectName("d:a=1,*"),
            ObjectName("d*:a=x?,*"),
            ObjectName("d:*"),
            ObjectName.of("d", name="x,y"),
        ]
        for name in names:
            for clone in (pickle.loads(pickle.dumps(name)), copy.deepcopy(name), copy.copy(name)):
                assert clone == name
                assert hash(clone) == hash(name)
                assert clone.canonical == name.canonical
                assert clone.is_pattern == name.is_pattern
                assert clone.properties == name.properties
        pattern = pickle.loads(pickle.dumps(ObjectName("d*:a=x?,*")))
        assert pattern.matches(ObjectName("dom:a=xy,b=1"))
        assert not pattern.matches(ObjectName("dom:a=xyz"))

    def test_name_pickled_in_another_process_hashes_like_a_fresh_one(self):
        # String hashes differ between processes, so a name a pool worker
        # pickles must be rehashed where it is loaded.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import pickle, sys\n"
            "from repro.jmx.object_name import ObjectName\n"
            "sys.stdout.buffer.write(pickle.dumps(ObjectName('d:k=v,a=1')))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        dumped = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
        ).stdout
        name = pickle.loads(dumped)
        assert hash(name) == hash(ObjectName("d:a=1,k=v"))
        assert {ObjectName("d:a=1,k=v"): "found"}[name] == "found"


class TestMBean:
    def test_attribute_read(self):
        bean = _SampleBean()
        assert bean.get_attribute("Level") == 3
        assert bean.get_attributes(["Level", "Threshold"]) == {"Level": 3, "Threshold": 10}

    def test_unknown_attribute(self):
        with pytest.raises(MBeanAttributeError):
            _SampleBean().get_attribute("Nope")

    def test_read_only_attribute_rejects_write(self):
        with pytest.raises(MBeanAttributeError):
            _SampleBean().set_attribute("Level", 5)

    def test_writable_attribute(self):
        bean = _SampleBean()
        bean.set_attribute("Threshold", 42)
        assert bean.get_attribute("Threshold") == 42

    def test_operation_invocation(self):
        bean = _SampleBean()
        assert bean.invoke("reset") == "ok"
        assert bean.invoke("add", 2, 3) == 5
        with pytest.raises(MBeanOperationError):
            bean.invoke("missing")

    def test_operation_returns_the_bound_method(self):
        bean = _SampleBean()
        add = bean.operation("add")
        assert add(2, 3) == 5
        assert add.__self__ is bean
        with pytest.raises(MBeanOperationError) as resolved:
            bean.operation("missing")
        with pytest.raises(MBeanOperationError) as invoked:
            bean.invoke("missing")
        assert str(resolved.value) == str(invoked.value)
        assert "has no management operation 'missing'" in str(resolved.value)

    def test_mbean_info_lists_surface(self):
        info = _SampleBean().mbean_info()
        assert "Level" in info.attribute_names()
        assert info.attributes["Threshold"]["writable"] is True
        assert set(info.operation_names()) >= {"reset", "add"}


class TestMBeanServer:
    def test_register_query_invoke(self):
        server = MBeanServer()
        bean = _SampleBean()
        server.register("d:type=sample,id=1", bean)
        assert server.mbean_count == 1
        assert server.get_attribute("d:type=sample,id=1", "Level") == 3
        server.invoke("d:type=sample,id=1", "reset")
        assert bean.reset_calls == 1

    def test_epoch_moves_on_every_registry_change(self):
        server = MBeanServer()
        start = server.epoch
        server.register("d:a=1", _SampleBean())
        assert server.epoch == start + 1
        with pytest.raises(InstanceAlreadyExistsError):
            server.register("d:a=1", _SampleBean())
        with pytest.raises(InstanceNotFoundError):
            server.unregister("d:a=2")
        assert server.epoch == start + 1
        server.query_names("d:*")
        server.invoke("d:a=1", "reset")
        assert server.epoch == start + 1
        server.unregister("d:a=1")
        assert server.epoch == start + 2

    def test_invoke_unknown_operation_raises_operation_error(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        with pytest.raises(MBeanOperationError, match="has no management operation 'nope'"):
            server.invoke("d:a=1", "nope")

    def test_duplicate_registration_rejected(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        with pytest.raises(InstanceAlreadyExistsError):
            server.register("d:a=1", _SampleBean())

    def test_register_pattern_rejected(self):
        with pytest.raises(ValueError):
            MBeanServer().register("d:a=1,*", _SampleBean())

    def test_unregister(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        server.unregister("d:a=1")
        assert not server.is_registered("d:a=1")
        with pytest.raises(InstanceNotFoundError):
            server.get_mbean("d:a=1")

    def test_query_names_with_pattern(self):
        server = MBeanServer()
        server.register("repro.agents:type=memory", _SampleBean())
        server.register("repro.agents:type=cpu", _SampleBean())
        server.register("repro.core:type=manager", _SampleBean())
        names = server.query_names("repro.agents:*")
        assert [n.get("type") for n in names] == ["cpu", "memory"]
        assert len(server.query_names()) == 3

    def test_registration_notifications(self):
        server = MBeanServer()
        events = []
        server.add_notification_listener(
            lambda notification, handback: events.append(notification.type),
            type_filter(REGISTRATION_NOTIFICATION),
        )
        server.register("d:a=1", _SampleBean())
        server.unregister("d:a=1")
        assert events == [REGISTRATION_NOTIFICATION]

    def test_add_mbean_listener_routes_to_broadcaster(self):
        server = MBeanServer()
        bean = _SampleBean()
        server.register("d:a=1", bean)
        got = []
        server.add_mbean_listener("d:a=1", lambda notification, handback: got.append(handback), handback="hb")
        bean.send_notification("custom", source="d:a=1")
        assert got == ["hb"]


class TestNotifications:
    def test_filter_and_handback(self):
        broadcaster = NotificationBroadcaster()
        received = []
        broadcaster.add_notification_listener(
            lambda n, h: received.append((n.type, h)), type_filter("a"), handback=1
        )
        broadcaster.send_notification("a", source="s")
        broadcaster.send_notification("b", source="s")
        assert received == [("a", 1)]
        assert broadcaster.emitted_count == 2

    def test_sequence_numbers_increase(self):
        broadcaster = NotificationBroadcaster()
        first = broadcaster.send_notification("t", source="s")
        second = broadcaster.send_notification("t", source="s")
        assert second.sequence_number == first.sequence_number + 1

    def test_remove_listener(self):
        broadcaster = NotificationBroadcaster()
        listener = lambda n, h: None  # noqa: E731
        broadcaster.add_notification_listener(listener)
        assert broadcaster.remove_notification_listener(listener) == 1
        with pytest.raises(ValueError):
            broadcaster.remove_notification_listener(listener)


class TestConnector:
    def test_proxy_reads_and_invokes(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        connector = JmxConnector(server, call_latency=0.001)
        proxy = connector.proxy("d:a=1")
        assert proxy.get("Level") == 3
        assert proxy.call("add", 1, 2) == 3
        proxy.set("Threshold", 9)
        assert proxy.get("Threshold") == 9
        assert connector.call_count >= 4
        assert connector.total_latency == pytest.approx(connector.call_count * 0.001)

    def test_closed_connector_rejects_calls(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        connector = JmxConnector(server)
        connector.close()
        with pytest.raises(JmxConnectorError):
            connector.query_names()

    def test_proxy_for_missing_mbean(self):
        connector = JmxConnector(MBeanServer())
        with pytest.raises(JmxConnectorError):
            connector.proxy("d:a=1")

    def test_mbean_info_over_connector(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        info = JmxConnector(server).mbean_info("d:a=1")
        assert info["class_name"] == "_SampleBean"
        assert "Level" in info["attributes"]


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
_ident = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(domain=_ident, properties=st.dictionaries(_ident, _ident, min_size=1, max_size=4))
def test_property_object_name_roundtrip(domain, properties):
    """Canonical form parses back to an equal ObjectName."""
    name = ObjectName.of(domain, **properties)
    reparsed = ObjectName(name.canonical)
    assert reparsed == name
    assert reparsed.properties == name.properties


@settings(max_examples=60, deadline=None)
@given(domain=_ident, properties=st.dictionaries(_ident, _ident, min_size=1, max_size=4))
def test_property_pattern_with_property_wildcard_matches_self(domain, properties):
    """``domain:*`` matches every concrete name in that domain."""
    concrete = ObjectName.of(domain, **properties)
    pattern = ObjectName(f"{domain}:*")
    assert pattern.matches(concrete)
