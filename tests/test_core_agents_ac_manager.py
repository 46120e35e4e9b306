"""Tests for monitoring agents, the Aspect Component, its proxy and the Manager Agent."""

from __future__ import annotations

import pytest

from repro.aop.weaver import Weaver
from repro.core.aspect_component import (
    ASPECT_DOMAIN,
    AspectComponent,
    AspectComponentProxy,
    aspect_object_name,
)
from repro.core.manager_agent import (
    AGING_SUSPECT_NOTIFICATION,
    MANAGER_OBJECT_NAME,
    ManagerAgent,
)
from repro.core.monitoring_agents import (
    AGENT_DOMAIN,
    ConnectionPoolAgent,
    CpuAgent,
    HeapAgent,
    ObjectSizeAgent,
    ThreadAgent,
    default_agents,
)
from repro.core.overhead import OverheadAccount
from repro.core.resource_map import ComponentSample
from repro.db.engine import Database
from repro.db.jdbc import DataSource
from repro.db.table import Column, ColumnType
from repro.jmx.mbean_server import MBeanServer
from repro.jvm.runtime import JvmRuntime


@pytest.fixture
def runtime() -> JvmRuntime:
    return JvmRuntime(heap_bytes=50 * 1024 * 1024)


class TestMonitoringAgents:
    def test_object_size_agent_tracks_registered_roots(self, runtime):
        agent = ObjectSizeAgent(runtime)
        root = runtime.allocate("org.tpcw.Home", 2048, owner="home", root=True)
        agent.register_component("home", root)
        assert agent.sample("home") == {"object_size": 2048.0}
        leak = runtime.allocate("Leak", 1000, owner="home")
        root.add_reference(leak)
        assert agent.sample("home")["object_size"] == 3048.0
        assert agent.sample("unknown") == {"object_size": 0.0}
        assert agent.get_attribute("ComponentCount") == 1
        agent.unregister_component("home")
        assert agent.invoke("components") == []

    def test_heap_agent(self, runtime):
        agent = HeapAgent(runtime)
        runtime.allocate("X", 1024)
        sample = agent.sample("anything")
        assert sample["heap_used"] == 1024.0
        assert sample["heap_free"] == runtime.total_memory() - 1024.0
        assert agent.get_attribute("HeapCapacity") == runtime.total_memory()

    def test_cpu_and_thread_agents(self, runtime):
        cpu = CpuAgent(runtime)
        threads = ThreadAgent(runtime)
        runtime.record_cpu_time("home", 1.5)
        runtime.threads.spawn("t1", owner="home")
        assert cpu.sample("home") == {"cpu_seconds": 1.5}
        thread_sample = threads.sample("home")
        assert thread_sample["threads"] == 1.0
        assert thread_sample["threads_total"] >= 1.0

    def test_connection_pool_agent(self, runtime):
        database = Database("x")
        database.create_table("t", [Column("id", ColumnType.INTEGER, primary_key=True)])
        datasource = DataSource(database, pool_size=3)
        agent = ConnectionPoolAgent(datasource)
        connection = datasource.get_connection()
        sample = agent.sample("any")
        assert sample["connections_active"] == 1.0
        assert sample["connections_available"] == 2.0
        connection.close()
        assert agent.get_attribute("PoolSize") == 3

    def test_disabled_agent_returns_empty(self, runtime):
        agent = HeapAgent(runtime)
        agent.disable()
        assert agent.sample("x") == {}
        assert agent.get_attribute("Enabled") is False
        agent.enable()
        assert agent.sample("x") != {}

    def test_default_agent_set(self, runtime):
        agents = default_agents(runtime)
        types = {agent.agent_type for agent in agents}
        assert {"object-size", "heap", "cpu", "threads"} <= types


class _FakeComponent:
    """Minimal component the AC can be woven around."""

    java_class_name = "org.tpcw.servlet.TPCW_home_interaction"
    component_name = "home"

    def __init__(self, runtime: JvmRuntime) -> None:
        self.runtime = runtime
        self.root = runtime.allocate(self.java_class_name, 2048, owner="home", root=True)
        self.leak_next = 0

    def service(self):
        if self.leak_next:
            leak = self.runtime.allocate("Leak", self.leak_next, owner="home")
            self.root.add_reference(leak)
        return "page"


def _build_monitored_component(runtime):
    """Wire server + agents + manager + AC around a fake component."""
    server = MBeanServer()
    object_size_agent = ObjectSizeAgent(runtime)
    server.register(object_size_agent.object_name(), object_size_agent)
    heap_agent = HeapAgent(runtime)
    server.register(heap_agent.object_name(), heap_agent)
    manager = ManagerAgent(server)
    server.register(MANAGER_OBJECT_NAME, manager)

    component = _FakeComponent(runtime)
    object_size_agent.register_component("home", component.root)
    manager.register_component("home")

    overhead = OverheadAccount(sample_cost_seconds=0.001)
    aspect = AspectComponent(
        component_name="home",
        java_class_name=component.java_class_name,
        mbean_server=server,
        overhead=overhead,
        method_pattern="service",
    )
    weaver = Weaver()
    weaver.register_aspect(aspect)
    assert weaver.weave_object(component) == ["service"]
    proxy = AspectComponentProxy(aspect)
    server.register(proxy.object_name(), proxy)
    return server, manager, component, aspect, overhead


class TestAspectComponent:
    def test_samples_flow_to_manager(self, runtime):
        server, manager, component, aspect, overhead = _build_monitored_component(runtime)
        component.leak_next = 1000
        component.service()
        assert aspect.invocation_count == 1
        assert aspect.samples_sent == 1
        assert manager.map.sample_count == 1
        # The AC measured the 1000-byte growth of the component's state.
        assert aspect.last_deltas["object_size"] == pytest.approx(1000.0)
        assert manager.map.consumption("home") >= 1000.0
        # 2 agents sampled before + 2 after = 4 charges.
        assert overhead.sample_count == 4
        assert overhead.pending_seconds == pytest.approx(0.004)

    def test_disabled_ac_does_not_sample(self, runtime):
        server, manager, component, aspect, overhead = _build_monitored_component(runtime)
        aspect.disable()
        component.service()
        assert aspect.invocation_count == 0
        assert manager.map.sample_count == 0
        assert overhead.sample_count == 0

    def test_proxy_controls_and_reports(self, runtime):
        server, manager, component, aspect, _ = _build_monitored_component(runtime)
        proxy_name = aspect_object_name("home")
        assert server.get_attribute(proxy_name, "ComponentName") == "home"
        assert server.get_attribute(proxy_name, "Enabled") is True
        server.invoke(proxy_name, "deactivate")
        assert aspect.enabled is False
        server.set_attribute(proxy_name, "Enabled", True)
        assert aspect.enabled is True
        component.service()
        assert server.get_attribute(proxy_name, "InvocationCount") == 1
        last = server.invoke(proxy_name, "last_sample")
        assert "object_size" in last["values"]
        server.invoke(proxy_name, "reset")
        assert server.get_attribute(proxy_name, "InvocationCount") == 0

    def test_agent_registered_at_runtime_is_sampled_next(self, runtime):
        server, manager, component, aspect, overhead = _build_monitored_component(runtime)
        component.service()
        assert overhead.sample_count == 4
        assert "cpu_seconds" not in aspect.last_values
        cpu_agent = CpuAgent(runtime)
        server.register(cpu_agent.object_name(), cpu_agent)
        component.service()
        assert "cpu_seconds" in aspect.last_values
        assert "cpu_seconds" in aspect.last_deltas
        # 3 agents sampled before + 3 after.
        assert overhead.sample_count == 4 + 6
        assert cpu_agent.get_attribute("SampleCount") == 2

    def test_agent_unregistered_at_runtime_is_dropped_next(self, runtime):
        server, manager, component, aspect, overhead = _build_monitored_component(runtime)
        cpu_agent = CpuAgent(runtime)
        server.register(cpu_agent.object_name(), cpu_agent)
        component.service()
        assert overhead.sample_count == 6
        assert "cpu_seconds" in aspect.last_values
        server.unregister(cpu_agent.object_name())
        component.service()
        assert "cpu_seconds" not in aspect.last_values
        assert "cpu_seconds" not in aspect.last_deltas
        assert overhead.sample_count == 6 + 4
        assert cpu_agent.get_attribute("SampleCount") == 2

    def test_manager_unregistered_then_replaced_at_runtime(self, runtime):
        server, manager, component, aspect, overhead = _build_monitored_component(runtime)
        component.service()
        assert aspect.samples_sent == 1
        server.unregister(MANAGER_OBJECT_NAME)
        component.service()
        component.service()
        assert aspect.samples_sent == 1
        assert aspect.invocation_count == 3
        assert manager.map.sample_count == 1
        replacement = ManagerAgent(server)
        server.register(MANAGER_OBJECT_NAME, replacement)
        component.service()
        assert aspect.samples_sent == 2
        assert replacement.map.sample_count == 1
        assert manager.map.sample_count == 1

    def test_ac_works_without_manager(self, runtime):
        server = MBeanServer()
        agent = ObjectSizeAgent(runtime)
        server.register(agent.object_name(), agent)
        component = _FakeComponent(runtime)
        agent.register_component("home", component.root)
        aspect = AspectComponent("home", component.java_class_name, server)
        weaver = Weaver()
        weaver.register_aspect(aspect)
        weaver.weave_object(component)
        component.service()
        assert aspect.invocation_count == 1
        assert aspect.samples_sent == 0  # nowhere to send


class TestManagerAgent:
    def test_snapshot_polls_all_known_components(self, runtime):
        server, manager, component, _, _ = _build_monitored_component(runtime)
        sizes = manager.snapshot(timestamp=10.0)
        assert sizes["home"] == pytest.approx(2048.0)
        assert manager.get_attribute("SnapshotCount") == 1
        assert len(manager.map.series("home")) == 1
        assert len(manager.map.series("<jvm>", "heap_used")) == 1

    def test_root_cause_and_map_rows(self, runtime):
        server, manager, component, _, _ = _build_monitored_component(runtime)
        component.leak_next = 4096
        for _ in range(5):
            component.service()
        report = manager.determine_root_cause()
        assert report.top().component == "home"
        rows = manager.build_map()
        assert any(row["component"] == "home" for row in rows)
        assert manager.get_attribute("StrategyName") == "paper-map"

    def test_activate_deactivate_via_proxies(self, runtime):
        server, manager, component, aspect, _ = _build_monitored_component(runtime)
        assert manager.deactivate_component("home") is True
        assert aspect.enabled is False
        assert manager.component_status() == {"home": False}
        assert manager.activate_all() == 1
        assert aspect.enabled is True
        assert manager.deactivate_all() == 1
        assert manager.activate_component("missing") is False

    def test_aging_alert_notification(self, runtime):
        server, manager, component, _, _ = _build_monitored_component(runtime)
        manager.alert_growth_bytes = 10_000.0
        alerts = []
        manager.add_notification_listener(lambda n, h: alerts.append(n))
        component.leak_next = 6000
        component.service()
        component.service()
        assert len(alerts) == 1
        assert alerts[0].type == AGING_SUSPECT_NOTIFICATION
        assert alerts[0].attributes["component"] == "home"
        # The alert fires only once per component.
        component.service()
        assert len(alerts) == 1

    def test_record_sample_type_check(self, runtime):
        _, manager, _, _, _ = _build_monitored_component(runtime)
        with pytest.raises(TypeError):
            manager.record_sample({"not": "a sample"})
        manager.record_sample(ComponentSample("home", 0.0, values={"object_size": 1.0}))

    def test_flush_scans_each_touched_series_once(self, runtime, monkeypatch):
        # ISSUE 5 satellite: the alert check is folded into the flush, so a
        # flush pays at most one consumption scan per touched series (the
        # pre-fold intake scanned twice: alert check + folded-growth update).
        from repro.core.resource_map import ComponentStats

        _, manager, _, _, _ = _build_monitored_component(runtime)
        for index in range(6):
            manager.record_sample(
                ComponentSample(
                    f"c{index % 2}",
                    float(index),
                    deltas={"object_size": 64.0},
                    values={"object_size": 64.0 * (index + 1)},
                )
            )
        calls = []
        original = ComponentStats.consumption

        def counting(self, metric="object_size"):
            calls.append(self.name)
            return original(self, metric)

        monkeypatch.setattr(ComponentStats, "consumption", counting)
        manager._flush_samples()
        assert sorted(calls) == ["c0", "c1"]

    def test_folded_alert_still_fires_exactly_once_per_component(self, runtime):
        _, manager, _, _, _ = _build_monitored_component(runtime)
        manager.alert_growth_bytes = 1000.0
        alerts = []
        manager.add_notification_listener(lambda n, h: alerts.append(n))
        for index in range(4):
            manager.record_sample(
                ComponentSample("leaky", float(index), deltas={"object_size": 400.0})
            )
        manager._flush_samples()
        assert [n.attributes["component"] for n in alerts] == ["leaky"]
        assert alerts[0].attributes["growth_bytes"] >= 1000.0
        # Further growth after the alert never re-fires it.
        manager.record_sample(
            ComponentSample("leaky", 10.0, deltas={"object_size": 4000.0})
        )
        manager._flush_samples()
        assert len(alerts) == 1
