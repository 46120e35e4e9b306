"""Tests for the servlet container: API, sessions, dispatch, thread pool, server."""

from __future__ import annotations

import pytest

from repro.container.dispatcher import RequestDispatcher
from repro.container.server import ApplicationServer, ServerConfig
from repro.container.servlet import (
    HttpServlet,
    HttpServletRequest,
    HttpServletResponse,
    ServletConfig,
    ServletContext,
    ServletException,
)
from repro.container.session import SessionManager
from repro.container.threadpool import WorkerThreadPool
from repro.container.webapp import WebApplication
from repro.db.engine import Database
from repro.db.jdbc import DataSource
from repro.db.table import Column, ColumnType
from repro.jvm.runtime import JvmRuntime


class _EchoServlet(HttpServlet):
    java_class_name = "org.example.EchoServlet"
    component_name = "echo"
    base_cpu_demand_seconds = 0.05

    def do_get(self, request, response):
        response.write(f"echo:{request.get_parameter('msg', '')}")

    def do_post(self, request, response):
        response.write("posted")


class _FailingServlet(HttpServlet):
    java_class_name = "org.example.FailingServlet"
    component_name = "failing"

    def do_get(self, request, response):
        raise ServletException("broken")


class TestServletApi:
    def test_request_parameters_and_attributes(self):
        request = HttpServletRequest("/x", parameters={"a": 1})
        assert request.get_parameter("a") == 1
        assert request.get_parameter("b", "d") == "d"
        request.set_parameter("b", 2)
        request.set_attribute("k", "v")
        assert request.get_attribute("k") == "v"
        assert request.parameter_names() == ["a", "b"]

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            HttpServletRequest("/x", method="PUT")

    def test_response_body_and_status(self):
        response = HttpServletResponse()
        response.write("hello ")
        response.write("world")
        assert response.body == "hello world"
        assert response.content_length == 11
        assert not response.is_error
        response.set_status(500)
        assert response.is_error

    def test_servlet_lifecycle_and_dispatch_by_method(self):
        servlet = _EchoServlet()
        context = ServletContext(WebApplication("app"))
        servlet.init(ServletConfig("echo", context, {"p": "v"}))
        assert servlet.is_initialized
        assert servlet.servlet_config.get_init_parameter("p") == "v"

        response = HttpServletResponse()
        servlet.service(HttpServletRequest("/e", parameters={"msg": "hi"}), response)
        assert response.body == "echo:hi"
        post_response = HttpServletResponse()
        servlet.service(HttpServletRequest("/e", method="POST"), post_response)
        assert post_response.body == "posted"
        servlet.destroy()
        assert not servlet.is_initialized

    def test_uninitialised_servlet_rejects_requests(self):
        with pytest.raises(ServletException):
            _EchoServlet().service(HttpServletRequest("/e"), HttpServletResponse())


class TestSessionManager:
    def test_create_get_and_touch(self):
        manager = SessionManager(JvmRuntime())
        session = manager.new_session(10.0)
        assert manager.get_session(session.session_id, create=False, timestamp=20.0) is session
        assert session.last_accessed == 20.0
        assert manager.active_count == 1

    def test_missing_session_with_create(self):
        manager = SessionManager(JvmRuntime())
        assert manager.get_session("nope", create=False, timestamp=0.0) is None
        created = manager.get_session("nope", create=True, timestamp=0.0)
        assert created is not None

    def test_attributes_are_heap_accounted(self):
        runtime = JvmRuntime()
        manager = SessionManager(runtime)
        before = runtime.used_memory()
        session = manager.new_session(0.0)
        session.set_attribute("cart_id", 42)
        assert runtime.used_memory() > before
        assert session.get_attribute("cart_id") == 42

    def test_invalidate_frees_roots(self):
        runtime = JvmRuntime()
        manager = SessionManager(runtime)
        session = manager.new_session(0.0)
        session.invalidate()
        assert not session.is_valid
        with pytest.raises(RuntimeError):
            session.get_attribute("x")
        assert manager.active_count == 0

    def test_expire_idle_sessions(self):
        manager = SessionManager(JvmRuntime(), session_timeout=100.0)
        manager.new_session(0.0)
        keep = manager.new_session(50.0)
        expired = manager.expire_idle_sessions(now=140.0)
        assert expired == 1
        assert manager.active_count == 1
        assert keep.is_valid


class TestDispatcher:
    def _make_app(self):
        application = WebApplication("app", context_path="/app")
        application.deploy(_EchoServlet(), name="echo", url_pattern="/app/echo")
        application.deploy(_FailingServlet(), name="failing", url_pattern="/app/fail")
        runtime = JvmRuntime()
        return application, RequestDispatcher(SessionManager(runtime))

    @staticmethod
    def _dispatch(application, dispatcher, request, timestamp=0.0):
        registration = application.find_by_uri(request.uri)
        return dispatcher.dispatch(registration, request, HttpServletResponse(), timestamp)

    def test_dispatch_to_servlet(self):
        application, dispatcher = self._make_app()
        response = self._dispatch(
            application, dispatcher, HttpServletRequest("/app/echo", parameters={"msg": "x"})
        )
        assert response.status == 200
        assert response.body == "echo:x"
        assert dispatcher.dispatched_count == 1

    def test_unknown_uri_is_404(self):
        application, dispatcher = self._make_app()
        response = self._dispatch(application, dispatcher, HttpServletRequest("/app/missing"))
        assert response.status == 404
        assert dispatcher.not_found_count == 1

    def test_servlet_exception_becomes_500(self):
        application, dispatcher = self._make_app()
        response = self._dispatch(application, dispatcher, HttpServletRequest("/app/fail"))
        assert response.status == 500
        assert dispatcher.error_count == 1

    def test_each_request_counts_under_one_outcome(self):
        application, dispatcher = self._make_app()
        for uri in ("/app/echo", "/app/fail", "/app/missing", "/app/echo"):
            self._dispatch(application, dispatcher, HttpServletRequest(uri))
        assert (
            dispatcher.dispatched_count,
            dispatcher.error_count,
            dispatcher.not_found_count,
        ) == (2, 1, 1)

    def test_session_attached_to_request(self):
        application, dispatcher = self._make_app()
        request = HttpServletRequest("/app/echo")
        self._dispatch(application, dispatcher, request, timestamp=5.0)
        session = request.get_session()
        assert session is not None
        assert request.session_id == session.session_id
        assert session.created_at == 5.0

    def test_session_touched_at_the_arrival_time(self):
        application, dispatcher = self._make_app()
        first = HttpServletRequest("/app/echo")
        self._dispatch(application, dispatcher, first, timestamp=5.0)
        session = first.get_session()
        again = HttpServletRequest("/app/echo", session_id=session.session_id)
        self._dispatch(application, dispatcher, again, timestamp=9.0)
        assert again.get_session() is session
        assert (session.created_at, session.last_accessed) == (5.0, 9.0)
        assert dispatcher.session_manager.created_count == 1


class TestWebApplication:
    def test_deploy_and_lookup(self):
        application = WebApplication("tpcw")
        registration = application.deploy(_EchoServlet(), name="echo")
        assert application.find_by_uri(registration.url_pattern).name == "echo"
        assert application.servlet_names() == ["echo"]
        assert application.registration("echo").servlet.is_initialized

    def test_duplicate_deployments_rejected(self):
        application = WebApplication("tpcw")
        application.deploy(_EchoServlet(), name="echo", url_pattern="/a")
        with pytest.raises(ValueError):
            application.deploy(_EchoServlet(), name="echo", url_pattern="/b")
        with pytest.raises(ValueError):
            application.deploy(_EchoServlet(), name="other", url_pattern="/a")

    def test_undeploy_calls_destroy(self):
        application = WebApplication("tpcw")
        servlet = _EchoServlet()
        application.deploy(servlet, name="echo")
        application.undeploy("echo")
        assert not servlet.is_initialized
        with pytest.raises(KeyError):
            application.undeploy("echo")


class TestWorkerThreadPoolAndServer:
    def _make_server(self, **config_kwargs) -> ApplicationServer:
        application = WebApplication("app", context_path="/app")
        application.deploy(_EchoServlet(), name="echo", url_pattern="/app/echo")
        database = Database("d")
        database.create_table("t", [Column("id", ColumnType.INTEGER, primary_key=True)])
        datasource = DataSource(database)
        return ApplicationServer(
            application, datasource, config=ServerConfig(**config_kwargs)
        )

    def test_thread_pool_registers_jvm_threads(self):
        runtime = JvmRuntime()
        pool = WorkerThreadPool(runtime, max_threads=8)
        assert runtime.thread_count() == 8
        start, finish = pool.book(0.0, 2.0)
        assert (start, finish) == (0.0, 2.0)
        assert pool.utilization(4.0) == pytest.approx(2.0 / (4.0 * 8))

    def test_server_handles_request_and_accounts_time(self):
        server = self._make_server()
        outcome = server.handle(HttpServletRequest("/app/echo", parameters={"msg": "x"}), 10.0)
        assert outcome.ok
        assert outcome.servlet_name == "echo"
        assert outcome.response_time > 0
        assert outcome.completion_time > 10.0
        assert outcome.cpu_seconds > 0
        assert server.completed_requests == 1

    def test_unknown_uri_is_not_ok(self):
        server = self._make_server()
        outcome = server.handle(HttpServletRequest("/app/none"), 0.0)
        assert not outcome.ok
        assert outcome.response.status == 404

    def test_external_cost_provider_inflates_response_time(self):
        plain = self._make_server(service_time_cv=0.0)
        slow = self._make_server(service_time_cv=0.0)
        slow.add_external_cost_provider(lambda: 0.5)
        fast = plain.handle(HttpServletRequest("/app/echo"), 0.0)
        delayed = slow.handle(HttpServletRequest("/app/echo"), 0.0)
        assert delayed.monitoring_overhead_seconds == pytest.approx(0.5)
        assert delayed.response_time > fast.response_time + 0.4

    def test_invalid_external_cost_provider(self):
        server = self._make_server()
        with pytest.raises(TypeError):
            server.add_external_cost_provider("not-callable")  # type: ignore[arg-type]
        server.add_external_cost_provider(lambda: -1.0)
        with pytest.raises(ValueError):
            server.handle(HttpServletRequest("/app/echo"), 0.0)

    def test_queue_overflow_rejects_with_503(self):
        server = self._make_server(max_threads=1, accept_queue=0, service_time_cv=0.0)
        server.handle(HttpServletRequest("/app/echo"), 0.0)
        second = server.handle(HttpServletRequest("/app/echo"), 0.0)
        assert second.rejected
        assert second.response.status == 503
        assert server.rejected_requests == 1

    def test_utilization_report_keys(self):
        server = self._make_server()
        server.handle(HttpServletRequest("/app/echo"), 0.0)
        report = server.utilization_report(10.0)
        assert set(report) == {"app_cpu", "db_cpu", "worker_threads"}
        assert all(0.0 <= value <= 1.0 for value in report.values())
