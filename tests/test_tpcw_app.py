"""Tests for the TPC-W application: schema, population, mixes, servlets, workload."""

from __future__ import annotations

import hashlib

import pytest

from repro.container.servlet import HttpServletRequest
from repro.db.engine import Database
from repro.db.table import ColumnType
from repro.sim.engine import SimulationEngine
from repro.sim.random import RandomStreams
from repro.tpcw.application import TpcwApplication, build_deployment
from repro.tpcw.mixes import INTERACTIONS, browsing_mix, mix_by_name, ordering_mix, shopping_mix
from repro.tpcw.population import PopulationScale, populate_database
from repro.tpcw.schema import SUBJECTS, TPCW_TABLES, create_tpcw_schema
from repro.tpcw.servlets import SERVLET_CLASSES
from repro.tpcw.workload import EmulatedBrowser, WorkloadGenerator, WorkloadPhase


class TestSchemaAndPopulation:
    def test_all_tables_created(self):
        database = Database("t")
        create_tpcw_schema(database)
        assert set(TPCW_TABLES) <= set(database.table_names())
        assert database.table("item").has_index("i_subject")
        assert database.table("order_line").has_index("ol_i_id")

    def test_population_sizes_follow_scale(self):
        database = Database("t")
        create_tpcw_schema(database)
        scale = PopulationScale.tiny()
        populate_database(database, scale, RandomStreams(1))
        assert len(database.table("item")) == scale.num_items
        assert len(database.table("customer")) == scale.num_customers
        assert len(database.table("orders")) == scale.num_orders
        assert len(database.table("order_line")) >= scale.num_orders

    def test_population_is_deterministic_per_seed(self):
        def build(seed):
            database = Database("t")
            create_tpcw_schema(database)
            populate_database(database, PopulationScale.tiny(), RandomStreams(seed))
            return [row["i_cost"] for row in database.table("item").rows()]

        assert build(5) == build(5)
        assert build(5) != build(6)

    def test_referential_integrity_of_items(self):
        database = Database("t")
        create_tpcw_schema(database)
        scale = PopulationScale.tiny()
        populate_database(database, scale, RandomStreams(2))
        author_ids = {row["a_id"] for row in database.table("author").rows()}
        for row in database.table("item").rows():
            assert row["i_a_id"] in author_ids
            assert row["i_subject"] in SUBJECTS

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            PopulationScale(num_items=0)

    @pytest.mark.parametrize(
        "scale, seed, expected",
        [
            (
                PopulationScale.standard(),
                1,
                "63a87f7e290f9e90e0fd5da099b84a453b85cd57f82f2d2da1e9f309385127ec",
            ),
            (
                PopulationScale.tiny(),
                42,
                "aa31c02b0898c2f6778263c8f2e7c5d80f71360809453a009e583601cf3fe166",
            ),
        ],
        ids=["standard-seed-1", "tiny-seed-42"],
    )
    def test_store_digest(self, scale, seed, expected):
        """sha256 over every table's rows, in row-id order, as ``repr`` of their items.

        The ``repr`` pins each value's class and key order too: a store whose
        rows held ``numpy.float64`` or came out in another column order would
        change it.
        """
        database = Database("t")
        create_tpcw_schema(database)
        populate_database(database, scale, RandomStreams(seed))
        digest = hashlib.sha256()
        for name in database.table_names():
            for _, row in sorted(database.table(name).rows_with_ids()):
                digest.update(repr(tuple(row.items())).encode())
        assert digest.hexdigest() == expected

    def test_standard_population_takes_every_value_without_validate(self, monkeypatch):
        """Each value the population draws is of a class its column takes as is."""
        calls = []
        validate = ColumnType.validate

        def counting_validate(column_type, value):
            calls.append((column_type, value))
            return validate(column_type, value)

        monkeypatch.setattr(ColumnType, "validate", counting_validate)
        database = Database("t")
        create_tpcw_schema(database)
        populate_database(database, PopulationScale.standard(), RandomStreams(1))
        assert sum(len(database.table(name)) for name in database.table_names()) == 8820
        assert calls == []


class TestMixes:
    @pytest.mark.parametrize("mix_factory", [browsing_mix, shopping_mix, ordering_mix])
    def test_rows_are_probability_distributions(self, mix_factory):
        mix = mix_factory()
        for source, row in mix.transitions.items():
            assert abs(sum(row.values()) - 1.0) < 1e-9
            assert source in INTERACTIONS

    def test_next_interaction_follows_cumulative_draw(self):
        mix = shopping_mix()
        row = mix.transitions["search_request"]
        first_target = next(iter(row))
        assert mix.next_interaction("search_request", 0.0) == first_target
        assert mix.next_interaction("search_request", 0.999999) in row

    def test_stationary_distribution_shapes(self):
        distribution = shopping_mix().stationary_distribution()
        assert abs(sum(distribution.values()) - 1.0) < 1e-6
        # The most-used pages dominate the rarely used admin pages.
        assert distribution["product_detail"] > distribution["admin_confirm"] * 10
        assert distribution["home"] > distribution["admin_request"] * 10
        # Ordering mix buys more than browsing mix.
        assert (
            ordering_mix().stationary_distribution()["buy_confirm"]
            > browsing_mix().stationary_distribution()["buy_confirm"]
        )

    def test_mix_by_name(self):
        assert mix_by_name("Shopping").name == "shopping"
        with pytest.raises(KeyError):
            mix_by_name("unknown")


#: Each page's title, formatted with its model.
PAGE_TITLES = {
    "home": "TPC-W Home",
    "new_products": "New Products: {subject}",
    "best_sellers": "Best Sellers: {subject}",
    "product_detail": "Product Detail",
    "search_request": "Search Request",
    "search_results": "Search Results",
    "shopping_cart": "Shopping Cart",
    "customer_registration": "Customer Registration",
    "buy_request": "Buy Request",
    "buy_confirm": "Buy Confirm",
    "order_inquiry": "Order Inquiry",
    "order_display": "Order Display",
    "admin_request": "Admin Request",
    "admin_confirm": "Admin Confirm",
}


def _eager_markup(interaction, model):
    """A page's markup as it was written part by part when rendered."""
    title = PAGE_TITLES[interaction].format(**model)
    parts = [f"<html><head><title>{title}</title></head><body>"]
    for key, value in model.items():
        if isinstance(value, list):
            parts.append(f"<h2>{key} ({len(value)})</h2>")
        else:
            parts.append(f"<p>{key}: {value}</p>")
    parts.append("</body></html>")
    return "".join(parts)


class TestServlets:
    def test_every_interaction_has_a_servlet_class(self):
        assert set(SERVLET_CLASSES) == set(INTERACTIONS)
        # Java class names are unique and look like TPC-W classes.
        names = {cls.java_class_name for cls in SERVLET_CLASSES.values()}
        assert len(names) == len(SERVLET_CLASSES)
        assert all(name.startswith("org.tpcw.servlet.TPCW_") for name in names)

    def test_every_interaction_serves_a_page(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        for interaction in tiny_deployment.interaction_names():
            outcome = app.visit(interaction)
            assert outcome.ok, f"{interaction} failed with {outcome.response.status}"
            assert outcome.response.content_length > 0
            assert outcome.servlet_name == interaction

    def test_page_markup_is_the_eager_markup(self, tiny_deployment):
        """Each page's body is the markup ``render`` used to write at once,
        built from its title and model; a write after it lands after it."""
        app = TpcwApplication(tiny_deployment)
        tail = "<!-- tail -->"
        for interaction in tiny_deployment.interaction_names():
            read_first = app.visit(interaction).response
            expected = _eager_markup(interaction, read_first.model)
            assert read_first.content_length == len(expected)
            assert read_first.body == expected
            read_first.write(tail)
            assert read_first.body == expected + tail
            written_first = app.visit(interaction).response
            written_first.write(tail)
            expected = _eager_markup(interaction, written_first.model)
            assert written_first.body == expected + tail
            assert written_first.content_length == len(expected + tail)

    def test_servlet_request_counters(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        app.visit("home")
        app.visit("home")
        assert tiny_deployment.servlet("home").request_count == 2
        assert tiny_deployment.servlet("best_sellers").request_count == 0

    def test_home_returns_promotions(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        outcome = app.visit("home")
        assert len(outcome.response.model["promotions"]) > 0

    def test_buy_confirm_creates_order(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        orders_before = len(tiny_deployment.database.table("orders"))
        outcome = app.visit("buy_confirm")
        assert outcome.ok
        assert len(tiny_deployment.database.table("orders")) == orders_before + 1

    def test_shopping_cart_session_flow(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        first = app.visit("shopping_cart", parameters={"i_id": 3, "qty": 2})
        session_id = first.request.session_id
        assert session_id is not None
        second = app.visit("shopping_cart", parameters={"i_id": 3, "qty": 1}, session_id=session_id)
        lines = second.response.model["lines"]
        assert any(line["item_id"] == 3 and line["quantity"] == 3 for line in lines)

    def test_admin_confirm_updates_item_cost(self, tiny_deployment):
        app = TpcwApplication(tiny_deployment)
        outcome = app.visit("admin_confirm", parameters={"i_id": 5, "cost": 55.5})
        assert outcome.ok
        row = tiny_deployment.database.execute(
            "SELECT i_cost FROM item WHERE i_id = ?", [5]
        ).rows[0]
        assert row["i_cost"] == pytest.approx(55.5)

    def test_servlet_instance_roots_on_heap(self, tiny_deployment):
        for interaction in tiny_deployment.interaction_names():
            servlet = tiny_deployment.servlet(interaction)
            assert tiny_deployment.runtime.heap.is_live(servlet.instance_root)
            assert servlet.instance_root.owner == interaction


class TestDeploymentAndWorkload:
    def test_deployment_wiring(self, tiny_deployment):
        assert len(tiny_deployment.interaction_names()) == 14
        assert tiny_deployment.url_for("home") == "/tpcw/home"
        with pytest.raises(KeyError):
            tiny_deployment.servlet("nope")

    def test_closed_loop_workload_generates_requests(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=3, clock=engine.clock)
        generator = WorkloadGenerator(engine, deployment, think_time_mean=5.0)
        generator.schedule_phases([WorkloadPhase(0.0, 10)])
        generator.run(120.0)
        assert generator.completed_requests > 50
        assert generator.error_count == 0
        assert generator.active_browsers == 0  # stopped after run()
        assert generator.mean_throughput() > 0
        assert generator.mean_response_time() > 0
        # The shopping mix spreads requests over many interactions.
        assert len(generator.interaction_counts) >= 5

    def test_phase_changes_eb_population(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=3, clock=engine.clock)
        generator = WorkloadGenerator(engine, deployment, think_time_mean=5.0)
        generator.schedule_phases([WorkloadPhase(0.0, 5), WorkloadPhase(60.0, 20)])
        generator.run(60.0)
        first_phase = generator.completed_requests
        generator.end_time = None
        # After the phase change the larger population produces more requests.
        generator2 = WorkloadGenerator(engine, deployment, think_time_mean=5.0)
        assert first_phase > 0

    def test_throughput_scales_with_eb_count(self):
        def run_with(ebs: int) -> float:
            engine = SimulationEngine()
            deployment = build_deployment(scale=PopulationScale.tiny(), seed=9, clock=engine.clock)
            generator = WorkloadGenerator(engine, deployment)
            generator.schedule_phases([WorkloadPhase(0.0, ebs)])
            generator.run(300.0)
            return generator.mean_throughput(60.0, 300.0)

        low = run_with(10)
        high = run_with(40)
        assert high > 2.0 * low

    def test_workload_request_hook(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=3, clock=engine.clock)
        generator = WorkloadGenerator(engine, deployment)
        seen = []
        generator.on_request = lambda interaction, outcome: seen.append(interaction)
        generator.schedule_phases([WorkloadPhase(0.0, 5)])
        generator.run(60.0)
        assert len(seen) == generator.completed_requests

    def test_think_time_capped(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=3, clock=engine.clock)
        generator = WorkloadGenerator(engine, deployment, think_time_mean=60.0)
        draws = [generator.think_time() for _ in range(200)]
        assert max(draws) <= 70.0

    def test_browser_session_renewal(self):
        engine = SimulationEngine()
        deployment = build_deployment(scale=PopulationScale.tiny(), seed=3, clock=engine.clock)
        generator = WorkloadGenerator(engine, deployment, session_duration_mean=30.0)
        browser = EmulatedBrowser(1, generator)
        browser.start(0.0)
        engine.run_until(300.0)
        # With a 30 s mean session duration several sessions were started.
        assert deployment.server.sessions.created_count >= 2
