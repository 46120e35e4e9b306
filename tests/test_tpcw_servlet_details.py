"""Detailed behavioural tests for individual TPC-W servlets."""

from __future__ import annotations

import pytest

from repro.jvm.heap import OutOfMemoryError
from repro.tpcw.application import TpcwApplication
from repro.tpcw.schema import SUBJECTS


@pytest.fixture
def app(tiny_deployment) -> TpcwApplication:
    return TpcwApplication(tiny_deployment)


class TestBrowsingServlets:
    def test_new_products_filters_by_subject(self, app, tiny_deployment):
        subject = SUBJECTS[0]
        outcome = app.visit("new_products", parameters={"subject": subject})
        assert outcome.response.model["subject"] == subject
        expected = tiny_deployment.database.execute(
            "SELECT COUNT(*) AS n FROM item WHERE i_subject = ?", [subject]
        ).rows[0]["n"]
        assert len(outcome.response.model["books"]) == min(expected, 50)

    def test_new_products_orders_by_publication_date(self, app, tiny_deployment):
        subject = SUBJECTS[1]
        outcome = app.visit("new_products", parameters={"subject": subject})
        books = outcome.response.model["books"]
        if len(books) >= 2:
            dates = [
                tiny_deployment.database.execute(
                    "SELECT i_pub_date FROM item WHERE i_id = ?", [book["id"]]
                ).rows[0]["i_pub_date"]
                for book in books
            ]
            assert dates == sorted(dates, reverse=True)

    def test_best_sellers_sorted_by_quantity_sold(self, app):
        outcome = app.visit("best_sellers", parameters={"subject": SUBJECTS[2]})
        best_sellers = outcome.response.model["best_sellers"]
        sold = [entry["sold"] for entry in best_sellers]
        assert sold == sorted(sold, reverse=True)

    def test_product_detail_known_and_unknown_item(self, app):
        known = app.visit("product_detail", parameters={"i_id": 1})
        assert known.response.model["book"]["id"] == 1
        assert "author" in known.response.model["book"]
        unknown = app.visit("product_detail", parameters={"i_id": 999999})
        assert unknown.response.status == 404

    def test_search_request_lists_subjects_and_types(self, app):
        outcome = app.visit("search_request")
        assert outcome.response.model["search_types"] == ["AUTHOR", "TITLE", "SUBJECT"]
        assert set(outcome.response.model["subjects"]) == set(SUBJECTS)

    def test_search_results_by_each_type(self, app):
        by_subject = app.visit(
            "search_results", parameters={"search_type": "SUBJECT", "search_string": SUBJECTS[0]}
        )
        assert by_subject.response.model["search_type"] == "SUBJECT"
        by_author = app.visit(
            "search_results", parameters={"search_type": "AUTHOR", "search_string": "SMITH"}
        )
        assert by_author.response.model["search_type"] == "AUTHOR"
        by_title = app.visit(
            "search_results", parameters={"search_type": "TITLE", "search_string": "Book Title 1"}
        )
        assert by_title.response.model["search_type"] == "TITLE"
        assert all(
            book["title"].startswith("Book Title 1")
            for book in by_title.response.model["books"]
        )


class TestOrderingServlets:
    def test_customer_registration_returning_customer(self, app):
        outcome = app.visit("customer_registration", parameters={"uname": "user1"})
        assert outcome.response.model["returning"] is True
        assert outcome.response.model["customer"]["id"] == 1
        assert outcome.request.get_session(create=False).get_attribute("customer_id") == 1

    def test_customer_registration_unknown_user(self, app):
        outcome = app.visit("customer_registration", parameters={"uname": "ghost"})
        assert outcome.response.model["returning"] is False

    def test_buy_request_totals_follow_cart(self, app):
        cart = app.visit("shopping_cart", parameters={"i_id": 2, "qty": 3})
        session_id = cart.request.session_id
        registration = app.visit(
            "customer_registration", parameters={"uname": "user2"}, session_id=session_id
        )
        outcome = app.visit("buy_request", session_id=session_id)
        model = outcome.response.model
        assert model["customer"]["id"] == 2
        assert model["lines"] >= 1
        assert model["total"] == pytest.approx(model["subtotal"] + model["tax"] + 4.0)

    def test_buy_confirm_empties_cart_and_decrements_stock(self, app, tiny_deployment):
        cart = app.visit("shopping_cart", parameters={"i_id": 4, "qty": 2})
        session_id = cart.request.session_id
        stock_before = tiny_deployment.database.execute(
            "SELECT i_stock FROM item WHERE i_id = ?", [4]
        ).rows[0]["i_stock"]
        confirm = app.visit("buy_confirm", session_id=session_id)
        assert confirm.ok
        order_id = confirm.response.model["order_id"]
        lines = tiny_deployment.database.execute(
            "SELECT COUNT(*) AS n FROM order_line WHERE ol_o_id = ?", [order_id]
        ).rows[0]["n"]
        assert lines >= 1
        cart_lines = tiny_deployment.database.execute(
            "SELECT COUNT(*) AS n FROM shopping_cart_line WHERE scl_sc_id = ?",
            [cart.response.model["cart_id"]],
        ).rows[0]["n"]
        assert cart_lines == 0
        stock_after = tiny_deployment.database.execute(
            "SELECT i_stock FROM item WHERE i_id = ?", [4]
        ).rows[0]["i_stock"]
        assert stock_after != stock_before
        # The payment record exists.
        assert (
            tiny_deployment.database.execute(
                "SELECT COUNT(*) AS n FROM cc_xacts WHERE cx_o_id = ?", [order_id]
            ).rows[0]["n"]
            == 1
        )

    def test_order_display_shows_latest_order(self, app, tiny_deployment):
        customer = tiny_deployment.database.execute(
            "SELECT o_c_id FROM orders ORDER BY o_date DESC LIMIT 1"
        ).rows[0]["o_c_id"]
        outcome = app.visit("order_display", parameters={"uname": f"user{customer}"})
        assert outcome.ok
        order = outcome.response.model["order"]
        assert order is not None
        assert order["id"] >= 1

    def test_order_inquiry_prefills_username_from_session(self, app):
        registration = app.visit("customer_registration", parameters={"uname": "user3"})
        outcome = app.visit("order_inquiry", session_id=registration.request.session_id)
        assert outcome.response.model["uname"] == "user3"


class TestAdminServlets:
    def test_admin_request_shows_item(self, app):
        outcome = app.visit("admin_request", parameters={"i_id": 7})
        assert outcome.response.model["book"]["id"] == 7

    def test_admin_confirm_updates_related_items(self, app, tiny_deployment):
        outcome = app.visit("admin_confirm", parameters={"i_id": 9, "cost": 12.0})
        related = outcome.response.model["related"]
        assert len(related) == 5
        row = tiny_deployment.database.execute(
            "SELECT i_related1, i_cost, i_image FROM item WHERE i_id = ?", [9]
        ).rows[0]
        assert row["i_related1"] == related[0]
        assert row["i_cost"] == pytest.approx(12.0)
        assert "v2" in row["i_image"]


class TestServletResourceBehaviour:
    def test_transient_allocations_per_request(self, app, tiny_deployment):
        used_before = tiny_deployment.runtime.used_memory()
        app.visit("home")
        assert tiny_deployment.runtime.used_memory() > used_before

    def test_connections_always_returned(self, app, tiny_deployment):
        for interaction in tiny_deployment.interaction_names():
            app.visit(interaction)
        assert tiny_deployment.datasource.active_connections == 0

    def test_cpu_demands_declared_per_component(self, tiny_deployment):
        demands = {
            name: tiny_deployment.servlet(name).base_cpu_demand_seconds
            for name in tiny_deployment.interaction_names()
        }
        assert demands["best_sellers"] > demands["home"] > demands["order_inquiry"]
        assert all(0.01 <= value <= 1.0 for value in demands.values())


class _RaisingFault:
    """A fault whose own work fails on every visit."""

    def on_request(self, servlet, request):
        raise OutOfMemoryError("Java heap space")


class TestServletErrorCounts:
    def test_page_buffer_out_of_memory_counts_once(self, app, tiny_deployment):
        home = tiny_deployment.servlet("home")
        assert home.transient_bytes_per_request > 20 * 1024
        # Leave 20 KB of the heap free, held by a live root object.
        runtime = tiny_deployment.runtime
        runtime.gc()
        runtime.allocate("test.Ballast", runtime.free_memory() - 20 * 1024, root=True)
        outcome = app.visit("home")
        # The page rendered, then its buffer did not fit.
        assert outcome.response.status == 500
        assert outcome.response.model["promotions"]
        assert home.error_count == app.server.dispatcher.error_count == 1

    def test_fault_failure_counts_once(self, app, tiny_deployment):
        home = tiny_deployment.servlet("home")
        home.attach_fault(_RaisingFault())
        # The page rendered, then the fault's own work failed.
        assert app.visit("home").response.status == 500
        assert home.error_count == app.server.dispatcher.error_count == 1
        # The page fails (no connection left), and its fault fails too.
        datasource = tiny_deployment.datasource
        held = [datasource.get_connection() for _ in range(datasource.pool_size)]
        assert app.visit("home").response.status == 500
        assert home.error_count == app.server.dispatcher.error_count == 2
        for connection in held:
            connection.close()
