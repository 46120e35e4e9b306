"""TPC-W *Order Display* interaction.

Shows the most recent order of a customer: order header, payment record and
order lines joined with item titles.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class OrderDisplayServlet(TpcwServlet):
    """``TPCW_order_display_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_order_display_servlet"
    component_name = "order_display"
    base_cpu_demand_seconds = 0.16
    transient_bytes_per_request = 44 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        username = request.get_parameter("uname")
        connection = self.get_connection()
        try:
            if username is not None:
                customer_result = connection.execute_query(
                    "SELECT c_id FROM customer WHERE c_uname = ?", [username]
                )
                customer_id = customer_result.get_int("c_id") if customer_result.next() else None
            else:
                customer_id = self.random_stream("customer").integers(1, 200)

            order = None
            lines = []
            if customer_id is not None:
                order_result = connection.execute_query(
                    "SELECT o_id, o_date, o_total, o_status, o_ship_type FROM orders "
                    "WHERE o_c_id = ? ORDER BY o_date DESC LIMIT 1",
                    [customer_id],
                )
                if order_result.next():
                    order = {
                        "id": order_result.get_int("o_id"),
                        "total": order_result.get_float("o_total"),
                        "status": order_result.get_string("o_status"),
                        "ship_type": order_result.get_string("o_ship_type"),
                    }
                    line_result = connection.execute_query(
                        "SELECT ol.ol_i_id, ol.ol_qty, i.i_title FROM order_line ol "
                        "JOIN item i ON ol.ol_i_id = i.i_id WHERE ol_o_id = ?",
                        [order["id"]],
                    )
                    while line_result.next():
                        lines.append(
                            {
                                "item_id": line_result.get_int("ol_i_id"),
                                "title": line_result.get_string("i_title"),
                                "quantity": line_result.get_int("ol_qty"),
                            }
                        )
        finally:
            connection.close()

        response.render("Order Display", {"order": order, "lines": lines})
