"""TPC-W *Buy Request* interaction.

Shows the order summary before confirmation: customer, billing address,
cart contents and totals.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class BuyRequestServlet(TpcwServlet):
    """``TPCW_buy_request_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_buy_request_servlet"
    component_name = "buy_request"
    base_cpu_demand_seconds = 0.13
    transient_bytes_per_request = 40 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        session = request.get_session(create=True)
        customer_id = session.get_attribute("customer_id") or request.get_parameter("c_id")
        cart_id = session.get_attribute("cart_id")

        connection = self.get_connection()
        try:
            customer = None
            address = None
            if customer_id is not None:
                result = connection.execute_query(
                    "SELECT c_id, c_fname, c_lname, c_addr_id, c_discount "
                    "FROM customer WHERE c_id = ?",
                    [int(customer_id)],
                )
                if result.next():
                    customer = {
                        "id": result.get_int("c_id"),
                        "first_name": result.get_string("c_fname"),
                        "last_name": result.get_string("c_lname"),
                        "discount": result.get_float("c_discount"),
                    }
                    address_result = connection.execute_query(
                        "SELECT addr_street1, addr_city, addr_state, addr_zip "
                        "FROM address WHERE addr_id = ?",
                        [result.get_int("c_addr_id")],
                    )
                    if address_result.next():
                        address = {
                            "street": address_result.get_string("addr_street1"),
                            "city": address_result.get_string("addr_city"),
                            "state": address_result.get_string("addr_state"),
                            "zip": address_result.get_string("addr_zip"),
                        }

            subtotal = 0.0
            line_count = 0
            if cart_id is not None:
                lines = connection.execute_query(
                    "SELECT scl.scl_qty, i.i_cost FROM shopping_cart_line scl "
                    "JOIN item i ON scl.scl_i_id = i.i_id WHERE scl_sc_id = ?",
                    [int(cart_id)],
                )
                while lines.next():
                    subtotal += lines.get_int("scl_qty") * lines.get_float("i_cost")
                    line_count += 1
            tax = round(subtotal * 0.0825, 2)
        finally:
            connection.close()

        response.render(
            "Buy Request",
            {
                "customer": customer,
                "address": address,
                "lines": line_count,
                "subtotal": round(subtotal, 2),
                "tax": tax,
                "total": round(subtotal + tax + 4.0, 2),
            },
        )
