"""TPC-W *Order Inquiry* interaction.

Renders the order-status login form.  Database-light."""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class OrderInquiryServlet(TpcwServlet):
    """``TPCW_order_inquiry_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_order_inquiry_servlet"
    component_name = "order_inquiry"
    base_cpu_demand_seconds = 0.05
    transient_bytes_per_request = 16 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        session = request.get_session(create=True)
        username = request.get_parameter("uname")
        if username is None:
            customer_id = session.get_attribute("customer_id")
            if customer_id is not None:
                username = f"user{customer_id}"
        response.render("Order Inquiry", {"uname": username})
