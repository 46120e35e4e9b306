"""TPC-W *Admin Request* interaction.

Displays the administrative item-update form for one book.  Rarely visited
under every mix — this is the paper's "component D", whose injected leak
never actually fires because its usage frequency is too low.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class AdminRequestServlet(TpcwServlet):
    """``TPCW_admin_request_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_admin_request_servlet"
    component_name = "admin_request"
    base_cpu_demand_seconds = 0.08
    transient_bytes_per_request = 24 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        item_id = request.get_parameter("i_id")
        if item_id is None:
            item_id = self.random_stream("item").integers(1, 100)

        connection = self.get_connection()
        try:
            result = connection.execute_query(
                "SELECT i_id, i_title, i_cost, i_image, i_thumbnail FROM item WHERE i_id = ?",
                [int(item_id)],
            )
            book = None
            if result.next():
                book = {
                    "id": result.get_int("i_id"),
                    "title": result.get_string("i_title"),
                    "cost": result.get_float("i_cost"),
                    "image": result.get_string("i_image"),
                }
        finally:
            connection.close()

        response.render("Admin Request", {"book": book})
