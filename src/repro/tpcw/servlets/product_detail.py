"""TPC-W *Product Detail* interaction.

Displays one book: item row, its author and stock/availability data.  After
home it is the most frequently visited page under the shopping mix.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class ProductDetailServlet(TpcwServlet):
    """``TPCW_product_detail_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_product_detail_servlet"
    component_name = "product_detail"
    base_cpu_demand_seconds = 0.09
    transient_bytes_per_request = 36 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        item_id = request.get_parameter("i_id")
        if item_id is None:
            item_id = self.random_stream("item").integers(1, self._item_count() + 1)

        connection = self.get_connection()
        try:
            result = connection.execute_query(
                "SELECT i_id, i_title, i_a_id, i_srp, i_cost, i_stock, i_desc, i_backing, "
                "i_page, i_publisher, i_subject FROM item WHERE i_id = ?",
                [int(item_id)],
            )
            book = None
            if result.next():
                book = {
                    "id": result.get_int("i_id"),
                    "title": result.get_string("i_title"),
                    "srp": result.get_float("i_srp"),
                    "cost": result.get_float("i_cost"),
                    "stock": result.get_int("i_stock"),
                    "publisher": result.get_string("i_publisher"),
                    "subject": result.get_string("i_subject"),
                }
                author = connection.execute_query(
                    "SELECT a_fname, a_lname, a_bio FROM author WHERE a_id = ?",
                    [result.get_int("i_a_id")],
                )
                if author.next():
                    book["author"] = (
                        f"{author.get_string('a_fname')} {author.get_string('a_lname')}"
                    )
            else:
                response.set_status(HttpServletResponse.SC_NOT_FOUND)
        finally:
            connection.close()

        response.render("Product Detail", {"book": book})
