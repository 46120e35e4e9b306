"""TPC-W *Home* interaction.

Shows the store front page: a greeting for the (optional) returning customer
plus a set of promotional items.  This is the most visited interaction under
every TPC-W mix, which is why the paper's "component A / B" (fast-growing
leaks) correspond to pages on the home/product-detail path.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet

#: Number of promotional items shown on the front page.
PROMOTIONAL_ITEMS = 5


class HomeServlet(TpcwServlet):
    """``TPCW_home_interaction``"""

    java_class_name = "org.tpcw.servlet.TPCW_home_interaction"
    component_name = "home"
    base_cpu_demand_seconds = 0.12
    transient_bytes_per_request = 40 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        customer_id = request.get_parameter("c_id")
        model = {"customer": None, "promotions": []}

        connection = self.get_connection()
        try:
            if customer_id is not None:
                result = connection.execute_query(
                    "SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?",
                    [int(customer_id)],
                )
                if result.next():
                    model["customer"] = {
                        "first_name": result.get_string("c_fname"),
                        "last_name": result.get_string("c_lname"),
                        "discount": result.get_float("c_discount"),
                    }

            # Promotional items: pick an anchor item and show its related items,
            # as the Java implementation does.
            anchor_id = self.random_stream("promotions").integers(1, self._item_count() + 1)
            anchor = connection.execute_query(
                "SELECT i_related1, i_related2, i_related3, i_related4, i_related5 "
                "FROM item WHERE i_id = ?",
                [anchor_id],
            )
            related_ids = []
            if anchor.next():
                related_ids = [
                    anchor.get_int(f"i_related{index}") for index in range(1, PROMOTIONAL_ITEMS + 1)
                ]
            promotions = []
            for related_id in related_ids:
                row = connection.execute_query(
                    "SELECT i_id, i_title, i_thumbnail, i_cost FROM item WHERE i_id = ?",
                    [related_id],
                )
                if row.next():
                    promotions.append(
                        {
                            "id": row.get_int("i_id"),
                            "title": row.get_string("i_title"),
                            "thumbnail": row.get_string("i_thumbnail"),
                            "cost": row.get_float("i_cost"),
                        }
                    )
            model["promotions"] = promotions
        finally:
            connection.close()

        response.render("TPC-W Home", model)
