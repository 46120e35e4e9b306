"""TPC-W *Admin Confirm* interaction.

Applies the administrative item update: new price/image and recomputation of
the item's related-items list from recent best-selling co-purchases.  The
least visited interaction of every mix.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class AdminConfirmServlet(TpcwServlet):
    """``TPCW_admin_confirm_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_admin_confirm_servlet"
    component_name = "admin_confirm"
    base_cpu_demand_seconds = 0.26
    transient_bytes_per_request = 48 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        item_id = request.get_parameter("i_id")
        if item_id is None:
            item_id = self.random_stream("item").integers(1, 100)
        item_id = int(item_id)
        new_cost = request.get_parameter("cost")
        rng = self.random_stream("update")

        connection = self.get_connection()
        try:
            if new_cost is None:
                new_cost = round(rng.uniform(5.0, 80.0), 2)
            connection.execute_update(
                "UPDATE item SET i_cost = ?, i_image = ?, i_thumbnail = ? WHERE i_id = ?",
                [float(new_cost), f"img/image_{item_id}_v2.gif", f"img/thumb_{item_id}_v2.gif", item_id],
            )

            # Recompute related items from co-purchased best sellers.
            related = connection.execute_query(
                "SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line "
                "GROUP BY ol_i_id ORDER BY sold DESC LIMIT 5"
            )
            related_ids = []
            while related.next():
                related_ids.append(related.get_int("ol_i_id"))
            while len(related_ids) < 5:
                related_ids.append(item_id)
            connection.execute_update(
                "UPDATE item SET i_related1 = ?, i_related2 = ?, i_related3 = ?, "
                "i_related4 = ?, i_related5 = ? WHERE i_id = ?",
                [*related_ids[:5], item_id],
            )
        finally:
            connection.close()

        response.render(
            "Admin Confirm",
            {"item_id": item_id, "new_cost": float(new_cost), "related": related_ids[:5]},
        )
