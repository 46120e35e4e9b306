"""TPC-W *Shopping Cart* interaction.

Creates the session's cart on first use, optionally adds/updates an item,
then displays the cart contents (cart lines ⋈ item).
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class ShoppingCartServlet(TpcwServlet):
    """``TPCW_shopping_cart_interaction``"""

    java_class_name = "org.tpcw.servlet.TPCW_shopping_cart_interaction"
    component_name = "shopping_cart"
    base_cpu_demand_seconds = 0.15
    transient_bytes_per_request = 44 * 1024

    def __init__(self) -> None:
        super().__init__()
        self._next_cart_id: int | None = None
        self._next_line_id: int | None = None

    # ------------------------------------------------------------------ #
    def _allocate_id(self, connection, attribute: str, table: str, pk: str) -> int:
        current = getattr(self, attribute)
        if current is None:
            result = connection.execute_query(f"SELECT MAX({pk}) AS max_id FROM {table}")
            result.next()
            current = int(result.get_int("max_id")) + 1
        setattr(self, attribute, current + 1)
        return current

    def _session_cart_id(self, request: HttpServletRequest, connection) -> int:
        session = request.get_session(create=True)
        cart_id = session.get_attribute("cart_id")
        if cart_id is None:
            cart_id = self._allocate_id(connection, "_next_cart_id", "shopping_cart", "sc_id")
            connection.execute_update(
                "INSERT INTO shopping_cart (sc_id, sc_time) VALUES (?, ?)",
                [cart_id, request.arrival_time],
            )
            session.set_attribute("cart_id", cart_id)
        return int(cart_id)

    # ------------------------------------------------------------------ #
    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        item_id = request.get_parameter("i_id")
        quantity = int(request.get_parameter("qty", 1))

        connection = self.get_connection()
        try:
            cart_id = self._session_cart_id(request, connection)

            if item_id is None and request.get_parameter("add_random", True):
                item_id = self.random_stream("item").integers(1, 100)

            if item_id is not None:
                existing = connection.execute_query(
                    "SELECT scl_id, scl_qty FROM shopping_cart_line "
                    "WHERE scl_sc_id = ? AND scl_i_id = ?",
                    [cart_id, int(item_id)],
                )
                if existing.next():
                    connection.execute_update(
                        "UPDATE shopping_cart_line SET scl_qty = ? WHERE scl_id = ?",
                        [existing.get_int("scl_qty") + quantity, existing.get_int("scl_id")],
                    )
                else:
                    line_id = self._allocate_id(
                        connection, "_next_line_id", "shopping_cart_line", "scl_id"
                    )
                    connection.execute_update(
                        "INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) "
                        "VALUES (?, ?, ?, ?)",
                        [line_id, cart_id, int(item_id), quantity],
                    )

            lines = connection.execute_query(
                "SELECT scl.scl_i_id, scl.scl_qty, i.i_title, i.i_cost "
                "FROM shopping_cart_line scl JOIN item i ON scl.scl_i_id = i.i_id "
                "WHERE scl_sc_id = ?",
                [cart_id],
            )
            cart_lines = []
            subtotal = 0.0
            while lines.next():
                line = {
                    "item_id": lines.get_int("scl_i_id"),
                    "title": lines.get_string("i_title"),
                    "quantity": lines.get_int("scl_qty"),
                    "cost": lines.get_float("i_cost"),
                }
                subtotal += line["quantity"] * line["cost"]
                cart_lines.append(line)
        finally:
            connection.close()

        response.render(
            "Shopping Cart",
            {"cart_id": cart_id, "lines": cart_lines, "subtotal": round(subtotal, 2)},
        )
