"""TPC-W *Buy Confirm* interaction.

The heaviest write interaction: turns the session's cart into an order
(orders + order_line + cc_xacts rows), decrements stock and empties the
cart.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.schema import CARD_TYPES, SHIP_TYPES
from repro.tpcw.servlets.base import TpcwServlet


class BuyConfirmServlet(TpcwServlet):
    """``TPCW_buy_confirm_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_buy_confirm_servlet"
    component_name = "buy_confirm"
    base_cpu_demand_seconds = 0.24
    transient_bytes_per_request = 52 * 1024

    def __init__(self) -> None:
        super().__init__()
        self._next_order_id: int | None = None
        self._next_line_id: int | None = None

    def _allocate_id(self, connection, attribute: str, table: str, pk: str) -> int:
        current = getattr(self, attribute)
        if current is None:
            result = connection.execute_query(f"SELECT MAX({pk}) AS max_id FROM {table}")
            result.next()
            current = int(result.get_int("max_id")) + 1
        setattr(self, attribute, current + 1)
        return current

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        session = request.get_session(create=True)
        customer_id = session.get_attribute("customer_id") or (
            self.random_stream("customer").integers(1, 200)
        )
        cart_id = session.get_attribute("cart_id")
        rng = self.random_stream("order")

        connection = self.get_connection()
        try:
            # Gather cart lines (may be empty if the EB jumped straight here).
            cart_lines = []
            if cart_id is not None:
                lines = connection.execute_query(
                    "SELECT scl.scl_i_id, scl.scl_qty, i.i_cost FROM shopping_cart_line scl "
                    "JOIN item i ON scl.scl_i_id = i.i_id WHERE scl_sc_id = ?",
                    [int(cart_id)],
                )
                while lines.next():
                    cart_lines.append(
                        (
                            lines.get_int("scl_i_id"),
                            lines.get_int("scl_qty"),
                            lines.get_float("i_cost"),
                        )
                    )
            if not cart_lines:
                item_id = rng.integers(1, 100)
                cart_lines = [(item_id, 1, 25.0)]

            subtotal = sum(quantity * cost for _, quantity, cost in cart_lines)
            tax = round(subtotal * 0.0825, 2)
            total = round(subtotal + tax + 4.0, 2)

            order_id = self._allocate_id(connection, "_next_order_id", "orders", "o_id")
            connection.execute_update(
                "INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_tax, o_total, "
                "o_ship_type, o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    order_id,
                    int(customer_id),
                    request.arrival_time,
                    round(subtotal, 2),
                    tax,
                    total,
                    SHIP_TYPES[rng.integers(0, len(SHIP_TYPES))],
                    request.arrival_time + rng.uniform(3600.0, 7 * 86400.0),
                    1,
                    1,
                    "PENDING",
                ],
            )
            for item_id, quantity, _cost in cart_lines:
                line_id = self._allocate_id(connection, "_next_line_id", "order_line", "ol_id")
                connection.execute_update(
                    "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    [line_id, order_id, item_id, quantity, 0.0, "confirmed"],
                )
                # Decrement stock; restock when it runs low (TPC-W behaviour).
                stock_row = connection.execute_query(
                    "SELECT i_stock FROM item WHERE i_id = ?", [item_id]
                )
                if stock_row.next():
                    stock = stock_row.get_int("i_stock") - quantity
                    if stock < 10:
                        stock += 21
                    connection.execute_update(
                        "UPDATE item SET i_stock = ? WHERE i_id = ?", [stock, item_id]
                    )
            connection.execute_update(
                "INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, cx_expire, "
                "cx_xact_amt, cx_xact_date, cx_co_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    order_id,
                    CARD_TYPES[rng.integers(0, len(CARD_TYPES))],
                    f"{rng.integers(10**15, 10**16 - 1)}",
                    "CARD HOLDER",
                    request.arrival_time + 3.0e7,
                    total,
                    request.arrival_time,
                    rng.integers(1, 10),
                ],
            )
            # Empty the cart.
            if cart_id is not None:
                connection.execute_update(
                    "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?", [int(cart_id)]
                )
        finally:
            connection.close()

        response.render(
            "Buy Confirm",
            {"order_id": order_id, "total": total, "lines": len(cart_lines)},
        )
