"""Synthetic population of the TPC-W bookstore database.

TPC-W scales its tables from the number of items and the number of emulated
browsers.  We keep the same *relationships* (customers ≫ items, ~an order per
customer, a handful of order lines per order) at a configurable, laptop-
friendly absolute size.  All randomness comes from a dedicated
``"population"`` stream so that a given seed always produces the same store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.engine import Database
from repro.sim.random import RandomStreams
from repro.tpcw.schema import CARD_TYPES, ORDER_STATUSES, SHIP_TYPES, SUBJECTS

_FIRST_NAMES = [
    "JAMES", "MARY", "JOHN", "PATRICIA", "ROBERT", "JENNIFER", "MICHAEL",
    "LINDA", "WILLIAM", "ELIZABETH", "DAVID", "BARBARA", "RICHARD", "SUSAN",
]
_LAST_NAMES = [
    "SMITH", "JOHNSON", "WILLIAMS", "BROWN", "JONES", "GARCIA", "MILLER",
    "DAVIS", "RODRIGUEZ", "MARTINEZ", "HERNANDEZ", "LOPEZ", "GONZALEZ",
]
_COUNTRIES = [
    ("United States", 1.0, "Dollars"),
    ("Spain", 0.92, "Euros"),
    ("United Kingdom", 0.78, "Pounds"),
    ("Germany", 0.92, "Euros"),
    ("Japan", 151.0, "Yen"),
    ("Canada", 1.36, "Dollars"),
    ("France", 0.92, "Euros"),
    ("Australia", 1.52, "Dollars"),
    ("Brazil", 5.0, "Reais"),
    ("India", 83.0, "Rupees"),
]
_PUBLISHERS = ["ACM PRESS", "OREILLY", "ADDISON", "WILEY", "SPRINGER", "MANNING"]
_BACKINGS = ["HARDBACK", "PAPERBACK", "USED", "AUDIO", "LIMITED-EDITION"]


@dataclass
class PopulationScale:
    """Size knobs for the synthetic store.

    The defaults are intentionally small so the unit-test suite stays fast;
    the experiment harness uses ``PopulationScale.standard()``.
    """

    num_items: int = 100
    num_customers: int = 200
    num_authors: int = 25
    num_orders: int = 150
    max_order_lines: int = 4
    num_addresses: int = 250

    def __post_init__(self) -> None:
        for field_name in (
            "num_items",
            "num_customers",
            "num_authors",
            "num_orders",
            "max_order_lines",
            "num_addresses",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")

    @classmethod
    def standard(cls) -> "PopulationScale":
        """The scale used by the paper-reproduction experiments."""
        return cls(
            num_items=1000,
            num_customers=1440,
            num_authors=250,
            num_orders=900,
            max_order_lines=5,
            num_addresses=1600,
        )

    @classmethod
    def tiny(cls) -> "PopulationScale":
        """A minimal scale for quick unit tests."""
        return cls(
            num_items=30,
            num_customers=40,
            num_authors=8,
            num_orders=25,
            max_order_lines=3,
            num_addresses=50,
        )


def populate_database(
    database: Database,
    scale: PopulationScale | None = None,
    streams: RandomStreams | None = None,
) -> PopulationScale:
    """Fill a TPC-W schema with synthetic data; returns the scale used."""
    scale = scale or PopulationScale()
    streams = streams or RandomStreams(0)
    draws = streams.engine("population")
    integers, uniform = draws.integers, draws.uniform

    countries = database.table("country")
    for index, (name, exchange, currency) in enumerate(_COUNTRIES, start=1):
        countries.insert(
            {"co_id": index, "co_name": name, "co_exchange": exchange, "co_currency": currency}
        )

    addresses = database.table("address")
    for addr_id in range(1, scale.num_addresses + 1):
        addresses.insert(
            {
                "addr_id": addr_id,
                "addr_street1": f"{integers(1, 9999)} Main Street",
                "addr_city": f"City{integers(1, 200)}",
                "addr_state": f"ST{integers(1, 50):02d}",
                "addr_zip": f"{integers(10000, 99999)}",
                "addr_co_id": integers(1, len(_COUNTRIES) + 1),
            }
        )

    authors = database.table("author")
    for a_id in range(1, scale.num_authors + 1):
        authors.insert(
            {
                "a_id": a_id,
                "a_fname": _FIRST_NAMES[integers(0, len(_FIRST_NAMES))],
                "a_lname": _LAST_NAMES[integers(0, len(_LAST_NAMES))],
                "a_bio": f"Author biography {a_id}",
            }
        )

    items = database.table("item")
    for i_id in range(1, scale.num_items + 1):
        cost = round(uniform(5.0, 80.0), 2)
        items.insert(
            {
                "i_id": i_id,
                "i_title": f"Book Title {i_id}",
                "i_a_id": integers(1, scale.num_authors + 1),
                "i_pub_date": uniform(0.0, 1.0e9),
                "i_publisher": _PUBLISHERS[integers(0, len(_PUBLISHERS))],
                "i_subject": SUBJECTS[integers(0, len(SUBJECTS))],
                "i_desc": f"Description of book {i_id}",
                "i_related1": integers(1, scale.num_items + 1),
                "i_related2": integers(1, scale.num_items + 1),
                "i_related3": integers(1, scale.num_items + 1),
                "i_related4": integers(1, scale.num_items + 1),
                "i_related5": integers(1, scale.num_items + 1),
                "i_thumbnail": f"img/thumb_{i_id}.gif",
                "i_image": f"img/image_{i_id}.gif",
                "i_srp": round(cost * 1.25, 2),
                "i_cost": cost,
                "i_avail": uniform(0.0, 1.0e9),
                "i_stock": integers(10, 30),
                "i_isbn": f"ISBN-{i_id:09d}",
                "i_page": integers(20, 9999),
                "i_backing": _BACKINGS[integers(0, len(_BACKINGS))],
            }
        )

    customers = database.table("customer")
    for c_id in range(1, scale.num_customers + 1):
        customers.insert(
            {
                "c_id": c_id,
                "c_uname": f"user{c_id}",
                "c_passwd": f"pwd{c_id}",
                "c_fname": _FIRST_NAMES[integers(0, len(_FIRST_NAMES))],
                "c_lname": _LAST_NAMES[integers(0, len(_LAST_NAMES))],
                "c_addr_id": integers(1, scale.num_addresses + 1),
                "c_phone": f"+1-555-{integers(1000, 9999)}",
                "c_email": f"user{c_id}@example.com",
                "c_since": uniform(0.0, 1.0e9),
                "c_last_login": uniform(1.0e9, 1.2e9),
                "c_discount": round(uniform(0.0, 0.5), 2),
                "c_balance": 0.0,
                "c_ytd_pmt": round(uniform(0.0, 1000.0), 2),
                "c_data": f"customer data {c_id}",
            }
        )

    orders = database.table("orders")
    order_lines = database.table("order_line")
    cc_xacts = database.table("cc_xacts")
    next_order_line_id = 1
    for o_id in range(1, scale.num_orders + 1):
        customer_id = integers(1, scale.num_customers + 1)
        line_count = integers(1, scale.max_order_lines + 1)
        subtotal = 0.0
        for _ in range(line_count):
            item_id = integers(1, scale.num_items + 1)
            quantity = integers(1, 5)
            order_lines.insert(
                {
                    "ol_id": next_order_line_id,
                    "ol_o_id": o_id,
                    "ol_i_id": item_id,
                    "ol_qty": quantity,
                    "ol_discount": round(uniform(0.0, 0.3), 2),
                    "ol_comments": f"order line {next_order_line_id}",
                }
            )
            next_order_line_id += 1
            subtotal += quantity * 20.0
        tax = round(subtotal * 0.0825, 2)
        order_date = uniform(0.9e9, 1.2e9)
        orders.insert(
            {
                "o_id": o_id,
                "o_c_id": customer_id,
                "o_date": order_date,
                "o_sub_total": round(subtotal, 2),
                "o_tax": tax,
                "o_total": round(subtotal + tax + 4.0, 2),
                "o_ship_type": SHIP_TYPES[integers(0, len(SHIP_TYPES))],
                "o_ship_date": order_date + uniform(3600.0, 7 * 86400.0),
                "o_bill_addr_id": integers(1, scale.num_addresses + 1),
                "o_ship_addr_id": integers(1, scale.num_addresses + 1),
                "o_status": ORDER_STATUSES[integers(0, len(ORDER_STATUSES))],
            }
        )
        cc_xacts.insert(
            {
                "cx_o_id": o_id,
                "cx_type": CARD_TYPES[integers(0, len(CARD_TYPES))],
                "cx_num": f"{integers(10**15, 10**16 - 1)}",
                "cx_name": "CARD HOLDER",
                "cx_expire": order_date + 3.0e7,
                "cx_xact_amt": round(subtotal + tax + 4.0, 2),
                "cx_xact_date": order_date,
                "cx_co_id": integers(1, len(_COUNTRIES) + 1),
            }
        )

    return scale
