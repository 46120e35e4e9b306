"""TPC-W *New Products* interaction.

Lists the most recently published books of a subject (item ⋈ author, ordered
by publication date).
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.schema import SUBJECTS
from repro.tpcw.servlets.base import TpcwServlet

#: Page size of the new-products listing (TPC-W shows 50).
PAGE_SIZE = 50

#: Built once at import (see best_sellers for rationale).  This is the exact
#: single-join ORDER BY + LIMIT shape the planner's top-k operator targets;
#: the ``join_topk`` benchmark imports it so the measured statement cannot
#: drift from what the servlet actually issues.
NEW_PRODUCTS_SQL = (
    "SELECT i.i_id, i.i_title, i.i_pub_date, i.i_srp, a.a_fname, a.a_lname "
    "FROM item i JOIN author a ON i.i_a_id = a.a_id "
    f"WHERE i_subject = ? ORDER BY i_pub_date DESC LIMIT {PAGE_SIZE}"
)


class NewProductsServlet(TpcwServlet):
    """``TPCW_new_products_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_new_products_servlet"
    component_name = "new_products"
    base_cpu_demand_seconds = 0.20
    transient_bytes_per_request = 72 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        subject = request.get_parameter("subject")
        if subject not in SUBJECTS:
            subject = SUBJECTS[self.random_stream("subject").integers(0, len(SUBJECTS))]

        connection = self.get_connection()
        try:
            result = connection.execute_query(NEW_PRODUCTS_SQL, [subject])
            books = []
            while result.next():
                books.append(
                    {
                        "id": result.get_int("i_id"),
                        "title": result.get_string("i_title"),
                        "srp": result.get_float("i_srp"),
                        "author": f"{result.get_string('a_fname')} {result.get_string('a_lname')}",
                    }
                )
        finally:
            connection.close()

        response.render(f"New Products: {subject}", {"subject": subject, "books": books})
