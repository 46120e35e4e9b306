"""TPC-W *Best Sellers* interaction.

The most expensive read-only interaction: aggregates recent order lines per
item (order_line ⋈ item ⋈ author, GROUP BY, ORDER BY quantity sold) for a
subject.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.schema import SUBJECTS
from repro.tpcw.servlets.base import TpcwServlet

#: Page size of the best-sellers listing (TPC-W shows 50).
PAGE_SIZE = 50

#: Built once at import: the per-request ``str.format`` call produced a fresh
#: string per request, defeating the engine's statement/plan caches' identity
#: fast path.  The double-join + GROUP BY + ORDER BY DESC LIMIT shape is the
#: planner's aggregate pipeline (tuple rows, no merged wrapper dicts).
_BEST_SELLERS_SQL = (
    "SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS sold "
    "FROM order_line ol "
    "JOIN item i ON ol.ol_i_id = i.i_id "
    "JOIN author a ON i.i_a_id = a.a_id "
    "WHERE i_subject = ? "
    "GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname "
    f"ORDER BY sold DESC LIMIT {PAGE_SIZE}"
)


class BestSellersServlet(TpcwServlet):
    """``TPCW_best_sellers_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_best_sellers_servlet"
    component_name = "best_sellers"
    base_cpu_demand_seconds = 0.38
    transient_bytes_per_request = 96 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        subject = request.get_parameter("subject")
        if subject not in SUBJECTS:
            subject = SUBJECTS[self.random_stream("subject").integers(0, len(SUBJECTS))]

        connection = self.get_connection()
        try:
            result = connection.execute_query(_BEST_SELLERS_SQL, [subject])
            best_sellers = []
            while result.next():
                best_sellers.append(
                    {
                        "id": result.get_int("i_id"),
                        "title": result.get_string("i_title"),
                        "author": f"{result.get_string('a_fname')} {result.get_string('a_lname')}",
                        "sold": result.get_int("sold"),
                    }
                )
        finally:
            connection.close()

        response.render(
            f"Best Sellers: {subject}",
            {"subject": subject, "best_sellers": best_sellers},
        )
