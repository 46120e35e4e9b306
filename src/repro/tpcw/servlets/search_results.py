"""TPC-W *Execute Search* (search results) interaction.

Runs one of the three search types (author / title / subject) and lists the
matching books.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.schema import SUBJECTS
from repro.tpcw.servlets.base import TpcwServlet
from repro.tpcw.servlets.search_request import SEARCH_TYPES

#: Maximum rows of the results page.
PAGE_SIZE = 50

#: The three searches, built once at import (see best_sellers for why).
SUBJECT_SEARCH_SQL = (
    "SELECT i_id, i_title, i_srp FROM item WHERE i_subject = ? "
    f"ORDER BY i_title ASC LIMIT {PAGE_SIZE}"
)
AUTHOR_SEARCH_SQL = (
    "SELECT i.i_id, i.i_title, i.i_srp FROM item i "
    "JOIN author a ON i.i_a_id = a.a_id WHERE a_lname = ? "
    f"ORDER BY i_title ASC LIMIT {PAGE_SIZE}"
)
TITLE_SEARCH_SQL = (
    "SELECT i_id, i_title, i_srp FROM item WHERE i_title LIKE ? "
    f"ORDER BY i_title ASC LIMIT {PAGE_SIZE}"
)


class SearchResultsServlet(TpcwServlet):
    """``TPCW_execute_search``"""

    java_class_name = "org.tpcw.servlet.TPCW_execute_search"
    component_name = "search_results"
    base_cpu_demand_seconds = 0.22
    transient_bytes_per_request = 64 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        search_type = request.get_parameter("search_type")
        if search_type not in SEARCH_TYPES:
            search_type = SEARCH_TYPES[
                self.random_stream("type").integers(0, len(SEARCH_TYPES))
            ]
        search_string = request.get_parameter("search_string")

        connection = self.get_connection()
        try:
            if search_type == "SUBJECT":
                subject = search_string if search_string in SUBJECTS else SUBJECTS[
                    self.random_stream("subject").integers(0, len(SUBJECTS))
                ]
                result = connection.execute_query(SUBJECT_SEARCH_SQL, [subject])
                used_term = subject
            elif search_type == "AUTHOR":
                last_name = search_string or "SMITH"
                result = connection.execute_query(AUTHOR_SEARCH_SQL, [last_name])
                used_term = last_name
            else:  # TITLE
                prefix = search_string or f"Book Title {self.random_stream('title').integers(1, 100)}"
                result = connection.execute_query(TITLE_SEARCH_SQL, [f"{prefix}%"])
                used_term = prefix

            books = []
            while result.next():
                books.append(
                    {
                        "id": result.get_int("i_id"),
                        "title": result.get_string("i_title"),
                        "srp": result.get_float("i_srp"),
                    }
                )
        finally:
            connection.close()

        response.render(
            "Search Results",
            {"search_type": search_type, "term": used_term, "books": books},
        )
