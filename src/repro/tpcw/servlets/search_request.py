"""TPC-W *Search Request* interaction.

Renders the search form (search types + subject list).  Database-light."""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.schema import SUBJECTS
from repro.tpcw.servlets.base import TpcwServlet

#: The three search types TPC-W supports.
SEARCH_TYPES = ["AUTHOR", "TITLE", "SUBJECT"]


class SearchRequestServlet(TpcwServlet):
    """``TPCW_search_request_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_search_request_servlet"
    component_name = "search_request"
    base_cpu_demand_seconds = 0.06
    transient_bytes_per_request = 24 * 1024

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        # The form needs the subject list and a promotional banner item.
        connection = self.get_connection()
        try:
            banner_id = self.random_stream("banner").integers(1, 50)
            banner = connection.execute_query(
                "SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id = ?", [banner_id]
            )
            banner_item = None
            if banner.next():
                banner_item = {
                    "id": banner.get_int("i_id"),
                    "title": banner.get_string("i_title"),
                }
        finally:
            connection.close()

        response.render(
            "Search Request",
            {
                "search_types": list(SEARCH_TYPES),
                "subjects": list(SUBJECTS),
                "banner": banner_item,
            },
        )
