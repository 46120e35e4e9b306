"""TPC-W *Customer Registration* interaction.

Either looks an existing customer up by user name (returning customer) or
prepares a new-customer form.  Stores the resolved customer id in the
session for the subsequent buy request.
"""

from __future__ import annotations

from repro.container.servlet import HttpServletRequest, HttpServletResponse
from repro.tpcw.servlets.base import TpcwServlet


class CustomerRegistrationServlet(TpcwServlet):
    """``TPCW_customer_registration_servlet``"""

    java_class_name = "org.tpcw.servlet.TPCW_customer_registration_servlet"
    component_name = "customer_registration"
    base_cpu_demand_seconds = 0.08
    transient_bytes_per_request = 28 * 1024

    #: Fraction of registrations that are returning customers (TPC-W: 80 %).
    RETURNING_CUSTOMER_FRACTION = 0.8

    def do_get(self, request: HttpServletRequest, response: HttpServletResponse) -> None:
        session = request.get_session(create=True)
        username = request.get_parameter("uname")
        returning = username is not None or (
            self.random_stream("returning").uniform(0.0, 1.0)
            < self.RETURNING_CUSTOMER_FRACTION
        )

        customer = None
        connection = self.get_connection()
        try:
            if returning:
                if username is None:
                    customer_id = self.random_stream("customer").integers(1, 200)
                    username = f"user{customer_id}"
                result = connection.execute_query(
                    "SELECT c_id, c_fname, c_lname, c_discount, c_addr_id "
                    "FROM customer WHERE c_uname = ?",
                    [username],
                )
                if result.next():
                    customer = {
                        "id": result.get_int("c_id"),
                        "first_name": result.get_string("c_fname"),
                        "last_name": result.get_string("c_lname"),
                        "discount": result.get_float("c_discount"),
                        "address_id": result.get_int("c_addr_id"),
                    }
                    session.set_attribute("customer_id", customer["id"])
            if customer is None:
                # New customer: the form is rendered; the actual row is created
                # at buy confirm time (as in the reference implementation).
                session.set_attribute("customer_id", None)
        finally:
            connection.close()

        response.render(
            "Customer Registration",
            {"returning": bool(customer), "customer": customer},
        )
