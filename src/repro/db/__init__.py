"""In-memory relational database substrate (the "MySQL" of the testbed).

TPC-W is a database-backed workload: every interaction issues one or more
SQL queries over the bookstore schema.  This package provides the data tier
the TPC-W servlets run against:

* :mod:`repro.db.table`   -- tables, columns, rows, secondary indexes.
* :mod:`repro.db.engine`  -- the database engine (DDL, transactions-lite,
  cost accounting for simulated query latency).
* :mod:`repro.db.sql`     -- a SQL subset parser/executor (SELECT with joins,
  aggregates, GROUP BY / ORDER BY / LIMIT, INSERT, UPDATE, DELETE,
  positional ``?`` parameters).
* :mod:`repro.db.jdbc`    -- a JDBC-like API (DataSource, Connection,
  ResultSet) with a bounded connection pool; the pool is a leakable
  resource used by the connection-leak extension fault.
"""

from __future__ import annotations

from repro.db.engine import Database, QueryStats
from repro.db.jdbc import (
    Connection,
    ConnectionPoolExhaustedError,
    DataSource,
    ResultSet,
    SQLError,
)
from repro.db.sql import SqlSyntaxError, parse_sql
from repro.db.table import Column, ColumnType, Table, UniqueViolationError

__all__ = [
    "Database",
    "QueryStats",
    "Table",
    "Column",
    "ColumnType",
    "UniqueViolationError",
    "parse_sql",
    "SqlSyntaxError",
    "DataSource",
    "Connection",
    "ResultSet",
    "SQLError",
    "ConnectionPoolExhaustedError",
]
