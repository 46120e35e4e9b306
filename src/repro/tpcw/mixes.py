"""TPC-W workload mixes.

TPC-W defines three navigation mixes — *browsing*, *shopping* and *ordering*
— as Markov transition matrices over the 14 web interactions.  The paper
runs every experiment with the **shopping** mix; the relative visit
frequencies of that mix are what make some servlets (home, product detail,
search) leak much faster than rarely visited ones (admin confirm — the
paper's flat "component D").

The matrices below are compact but preserve the character of the official
mixes: browsing is read-heavy, ordering is purchase-heavy, shopping sits in
between, and administrative interactions are rare in all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

#: Canonical interaction (servlet/component) names, in TPC-W order.
INTERACTIONS: List[str] = [
    "home",
    "new_products",
    "best_sellers",
    "product_detail",
    "search_request",
    "search_results",
    "shopping_cart",
    "customer_registration",
    "buy_request",
    "buy_confirm",
    "order_inquiry",
    "order_display",
    "admin_request",
    "admin_confirm",
]

#: Page-class priorities used by the load shedder: purchase-path pages (the
#: revenue path) are protected at priority 2, core browsing pages sit at 1,
#: and discretionary pages (recommendations, reporting) are priority 0 — the
#: first to be refused when the worker pool saturates.
PAGE_PRIORITIES: Dict[str, int] = {
    "home": 1,
    "new_products": 0,
    "best_sellers": 0,
    "product_detail": 1,
    "search_request": 1,
    "search_results": 1,
    "shopping_cart": 2,
    "customer_registration": 2,
    "buy_request": 2,
    "buy_confirm": 2,
    "order_inquiry": 1,
    "order_display": 1,
    "admin_request": 0,
    "admin_confirm": 0,
}


@dataclass
class WorkloadMix:
    """A navigation mix: a Markov chain over the TPC-W interactions."""

    name: str
    transitions: Dict[str, Dict[str, float]]

    def __post_init__(self) -> None:
        for source, row in self.transitions.items():
            if source not in INTERACTIONS:
                raise ValueError(f"unknown interaction {source!r} in mix {self.name!r}")
            total = sum(row.values())
            if abs(total - 1.0) > 1e-6:
                raise ValueError(
                    f"transition probabilities from {source!r} sum to {total}, expected 1.0"
                )
            for target in row:
                if target not in INTERACTIONS:
                    raise ValueError(f"unknown interaction {target!r} in mix {self.name!r}")

    def next_interaction(self, current: str, uniform_draw: float) -> str:
        """The next interaction given a U(0,1) draw."""
        row = self.transitions.get(current)
        if row is None:
            raise KeyError(f"mix {self.name!r} has no transitions from {current!r}")
        cumulative = 0.0
        last = None
        for target, probability in row.items():
            cumulative += probability
            last = target
            if uniform_draw < cumulative:
                return target
        return last  # numerical slack

    def stationary_distribution(self, iterations: int = 200) -> Dict[str, float]:
        """Approximate stationary visit frequencies (power iteration)."""
        index = {name: i for i, name in enumerate(INTERACTIONS)}
        matrix = np.zeros((len(INTERACTIONS), len(INTERACTIONS)))
        for source, row in self.transitions.items():
            for target, probability in row.items():
                matrix[index[source], index[target]] = probability
        distribution = np.full(len(INTERACTIONS), 1.0 / len(INTERACTIONS))
        for _ in range(iterations):
            distribution = distribution @ matrix
        total = distribution.sum()
        if total > 0:
            distribution = distribution / total
        return {name: float(distribution[index[name]]) for name in INTERACTIONS}


def _mix(name: str, rows: Dict[str, Dict[str, float]]) -> WorkloadMix:
    return WorkloadMix(name=name, transitions=rows)


def shopping_mix() -> WorkloadMix:
    """The shopping mix (the one used throughout the paper's evaluation)."""
    return _mix(
        "shopping",
        {
            "home": {
                "new_products": 0.25, "best_sellers": 0.20, "search_request": 0.30,
                "product_detail": 0.15, "order_inquiry": 0.05, "home": 0.05,
            },
            "new_products": {
                "product_detail": 0.55, "home": 0.15, "search_request": 0.20,
                "new_products": 0.10,
            },
            "best_sellers": {
                "product_detail": 0.55, "home": 0.15, "search_request": 0.20,
                "best_sellers": 0.10,
            },
            "product_detail": {
                "shopping_cart": 0.25, "product_detail": 0.30, "search_request": 0.20,
                "home": 0.15, "admin_request": 0.01, "new_products": 0.09,
            },
            "search_request": {
                "search_results": 0.90, "home": 0.10,
            },
            "search_results": {
                "product_detail": 0.55, "search_request": 0.20, "home": 0.15,
                "shopping_cart": 0.10,
            },
            "shopping_cart": {
                "customer_registration": 0.45, "shopping_cart": 0.15,
                "product_detail": 0.20, "home": 0.20,
            },
            "customer_registration": {
                "buy_request": 0.85, "home": 0.15,
            },
            "buy_request": {
                "buy_confirm": 0.65, "shopping_cart": 0.15, "home": 0.20,
            },
            "buy_confirm": {
                "home": 0.80, "search_request": 0.20,
            },
            "order_inquiry": {
                "order_display": 0.75, "home": 0.25,
            },
            "order_display": {
                "home": 0.70, "order_inquiry": 0.20, "search_request": 0.10,
            },
            "admin_request": {
                "admin_confirm": 0.80, "home": 0.20,
            },
            "admin_confirm": {
                "home": 1.00,
            },
        },
    )


def browsing_mix() -> WorkloadMix:
    """The browsing mix (95 % browse / 5 % order interactions)."""
    return _mix(
        "browsing",
        {
            "home": {
                "new_products": 0.30, "best_sellers": 0.25, "search_request": 0.30,
                "product_detail": 0.13, "order_inquiry": 0.02,
            },
            "new_products": {
                "product_detail": 0.60, "home": 0.20, "search_request": 0.20,
            },
            "best_sellers": {
                "product_detail": 0.60, "home": 0.20, "search_request": 0.20,
            },
            "product_detail": {
                "product_detail": 0.40, "search_request": 0.25, "home": 0.25,
                "shopping_cart": 0.09, "admin_request": 0.01,
            },
            "search_request": {
                "search_results": 0.92, "home": 0.08,
            },
            "search_results": {
                "product_detail": 0.60, "search_request": 0.22, "home": 0.15,
                "shopping_cart": 0.03,
            },
            "shopping_cart": {
                "customer_registration": 0.25, "shopping_cart": 0.15,
                "product_detail": 0.30, "home": 0.30,
            },
            "customer_registration": {
                "buy_request": 0.60, "home": 0.40,
            },
            "buy_request": {
                "buy_confirm": 0.40, "shopping_cart": 0.20, "home": 0.40,
            },
            "buy_confirm": {
                "home": 0.90, "search_request": 0.10,
            },
            "order_inquiry": {
                "order_display": 0.70, "home": 0.30,
            },
            "order_display": {
                "home": 0.75, "order_inquiry": 0.15, "search_request": 0.10,
            },
            "admin_request": {
                "admin_confirm": 0.75, "home": 0.25,
            },
            "admin_confirm": {
                "home": 1.00,
            },
        },
    )


def ordering_mix() -> WorkloadMix:
    """The ordering mix (50 % of sessions reach a purchase)."""
    return _mix(
        "ordering",
        {
            "home": {
                "new_products": 0.15, "best_sellers": 0.10, "search_request": 0.30,
                "product_detail": 0.25, "order_inquiry": 0.10, "shopping_cart": 0.10,
            },
            "new_products": {
                "product_detail": 0.60, "home": 0.15, "search_request": 0.25,
            },
            "best_sellers": {
                "product_detail": 0.60, "home": 0.15, "search_request": 0.25,
            },
            "product_detail": {
                "shopping_cart": 0.45, "product_detail": 0.20, "search_request": 0.15,
                "home": 0.19, "admin_request": 0.01,
            },
            "search_request": {
                "search_results": 0.90, "home": 0.10,
            },
            "search_results": {
                "product_detail": 0.55, "search_request": 0.15, "home": 0.10,
                "shopping_cart": 0.20,
            },
            "shopping_cart": {
                "customer_registration": 0.65, "shopping_cart": 0.10,
                "product_detail": 0.15, "home": 0.10,
            },
            "customer_registration": {
                "buy_request": 0.95, "home": 0.05,
            },
            "buy_request": {
                "buy_confirm": 0.85, "shopping_cart": 0.05, "home": 0.10,
            },
            "buy_confirm": {
                "home": 0.75, "search_request": 0.25,
            },
            "order_inquiry": {
                "order_display": 0.85, "home": 0.15,
            },
            "order_display": {
                "home": 0.60, "order_inquiry": 0.30, "search_request": 0.10,
            },
            "admin_request": {
                "admin_confirm": 0.85, "home": 0.15,
            },
            "admin_confirm": {
                "home": 1.00,
            },
        },
    )


#: The TPC-W mixes by name.
MIXES = {"browsing": browsing_mix, "shopping": shopping_mix, "ordering": ordering_mix}


def mix_by_name(name: str) -> WorkloadMix:
    """Look a mix up by its TPC-W name (``KeyError`` when unknown)."""
    return MIXES[name.lower()]()
