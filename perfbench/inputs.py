"""Seeded inputs: documents, the fixed XM25 query set, the ad-hoc stream.

Everything a workload feeds the program is derived from ``--seed`` here
and nowhere else; the program itself only ever sees XML text and XPath
strings.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from repro.baselines.native import NativeEngine
from repro.workloads.xmark import XMarkConfig, generate_xmark
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES, XPATHMARK_QUERIES
from repro.xmltree.nodes import Document, ElementNode, TextNode


def xm25() -> list[tuple[str, str]]:
    """The fixed query set: 17 paper queries + 8 XPathMark-A queries."""
    return [
        (query.qid, query.xpath)
        for query in XPATHMARK_QUERIES + XPATHMARK_A_QUERIES
    ]


#: The paper's 17, for ``core.engine.xpathmark17_sum_ms``.
PAPER_QIDS = tuple(query.qid for query in XPATHMARK_QUERIES)


def xmark_documents(seed: int, scale: float, count: int) -> list[Document]:
    """``count`` XMark documents; document ``i`` depends on (seed, i) only."""
    return [
        generate_xmark(XMarkConfig(scale=scale, seed=seed * 1009 + index))
        for index in range(count)
    ]


# -- the ad-hoc stream ---------------------------------------------------------
#
# Each template has (a) a literal-free *candidate* XPath the native oracle
# evaluates once at set-up, with the fields its predicate reads pulled off
# the tree, (b) an instantiation from a running number that never repeats
# within the template's literal space (>= 5 000 strings each at scale 6,
# far beyond any cache in the program), and (c) the predicate itself, so
# the expected result of any instance is a filter over the candidates.

_STRIDE = 1_000_003  # prime: k -> k * _STRIDE % size is a bijection


def _child_text(element: ElementNode, name: str) -> str | None:
    for child in element.element_children:
        if child.name == name:
            return child.direct_text
    return None


def _child(element: ElementNode, name: str) -> ElementNode | None:
    for child in element.element_children:
        if child.name == name:
            return child
    return None


def _id_number(value: str | None, prefix: str) -> int:
    return int(value[len(prefix):]) if value else -1


def _item_fields(item: ElementNode) -> tuple:
    return (_id_number(item.get("id"), "item"),)


def _person_fields(person: ElementNode) -> tuple:
    address = _child(person, "address")
    profile = _child(person, "profile")
    return (
        _id_number(person.get("id"), "person"),
        _child_text(address, "city") if address is not None else None,
        float(profile.get("income")) if profile is not None else None,
    )


def _auction_fields(auction: ElementNode) -> tuple:
    seller = _child(auction, "seller")
    return (
        _id_number(auction.get("id"), "open_auction"),
        _id_number(seller.get("person"), "person"),
        float(_child_text(auction, "initial")),
    )


#: name -> (candidate XPath, owner -> element carrying the fields, fields)
_CANDIDATES: dict[str, tuple[str, Callable, Callable]] = {
    "item": ("/site/regions/*/item", lambda e: e, _item_fields),
    "item_name": ("/site/regions/*/item/name", lambda e: e.parent,
                  _item_fields),
    "person_name": ("/site/people/person/name", lambda e: e.parent,
                    _person_fields),
    "person_name_text": ("/site/people/person/name/text()",
                         lambda e: e.parent, _person_fields),
    "auction": ("/site/open_auctions/open_auction", lambda e: e,
                _auction_fields),
    "type_text": ("/site/open_auctions/open_auction/type/text()",
                  lambda e: e.parent, _auction_fields),
    "bidder": (
        "//open_auction/bidder", lambda e: e,
        lambda bidder: (
            _id_number(bidder.parent.get("id"), "open_auction"),
            float(_child_text(bidder, "increase")),
        ),
    ),
    "closed_date": (
        "/site/closed_auctions/closed_auction/date", lambda e: e.parent,
        lambda closed: (float(_child_text(closed, "price")),),
    ),
}


def native_rows(
    native: NativeEngine, xpath: str, base: int = 0
) -> list[tuple[int, str | None, ElementNode]]:
    """``(global id, value, owner element)`` per result, in document
    order, one row per owner — the shape the SQL engines return."""
    rows: dict[int, tuple[int, str | None, ElementNode]] = {}
    for node in native.execute(xpath):
        if isinstance(node, ElementNode):
            owner, value = node, None
        elif isinstance(node, TextNode):
            owner, value = node.parent, node.value
        else:  # AttributeNode
            owner, value = node.owner, node.value
        rows.setdefault(owner.node_id, (base + owner.node_id, value, owner))
    return [rows[key] for key in sorted(rows)]


def adhoc_candidates(document: Document) -> dict[str, list[list]]:
    """Per candidate set: ``[id, value, *fields]`` rows in document order
    (JSON-serializable; computed once by the set-up child)."""
    native = NativeEngine(document)
    out: dict[str, list[list]] = {}
    for name, (xpath, carrier, fields) in _CANDIDATES.items():
        out[name] = [
            [row_id, value, *fields(carrier(owner))]
            for row_id, value, owner in native_rows(native, xpath)
        ]
    return out


_CITIES = (
    "Athens Berlin Cairo Delhi Lima Osaka Paris Quito Sydney Toronto"
).split()


def _pair(number: int, first: int, second: int) -> tuple[int, int]:
    index = number * _STRIDE % (first * second)
    return index // second, index % second


def _cents(number: int, low: int, high: int) -> float:
    """A two-decimal value in [low, high), distinct for distinct numbers
    below (high - low) * 100; exactly the float its ``:.2f`` text reads
    back as, so the predicate and the XPath literal agree."""
    cents = number * _STRIDE % ((high - low) * 100)
    return float(f"{low + cents / 100.0:.2f}")


def _t_item_pair(n, sizes):
    a, b = _pair(n, sizes["item"], sizes["item"])
    return (
        f"/site/regions/*/item[@id='item{a}' or @id='item{b}']",
        [("item", lambda row: row[2] in (a, b))],
    )


def _t_person_name(n, sizes):
    a, b = _pair(n, sizes["person_name"], sizes["person_name"])
    return (
        f"/site/people/person[@id='person{a}' or @id='person{b}']"
        f"/name/text()",
        [("person_name_text", lambda row: row[2] in (a, b))],
    )


def _t_auction_increase(n, sizes):
    a = n % sizes["auction"]
    x = _cents(n // sizes["auction"], 1, 30)
    return (
        f"//open_auction[@id='open_auction{a}']/bidder[increase > {x:.2f}]",
        [("bidder", lambda row: row[2] == a and row[3] > x)],
    )


def _t_price_above(n, sizes):
    x = _cents(n, 10, 900)
    return (
        f"/site/closed_auctions/closed_auction[price > {x:.2f}]/date",
        [("closed_date", lambda row: row[2] > x)],
    )


def _t_seller_pair(n, sizes):
    a, b = _pair(n, sizes["person_name"], sizes["person_name"])
    return (
        f"/site/open_auctions/open_auction"
        f"[seller/@person='person{a}' or seller/@person='person{b}']",
        [("auction", lambda row: row[3] in (a, b))],
    )


def _t_initial_between(n, sizes):
    # Projects the string leaf ``type``, not ``initial``: at the commit that
    # defined the benchmark, text() of a decimal leaf came back as '134.2'
    # for the stored '134.20', and a workload may not fail where it is born.
    low = _cents(n, 5, 300)
    high = float(f"{low + 40:.2f}")
    return (
        f"/site/open_auctions/open_auction"
        f"[initial > {low:.2f} and initial < {high:.2f}]/type/text()",
        [("type_text", lambda row: low < row[4] < high)],
    )


def _t_city_income(n, sizes):
    city_index, income = _pair(n, len(_CITIES), 70000)
    city, income = _CITIES[city_index], 20000 + income
    return (
        f"/site/people/person[address/city='{city}' and "
        f"profile/@income > {income}]/name",
        [("person_name",
          lambda row: row[3] == city and row[4] is not None
          and row[4] > income)],
    )


def _t_name_union(n, sizes):
    a, b = _pair(n, sizes["item"], sizes["person_name"])
    return (
        f"/site/regions/*/item[@id='item{a}']/name | "
        f"/site/people/person[@id='person{b}']/name",
        [("item_name", lambda row: row[2] == a),
         ("person_name", lambda row: row[2] == b)],
    )


#: The 8 templates: point predicates, a ``//`` step, value ranges, an
#: attribute on a child, a ``text()`` projection and a union.
TEMPLATES: tuple[tuple[str, Callable], ...] = (
    ("item_pair", _t_item_pair),
    ("person_name", _t_person_name),
    ("auction_increase", _t_auction_increase),
    ("price_above", _t_price_above),
    ("seller_pair", _t_seller_pair),
    ("initial_between", _t_initial_between),
    ("city_income", _t_city_income),
    ("name_union", _t_name_union),
)


def adhoc_stream(
    seed: int, candidates: dict[str, list[list]]
) -> Iterator[tuple[str, str, list[tuple[int, str | None]]]]:
    """Endless ``(template, xpath, expected rows)``; templates round-robin,
    literals from a seeded start walking each template's literal space."""
    sizes = {name: len(rows) for name, rows in candidates.items()}
    start = random.Random(seed).randrange(1 << 30)
    number = start
    while True:
        for name, build in TEMPLATES:
            xpath, filters = build(number, sizes)
            expected = sorted(
                (row[0], row[1])
                for key, keep in filters
                for row in candidates[key]
                if keep(row)
            )
            yield name, xpath, expected
        number += 1
