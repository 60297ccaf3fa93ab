"""Plan templates: an XPath *shape* is translated once and every string
of that shape binds its literals as SQL parameters.

(a) differential — bound execution == the inline-literal text == the
    native oracle, on both mappings;
(b) liftability — shapes whose plan needs a value are translated with
    their literals in place, exactly as before, and share nothing;
(c) binding — storage classes, LIKE patterns, quotes, look-alikes;
(d) caches — the two lookups, their counters, eviction, threads;
(e) lexer — the regex scan against the character loop it replaced.
"""

from __future__ import annotations

import ast
import pathlib
import random
import threading

import pytest

from repro import (
    Database,
    EdgePPFEngine,
    EdgeStore,
    NativeEngine,
    PPFEngine,
    QueryLimitError,
    QueryTimeoutError,
    ResiliencePolicy,
    ShreddedStore,
    StorageError,
    XPathSyntaxError,
    infer_schema,
    parse_document,
)
from repro.core.translator import PlanTemplate
from repro.workloads import (
    DBLP_QUERIES,
    DBLPConfig,
    XMarkConfig,
    XPATHMARK_QUERIES,
    generate_dblp,
    generate_xmark,
)
from repro.workloads.xpathmark import XPATHMARK_A_QUERIES
from repro.xmltree.nodes import ElementNode, TextNode
from repro.xpath.lexer import Token, shape_of, tokenize

XM25 = [q.xpath for q in list(XPATHMARK_QUERIES) + list(XPATHMARK_A_QUERIES)]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def oracle_rows(native: NativeEngine, xpath: str) -> list[tuple]:
    """``(owner id, value)`` per result in document order, one row per
    owner element: the shape the SQL engines answer in."""
    rows: dict[int, tuple] = {}
    for node in native.execute(xpath):
        if isinstance(node, ElementNode):
            owner, value = node, None
        elif isinstance(node, TextNode):
            owner, value = node.parent, node.value
        else:  # AttributeNode
            owner, value = node.owner, node.value
        rows.setdefault(owner.node_id, (owner.node_id, value))
    return [rows[key] for key in sorted(rows)]


def bound_and_inline(engine, xpath: str) -> tuple[list[tuple], list[tuple]]:
    """Rows of ``execute`` (parameters bound) and of running the
    translation's self-contained ``.sql`` text, both as ``(id, value)``."""
    bound = [(row.id, row.value) for row in engine.execute(xpath)]
    translation = engine.translate(xpath)
    if translation.is_empty:
        return bound, []
    wants_value = translation.projection != "nodes"
    seen: dict[int, tuple] = {}
    for record in engine.store.db.query(translation.sql):
        value = None
        if wants_value and record[3] is not None:
            value = str(record[3])
        seen.setdefault(record[0], (record[0], value))
    return bound, list(seen.values())


def both_engines(document):
    store = ShreddedStore.create(Database.memory(), infer_schema([document]))
    store.bulk_load([document])  # with statistics: the costed pipeline
    edge = EdgeStore.create(Database.memory())
    edge.load(document)
    return {
        "ppf": PPFEngine(store, result_cache_size=None),
        "edge": EdgePPFEngine(edge, result_cache_size=None),
    }


@pytest.fixture(scope="module")
def xmark():
    document = generate_xmark(XMarkConfig(scale=0.6, seed=19))
    return document, NativeEngine(document), both_engines(document)


@pytest.fixture(scope="module")
def dblp():
    document = generate_dblp(DBLPConfig(scale=0.4, seed=19))
    return document, NativeEngine(document), both_engines(document)


# The eight ad-hoc query forms of the ``adhoc_cold`` workload: point
# predicates, a ``//`` step, value ranges, an attribute on a child, a
# ``text()`` projection and a union.
_CITIES = "Athens Berlin Cairo Delhi Lima Osaka Paris Quito Sydney Toronto".split()


def adhoc_forms(rng: random.Random, sizes: dict[str, int]) -> dict[str, str]:
    def some(kind: str) -> int:
        return rng.randrange(sizes[kind] + 2)  # now and then: no such id

    def cents(low: int, high: int) -> str:
        return f"{rng.randrange(low * 100, high * 100) / 100:.2f}"

    low = rng.randrange(500, 30000) / 100
    return {
        "item_pair": (
            f"/site/regions/*/item[@id='item{some('item')}' "
            f"or @id='item{some('item')}']"
        ),
        "person_name": (
            f"/site/people/person[@id='person{some('person')}' "
            f"or @id='person{some('person')}']/name/text()"
        ),
        "auction_increase": (
            f"//open_auction[@id='open_auction{some('auction')}']"
            f"/bidder[increase > {cents(1, 30)}]"
        ),
        "price_above": (
            f"/site/closed_auctions/closed_auction"
            f"[price > {cents(10, 900)}]/date"
        ),
        "seller_pair": (
            f"/site/open_auctions/open_auction"
            f"[seller/@person='person{some('person')}' "
            f"or seller/@person='person{some('person')}']"
        ),
        "initial_between": (
            f"/site/open_auctions/open_auction"
            f"[initial > {low:.2f} and initial < {low + 40:.2f}]/type/text()"
        ),
        "city_income": (
            f"/site/people/person[address/city='{rng.choice(_CITIES)}' and "
            f"profile/@income > {rng.randrange(20000, 90000)}]/name"
        ),
        "name_union": (
            f"/site/regions/*/item[@id='item{some('item')}']/name | "
            f"/site/people/person[@id='person{some('person')}']/name"
        ),
    }


# ---------------------------------------------------------------------------
# (a) differential
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("mapping", ["ppf", "edge"])
    def test_xm25_bound_equals_inline_equals_oracle(self, xmark, mapping):
        _, native, engines = xmark
        engine = engines[mapping]
        for xpath in XM25:
            bound, inline = bound_and_inline(engine, xpath)
            assert bound == inline, xpath
            assert bound == oracle_rows(native, xpath), xpath

    @pytest.mark.parametrize("mapping", ["ppf", "edge"])
    def test_dblp_bound_equals_inline_equals_oracle(self, dblp, mapping):
        _, native, engines = dblp
        engine = engines[mapping]
        for xpath in [q.xpath for q in DBLP_QUERIES]:
            bound, inline = bound_and_inline(engine, xpath)
            assert bound == inline, xpath
            assert bound == oracle_rows(native, xpath), xpath

    def test_adhoc_forms_200_instances_each_on_both_mappings(self, xmark):
        _, native, engines = xmark
        sizes = {
            "item": len(native.execute("/site/regions/*/item")),
            "person": len(native.execute("/site/people/person")),
            "auction": len(native.execute("//open_auction")),
        }
        rng = random.Random(19)
        instances: dict[str, set[str]] = {}
        non_empty = 0
        for _ in range(200):
            for form, xpath in adhoc_forms(rng, sizes).items():
                instances.setdefault(form, set()).add(xpath)
                expected = oracle_rows(native, xpath)
                non_empty += bool(expected)
                for engine in engines.values():
                    bound, inline = bound_and_inline(engine, xpath)
                    assert bound == inline, xpath
                    assert bound == expected, xpath
        assert len(instances) == 8
        # Never-repeating enough that templates, not the exact-string
        # cache, answered; and not vacuous.
        assert all(len(strings) > 100 for strings in instances.values())
        assert non_empty > 400
        for engine in engines.values():
            info = engine.cache_info()
            assert info.misses <= 8 + len(XM25)
            assert len(
                [t for t in engine._templates.values() if t is not None]
            ) >= 8

    def test_unseen_literals_reuse_one_plan_object(self, xmark):
        _, _, engines = xmark
        engine = engines["ppf"]
        first = engine.translate("//person[@id='person1']/name")
        second = engine.translate("//person[@id='person2']/name")
        assert first is not second
        assert first.plan is second.plan
        assert first.statement is second.statement
        assert first.pass_reports is second.pass_reports
        assert first.parametrised_sql is second.parametrised_sql
        assert first.parameters == {"v0": "person1"}
        assert second.parameters == {"v0": "person2"}
        assert "'person1'" in first.sql and ":v0" not in first.sql
        assert "'person2'" in second.sql
        assert ":v0" in first.parametrised_sql
        assert first.expression == "//person[@id='person1']/name"
        assert first.plan.expression == "//person[@id=$v0]/name"


# ---------------------------------------------------------------------------
# (b) liftability
# ---------------------------------------------------------------------------

SHOP = (
    "<shop>"
    "<item id='i1'><price>25</price><bidder/><bidder/><bidder/></item>"
    "<item id='i2'><price>15</price><bidder/></item>"
    "<item id='i3'><price>40</price><bidder/><bidder/></item>"
    "</shop>"
)


@pytest.fixture()
def shop():
    document = parse_document(SHOP, name="shop")
    store = ShreddedStore.create(Database.memory(), infer_schema([document]))
    store.bulk_load([document])
    return PPFEngine(store), NativeEngine(document)


class TestLiftability:
    #: Pairs of one shape whose plans differ with the constants.
    UNLIFTABLE = [
        ("//item[price > 10 * 2]", "//item[price > 10 * 3]"),
        ("//item[count(bidder) > 2]", "//item[count(bidder) > 0]"),
        ("//item['a' = 'a']", "//item['a' = 'b']"),
        ("//item['x']", "//item['']"),
        ("/shop/item[1]", "/shop/item[3]"),
        ("/shop/item[position() < 2]", "/shop/item[position() < 3]"),
        ("//item[price > -5]", "//item[price > -30]"),
    ]

    @pytest.mark.parametrize("one, other", UNLIFTABLE)
    def test_translated_inline_as_before_and_never_shared(
        self, shop, one, other
    ):
        engine, native = shop
        assert shape_of(one).key == shape_of(other).key
        results = {}
        for xpath in (one, other):
            translation = engine.translate(xpath)
            reference = engine.translator.translate_inline(xpath)
            assert translation.parameters is None
            assert translation.sql == reference.sql
            assert translation.sql == translation.parametrised_sql
            assert ":v" not in translation.sql
            results[xpath] = translation
        assert results[one].plan is not results[other].plan
        assert results[one].sql != results[other].sql
        # The shape is remembered as unliftable: one attempt, not two.
        assert list(engine._templates.values()) == [None]
        info = engine.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        for xpath in (one, other):
            assert [
                (row.id, row.value) for row in engine.execute(xpath)
            ] == oracle_rows(native, xpath)

    @pytest.mark.parametrize(
        "xpath",
        [
            "//item/ancestor::shop[2]",  # positional, non-child axis
            "//item[contains(price, 5)]",  # needs a string literal
            "//item[count(bidder) > 'x']",  # count vs non-number
            "//item[price > 'a' * 2]",  # arithmetic over strings
            "//item[following::item[3]]",
            "5",
        ],
    )
    def test_errors_are_raised_exactly_as_before(self, shop, xpath):
        engine, _ = shop
        with pytest.raises(Exception) as reference:
            engine.translator.translate_inline(xpath)
        for _ in range(2):  # first sight of the shape, and remembered
            with pytest.raises(type(reference.value)) as raised:
                engine.translate(xpath)
            assert str(raised.value) == str(reference.value)
        with pytest.raises(type(reference.value)):
            engine.translator.translate(xpath)

    def test_syntax_errors_keep_their_offsets(self, shop):
        engine, _ = shop
        for xpath, position in [("//item[price > 'x]", 15), ("//a # b", 4)]:
            with pytest.raises(XPathSyntaxError) as raised:
                engine.translate(xpath)
            assert raised.value.position == position
            assert shape_of(xpath) is None

    def test_translator_without_cache_takes_the_same_path(self, shop):
        engine, _ = shop
        lifted = engine.translator.translate("//item[price > 20]")
        assert lifted.parameters == {"v0": 20}
        assert lifted.sql == engine.translator.translate_inline(
            "//item[price > 20]"
        ).sql
        folded = engine.translator.translate("//item[price > 10 * 2]")
        assert folded.parameters is None
        assert folded.sql == lifted.sql

    def test_ast_input_is_translated_inline(self, shop):
        from repro import parse_xpath

        engine, _ = shop
        translation = engine.translate(parse_xpath("//item[price > 20]"))
        assert translation.parameters is None
        assert "> 20" in translation.sql


# ---------------------------------------------------------------------------
# (c) binding
# ---------------------------------------------------------------------------

# ``t/@n`` mixes numbers with a word; ``p`` is a numeric leaf.  Both are
# stored as the text the document had and cast for a comparison against
# a number.  The rest is spelled to look like placeholders.
TRICKY = (
    "<r>"
    "<a><ns:v0 k=':v0'>x'y</ns:v0><v0 k='v0'>a%b_c\\d</v0>"
    "<v0 k=':v1'>:v0</v0><v0 k='q'>aXbYc\\d</v0></a>"
    "<b><ns:v0 k=':v0'>other</ns:v0></b>"
    "<t n='19'/><t n='19.0'/><t n='19.00'/><t n='19.5'/><t n='abc'/>"
    "<p>19</p><p>19.5</p><p>7</p>"
    "</r>"
)


@pytest.fixture(scope="module")
def tricky():
    document = parse_document(TRICKY, name="tricky")
    return NativeEngine(document), both_engines(document)


class TestBinding:
    @pytest.mark.parametrize("literal", ["19", "19.0", "19.00", "19.5", "7"])
    @pytest.mark.parametrize("op", ["=", "!=", "<", ">="])
    def test_number_keeps_the_literals_storage_class(
        self, tricky, literal, op
    ):
        native, engines = tricky
        for path in ("//t[@n {} {}]", "//p[. {} {}]"):
            xpath = path.format(op, literal)
            bound, inline = bound_and_inline(engines["ppf"], xpath)
            assert bound == inline, xpath
        # On the numeric leaf SQL and XPath semantics coincide.
        numeric = f"//p[. {op} {literal}]"
        for engine in engines.values():
            bound, inline = bound_and_inline(engine, numeric)
            assert bound == inline == oracle_rows(native, numeric)

    def test_text_column_compares_with_a_number_numerically(self, tricky):
        native, engines = tricky
        engine = engines["ppf"]
        integral = engine.translate("//t[@n = 19.00]")
        assert integral.parameters == {"v0": 19}
        assert type(integral.parameters["v0"]) is int
        assert "= 19" in integral.sql and "19.0" not in integral.sql
        fractional = engine.translate("//t[@n = 19.5]")
        assert fractional.parameters == {"v0": 19.5}
        assert integral.plan is fractional.plan
        # The comparand is cast: '19', '19.0' and '19.00' all equal 19,
        # as they do in XPath and on Edge.
        for xpath, count in (("//t[@n = 19.00]", 3), ("//t[@n = 19.5]", 1)):
            rows = oracle_rows(native, xpath)
            assert len(rows) == count
            for each in engines.values():
                bound, inline = bound_and_inline(each, xpath)
                assert bound == inline == rows

    def test_huge_integral_number_stays_a_float(self, tricky):
        _, engines = tricky
        xpath = "//p[. < 100000000000000000000]"
        translation = engines["ppf"].translate(xpath)
        assert translation.parameters == {"v0": 1e20}
        assert type(translation.parameters["v0"]) is float
        bound, inline = bound_and_inline(engines["ppf"], xpath)
        assert bound == inline and len(bound) == 3

    @pytest.mark.parametrize(
        "xpath",
        [
            "//v0[contains(., 'a%b_c\\d')]",
            "//v0[contains(., '%')]",
            "//v0[contains(., '_c')]",
            "//v0[starts-with(., 'a%')]",
            "//v0[starts-with(., 'aX')]",
            "//*[contains(@k, 'v')]",
            "/r/a/*[. = \"x'y\"]",
            "/r/a/*[. = ':v0']",
            "/r/a/*[@k = ':v0']",
            "/r/a/*[@k = ':v1' or @k = ':v0']",
            "/r/a/*[@k = 'v0']",
            "//a//*[@k = ':v0'] | //b/*[@k = ':v0']",
        ],
    )
    def test_like_quotes_and_placeholder_lookalikes(self, tricky, xpath):
        native, engines = tricky
        expected = oracle_rows(native, xpath)
        assert expected, xpath
        for engine in engines.values():
            translation = engine.translate(xpath)
            assert translation.parameters
            bound, inline = bound_and_inline(engine, xpath)
            assert bound == inline == expected, xpath

    def test_like_pattern_is_escaped_at_bind_time(self, tricky):
        _, engines = tricky
        engine = engines["ppf"]
        contains = engine.translate("//v0[contains(., 'a%b_c\\d')]")
        assert contains.parameters == {"v0": "%a\\%b\\_c\\\\d%"}
        assert "LIKE :v0 ESCAPE '\\'" in contains.parametrised_sql
        assert "LIKE '%a\\%b\\_c\\\\d%' ESCAPE '\\'" in contains.sql
        starts = engine.translate("//v0[starts-with(., 'a%')]")
        assert starts.parameters == {"v0": "a\\%%"}
        assert contains.plan is not starts.plan
        assert len(engine.execute("//v0[contains(., 'a%b_c\\d')]")) == 1

    def test_inline_text_replaces_parameters_not_lookalikes(self, tricky):
        """``:v0`` as a value, ``v0`` as a table and ``ns:v0`` inside a
        path literal all survive rendering with the real ``:v0``
        replaced by a value that itself reads ``:v1``."""
        _, engines = tricky
        engine = engines["ppf"]
        translation = engine.translate("/r/a/*[@k = ':v1' or @k = ':v0']")
        assert translation.parameters == {"v0": ":v1", "v1": ":v0"}
        sql = translation.sql
        assert "/r/a/ns:v0'" in sql  # the path literal, untouched
        assert "attr_k = ':v1' OR " in sql and "attr_k = ':v0'" in sql
        assert sql.count("':v0'") == sql.count("':v1'")
        assert "/r/a/ns:v0'" in translation.parametrised_sql
        assert "attr_k = :v0 OR " in translation.parametrised_sql


# ---------------------------------------------------------------------------
# (d) caches
# ---------------------------------------------------------------------------


class TestCaches:
    def test_two_strings_of_one_shape_one_miss_one_hit(self, shop):
        engine, _ = shop
        first = engine.translate("//item[price > 20]")
        second = engine.translate("//item[price > 30]")
        info = engine.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 2)
        assert first.plan is second.plan
        assert engine.translate("//item[price > 20]") is first
        assert engine.cache_info().hits == 2
        assert len(engine._templates) == 1
        assert isinstance(next(iter(engine._templates.values())), PlanTemplate)
        engine.cache_clear()
        assert len(engine._templates) == 0
        assert engine.cache_info()[:2] == (0, 0)

    def test_statistics_refresh_retires_templates(self):
        """A template is retired by a summary read that fails and by
        nothing else: new statistics it still agrees with keep it."""
        texts = (
            SHOP,
            "<shop><aisle><item id='a1'><price>30</price></item></aisle></shop>",
            "<shop><back><item id='b1'><price>35</price></item></back></shop>",
        )
        documents = [
            parse_document(text, name=f"d{index}")
            for index, text in enumerate(texts)
        ]
        store = ShreddedStore.create(
            Database.memory(), infer_schema(documents)
        )
        store.bulk_load(documents[:2])
        engine = PPFEngine(store)
        form = "/shop/*/item[price > {}]"
        before = engine.translate(form.format(20))
        assert [sorted(read.listed) for read in before.summary_reads] == [
            ["/shop/aisle/item"], ["/shop/aisle/item/price"]
        ]
        store.load(parse_document(SHOP, name="again"))  # no new path
        assert engine.translate(form.format(21)).plan is before.plan
        store.collect_statistics()  # a new version saying the same
        kept = engine.translate(form.format(22))
        assert kept.plan is before.plan
        assert kept.stats_version == before.stats_version
        assert kept.held_version == store.stats_version
        assert engine.cache_info().misses == 1
        store.load(documents[2])  # a path the regex matches, not listed
        fresh = engine.translate(form.format(23))
        assert fresh.plan is not before.plan
        assert fresh.stats_version == store.stats_version
        assert fresh.summary_reads[0].listed == {
            "/shop/aisle/item", "/shop/back/item"
        }
        assert engine.cache_info().misses == 2
        assert len(engine.execute(form.format(20))) == 2
        assert engine.translate(form.format(24)).plan is fresh.plan

    def test_template_lru_evicts(self, shop):
        engine, _ = shop
        engine._TEMPLATE_LIMIT = 2
        engine.translate("//item[price > 1]")
        engine.translate("//item[price < 1]")
        engine.translate("//item[price > 2]")  # touch: '>' is now newest
        engine.translate("//item[price = 1]")  # evicts '<'
        assert len(engine._templates) == 2
        misses = engine.cache_info().misses
        engine.translate("//item[price > 3]")
        assert engine.cache_info().misses == misses
        engine.translate("//item[price < 3]")
        assert engine.cache_info().misses == misses + 1

    def test_two_threads_translating_one_novel_shape_agree(self, shop):
        """Both may translate (nothing is held while translating); they
        must build equal templates — the planner's per-plan state is
        not shared between them."""
        import sys

        engine, _ = shop
        reference = PPFEngine(engine.store)
        shapes = [
            "//item[price > {}" + " and price < 99" * clauses + "]"
            for clauses in range(25)
        ] + ["//item[@id = {}] | //item[price = {}]"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for shape in shapes:
                barrier = threading.Barrier(2, timeout=10)
                out: dict[int, object] = {}

                def work(index: int) -> None:
                    barrier.wait()
                    out[index] = engine.translate(shape.format(index, 7))

                threads = [
                    threading.Thread(target=work, args=(i,)) for i in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                expected = reference.translate(shape.format(0, 7))
                for index in (0, 1):
                    assert (
                        out[index].parametrised_sql
                        == expected.parametrised_sql
                    )
                    assert out[index].parameters["v0"] == index
        finally:
            sys.setswitchinterval(interval)
        info = engine.cache_info()
        assert info.hits + info.misses == 2 * len(shapes)
        assert len(shapes) <= info.misses
        assert len(engine._templates) == len(shapes)


class TestGuardErrorsStayReproducible:
    """An error raised for a bound statement names the self-contained
    text — what a user can paste into ``sqlite3`` — not ``:v0``."""

    XPATH = "//item[price > 20]"

    def engine(self, policy=None, database=None):
        document = parse_document(SHOP, name="shop")
        db = database or Database.memory(policy=policy)
        store = ShreddedStore.create(db, infer_schema([document]))
        store.bulk_load([document])
        return PPFEngine(store, result_cache_size=None)

    def check(self, engine, error, rerun: bool = True) -> None:
        inline = engine.translate(self.XPATH).sql
        assert "> 20" in inline
        assert error.sql == inline
        assert inline in str(error)
        assert ":v0" not in str(error)
        if rerun:
            assert engine.store.db.query(error.sql) is not None

    def test_row_cap(self):
        engine = self.engine(ResiliencePolicy(max_rows=1))
        with pytest.raises(QueryLimitError) as raised:
            engine.execute(self.XPATH)
        self.check(engine, raised.value)

    def test_timeout_and_native_fallback_gets_the_expression(self):
        from repro import FaultInjectingDatabase, FaultPlan

        plan = FaultPlan().script(
            "delay", match="price.text AS NUMERIC) >", times=1, seconds=0.2
        )
        db = FaultInjectingDatabase.memory(
            plan, policy=ResiliencePolicy(query_timeout=0.05)
        )
        engine = self.engine(database=db)
        with pytest.raises(QueryTimeoutError) as raised:
            engine.execute(self.XPATH)
        self.check(engine, raised.value)
        plan.script("delay", match="price.text AS NUMERIC) >", seconds=0.2)
        engine.fallback = True
        result = engine.execute(self.XPATH)
        assert result.served_by == "native" and len(result) == 2

    def test_retries_exhausted(self):
        from repro import FaultInjectingDatabase, FaultPlan, RetryExhaustedError

        plan = FaultPlan().script("busy", match="price.text AS NUMERIC) >", times=2)
        db = FaultInjectingDatabase.memory(
            plan,
            policy=ResiliencePolicy(max_retries=1, backoff_base=0.0),
        )
        engine = self.engine(database=db)
        with pytest.raises(RetryExhaustedError) as raised:
            engine.execute(self.XPATH)
        self.check(engine, raised.value)
        assert raised.value.attempts == 2

    def test_wrapped_sqlite_error(self):
        engine = self.engine()
        engine.translate(self.XPATH)
        engine.store.db.execute("ALTER TABLE price RENAME TO gone")
        for call in (
            lambda: engine.execute(self.XPATH),
            lambda: list(engine.iterate(self.XPATH)),
        ):
            with pytest.raises(StorageError) as raised:
                call()
            self.check(engine, raised.value, rerun=False)
        with pytest.raises(StorageError) as raised:
            engine.query_plan(self.XPATH)
        assert raised.value.sql.startswith("EXPLAIN QUERY PLAN SELECT")
        assert "> 20" in raised.value.sql and ":v0" not in str(raised.value)

    def test_every_entry_point_binds(self, shop):
        engine, native = shop
        xpath = "//item[price > 20] | //item[@id = 'i2']"
        expected = [row[0] for row in oracle_rows(native, xpath)]
        assert engine.execute(xpath).ids == expected
        assert [row.id for row in engine.iterate(xpath)] == expected
        assert engine.query_plan(xpath)
        report = engine.explain_costs(xpath)
        assert report.actual_rows == 3 and report.branch_actual == (2, 1)
        assert "> 20" in report and ":v" not in report


class TestIterate:
    def test_rows_are_built_like_execute(self, xmark):
        from repro.core.results import ResultRow

        _, _, engines = xmark
        for xpath in (
            "//person[@id = 'person3']/name/text()",
            "/site/regions/*/item",
            "//open_auction[initial > 50]/@id",
        ):
            engine = engines["ppf"]
            streamed = list(engine.iterate(xpath))
            assert streamed == engine.execute(xpath).rows
            assert all(type(row) is ResultRow for row in streamed)
            assert all(type(row.dewey_pos) is bytes for row in streamed)

    def test_streams_in_chunks(self, xmark, monkeypatch):
        import repro.core.engine as engine_module

        monkeypatch.setattr(engine_module, "_ITERATE_CHUNK", 7)
        _, _, engines = xmark
        engine = engines["ppf"]
        rows = engine.iterate("//keyword")
        first = next(rows)
        assert first == engine.execute("//keyword").rows[0]
        assert len(list(rows)) + 1 == len(engine.execute("//keyword"))


# ---------------------------------------------------------------------------
# (e) lexer
# ---------------------------------------------------------------------------

_OLD_SYMBOLS = [
    "//", "..", "::", "!=", "<=", ">=", "/", "[", "]", "(", ")", "@", ".",
    ",", "|", "=", "<", ">", "+", "-", "*", "$",
]


def old_tokenize(expression: str) -> list[Token]:
    """The character loop :func:`tokenize` replaced, kept as reference."""
    tokens: list[Token] = []
    pos = 0
    length = len(expression)
    while pos < length:
        char = expression[pos]
        if char in " \t\r\n":
            pos += 1
            continue
        if char in "'\"":
            end = expression.find(char, pos + 1)
            if end < 0:
                raise XPathSyntaxError(
                    "unterminated string literal", pos, expression
                )
            tokens.append(Token("literal", expression[pos + 1 : end], pos))
            pos = end + 1
            continue
        if char.isdigit() or (
            char == "." and pos + 1 < length and expression[pos + 1].isdigit()
        ):
            start = pos
            while pos < length and expression[pos].isdigit():
                pos += 1
            if pos < length and expression[pos] == ".":
                pos += 1
                while pos < length and expression[pos].isdigit():
                    pos += 1
            tokens.append(Token("number", expression[start:pos], start))
            continue
        if char.isalpha() or char == "_":
            start = pos
            pos += 1
            while pos < length and (
                expression[pos].isalnum() or expression[pos] in "_.-"
            ):
                pos += 1
            tokens.append(Token("name", expression[start:pos], start))
            continue
        for symbol in _OLD_SYMBOLS:
            if expression.startswith(symbol, pos):
                tokens.append(Token("symbol", symbol, pos))
                pos += len(symbol)
                break
        else:
            raise XPathSyntaxError(
                f"unexpected character {char!r}", pos, expression
            )
    tokens.append(Token("end", "", length))
    return tokens


def existing_xpath_test_strings() -> list[str]:
    """Every string constant in ``tests/xpath`` — the expressions (and
    plenty of non-expressions) the lexer and parser tests feed in."""
    strings: set[str] = set()
    for path in sorted(pathlib.Path(__file__).parents[1].glob("xpath/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return sorted(strings)


def assert_same_lexing(expression: str) -> None:
    try:
        expected = old_tokenize(expression)
    except XPathSyntaxError as error:
        with pytest.raises(XPathSyntaxError) as raised:
            tokenize(expression)
        assert raised.value.position == error.position, expression
        assert str(raised.value) == str(error), expression
        assert shape_of(expression) is None, expression
        return
    assert tokenize(expression) == expected, expression
    # The shape scan sees the same literals, in the same order.
    shape = shape_of(expression)
    lifted = [t for t in expected if t.kind in ("literal", "number")]
    assert shape.values == tuple(t.value for t in lifted), expression
    assert [c for c in shape.key if c in "'\""] == [
        "'" if t.kind == "literal" else '"' for t in lifted
    ], expression
    # And the key is the text between them, verbatim.
    rebuilt, rest = [], expression
    for token in lifted:
        raw = token.value if token.kind == "number" else None
        start = token.position - (len(expression) - len(rest))
        width = len(raw) if raw is not None else len(token.value) + 2
        rebuilt.append(rest[:start])
        rest = rest[start + width :]
    rebuilt.append(rest)
    assert shape.key.replace('"', "'").split("'") == rebuilt, expression


class TestLexer:
    def test_identical_on_every_workload_query(self):
        for xpath in XM25 + [q.xpath for q in DBLP_QUERIES]:
            assert_same_lexing(xpath)

    def test_identical_on_the_existing_xpath_test_cases(self):
        strings = existing_xpath_test_strings()
        assert len(strings) > 100
        assert "preceding-sibling::b" in strings and "'oops" in strings
        for text in strings:
            assert_same_lexing(text)

    @pytest.mark.parametrize(
        "expression",
        [
            "", " ", "a", "1", "1.", ".5", "1.5.3", "..5", "...5", "a.5",
            "a-1", "a -1", "a - 1", "a1", "1a", "_x-y.z", "a..b", "a.b.c",
            "a::b", "a:b", "a!b", "a!=b", "!", ":", "::", "'", '"', "'a\"",
            "\"a'b\"", "''", "'' ''", "a['x'][\"y\"][1][.2]", "$x", "a\tb\nc",
            "é[ñ='ü']", "//a[b=1.]", "a[1.e3]", "a#", "a ; b", "1 'x' 2 \"y\"",
            "a\\b", "a[b = 'it''s']", "x 12abc", "- 5", "-.5", "5.-3",
        ],
    )
    def test_identical_on_lexical_corner_cases(self, expression):
        assert_same_lexing(expression)

    def test_identical_on_random_strings(self):
        rng = random.Random(5)
        alphabet = "ab1.'\"/[]()@=<>!:-_* \t$#,|+9"
        for _ in range(4000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 14))
            )
            assert_same_lexing(text)

    def test_shape_separates_what_it_must(self):
        same = shape_of("//a[b = 'x' and c > 1.50]")
        assert same == ("//a[b = ' and c > \"]", ("x", "1.50"))
        assert shape_of('//a[b = "y" and c > 7]').key == same.key
        assert shape_of("//a[b = 1 and c > 'x']").key != same.key
        assert shape_of("//a[b  = 'x' and c > 1]").key != same.key
        assert shape_of("//a1[b = 'x' and c > 1]").key != same.key
        assert shape_of("//a[1]").values == ("1",)
        assert shape_of("//a1").values == ()
