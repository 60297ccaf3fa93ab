"""Engine-level behaviours: projections, multi-document stores, explain,
result objects, empty results."""

from repro import (
    Database,
    EdgePPFEngine,
    EdgeStore,
    PPFEngine,
    ShreddedStore,
    figure1_schema,
    infer_schema,
    parse_document,
)


class TestProjections:
    def test_text_projection(self, figure1_engines):
        result = figure1_engines["ppf"].execute("//F/text()")
        assert result.projection == "text"
        assert result.values == ["1", "2"]

    def test_text_projection_edge(self, figure1_engines):
        result = figure1_engines["edge_ppf"].execute("//F/text()")
        assert result.values == ["1", "2"]

    def test_attribute_projection(self, figure1_engines):
        result = figure1_engines["ppf"].execute("//D/@x")
        assert result.projection == "attribute"
        assert result.values == ["4"]

    def test_attribute_projection_missing_attr_is_empty(
        self, figure1_engines
    ):
        result = figure1_engines["ppf"].execute("//F/@x")
        assert result.values == []

    def test_elements_without_text_excluded_from_text_projection(
        self, figure1_engines
    ):
        result = figure1_engines["ppf"].execute("//B/text()")
        assert result.values == []


class TestDecimalLeaves:
    """A number-kinded value keeps its lexical form: ``text()`` returns
    what the document said, and a comparison against a number casts."""

    XML = "<a><p>134.20</p><p>-7.50</p><p>12</p></a>"

    def engines(self):
        document = parse_document(self.XML, name="decimals")
        store = ShreddedStore.create(
            Database.memory(), infer_schema([document])
        )
        assert store.mapping.relation_for("p").text_kind == "number"
        store.load(document)
        edge = EdgeStore.create(Database.memory())
        edge.load(document)
        return PPFEngine(store), EdgePPFEngine(edge)

    def test_text_returns_the_stored_spelling(self):
        for engine in self.engines():
            assert engine.execute("/a/p/text()").values == [
                "134.20", "-7.50", "12",
            ]

    def test_numeric_comparisons_still_select_it(self):
        for engine in self.engines():
            for xpath, expected in (
                ("/a/p[. > 134.1]", ["134.20"]),
                ("/a/p[. = 134.2]", ["134.20"]),
                ("/a[p = 134.2]/p[. < 0]", ["-7.50"]),
                ("/a/p[. = -7.5]", ["-7.50"]),
                ("/a/p[. <= 12.0]", ["-7.50", "12"]),
            ):
                values = engine.execute(xpath + "/text()").values
                assert values == expected, xpath

    def test_update_text_keeps_the_spelling_too(self):
        engine, _ = self.engines()
        (first, *_) = engine.execute("/a/p").ids
        engine.store.update_text(first, "0.50")
        assert engine.execute("/a/p[. < 1]/text()").values == [
            "0.50", "-7.50",
        ]


class TestQueryResult:
    def test_iteration_and_len(self, figure1_engines):
        result = figure1_engines["ppf"].execute("//F")
        assert len(result) == 2
        rows = list(result)
        assert rows[0].id < rows[1].id
        assert all(isinstance(r.dewey_pos, bytes) for r in rows)

    def test_explain_returns_sql(self, figure1_engines):
        report = figure1_engines["ppf"].explain("//F")
        assert isinstance(report, str)
        assert report.startswith("SELECT")
        assert "FROM F" in report
        # The report also carries the optimizer diagnostics.
        assert report.plan is not None
        assert "prune-distinct-order" in report.fired
        assert report.stats_before["paths_joins"] >= report.stats_after[
            "paths_joins"
        ]

    def test_empty_result(self, figure1_engines):
        result = figure1_engines["ppf"].execute("//F[.=99]")
        assert len(result) == 0
        assert result.ids == []

    def test_statically_empty_result(self, figure1_engines):
        result = figure1_engines["ppf"].execute("/A/F")
        assert len(result) == 0


class TestMultiDocument:
    def test_queries_span_documents(self):
        schema = figure1_schema()
        store = ShreddedStore.create(Database.memory(), schema)
        doc1 = parse_document("<A><B><C><D/></C></B></A>", name="one")
        doc2 = parse_document("<A><B><C><D/><D/></C></B></A>", name="two")
        store.load(doc1)
        store.load(doc2)
        engine = PPFEngine(store)
        result = engine.execute("//D")
        assert len(result) == 3
        assert {row.doc_id for row in result} == {1, 2}

    def test_dewey_joins_do_not_cross_documents(self):
        store = EdgeStore.create(Database.memory())
        store.load(parse_document("<A><B><C/></B></A>", name="one"))
        store.load(parse_document("<A><X><C/></X></A>", name="two"))
        engine = EdgePPFEngine(store)
        result = engine.execute("//B//C")
        assert len(result) == 1
        assert result.rows[0].doc_id == 1

    def test_absolute_predicate_path_scoped_per_document(self):
        # doc one: book author matches; doc two: no book at all.
        xml1 = (
            "<dblp><inproceedings><author>X</author></inproceedings>"
            "<book><author>X</author></book></dblp>"
        )
        xml2 = "<dblp><inproceedings><author>X</author></inproceedings></dblp>"
        doc1 = parse_document(xml1, name="one")
        doc2 = parse_document(xml2, name="two")
        schema = infer_schema([doc1, doc2])
        store = ShreddedStore.create(Database.memory(), schema)
        store.load(doc1)
        store.load(doc2)
        engine = PPFEngine(store)
        result = engine.execute(
            "/dblp/inproceedings[author=/dblp/book/author]"
        )
        assert len(result) == 1
        assert result.rows[0].doc_id == 1

    def test_global_ids_map_back_to_documents(self):
        schema = figure1_schema()
        store = ShreddedStore.create(Database.memory(), schema)
        doc1 = parse_document("<A><B/></A>", name="one")
        doc2 = parse_document("<A><B/><B/></A>", name="two")
        id1 = store.load(doc1)
        id2 = store.load(doc2)
        engine = PPFEngine(store)
        for row in engine.execute("//B"):
            doc_id, node_id = store.to_document_node_id(row.id)
            assert doc_id == row.doc_id
            assert node_id >= 2  # B nodes come after the root


class TestTranslationCache:
    def test_repeated_queries_reuse_translation(self, figure1_store):
        engine = PPFEngine(figure1_store)
        first = engine.translate("//F")
        second = engine.translate("//F")
        assert first is second

    def test_ast_inputs_bypass_cache(self, figure1_store):
        from repro import parse_xpath

        engine = PPFEngine(figure1_store)
        ast = parse_xpath("//F")
        assert engine.translate(ast) is not engine.translate(ast)

    def test_cache_bounded(self, figure1_store):
        engine = PPFEngine(figure1_store)
        engine._CACHE_LIMIT = 4
        for index in range(10):
            engine.translate(f"//F[.={index}]")
        assert len(engine._translation_cache) <= 4 + 1

    def test_results_stay_correct_after_cached_reuse(self, figure1_store):
        engine = PPFEngine(figure1_store)
        assert engine.execute("//F").ids == engine.execute("//F").ids

    def test_eviction_is_lru_not_wholesale(self, figure1_store):
        """A full cache evicts only the least-recently-used entry."""
        engine = PPFEngine(figure1_store)
        engine._CACHE_LIMIT = 3
        first = engine.translate("//F[.=0]")
        engine.translate("//F[.=1]")
        engine.translate("//F[.=2]")
        # Touch the oldest entry so it becomes most-recently-used...
        assert engine.translate("//F[.=0]") is first
        # ...then overflow: the eviction victim must be //F[.=1].
        engine.translate("//F[.=3]")
        assert {key[0] for key in engine._translation_cache} == {
            "//F[.=0]", "//F[.=2]", "//F[.=3]"
        }
        assert engine.translate("//F[.=0]") is first

    def test_cache_info_counts_hits_and_misses(self, figure1_store):
        engine = PPFEngine(figure1_store)
        info = engine.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        engine.translate("//F")
        engine.translate("//F")
        engine.translate("//G")
        info = engine.cache_info()
        assert info.hits == 1
        assert info.misses == 2
        assert info.currsize == 2
        assert info.maxsize == engine._CACHE_LIMIT

    def test_cache_clear_resets(self, figure1_store):
        engine = PPFEngine(figure1_store)
        engine.translate("//F")
        engine.cache_clear()
        info = engine.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_ast_inputs_do_not_touch_counters(self, figure1_store):
        from repro import parse_xpath

        engine = PPFEngine(figure1_store)
        engine.translate(parse_xpath("//F"))
        info = engine.cache_info()
        assert (info.hits, info.misses) == (0, 0)


class TestSharedComplexTypes:
    def test_shared_relation_with_elname_filter(self):
        from repro.schema.model import Schema

        schema = Schema(roots=["r"])
        schema.add_edge("r", "a")
        schema.add_edge("r", "b")
        schema.declare("a", type_name="T")
        schema.declare("b", type_name="T")
        schema["a"].text_kind = "string"
        schema["b"].text_kind = "string"
        store = ShreddedStore.create(Database.memory(), schema)
        store.load(parse_document("<r><a>1</a><b>2</b><a>3</a></r>"))
        engine = PPFEngine(store)
        assert len(engine.execute("/r/a")) == 2
        assert len(engine.execute("/r/b")) == 1
        assert len(engine.execute("/r/*")) == 3
        sql = engine.explain("/r/a")
        assert "elname = 'a'" in sql
