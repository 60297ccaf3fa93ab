"""End-to-end CLI tests (shred → info → query → explain)."""

import os

import pytest

from repro.cli import main

XML_ONE = "<shop><item sku='a'><price>5</price></item></shop>"
XML_TWO = (
    "<shop><item sku='b'><price>9</price></item>"
    "<item sku='c'><price>2</price></item></shop>"
)


@pytest.fixture()
def xml_files(tmp_path):
    one = tmp_path / "one.xml"
    one.write_text(XML_ONE)
    two = tmp_path / "two.xml"
    two.write_text(XML_TWO)
    return str(one), str(two)


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "store.db")


class TestCLI:
    def test_shred_creates_store(self, db_path, xml_files, capsys):
        assert main(["shred", db_path, *xml_files]) == 0
        out = capsys.readouterr().out
        assert "doc 1" in out and "doc 2" in out

    def test_shred_appends_to_existing(self, db_path, xml_files, capsys):
        main(["shred", db_path, xml_files[0]])
        assert main(["shred", db_path, xml_files[1]]) == 0
        main(["info", db_path])
        out = capsys.readouterr().out
        assert "documents: 2" in out

    def test_query(self, db_path, xml_files, capsys):
        main(["shred", db_path, *xml_files])
        capsys.readouterr()
        assert main(["query", db_path, "//item[price>4]"]) == 0
        captured = capsys.readouterr()
        assert "2 result(s)" in captured.err
        assert "doc=" in captured.out

    def test_query_values(self, db_path, xml_files, capsys):
        main(["shred", db_path, *xml_files])
        capsys.readouterr()
        main(["query", db_path, "//item/@sku"])
        out = capsys.readouterr().out.split()
        assert out == ["a", "b", "c"]

    def test_explain(self, db_path, xml_files, capsys):
        main(["shred", db_path, *xml_files])
        capsys.readouterr()
        assert main(["explain", db_path, "//price"]) == 0
        out = capsys.readouterr().out
        assert "SELECT" in out
        assert "FROM price" in out

    def test_explain_plan(self, db_path, xml_files, capsys):
        main(["shred", db_path, *xml_files])
        capsys.readouterr()
        assert main(["explain", db_path, "--plan", "//price"]) == 0
        out = capsys.readouterr().out
        assert "-- logical plan:" in out
        assert "-- optimizer passes:" in out
        assert "paths-join-elimination" in out
        assert "-- SQL:" in out
        # SQLite's own plan, so a temp B-tree shows from the CLI: a
        # single relation is read off the index that holds the order...
        sqlite_plan = out.split("-- sqlite plan:\n")[1]
        assert "SCAN price USING COVERING INDEX idx_price_dewey" in sqlite_plan
        assert "TEMP B-TREE" not in sqlite_plan
        # ... and a statement that does sort says so.
        main(["explain", db_path, "--plan", "//item/following-sibling::item"])
        sqlite_plan = capsys.readouterr().out.split("-- sqlite plan:\n")[1]
        assert "USE TEMP B-TREE FOR ORDER BY" in sqlite_plan

    def test_explain_costs_names_the_statistics_planned_under(
        self, db_path, xml_files, capsys
    ):
        """A one-shot CLI plan is always fresh, so the line names one
        version; a long-lived engine's survivor adds the version it last
        held under (``tests/plan/test_access_path.py``)."""
        main(["shred", db_path, "--bulk", xml_files[0]])
        main(["shred", db_path, xml_files[1]])  # maintained: epoch 2
        capsys.readouterr()
        assert main(["explain", db_path, "--costs", "//item"]) == 0
        costs = capsys.readouterr().out.split("-- costs:\n")[1].splitlines()
        assert costs[0] == (
            "  planned under statistics epoch 2 at generation 2"
        )
        assert costs[1].startswith("  total: estimated ~3.0 rows, actual 3")

    def test_info_lists_relations(self, db_path, xml_files, capsys):
        main(["shred", db_path, *xml_files])
        capsys.readouterr()
        main(["info", db_path])
        out = capsys.readouterr().out
        assert "item" in out and "price" in out
        assert "U-P" in out

    def test_stats_needs_collected_statistics(self, db_path, xml_files, capsys):
        main(["shred", db_path, xml_files[0]])
        capsys.readouterr()
        assert main(["stats", db_path]) == 1
        assert "no usable statistics" in capsys.readouterr().out
        assert main(["stats", db_path, "--collect", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "documents:     1" in out
        assert "elements:      3" in out
        assert "paths:         3" in out
        path_lines = out.split("top 1 paths by element count:\n")[1]
        assert path_lines.splitlines() == [
            line for line in path_lines.splitlines() if "elems" in line
        ]
        assert len(path_lines.splitlines()) == 1

    def test_bad_xpath_reports_error(self, db_path, xml_files, capsys):
        main(["shred", db_path, *xml_files])
        capsys.readouterr()
        assert main(["query", db_path, "//item["]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, db_path, capsys):
        assert main(["shred", db_path, "nope.xml"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-plans", "lint"])
    def test_removed_command_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_query_on_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.db")
        assert main(["query", missing, "//x"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["explain", "//item"], ["info"], ["stats"]],
        ids=["explain", "info", "stats"],
    )
    def test_read_command_on_missing_store_creates_nothing(
        self, tmp_path, capsys, argv
    ):
        missing = str(tmp_path / "none.db")
        assert main([argv[0], missing, *argv[1:]]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(tmp_path) == []

    def test_nonconforming_append_rejected(self, db_path, tmp_path, capsys):
        first = tmp_path / "a.xml"
        first.write_text("<shop><item/></shop>")
        other = tmp_path / "b.xml"
        other.write_text("<warehouse><box/></warehouse>")
        main(["shred", db_path, str(first)])
        capsys.readouterr()
        assert main(["shred", db_path, str(other)]) == 1
        assert "does not conform" in capsys.readouterr().err

    def test_shred_with_dtd_schema(self, db_path, tmp_path, capsys):
        dtd = tmp_path / "shop.dtd"
        dtd.write_text(
            "<!ELEMENT shop (item*)>\n"
            "<!ELEMENT item (price)>\n"
            "<!ELEMENT price (#PCDATA)>\n"
            "<!ATTLIST item sku CDATA #REQUIRED>"
        )
        xml = tmp_path / "doc.xml"
        xml.write_text(XML_ONE)
        assert main(
            ["shred", db_path, str(xml), "--schema", str(dtd)]
        ) == 0
        capsys.readouterr()
        main(["query", db_path, "//item[price=5]"])
        assert "1 result(s)" in capsys.readouterr().err

    def test_shred_with_xsd_schema(self, db_path, tmp_path, capsys):
        xsd = tmp_path / "shop.xsd"
        xsd.write_text(
            """
            <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="shop"><xs:complexType><xs:sequence>
                <xs:element name="item"><xs:complexType><xs:sequence>
                  <xs:element name="price" type="xs:decimal"/>
                </xs:sequence>
                <xs:attribute name="sku" type="xs:string"/>
                </xs:complexType></xs:element>
              </xs:sequence></xs:complexType></xs:element>
            </xs:schema>
            """
        )
        xml = tmp_path / "doc.xml"
        xml.write_text(XML_ONE)
        assert main(
            ["shred", db_path, str(xml), "--schema", str(xsd)]
        ) == 0
        capsys.readouterr()
        main(["query", db_path, "//item[price>4]"])
        assert "1 result(s)" in capsys.readouterr().err

    def test_bench_smoke(self, capsys):
        assert main(["bench", "--workload", "dblp", "--scale", "0.3",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "QD1" in out and "QD5" in out


class TestShardCLI:
    """`repro shard create/info/verify` and sharded `repro query`."""

    pytestmark = pytest.mark.filterwarnings(
        "ignore:.*fork.*:DeprecationWarning"
    )

    @pytest.fixture()
    def store_dir(self, tmp_path):
        return str(tmp_path / "store")

    def _create(self, store_dir, xml_files, shards=2):
        return main(
            ["shard", "create", store_dir, "--shards", str(shards),
             *xml_files]
        )

    def test_shard_create_prints_placement(
        self, store_dir, xml_files, capsys
    ):
        assert self._create(store_dir, xml_files) == 0
        out = capsys.readouterr().out
        assert "doc 1" in out and "doc 2" in out
        assert "shard" in out

    def test_shard_info(self, store_dir, xml_files, capsys):
        self._create(store_dir, xml_files)
        capsys.readouterr()
        assert main(["shard", "info", store_dir]) == 0
        out = capsys.readouterr().out
        assert "shards:     2" in out
        assert "documents:  2" in out
        assert "doc    1" in out

    def test_shard_verify_clean(self, store_dir, xml_files, capsys):
        self._create(store_dir, xml_files)
        capsys.readouterr()
        assert main(["shard", "verify", store_dir]) == 0
        assert "verify clean" in capsys.readouterr().out

    def test_shard_verify_detects_corruption(
        self, store_dir, xml_files, capsys
    ):
        from repro.resilience.faults import corrupt_shard_file
        from repro.serving.shards import ShardedStore

        self._create(store_dir, xml_files)
        with ShardedStore.open(store_dir) as store:
            victim = store.shard_path(0)
        corrupt_shard_file(victim, seed=5, bytes_to_flip=256)
        capsys.readouterr()
        assert main(["shard", "verify", store_dir]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["explain", "//item"], ["info"], ["stats"]],
        ids=["explain", "info", "stats"],
    )
    def test_single_store_command_on_a_directory_is_an_error(
        self, store_dir, xml_files, capsys, argv
    ):
        self._create(store_dir, xml_files)
        capsys.readouterr()
        assert main([argv[0], store_dir, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open database")
        assert "Traceback" not in err

    def test_sharded_query_autodetects_directory(
        self, store_dir, xml_files, capsys
    ):
        self._create(store_dir, xml_files)
        capsys.readouterr()
        assert main(["query", store_dir, "//item/@sku"]) == 0
        captured = capsys.readouterr()
        assert captured.out.split() == ["a", "b", "c"]
        assert "via shards" in captured.err

    def test_sharded_query_matches_single_store(
        self, store_dir, db_path, xml_files, capsys
    ):
        main(["shred", db_path, *xml_files])
        self._create(store_dir, xml_files)
        capsys.readouterr()
        main(["query", db_path, "//item[price>4]"])
        single = capsys.readouterr().out
        main(["query", store_dir, "//item[price>4]"])
        sharded = capsys.readouterr().out
        assert sharded == single

    def test_sharded_query_in_a_directory_named_with_a_hash(
        self, tmp_path, db_path, xml_files, capsys
    ):
        """Each worker opens its shard read-only through a ``file:`` URI,
        where an unquoted ``#`` would end the path."""
        store_dir = str(tmp_path / "fl#1")
        main(["shred", db_path, *xml_files])
        self._create(store_dir, xml_files)
        capsys.readouterr()
        main(["query", db_path, "//item[price>4]"])
        single = capsys.readouterr().out
        assert main(["query", store_dir, "//item[price>4]"]) == 0
        assert capsys.readouterr().out == single

    def test_shard_count_mismatch_is_an_error(
        self, store_dir, xml_files, capsys
    ):
        self._create(store_dir, xml_files, shards=2)
        capsys.readouterr()
        assert main(["query", store_dir, "--shards", "3", "//item"]) == 2
        assert "has 2 shard(s)" in capsys.readouterr().err

    def test_shards_flag_on_plain_file_is_an_error(
        self, db_path, xml_files, capsys
    ):
        main(["shred", db_path, *xml_files])
        capsys.readouterr()
        assert main(["query", db_path, "--shards", "2", "//item"]) == 2
        assert "not a sharded store" in capsys.readouterr().err

    def test_partial_result_warns_and_exits_3(
        self, store_dir, xml_files, capsys
    ):
        from repro.resilience.faults import corrupt_shard_file
        from repro.serving.shards import ShardedStore

        self._create(store_dir, xml_files)
        with ShardedStore.open(store_dir) as store:
            victim = store.shard_path(0)
        corrupt_shard_file(victim, seed=5, bytes_to_flip=512)
        capsys.readouterr()
        assert main(["query", store_dir, "//item/@sku"]) == 3
        captured = capsys.readouterr()
        assert "WARNING: partial result" in captured.err
        assert "shard(s) 0" in captured.err
