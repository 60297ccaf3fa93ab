"""CLI exit-code contract for `repro lint` / `repro verify-plans`:
0 clean, 1 findings, 2 usage error."""

import json

import pytest

from repro.cli import main

XML = "<shop><item sku='a'><price>5</price></item></shop>"

#: A module with one CA002 finding (interpolated SQL).
INTERPOLATED = "def f(db, t):\n    db.execute(f'DELETE FROM {t}')\n"


@pytest.fixture()
def db_path(tmp_path):
    xml_file = tmp_path / "doc.xml"
    xml_file.write_text(XML)
    database = str(tmp_path / "store.db")
    assert main(["shred", database, str(xml_file)]) == 0
    return database


class TestLintExitCodes:
    def test_clean_query_exits_zero(self, capsys):
        assert main(["lint", "/shop/item/price"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_finding_exits_one(self, capsys):
        assert main(["lint", "/a/b["]) == 1
        assert "XL001" in capsys.readouterr().out

    def test_warning_exits_zero_by_default(self, capsys):
        assert main(["lint", "//item"]) == 0
        assert "XL004" in capsys.readouterr().out

    def test_fail_on_warn_promotes_warnings(self, capsys):
        assert main(["lint", "//item", "--fail-on-warn"]) == 1

    def test_no_input_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        err = capsys.readouterr().err
        assert "nothing to lint" in err
        assert "--code PATH" in err

    def test_concurrency_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--concurrency", str(tmp_path)])
        assert exc.value.code == 2

    def test_code_lint_over_clean_tree(self, tmp_path, capsys):
        module = tmp_path / "ok.py"
        module.write_text("x = 1\n")
        assert main(["lint", "--code", str(module)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_code_lint_finds_violation(self, tmp_path, capsys):
        module = tmp_path / "bad.py"
        module.write_text(INTERPOLATED)
        assert main(["lint", "--code", str(module)]) == 1
        assert "CA002" in capsys.readouterr().out

    def test_xpath_and_code_findings_merge(self, tmp_path, capsys):
        module = tmp_path / "bad.py"
        module.write_text(INTERPOLATED)
        assert main(["lint", "/a/b[", "--code", str(module)]) == 1
        out = capsys.readouterr().out
        assert "XL001" in out
        assert "CA002" in out

    def test_duplicate_paths_report_each_finding_once(
        self, tmp_path, capsys
    ):
        module = tmp_path / "bad.py"
        module.write_text(INTERPOLATED)
        out = tmp_path / "findings.json"
        code = main(
            [
                "lint",
                "--code",
                str(tmp_path),
                str(module),
                "--output",
                str(out),
            ]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["total"] == 1
        assert payload["findings"][0]["code"] == "CA002"

    def test_db_marking_suppresses_descendant_warning(
        self, db_path, capsys
    ):
        assert main(["lint", "//price", "--db", db_path]) == 0
        assert "XL004" not in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        assert main(["lint", "/a/b[", "--output", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["errors"] == 1
        assert payload["findings"][0]["code"] == "XL001"


class TestVerifyPlansExitCodes:
    def test_no_input_is_usage_error(self, capsys):
        assert main(["verify-plans"]) == 2
        assert "nothing to verify" in capsys.readouterr().err

    def test_adhoc_without_db_is_usage_error(self, capsys):
        assert main(["verify-plans", "/a/b"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_adhoc_queries_verify_clean(self, db_path, capsys):
        assert (
            main(["verify-plans", "/shop/item", "//price", "--db", db_path])
            == 0
        )
        out = capsys.readouterr().out
        assert "verified 2 plan(s)" in out
        assert "0 error(s)" in out

    def test_untranslatable_query_is_runtime_error(self, db_path, capsys):
        # ReproError paths exit 1 (translation failed, not a usage bug).
        assert main(["verify-plans", "//a[sum(b)]", "--db", db_path]) == 1

    def test_json_output(self, db_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify-plans", "/shop", "--db", db_path, "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] == 1
        assert payload["errors"] == 0

    @pytest.mark.bench_smoke
    def test_workload_sweep_exits_zero(self, capsys):
        from repro.plan.passes import DEFAULT_PASS_NAMES
        from repro.workloads import DBLP_QUERIES, XPATHMARK_QUERIES
        from repro.workloads.xpathmark import XPATHMARK_A_QUERIES

        queries = (
            len(XPATHMARK_QUERIES)
            + len(XPATHMARK_A_QUERIES)
            + len(DBLP_QUERIES)
        )
        expected = queries * 2 ** len(DEFAULT_PASS_NAMES)
        assert main(["verify-plans", "--workloads"]) == 0
        captured = capsys.readouterr()
        assert f"swept {expected} workload plan(s)" in captured.err
        assert "0 error(s)" in captured.out

