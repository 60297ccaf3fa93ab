"""CLI exit-code contract for `repro lint`: 0 clean, 1 findings, 2
usage error."""

import json

import pytest

from repro.cli import main

#: A module with one CA002 finding (interpolated SQL).
INTERPOLATED = "def f(db, t):\n    db.execute(f'DELETE FROM {t}')\n"


def usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code == 2


class TestLintExitCodes:
    def test_no_input_is_usage_error(self, capsys):
        assert usage_error(["lint"])
        assert "--code" in capsys.readouterr().err

    def test_xpath_argument_is_a_usage_error(self):
        assert usage_error(["lint", "//item"])

    def test_verify_plans_is_a_usage_error(self):
        assert usage_error(["verify-plans"])

    def test_concurrency_flag_is_a_usage_error(self, tmp_path):
        assert usage_error(["lint", "--concurrency", str(tmp_path)])

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

    def test_json_output(self, tmp_path, capsys):
        module = tmp_path / "bad.py"
        module.write_text(INTERPOLATED)
        out = tmp_path / "findings.json"
        assert main(["lint", "--code", str(module), "--output", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["errors"] == 1
        assert payload["findings"][0]["severity"] == "error"
