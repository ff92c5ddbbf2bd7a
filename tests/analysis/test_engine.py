"""Engine mechanics: suppressions, selection, exit codes, output formats."""

from __future__ import annotations

import json

import pytest

from repro.analysis import LINT_SCHEMA, UNUSED_SUPPRESSION_ID, main, run_analysis
from repro.analysis.engine import AnalysisError


def rule_ids(result):
    return [v.rule_id for v in result.violations]


_BAD_DET101 = """\
    import random

    def draw():
        return random.random()
"""


def test_violation_fields_and_sorting(lint_tree):
    result = lint_tree(
        {
            "core/b.py": _BAD_DET101,
            "core/a.py": _BAD_DET101,
        }
    )
    assert rule_ids(result) == ["DET101", "DET101"]
    paths = [v.path for v in result.violations]
    assert paths == sorted(paths)  # sorted by location
    v = result.violations[0]
    assert v.severity == "error"
    assert v.line == 4 and v.col > 0
    assert "random.random" in v.message
    assert v.path in v.format() and "DET101" in v.format()


def test_noqa_suppresses_and_counts_as_used(lint_tree):
    result = lint_tree(
        {
            "core/a.py": """\
    import random

    def draw():
        return random.random()  # repro: noqa[DET101] -- seeded upstream, test fixture
    """
        }
    )
    assert result.violations == []
    assert result.exit_code() == 0


def test_unused_noqa_reported_as_sup001_warning(lint_tree):
    result = lint_tree(
        {
            "core/a.py": """\
    def clean():
        return 1  # repro: noqa[DET101]
    """
        }
    )
    assert rule_ids(result) == [UNUSED_SUPPRESSION_ID]
    assert result.violations[0].severity == "warning"
    assert result.errors == 0 and result.warnings == 1
    # Warnings only: clean exit by default, failure under --strict.
    assert result.exit_code() == 0
    assert result.exit_code(strict=True) == 1


def test_noqa_in_docstring_is_not_a_suppression(lint_tree):
    result = lint_tree(
        {
            "core/a.py": '''\
    def helper():
        """Mentions the # repro: noqa[DET101] syntax in prose only."""
        return 1
    '''
        }
    )
    assert result.violations == []  # no SUP001: the docstring is not a comment


def test_noqa_multiple_ids_and_case_insensitive(lint_tree):
    result = lint_tree(
        {
            "core/a.py": """\
    import random

    def draw():
        return random.random()  # repro: noqa[det101, DET102] -- fixture
    """
        }
    )
    # DET101 suppressed (used); DET102 never fired -> unused warning.
    assert rule_ids(result) == [UNUSED_SUPPRESSION_ID]
    assert "DET102" in result.violations[0].message


def test_select_and_ignore_by_prefix(lint_tree):
    files = {
        "core/a.py": """\
    import random
    import time

    def draw():
        return random.random() + time.time()
    """
    }
    both = lint_tree(files)
    assert sorted(rule_ids(both)) == ["DET101", "DET102"]
    only_101 = lint_tree(files, select=["DET101"])
    assert rule_ids(only_101) == ["DET101"]
    family = lint_tree(files, select=["DET"])
    assert sorted(rule_ids(family)) == ["DET101", "DET102"]
    ignored = lint_tree(files, ignore=["DET102"])
    assert rule_ids(ignored) == ["DET101"]
    assert "DET102" not in ignored.rules_run


def test_result_to_dict_schema(lint_tree):
    result = lint_tree({"core/a.py": _BAD_DET101})
    doc = result.to_dict()
    assert doc["schema"] == LINT_SCHEMA
    assert doc["counts"] == {"error": 1, "warning": 0}
    assert doc["files"] == 1
    (v,) = doc["violations"]
    assert set(v) == {"rule", "severity", "path", "line", "col", "message"}
    json.dumps(doc)  # must be JSON-serializable as-is


def test_unreadable_path_raises_analysis_error(tmp_path):
    with pytest.raises(AnalysisError):
        run_analysis([tmp_path / "does-not-exist"])


def test_syntax_error_raises_analysis_error(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    with pytest.raises(AnalysisError):
        run_analysis([tmp_path])


def test_main_exit_codes_and_json_output(tmp_path, capsys):
    src = tmp_path / "core"
    src.mkdir()
    (src / "a.py").write_text("import random\n\ndef f():\n    return random.random()\n")

    assert main([str(tmp_path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == LINT_SCHEMA
    assert doc["counts"]["error"] == 1

    (src / "a.py").write_text("def f():\n    return 1\n")
    assert main([str(tmp_path)]) == 0

    assert main([str(tmp_path / "missing")]) == 2
    assert "error" in capsys.readouterr().err


def test_main_strict_promotes_warnings(tmp_path):
    src = tmp_path / "core"
    src.mkdir()
    (src / "a.py").write_text("def f():\n    return 1  # repro: noqa[DET101]\n")
    assert main([str(tmp_path)]) == 0
    assert main([str(tmp_path), "--strict"]) == 1


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("DET101", "CNC201", "NUM301", "OBS401", "PCK501", "TYP601"):
        assert rid in out


def test_unknown_rule_id_raises_analysis_error(lint_tree):
    with pytest.raises(AnalysisError, match="unknown rule id 'NOPE'"):
        lint_tree({"core/a.py": _BAD_DET101}, select=["NOPE"])
    with pytest.raises(AnalysisError, match="unknown rule id 'DET10X'"):
        lint_tree({"core/a.py": _BAD_DET101}, ignore=["DET10X"])
    # Prefixes that match at least one registered rule stay valid.
    lint_tree({"core/a.py": _BAD_DET101}, select=["DET", "SUP001"])


def test_unknown_rule_id_exits_2_via_cli(tmp_path):
    """The exact CI invocation: a --select typo must fail usage-style."""
    import subprocess
    import sys
    from pathlib import Path

    (tmp_path / "a.py").write_text("x = 1\n")
    repo_root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path), "--select", "NOPE"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert "NOPE" in proc.stderr
    assert "unknown rule id" in proc.stderr


def test_sup001_multi_rule_noqa_reports_only_unused_ids(lint_tree):
    result = lint_tree(
        {
            "core/a.py": """\
    import random
    import time

    def draw():
        return random.random() + time.time()  # repro: noqa[DET101,DET102,CNC201] -- fixture
    """
        }
    )
    # DET101/DET102 both fire and are suppressed; CNC201 never fires here.
    assert rule_ids(result) == [UNUSED_SUPPRESSION_ID]
    msg = result.violations[0].message
    assert "CNC201" in msg
    assert "DET101" not in msg and "DET102" not in msg


def test_noqa_works_inside_decorated_and_nested_functions(lint_tree):
    result = lint_tree(
        {
            "core/a.py": """\
    import functools
    import random

    @functools.lru_cache(maxsize=None)
    def cached_draw():
        return random.random()  # repro: noqa[DET101] -- fixture

    def outer():
        def inner():
            return random.random()  # repro: noqa[DET101] -- fixture

        return inner
    """
        },
        select=["DET101"],
    )
    assert result.violations == []
    strict = lint_tree(
        {
            "core/b.py": """\
    import functools
    import random

    @functools.lru_cache(maxsize=None)
    def cached_draw():
        return random.random()
    """
        },
        select=["DET101"],
    )
    assert rule_ids(strict) == ["DET101"]

