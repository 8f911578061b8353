import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from g2cert import cli, suite, weyl
from g2cert.cli import main


DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_check_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "cayley", "--samples", "5")
    assert code == 0
    assert "[PASS ] cayley" in out
    assert "norm_signature" in out


def test_verify_check_pulls_dependencies(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "recognition", "--samples", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["id"] for c in doc["checks"]] == ["decomposition", "recognition"]
    assert doc["summary"] == {"total": 2, "passed": 2, "failed": 0, "errored": 0}


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "bogus")
    assert code == 2
    assert "valid ids" in err
    assert "cayley" in err


def test_unknown_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--all", "--frobnicate")
    assert code == 2
    assert "usage" in err


def test_missing_selector_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_invalid_seed_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "cayley", "--seed", "-3")
    assert code == 2
    assert "invalid configuration" in err


def test_verify_out_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--check", "cayley", "--samples", "3",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["checks"][0]["id"] == "cayley"
    assert doc["checks"][0]["status"] == "pass"


def test_dims_g2(capsys):
    code, out, _ = run_cli(capsys, "dims", "--type", "G2", "--max-coeff", "2")
    assert code == 0
    assert "1,0 -> 7" in out
    assert "0,1 -> 14" in out


def test_dims_json(capsys):
    code, out, _ = run_cli(
        capsys, "dims", "--type", "B3", "--max-coeff", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "B3"
    assert doc["monotone"] is True
    assert {"weight": [0, 0, 0], "dim": 1} in doc["dims"]


def test_dims_bad_type_exits_2(capsys):
    code, _, err = run_cli(capsys, "dims", "--type", "Z9", "--max-coeff", "1")
    assert code == 2


@pytest.mark.parametrize("label", ["", " "])
def test_dims_blank_type_exits_2(capsys, label):
    code, _, err = run_cli(capsys, "dims", "--type", label, "--max-coeff", "2")
    assert code == 2 and "empty Cartan type label" in err


def test_over_cap_inputs_exit_2_before_any_work(capsys, monkeypatch):
    """dims --type E8 --max-coeff 10 would enumerate 11^8 (about 2e8)
    weights; it, an over-cap sample count and the census bound, which is a
    constant and no option, are rejected up front."""

    def never(*_args, **_kwargs):
        raise AssertionError("over-cap input reached the exponential work")

    monkeypatch.setattr(weyl, "weyl_dimension", never)
    monkeypatch.setattr(cli, "run_all", never)
    code, _, err = run_cli(capsys, "dims", "--type", "E8", "--max-coeff", "10")
    assert code == 2 and "cap" in err
    code, _, err = run_cli(capsys, "verify", "--all", "--samples", str(suite.MAX_SAMPLES + 1))
    assert code == 2 and "samples" in err
    code, _, err = run_cli(capsys, "verify", "--all", "--census-bound", "5")
    assert code == 2 and "unrecognized arguments: --census-bound 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--type", "A17", "--max-coeff", "1"),
        ("dims", "--type", "D100", "--max-coeff", "1"),
        ("census", "--dim", "289"),
        ("census", "--dim", "0"),
    ],
)
def test_over_cap_rank_exits_2_before_any_cartan_matrix(capsys, monkeypatch, argv):
    """A rank over weyl.MAX_RANK, or a census target outside 1 to
    weyl.MAX_CENSUS_DIM, is rejected before a Cartan matrix or a root system
    is built."""

    def never(*_args, **_kwargs):
        raise AssertionError("over-cap input reached the root system construction")

    monkeypatch.setattr(weyl, "_cartan_matrix", never)
    monkeypatch.setattr(weyl, "root_system", never)
    assert (weyl.MAX_RANK, weyl.MAX_CENSUS_DIM) == (16, 288)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and ("cap of 288" if argv[0] == "census" else "cap of 16") in err


def test_rank_at_cap_is_accepted():
    assert weyl.root_system(weyl.cartan_type("A16")).algebra_dimension == 16 * 18
    assert weyl.simple_algebra_census(288) == ["A16"]


@pytest.mark.parametrize(
    "argv", [("census", "--dim", "21", "--max-rank", "8"), ("dims", "--type", "B", "--rank", "3", "--max-coeff", "1")]
)
def test_removed_rank_flags_are_unrecognized(capsys, argv):
    """The census bounds its own ranks and a label names its rank, so neither
    --max-rank nor --rank is an option."""
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "unrecognized arguments" in err


def test_census_dim21(capsys):
    code, out, _ = run_cli(capsys, "census", "--dim", "21")
    assert code == 0
    assert out.strip() == "B3 C3"


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "--dim", "14", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dim": 14, "types": ["G2"]}


@pytest.mark.parametrize("dim, types", [("99", "A9"), ("120", "A10 D8")])
def test_census_decides_above_rank_8(capsys, dim, types):
    code, out, _ = run_cli(capsys, "census", "--dim", dim)
    assert code == 0
    assert out.strip() == types


def test_census_empty(capsys):
    code, out, _ = run_cli(capsys, "census", "--dim", "4")
    assert code == 0
    assert out.strip() == "(none)"


def test_show_mul_table(capsys):
    code, out, _ = run_cli(capsys, "show", "mul-table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 64
    assert "e1*e1 = e1" in out
    assert "e1*e2 = 0" in out


def test_show_killing_g2(capsys):
    code, out, _ = run_cli(capsys, "show", "killing", "--algebra", "g2")
    assert code == 0
    assert "signature: (8, 6, 0)" in out
    assert out == (DATA / "show_killing_g2.txt").read_text()


def test_show_killing_so34(capsys):
    code, out, _ = run_cli(capsys, "show", "killing", "--algebra", "so34")
    assert code == 0
    assert "signature: (12, 9, 0)" in out
    assert out == (DATA / "show_killing_so34.txt").read_text()


def test_show_decomposition(capsys):
    code, out, _ = run_cli(capsys, "show", "decomposition")
    assert code == 0
    assert "dimension 21" in out
    assert "dimension 14" in out
    assert "dimension 7" in out
    assert out == (DATA / "show_decomposition.txt").read_text()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def _without_timing(doc: dict) -> dict:
    for check in doc["checks"]:
        check["elapsed_ms"] = 0
    return doc


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m g2cert`` in a fresh process, on this tree's sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "g2cert", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_matches_main(capsys):
    """The process entry point exits with main's code and prints main's report."""
    argv = ("verify", "--check", "cayley", "--format", "json")
    proc = run_module(*argv)
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert _without_timing(json.loads(proc.stdout)) == _without_timing(json.loads(out))
    proc = run_module("verify", "--check", "nope")
    assert proc.returncode == 2 and "valid ids" in proc.stderr


def test_console_script_and_module_share_one_entry_function():
    """[project.scripts] names the function that ``python -m g2cert`` calls."""
    target = re.search(r'^g2cert = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    tree = ast.parse((ROOT / "src" / "g2cert" / "__main__.py").read_text())
    imported = {alias.asname or alias.name: f"g2cert.{node.module}" for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = [node.value.func.id for node in tree.body if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert target and called == [target[2]] and imported[target[2]] == target[1]
    assert getattr(cli, target[2]) is cli.run
