"""Command-line interface: exit codes, flags, output formats."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pma
from pma.cli import main

PAPER_DATA = {
    "universe": ["a", "b", "c", "d", "e"],
    "parties": [["a", "b", "c", "d", "e"], ["b", "c", "d"]],
}


@pytest.fixture
def datasets_file(tmp_path):
    path = tmp_path / "datasets.json"
    path.write_text(json.dumps(PAPER_DATA))
    return str(path)


def test_run_basic(capsys):
    code = main(["run", "--variant", "pma1", "--m", "2", "--e", "3",
                 "--t", "1", "--theta", "2", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "variant=pma1" in out
    assert "cost:" in out


def test_run_json_schema(capsys):
    code = main(["run", "--variant", "spma2", "--m", "3", "--e", "2",
                 "--t", "1", "--theta", "1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "pma-run/1"
    assert report["cost"]["download_symbols"] == 3


def test_run_csv(capsys):
    code = main(["run", "--variant", "pma1", "--m", "2", "--e", "2",
                 "--t", "1", "--csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2  # theta sweep
    assert all(r["match"] == "True" for r in rows)


def test_run_with_datasets_and_element(capsys, datasets_file):
    code = main(["run", "--variant", "pma1", "--t", "1",
                 "--datasets", datasets_file, "--element", "c", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (entry,) = report["results"]
    assert entry["element"] == "c"
    assert entry["count"] == 2


def test_run_element_without_datasets_is_parameter_error(capsys):
    assert main(["run", "--variant", "pma1", "--m", "2", "--e", "2",
                 "--element", "a"]) == 2


def test_run_unknown_element(capsys, datasets_file):
    assert main(["run", "--variant", "pma1", "--t", "1",
                 "--datasets", datasets_file, "--element", "zz"]) == 2


def test_run_invalid_params_exit_2(capsys):
    code = main(["run", "--variant", "pma1", "--m", "2", "--e", "2",
                 "--t", "1", "--n", "1"])
    assert code == 2
    assert "parameter error" in capsys.readouterr().err


def test_run_large_prime_field(capsys):
    code = main(["run", "--variant", "pma1", "--m", "2", "--e", "3", "--t", "1",
                 "--theta", "1", "--p", str(2 ** 61 - 1), "--json"])
    assert code == 0
    (entry,) = json.loads(capsys.readouterr().out)["results"]
    assert entry["count"] == entry["oracle_count"]


@pytest.mark.parametrize("flag,value,message", [
    ("--y", "x", "expected ints, got 'x'"),
    ("--y", ",", "expected ints, got ','"),
    ("--gen-prob", "0.5,x", "expected probabilities, got '0.5,x'"),
])
def test_run_bad_number_list_exit_2(capsys, flag, value, message):
    assert main(["run", "--variant", "pma1", "--m", "2", "--e", "2",
                 "--t", "1", flag, value]) == 2
    assert message in capsys.readouterr().err


def test_run_config_file_with_overrides(tmp_path, capsys):
    config = {"variant": "pma1", "m": 2, "e": 3, "t": 1, "seed": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--theta", "3", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["theta"] for r in report["results"]] == [3]


@pytest.mark.parametrize("flag", ["--config", "--datasets"])
@pytest.mark.parametrize("content,reason", [
    (None, "No such file or directory"),
    ('{"variant": "pma1",', "is not valid JSON"),
], ids=["missing", "malformed"])
def test_run_unreadable_input_file_exit_2(tmp_path, capsys, flag, content, reason):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    code = main(["run", "--variant", "pma1", "--t", "1", flag, str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and reason in err


@pytest.mark.parametrize("gen_probs,named", [
    ("0.5", "'0.5'"), (None, "None"), (["a", "b", "c"], "'a'"), ([0.5, None, 0.5], "None"),
], ids=["string", "null", "letters", "null-entry"])
def test_run_config_bad_membership_probabilities_exit_2(tmp_path, capsys, gen_probs, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"variant": "pma1", "m": 2, "e": 3, "t": 1,
                                "gen_probs": gen_probs}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "membership probabilit" in err and named in err


@pytest.mark.parametrize("config,key", [
    ({"variant": "pma1", "m": "3", "e": 3, "t": 1}, "m"),
    ({"variant": "pma1", "m": 2, "e": 3, "t": 1, "y": 1.5}, "y"),
    ({"variant": "spma2", "m": 2, "e": 3, "y": "00"}, "y"),
    ({"variant": "pma1", "m": 2, "e": 3, "t": 1, "y": "1"}, "y"),
    ({"variant": "spma2", "m": 3, "e": 3, "t": 1, "y": [1.7, 0, 0]}, "y"),
], ids=["string-m", "float-y", "string-y-type2", "string-y-type1", "float-in-y-list"])
def test_run_config_wrong_value_types_exit_2(tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"parameter error: {key} must be" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key,value", [
    ("variant", ["pma1"]), ("theta", True), ("seed", True), ("seed", False),
    ("gen_probs", False),
], ids=["list-variant", "bool-theta", "true-seed", "false-seed", "bool-gen-probs"])
def test_run_config_bools_and_list_variant_exit_2(tmp_path, capsys, key, value):
    # JSON true and false are Python bools, which are ints to isinstance
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"variant": "pma1", "m": 2, "e": 3, "t": 1, key: value}))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert key in captured.err and repr(value) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--config", "--datasets"])
@pytest.mark.parametrize("element", [["x"], {"x": 1}], ids=["list", "object"])
def test_run_non_string_party_element_exit_2(tmp_path, capsys, flag, element):
    datasets = {"universe": ["a"], "parties": [["a"], [element]]}
    path = tmp_path / "input.json"
    if flag == "--config":
        path.write_text(json.dumps({"variant": "pma1", "datasets": datasets}))
        args = ["run", "--config", str(path)]
    else:
        path.write_text(json.dumps(datasets))
        args = ["run", "--variant", "pma1", "--datasets", str(path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"party element {element!r} is not a string" in captured.err
    assert captured.out == ""


def test_run_p_past_the_sampler_range_exit_2(capsys):
    assert main(["run", "--variant", "pma1", "--m", "2", "--e", "3", "--t", "1",
                 "--theta", "1", "--p", "18446744073709551629"]) == 2
    assert "field modulus p must be below 2^64" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "--variant", "pma1", "--m", "2", "--e", "2", "--t", "1"],
    ["costs", "--variant", "pma1", "--sweep-m", "2..3", "--t", "1"],
], ids=["run", "costs"])
def test_json_and_csv_flags_conflict_exit_2(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--json", "--csv"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument --json" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("exp_k", ["0", "-2"])
def test_costs_exp_k_below_one_exit_2(capsys, exp_k):
    assert main(["costs", "--variant", "pma1", "--sweep-m", "2..3", "--t", "1",
                 "--exp-k", exp_k]) == 2
    captured = capsys.readouterr()
    assert "K must be at least 1" in captured.err
    assert captured.out == ""


def test_costs_exp_k_above_largest_m_exit_2(capsys):
    # K-PSI asks for K of the M parties, so K is at most the largest M
    assert main(["costs", "--variant", "pma1", "--sweep-m", "9..10", "--t", "1",
                 "--exp-k", "5000"]) == 2
    captured = capsys.readouterr()
    assert "at most the largest party count 10, got 5000" in captured.err
    assert captured.out == ""


def test_run_type2_y_list(capsys):
    code = main(["run", "--variant", "spma2", "--m", "3", "--e", "2",
                 "--t", "1", "--y", "0,0,0", "--theta", "1"])
    assert code == 0


def test_audit_named_case(capsys):
    code = main(["audit", "--suite", "storage-security:spma2", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_ok"] is True
    assert len(report["cases"]) == 1


def test_audit_text_prints_ms_per_case(capsys):
    assert main(["audit", "--suite", "lemma5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # four lemma5 cases and the summary
    assert all(line.endswith(" ms") for line in lines[:-1])


def test_audit_empty_suite_exit_2(capsys):
    # an audit run that selects nothing could not fail, so it is refused
    for suite in ("", ",", " , "):
        assert main(["audit", "--suite", suite]) == 2
        assert "selects no audit" in capsys.readouterr().err
    assert main(["audit", "--suite", "none"]) == 2
    assert "unknown audit selector 'none'" in capsys.readouterr().err


def test_audit_infeasible_cap_exit_3(capsys):
    assert main(["audit", "--suite", "lemma5", "--cap", "1"]) == 3


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_audit_nonpositive_cap_exit_2(cap, capsys):
    assert main(["audit", "--suite", "lemma5", "--cap", cap]) == 2
    assert "cap must be at least 1" in capsys.readouterr().err


def test_audit_unknown_selector_exit_2(capsys):
    assert main(["audit", "--suite", "lemma99"]) == 2


def test_costs_table(capsys):
    code = main(["costs", "--variant", "pma1", "--sweep-m", "2..4",
                 "--t", "1", "--e", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "linear in M: True" in out


def test_costs_csv(capsys):
    code = main(["costs", "--variant", "spma1", "--sweep-m", "2,3",
                 "--t", "1", "--e", "2", "--csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["download"] for r in rows] == ["4", "6"]


def test_costs_bad_sweep_exit_2(capsys):
    assert main(["costs", "--variant", "pma1", "--sweep-m", "a..b"]) == 2


def test_costs_empty_sweep_exit_2(capsys):
    assert main(["costs", "--variant", "pma1", "--sweep-m", "5..2", "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert "at least one party count" in captured.err
    assert captured.out == ""


def test_costs_type2_y_list_covers_every_party_count(capsys):
    code = main(["costs", "--variant", "spma2", "--sweep-m", "3..4", "--t", "1",
                 "--y", "0,0,0,0", "--json"])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    assert [r["m"] for r in table["rows"]] == [3, 4]
    assert table["y"] == [0, 0, 0, 0]


def test_costs_type2_y_list_shorter_than_largest_m_exit_2(capsys):
    code = main(["costs", "--variant", "spma2", "--sweep-m", "3..4", "--t", "1",
                 "--y", "0,0,0"])
    assert code == 2
    assert "needs 4 entries" in capsys.readouterr().err


def test_costs_zero_universe_exit_2(capsys):
    """An explicit --e 0 reaches the parameter check instead of a default."""
    assert main(["costs", "--variant", "pma1", "--sweep-m", "2..3", "--e", "0"]) == 2
    captured = capsys.readouterr()
    assert "universe size E must be at least 1" in captured.err
    assert captured.out == ""


def test_costs_wrong_count_exit_3(monkeypatch, capsys):
    original = pma.pma1.decode
    monkeypatch.setattr(pma.pma1, "decode", lambda answers, params: (
        original(answers, params) + 1) % (params.m + 1))
    assert main(["costs", "--variant", "pma1", "--sweep-m", "2..4", "--t", "1"]) == 3
    assert "!= oracle" in capsys.readouterr().err


@pytest.mark.parametrize("args,code", [
    (["run", "--variant", "spma1", "--m", "2", "--e", "3", "--t", "1",
      "--theta", "2"], 0),
    (["run", "--variant", "pma1", "--m", "1", "--e", "3"], 2),
], ids=("run", "bad-parameter"))
def test_python_m_pma_exit_codes(args, code):
    src = str(Path(pma.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pma", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert "variant=spma1" in proc.stdout
    else:
        assert "party count M must be at least 2" in proc.stderr


@pytest.mark.parametrize("module", ["pma", "pma.cli"])
def test_module_entry_points_run_without_warnings(module):
    src = str(Path(pma.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", module, "audit", "--suite",
         "storage-security:spma2-min"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "storage-security:spma2-min" in proc.stdout


def test_audit_suite_all_writes_nothing_to_stderr():
    # the suite's zero-noise parameter sets are deliberate, so their
    # clear-query warning is not shown
    src = str(Path(pma.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pma", "audit", "--suite", "all"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "control:unprotected-query" in proc.stdout


def test_import_pma_does_not_load_the_cli():
    src = str(Path(pma.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import pma; "
         "print('pma.cli' in sys.modules, 'argparse' in sys.modules)", src],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
