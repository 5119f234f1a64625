"""CLI tests (``repro-2pc`` / ``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1(capsys):
    code, out, __ = run_cli(capsys, "table", "1")
    assert code == 0
    assert "Read Only" in out and "Group Commit" in out


def test_table2_all_rows_ok(capsys):
    code, out, __ = run_cli(capsys, "table", "2")
    assert code == 0
    assert "MISMATCH" not in out
    assert "Basic 2PC" in out and "PC, Commit case" in out


def test_table3_default_and_custom_params(capsys):
    code, out, __ = run_cli(capsys, "table", "3")
    assert code == 0 and "n=11, m=4" in out
    code, out, __ = run_cli(capsys, "table", "3", "--n", "5", "--m", "2")
    assert code == 0 and "n=5, m=2" in out
    assert "MISMATCH" not in out


def test_table4(capsys):
    code, out, __ = run_cli(capsys, "table", "4", "--r", "6")
    assert code == 0
    assert "r=6" in out and "MISMATCH" not in out


@pytest.mark.parametrize("number", ["1", "3", "6", "7"])
def test_figures_render(capsys, number):
    code, out, __ = run_cli(capsys, "figure", number)
    assert code == 0
    assert f"Figure {number}" in out


def test_figure5_prints_commentary(capsys):
    code, out, __ = run_cli(capsys, "figure", "5")
    assert code == 0
    assert "different outcomes" in out


def test_compare_all_cells(capsys):
    code, out, __ = run_cli(capsys, "compare")
    assert code == 0
    assert "every cell reproduces the paper" in out


def test_profile_runs(capsys):
    code, out, __ = run_cli(capsys, "profile", "banking-reconciliation")
    assert code == 0
    assert "commit" in out


def test_profile_unknown(capsys):
    code, __, err = run_cli(capsys, "profile", "nope")
    assert code == 2
    assert "unknown profile" in err


def test_list_profiles(capsys):
    code, out, __ = run_cli(capsys, "list-profiles")
    assert code == 0
    assert "travel-booking" in out


def test_top_once_over_journal(capsys, tmp_path):
    journal = tmp_path / "basic.jsonl"
    code, out, __ = run_cli(capsys, "journal", "basic", "--out",
                            str(journal), "--txns", "3")
    assert code == 0 and journal.exists()
    code, out, __ = run_cli(capsys, "top", "--once", "--journal",
                            str(journal))
    assert code == 0
    assert "repro-2pc top · journal" in out
    assert "commit" in out
    assert "watchdog findings (0)" in out


def test_top_requires_exactly_one_source(capsys, tmp_path):
    code, __, err = run_cli(capsys, "top", "--once")
    assert code == 2 and "exactly one" in err
    code, __, err = run_cli(capsys, "top", "--once", "--connect",
                            "h:1", "--journal", str(tmp_path / "x"))
    assert code == 2 and "exactly one" in err


def test_top_bad_inputs(capsys, tmp_path):
    code, __, err = run_cli(capsys, "top", "--once", "--journal",
                            str(tmp_path / "missing.jsonl"))
    assert code == 2 and "cannot load journal" in err
    code, __, err = run_cli(capsys, "top", "--once", "--connect",
                            "no-port-here")
    assert code == 2 and "expected HOST:PORT" in err


def test_parser_rejects_bad_table():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table", "9"])


def test_live_torture_takes_the_campaign_options_only():
    args = build_parser().parse_args(
        ["live-torture", "--configs", "PA", "PC", "--seed", "3", "--json"])
    assert (args.configs, args.seed, args.json) == (["PA", "PC"], 3, True)
    for retired in ("--protocols", "--sites", "--txns", "--outage"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["live-torture", retired, "1"])


def test_module_entry_point():
    import repro.__main__  # noqa: F401  (import side-effect free)
