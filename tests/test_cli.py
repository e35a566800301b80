"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from mubqkd import cli
from mubqkd.bases import load_bases
from mubqkd.counts import load_counts
from mubqkd.errors import NumericError


def run_cli(*argv):
    return cli.cli_dispatch(list(argv))


def test_gen_bases_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "bases.txt"
    assert run_cli("gen-bases", "--dim", "3", "--out", str(out)) == 0
    mubs = load_bases(out)
    assert mubs.dim == 3
    assert "dimension 3" in capsys.readouterr().out


def test_gen_bases_rejects_unsupported_dimension(tmp_path):
    out = tmp_path / "bases.txt"
    assert run_cli("gen-bases", "--dim", "6", "--out", str(out)) == 1
    assert not out.exists()


def test_keyrate_point_output(capsys):
    assert run_cli("keyrate", "--dim", "3", "--qber", "0.04") == 0
    out = capsys.readouterr().out
    assert "r_min = 1.1246" in out
    assert "Q_max = 0.1914" in out


def test_keyrate_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("keyrate", "--dim", "2", "--sweep", "0:0.1:0.02",
                   "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,qber,key_rate"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "2" and float(first[2]) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "sweep, rows",
    [("0:0.3:0.001", 301), ("0:0.12:0.005", 25), ("0.1:0.1:0.5", 1)],
)
def test_keyrate_sweep_row_count(tmp_path, sweep, rows):
    out = tmp_path / "sweep.csv"
    assert run_cli("keyrate", "--dim", "2", "--sweep", sweep, "--out", str(out)) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == rows
    lo, _, step = (float(p) for p in sweep.split(":"))
    want = [f"{round(lo + i * step, 9):.10g}" for i in range(rows)]
    assert [line.split(",")[1] for line in lines] == want


def test_keyrate_sweep_past_ceiling_is_rejected_up_front(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("keyrate", "--dim", "2", "--sweep", "0:0.7:0.1",
                   "--out", str(out)) == 1
    assert not out.exists()
    assert "0.666667" in capsys.readouterr().err
    assert run_cli("keyrate", "--dim", "3", "--sweep", "0:0.75:0.05") == 1


def test_keyrate_requires_exactly_one_mode():
    assert run_cli("keyrate", "--dim", "2") == 1
    assert run_cli("keyrate", "--dim", "2", "--qber", "0.01",
                   "--sweep", "0:0.1:0.01") == 1


def test_keyrate_rejects_bad_sweep():
    assert run_cli("keyrate", "--dim", "2", "--sweep", "0:0.1") == 1
    assert run_cli("keyrate", "--dim", "2", "--sweep", "0.1:0:0.01") == 1
    assert run_cli("keyrate", "--dim", "2", "--sweep", "a:b:c") == 1


def test_keyrate_out_of_domain_is_validation_error():
    assert run_cli("keyrate", "--dim", "2", "--qber", "0.9") == 1


def test_simulate_requires_options(tmp_path):
    assert run_cli("simulate", "--mode", "eb", "--dim", "2") == 1


def test_simulate_rejects_visibility_and_target(tmp_path):
    out = tmp_path / "c.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "100",
        "--seed", "1", "--visibility", "0.9", "--target-qber", "0.05",
        "--out", str(out),
    )
    assert code == 1


def test_simulate_writes_counts(tmp_path):
    out = tmp_path / "c.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "50000",
        "--seed", "3", "--visibility", "0.9", "--out", str(out),
    )
    assert code == 0
    counts = load_counts(out)
    assert counts.dim == 2
    assert counts.metadata.get("source") == str(out)


def test_simulate_target_qber_reaches_requested_error(tmp_path):
    out = tmp_path / "c.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "800000",
        "--seed", "3", "--target-qber", "0.1", "--bias", "0.667",
        "--out", str(out),
    )
    assert code == 0
    from mubqkd.security import empirical_qber

    _, avg = empirical_qber(load_counts(out))
    assert abs(avg - 0.1) < 0.04


def test_simulate_deterministic_across_workers(tmp_path):
    args = [
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "200000",
        "--seed", "11", "--visibility", "0.95",
    ]
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    assert run_cli(*args, "--workers", "1", "--out", str(out1)) == 0
    assert run_cli(*args, "--workers", "8", "--out", str(out8)) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_simulate_exact_pm_and_analyze(tmp_path, capsys):
    out = tmp_path / "pm.csv"
    code = run_cli(
        "simulate", "--mode", "pm", "--dim", "3", "--rounds", "90000",
        "--seed", "0", "--exact", "--out", str(out),
    )
    assert code == 0
    capsys.readouterr()  # drop the simulate status line
    report = tmp_path / "report.txt"
    csv_out = tmp_path / "report.csv"
    code = run_cli(
        "analyze", "--counts", str(out),
        "--out-report", str(report), "--out-csv", str(csv_out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "average error rate   0.000000" in text
    assert report.read_text() == text
    assert csv_out.read_text().startswith("d,Q,Q_max,r_min,I_AB,holevo_gap")


def test_simulate_exact_rejected_for_eb(tmp_path):
    out = tmp_path / "c.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "100",
        "--seed", "1", "--exact", "--out", str(out),
    )
    assert code == 1


def test_simulate_log_file(tmp_path):
    out = tmp_path / "c.csv"
    log = tmp_path / "rounds.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "30000",
        "--seed", "2", "--out", str(out), "--log", str(log),
    )
    assert code == 0
    lines = log.read_text().strip().split("\n")
    assert lines[0].startswith("round,basis_a")
    assert len(lines) > 1


def _oracle_log(log):
    """The per-row f-string log writer the vectorised one must match."""
    rows = ["round,basis_a,elem_a,basis_b,elem_b,click_a,click_b,coincidence"]
    for entry in log:
        rows.append(
            f"{entry['round']},{entry['basis_a']},{entry['elem_a']},"
            f"{entry['basis_b']},{entry['elem_b']},{int(entry['click_a'])},"
            f"{int(entry['click_b'])},{int(entry['coincidence'])}"
        )
    return ("\n".join(rows) + "\n").encode("ascii")


def _simulate_capturing_session(monkeypatch, *argv):
    sessions = []

    def capture(run):
        def wrapped(*args, **kwargs):
            sessions.append(run(*args, **kwargs))
            return sessions[-1]
        return wrapped

    monkeypatch.setattr(cli, "run_eb_session", capture(cli.run_eb_session))
    monkeypatch.setattr(cli, "run_pm_session", capture(cli.run_pm_session))
    assert run_cli("simulate", *argv) == 0
    return sessions[0]


# 100_001 rounds cross both the 65535/65536 chunk edge and the
# 99999/100000 digit-width change; 12_000 rounds cross 9999/10000.
@pytest.mark.parametrize(
    "mode, dim, rounds",
    [("eb", 2, 100_001), ("eb", 7, 12_000), ("pm", 2, 12_000), ("pm", 7, 12_000)],
)
def test_log_file_matches_row_oracle(tmp_path, monkeypatch, mode, dim, rounds):
    log = tmp_path / "rounds.csv"
    session = _simulate_capturing_session(
        monkeypatch, "--mode", mode, "--dim", str(dim), "--rounds", str(rounds),
        "--seed", "31", "--visibility", "0.9", "--out", str(tmp_path / "c.csv"),
        "--log", str(log),
    )
    assert len(session.log) == rounds
    assert session.log["coincidence"].any()
    assert log.read_bytes() == _oracle_log(session.log)


def test_exact_pm_log_is_header_only(tmp_path):
    log = tmp_path / "rounds.csv"
    code = run_cli(
        "simulate", "--mode", "pm", "--dim", "3", "--rounds", "500",
        "--seed", "0", "--exact", "--out", str(tmp_path / "c.csv"), "--log", str(log),
    )
    assert code == 0
    assert log.read_bytes() == (
        b"round,basis_a,elem_a,basis_b,elem_b,click_a,click_b,coincidence\n"
    )


def test_efficiency_subcommand(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "500000",
        "--seed", "6", "--visibility", "1.0", "--bias", "0.667",
        "--out", str(out),
    )
    assert code == 0
    capsys.readouterr()
    table_path = tmp_path / "eta.txt"
    code = run_cli("efficiency", "--counts", str(out), "--out", str(table_path))
    if code == 0:
        text = capsys.readouterr().out
        assert "eta_a=" in text
        assert table_path.exists()
    else:
        # Ideal detectors can fluctuate above the physical ceiling; the
        # command must then fail as a validation error, not crash.
        assert code == 1


def test_config_file_supplies_defaults(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dim = 3\nqber = 0.04\n")
    assert run_cli("keyrate", "--config", str(conf)) == 0
    assert "r_min = 1.1246" in capsys.readouterr().out


def test_cli_flags_override_config(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dim = 3\nqber = 0.04\n")
    assert run_cli("keyrate", "--config", str(conf), "--qber", "0.0") == 0
    assert "r_min = 1.5850" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("dim = 3\nqber = 0.04\nbogus = 1\n")
    assert run_cli("keyrate", "--config", str(conf)) == 1


def test_config_rejects_malformed_lines(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("dim 3\n")
    assert run_cli("keyrate", "--config", str(conf)) == 1


def test_analyze_missing_file_is_validation_error(tmp_path):
    assert run_cli("analyze", "--counts", str(tmp_path / "nope.csv")) == 1


def test_unknown_subcommand_exits_one():
    assert run_cli("frobnicate") == 1


def test_no_subcommand_prints_help(capsys):
    assert run_cli() == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_numeric_failures_exit_two(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise NumericError("no root bracket")

    monkeypatch.setattr(cli, "q_max", boom)
    assert run_cli("keyrate", "--dim", "2", "--qber", "0.01") == 2
