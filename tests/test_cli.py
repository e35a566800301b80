"""End-to-end tests of the command-line interface."""

import contextlib
import io
import os
import re
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubqkd import ProtocolConfig, cli, mub_set, run_eb_session, run_pm_session
from mubqkd.bases import load_bases
from mubqkd.counts import CSV_HEADER, load_counts
from mubqkd.errors import NumericError
from mubqkd.photonics import EfficiencyTable, save_efficiency_table
from mubqkd.protocol import CHUNK_ROUNDS


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


def test_keyrate_rejects_bad_sweep(capsys):
    assert run_cli("keyrate", "--dim", "2", "--sweep", "0:0.1") == 1
    assert run_cli("keyrate", "--dim", "2", "--sweep", "0.1:0:0.01") == 1
    assert run_cli("keyrate", "--dim", "2", "--sweep", "a:b:c") == 1
    capsys.readouterr()
    assert run_cli("keyrate", "--dim", "2", "--sweep", "0:nan:0.01") == 1
    assert capsys.readouterr().err == "error: bad sweep range '0:nan:0.01'\n"


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


@pytest.mark.parametrize("dim, flip", [("2", "0.9"), ("3", "0.8")])
def test_analyze_refuses_error_rate_above_ceiling(tmp_path, capsys, dim, flip):
    # Q >= d/(d+1) has no key rate: exit 1, one error line, no output files.
    counts = tmp_path / "c.csv"
    assert run_cli(
        "simulate", "--mode", "pm", "--dim", dim, "--rounds", "9000", "--seed", "0",
        "--exact", "--flip-prob", flip, "--out", str(counts),
    ) == 0
    capsys.readouterr()
    report, csv_out = tmp_path / "report.txt", tmp_path / "report.csv"
    assert run_cli(
        "analyze", "--counts", str(counts),
        "--out-report", str(report), "--out-csv", str(csv_out),
    ) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]


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
    """Run simulate, then the same config through the library with a full log."""
    configs = []

    def capture(**kwargs):
        configs.append(ProtocolConfig(**kwargs))
        return configs[-1]

    monkeypatch.setattr(cli, "ProtocolConfig", capture)
    assert run_cli("simulate", *argv) == 0
    cfg = configs[0]
    run = run_eb_session if cfg.mode == "eb" else run_pm_session
    return run(cfg, mub_set(cfg.dim), keep_full_log=True)


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


@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_log_bytes_do_not_change_with_workers(tmp_path, mode):
    rounds = 3 * CHUNK_ROUNDS + 17
    logs = []
    for workers in (1, 2, 3):
        log = tmp_path / f"rounds{workers}.csv"
        code = run_cli(
            "simulate", "--mode", mode, "--dim", "3", "--rounds", str(rounds),
            "--seed", "12", "--workers", str(workers),
            "--out", str(tmp_path / f"c{workers}.csv"), "--log", str(log),
        )
        assert code == 0
        logs.append(log.read_bytes())
    assert logs[0].count(b"\n") == rounds + 1
    assert logs[1] == logs[0] and logs[2] == logs[0]


def test_failed_counts_write_leaves_no_log(tmp_path):
    log = tmp_path / "rounds.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "1000", "--seed", "1",
        "--out", str(tmp_path / "missing" / "c.csv"), "--log", str(log),
    )
    assert code == 1
    assert list(tmp_path.iterdir()) == []


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


def test_efficiency_subcommand_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(11)
    truth = EfficiencyTable(
        dim=2, eta_a=rng.uniform(0.25, 0.45, (3, 2)), eta_b=rng.uniform(0.25, 0.45, (3, 2))
    )
    eta_file, counts_file = tmp_path / "eta.txt", tmp_path / "c.csv"
    save_efficiency_table(truth, eta_file)
    assert run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "1000000", "--seed", "5",
        "--visibility", "0.95", "--alpha-sq", "0.18", "--bias", "0.34,0.33,0.33",
        "--eta-file", str(eta_file),
        "--out", str(counts_file),
    ) == 0
    capsys.readouterr()
    est_file = tmp_path / "est.txt"
    assert run_cli("efficiency", "--counts", str(counts_file), "--out", str(est_file)) == 0
    lines = capsys.readouterr().out.splitlines()

    # eta_a = 2 C / S_B and eta_b = 2 C / S_A at each setting's own cell.
    counts = load_counts(counts_file)
    eta_a, eta_b = np.empty((3, 2)), np.empty((3, 2))
    for b, e in np.ndindex(3, 2):
        cell = (b, e, b, e)
        eta_a[b, e] = 2.0 * counts.coincidences[cell] / counts.singles_b[cell]
        eta_b[b, e] = 2.0 * counts.coincidences[cell] / counts.singles_a[cell]
    table = EfficiencyTable(dim=2, eta_a=eta_a, eta_b=eta_b)
    want_file = tmp_path / "want.txt"
    save_efficiency_table(table, want_file)
    assert est_file.read_text() == want_file.read_text()
    rows = [line for line in lines if line.startswith("vector ")]
    assert rows == [
        f"vector {b * 2 + e + 1}: eta_a={table.eta_a[b, e]:.5f} eta_b={table.eta_b[b, e]:.5f}"
        for b in range(3)
        for e in range(2)
    ]
    assert len(lines) == 1 + len(rows) + 2


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_worker_count_below_one(tmp_path, capsys, workers):
    out = tmp_path / "c.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "1000",
        "--seed", "1", "--workers", workers, "--out", str(out),
        "--log", str(tmp_path / "rounds.csv"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "worker" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_exact_rejects_worker_count_below_one(tmp_path, capsys, workers):
    code = run_cli(
        "simulate", "--mode", "pm", "--dim", "3", "--rounds", "1000",
        "--seed", "1", "--exact", "--workers", workers,
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "worker" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["eb", "pm"])
def test_simulate_negative_rounds_names_the_round_count(tmp_path, capsys, mode):
    out = tmp_path / "c.csv"
    code = run_cli(
        "simulate", "--mode", mode, "--dim", "3", "--rounds", "-5",
        "--seed", "1", "--out", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: round count must be positive, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_unknown_mode_is_rejected_by_the_library(tmp_path, capsys, source):
    out = tmp_path / "c.csv"
    argv = ["simulate", "--dim", "3", "--rounds", "10", "--seed", "1", "--out", str(out)]
    if source == "flag":
        argv += ["--mode", "xx"]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text("mode = xx\n")
        argv += ["--config", str(conf)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: mode must be 'eb' or 'pm', got 'xx'\n"
    assert not out.exists()


def test_keyrate_rejects_nan_error_rate(capsys):
    assert run_cli("keyrate", "--dim", "3", "--qber", "nan") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_output_files_follow_umask(tmp_path):
    out, log = tmp_path / "c.csv", tmp_path / "rounds.csv"
    old = os.umask(0o022)
    try:
        code = run_cli(
            "simulate", "--mode", "pm", "--dim", "2", "--rounds", "1000",
            "--seed", "3", "--out", str(out), "--log", str(log),
        )
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    assert stat.S_IMODE(log.stat().st_mode) == 0o644


# Every option of every subcommand, with one value as typed on the command
# line.  None marks a bare flag, which a config file spells as a boolean.
CLI_OPTIONS = {
    "gen-bases": {"dim": "3", "out": "bases.txt"},
    "simulate": {
        "mode": "pm", "dim": "3", "rounds": "1000", "seed": "7",
        "visibility": "0.9", "target_qber": "0.05", "bias": "0.2",
        "flip_prob": "0.05", "alpha_sq": "0.1", "chi": "0.5",
        "eta_file": "eta.txt", "workers": "2", "exact": None,
        "out": "c.csv", "log": "rounds.csv",
    },
    "analyze": {
        "counts": "c.csv", "dim": "3", "prob": None, "partial": None,
        "out_report": "report.txt", "out_csv": "report.csv",
    },
    "efficiency": {"counts": "c.csv", "dim": "3", "prob": None, "out": "eta.txt"},
    "keyrate": {"dim": "3", "qber": "0.04", "sweep": "0:0.1:0.02", "out": "k.csv"},
}  # fmt: skip


def _options(*argv):
    return cli._Options(cli.build_parser().parse_args(list(argv)))


@pytest.mark.parametrize(
    "command, key", [(c, k) for c, keys in CLI_OPTIONS.items() for k in keys]
)
def test_flag_and_config_key_reach_the_handler_alike(tmp_path, command, key):
    value = CLI_OPTIONS[command][key]
    flag = "--" + key.replace("_", "-")
    from_flag = _options(command, flag, *([] if value is None else [value])).get(key)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {'yes' if value is None else value}\n")
    from_config = _options(command, "--config", str(conf)).get(key)
    assert from_flag is not None
    assert from_config == from_flag
    assert type(from_config) is type(from_flag)


@pytest.mark.parametrize("command", list(CLI_OPTIONS))
def test_flags_win_over_config_for_every_subcommand(tmp_path, command):
    key = next(k for k, v in CLI_OPTIONS[command].items() if v is not None)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {CLI_OPTIONS[command][key]}\n")
    flag = "--" + key.replace("_", "-")
    opts = _options(command, "--config", str(conf), flag, "42")
    assert str(opts.get(key)) in ("42", "42.0")


@pytest.mark.parametrize(
    "text, want",
    [("true", True), ("1", True), ("yes", True), ("ON", True),
     ("false", False), ("0", False), ("no", False), ("off", False)],
)  # fmt: skip
def test_config_booleans(tmp_path, text, want):
    conf = tmp_path / "run.conf"
    conf.write_text(f"prob = {text}\n")
    assert _options("analyze", "--config", str(conf)).get("prob") is want


def test_config_rejects_a_malformed_boolean(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("counts = c.csv\nprob = maybe\n")
    assert run_cli("analyze", "--config", str(conf)) == 1


@pytest.mark.parametrize("command", list(CLI_OPTIONS))
def test_subcommand_help_lists_its_options(command, capsys):
    assert run_cli(command, "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    flags = {"--" + key.replace("_", "-") for key in CLI_OPTIONS[command]}
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == flags | {"--help", "--config"}
    if command == "simulate":
        assert "bias parameter or full comma-separated weights" in text
    if command == "keyrate":
        assert "lo:hi:step" in text


def test_simulate_exact_needs_no_seed(tmp_path):
    args = ["simulate", "--mode", "pm", "--dim", "3", "--rounds", "1000", "--exact"]
    no_seed, seeded = tmp_path / "x.csv", tmp_path / "x7.csv"
    assert run_cli(*args, "--out", str(no_seed)) == 0
    assert run_cli(*args, "--seed", "7", "--out", str(seeded)) == 0
    assert no_seed.read_bytes() == seeded.read_bytes()


def test_library_warnings_print_as_one_line(tmp_path, capsys):
    counts = tmp_path / "e.csv"
    # Bases 2 and 3 are never chosen, so they have no same-basis coincidences at any seed.
    assert run_cli(
        "simulate", "--mode", "eb", "--dim", "3", "--rounds", "250000", "--seed", "1",
        "--bias", "0.5,0.5,0,0", "--out", str(counts),
    ) == 0
    capsys.readouterr()
    assert run_cli("analyze", "--counts", str(counts)) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: bases") and err.count("\n") == 1
    assert ".py:" not in err


@pytest.mark.parametrize("command", ["analyze", "efficiency"])
def test_counts_dimension_is_bounded_before_allocating(tmp_path, capsys, command):
    counts = tmp_path / "big.csv"
    counts.write_text(",".join(CSV_HEADER) + "\n1000,999,1000,999,4,4,1\n")
    assert run_cli(command, "--counts", str(counts)) == 1
    err = capsys.readouterr().err
    assert err == "error: dimension 1000 outside the supported range 2..10\n"


@pytest.mark.parametrize("dim", ["1", "99999"])
def test_eta_file_dimension_is_bounded_before_allocating(tmp_path, capsys, dim):
    eta, out = tmp_path / "eta.txt", tmp_path / "c.csv"
    eta.write_text(f"dim {dim}\nindex eta_a eta_b\n")
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "1000", "--seed", "1",
        "--eta-file", str(eta), "--out", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: line 1: dimension {dim} outside the supported range 2..10\n"
    assert not out.exists()


def test_eta_file_duplicate_index_is_rejected(tmp_path, capsys):
    eta, out = tmp_path / "eta.txt", tmp_path / "c.csv"
    eta.write_text("dim 2\nindex eta_a eta_b\n1 0.5 0.5\n1 0.9 0.9\n")
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "1000", "--seed", "1",
        "--eta-file", str(eta), "--out", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: line 4: duplicate vector index 1\n"
    assert not out.exists()


# Valid runs of the commands that take numbers; each case below breaks one value.
_FINITE_ARGS = {
    "simulate": ["--mode", "eb", "--dim", "2", "--rounds", "1000", "--seed", "1"],
    "keyrate": ["--dim", "2"],
}
# Every float option of the option table, plus the options that carry numbers in text.
_NUMERIC_OPTIONS = [
    (command, key, "{}")
    for command, (_, _, options) in cli._COMMANDS.items()
    for key, convert in options.items()
    if convert is float
] + [
    ("simulate", "bias", "{}"),
    ("simulate", "bias", "{},0.5,0.5"),
    ("keyrate", "sweep", "{}:0.1:0.01"),
    ("keyrate", "sweep", "0:{}:0.01"),
    ("keyrate", "sweep", "0:0.1:{}"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key, template", _NUMERIC_OPTIONS)
def test_non_finite_values_fail_closed(tmp_path, capsys, command, key, template, value):
    # --flag=value: argparse would take a separate "-inf" for a flag.
    flag = f"--{key.replace('_', '-')}={template.format(value)}"
    code = run_cli(command, *_FINITE_ARGS[command], flag, "--out", str(tmp_path / "out.csv"))
    assert code == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["0.5,,0.5", "0.5,x,0.5", "x", ""])
def test_malformed_bias_names_the_option(tmp_path, capsys, text):
    out = tmp_path / "z.csv"
    code = run_cli("simulate", *_FINITE_ARGS["simulate"], f"--bias={text}", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: bad bias {text!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("text", ["1.5", "0", "-0.2"])
def test_lone_bias_out_of_range_names_the_option(tmp_path, capsys, source, text):
    out = tmp_path / "z.csv"
    argv = ["simulate", *_FINITE_ARGS["simulate"], "--out", str(out)]
    if source == "flag":
        argv.append(f"--bias={text}")
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"bias = {text}\n")
        argv += ["--config", str(conf)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad bias {text!r}: a lone value must lie in (0, 1)\n"
    assert not out.exists()


def _simulate_pair_prob(tmp_path, alpha_sq, chi):
    out = tmp_path / "u.csv"
    code = run_cli(
        "simulate", "--mode", "eb", "--dim", "2", "--rounds", "100000", "--seed", "1",
        "--alpha-sq", alpha_sq, "--chi", chi, "--out", str(out),
    )
    return code, out


def test_subnormal_pair_probability_creates_no_pairs_quietly(tmp_path, capsys):
    # 1e-310 is subnormal: every gap is infinite, which must raise no warning.
    code, out = _simulate_pair_prob(tmp_path, "1e-160", "1e-150")
    assert code == 0
    assert "warning:" not in capsys.readouterr().err
    assert not load_counts(out).coincidences.any()


def test_underflowing_pair_probability_is_rejected(tmp_path, capsys):
    code, out = _simulate_pair_prob(tmp_path, "1e-200", "1e-200")
    assert code == 1
    assert capsys.readouterr().err == "error: alpha_sq * chi = 1e-200 * 1e-200 underflows to 0\n"
    assert not out.exists()


@st.composite
def _malformed_counts(draw, command):
    """A d = 2 counts file with one defect that every load must reject."""
    exact = draw(st.booleans())
    values = ["100.5", "99.25", "10.125"] if exact else ["100", "99", "10"]
    rows = [[*map(str, cell), *values] for cell in np.ndindex(3, 2, 3, 2)]
    header = ",".join(CSV_HEADER)
    kinds = ["header", "fields", "non_integer", "negative", "huge_index", "huge_count",
             "duplicate"]  # fmt: skip
    if command == "analyze":  # efficiency loads partial grids
        kinds.append("missing")
    if exact:
        kinds.append("non_finite")
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "header":
        header = draw(st.text(alphabet="abc_,0 ", max_size=40))
    elif kind == "fields":
        n = draw(st.integers(1, 12).filter(lambda n: n != 7))
        rows[i] = (rows[i] + ["1"] * 12)[:n]
    elif kind == "non_integer":
        col = draw(st.integers(0, 3 if exact else 6))
        rows[i][col] = draw(st.sampled_from(["1.5", "x", "", "1e3", "0x1", "--1", "nan", "inf"]))
    elif kind == "negative":
        rows[i][draw(st.integers(0, 6))] = str(-draw(st.integers(1, 10**30)))
    elif kind == "huge_index":
        rows[i][draw(st.integers(0, 3))] = str(draw(st.integers(3, 10**400)))
    elif kind == "huge_count":  # above the singles, or too large for a float
        rows[i][6] = "9" * draw(st.integers(3, 500))
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    elif kind == "missing":
        drop = draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
        rows = [row for j, row in enumerate(rows) if j not in drop]
    else:
        text = ["nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity", "1e400"]
        rows[i][draw(st.integers(4, 6))] = draw(st.sampled_from(text))
    lines = (["# exact"] if exact else []) + [header] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n", draw(st.sampled_from([[], ["--dim", "2"]]))


@pytest.mark.parametrize("command", ["analyze", "efficiency"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_counts_fail_closed(command, data):
    text, dim_args = data.draw(_malformed_counts(command))
    outputs = {"analyze": ["--out-report", "r.txt", "--out-csv", "r.csv"],
               "efficiency": ["--out", "eta.txt"]}  # fmt: skip
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        counts = os.path.join(tmp, "counts.csv")
        with open(counts, "w", encoding="utf-8") as fh:
            fh.write(text)
        out_args = [a if a.startswith("--") else os.path.join(tmp, a) for a in outputs[command]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(command, "--counts", counts, *dim_args, *out_args)
        assert os.listdir(tmp) == ["counts.csv"]
    assert code in (1, 2)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(("error: ", "numeric failure: "))
    assert "Traceback" not in err.getvalue()
