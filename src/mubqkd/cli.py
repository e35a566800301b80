"""Command-line front end.

Subcommands: gen-bases, simulate, analyze, efficiency, keyrate.  Every
option can also come from a ``--config`` key = value file, with explicit
command-line flags taking precedence.  Output files are written atomically
(temp file plus rename).  Exit codes: 0 success, 1 validation problem,
2 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .bases import mub_set, save_bases, unbiasedness_report
from .counts import load_counts, save_counts
from .errors import (
    ConfigError,
    ConstructionError,
    CountDataError,
    MubQkdError,
    NumericError,
    ParseError,
)
from .photonics import (
    CountRecord,
    EfficiencyTable,
    SourceParams,
    efficiency_uniformity,
    estimate_efficiency,
    load_efficiency_table,
    save_efficiency_table,
)
from .protocol import (
    CHUNK_ROUNDS,
    ProtocolConfig,
    default_basis_bias,
    run_eb_session,
    run_pm_session,
)
from .security import analyze_counts, key_rate, q_max, report_csv_rows
from .states import visibility_for_qber


def _atomic_write(path, writer) -> None:
    """Run writer(temp_path) on a temp file beside path, then rename into place."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    os.close(fd)
    try:
        writer(Path(tmp))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Every field after the round is one digit: indices below 10 and 0/1 flags.
_LOG_FIELDS = ("basis_a", "elem_a", "basis_b", "elem_b", "click_a", "click_b", "coincidence")
_LOG_HEADER = ",".join(("round",) + _LOG_FIELDS) + "\n"


def _format_log_rows(log: np.ndarray) -> bytes:
    """Render log rows as CSV bytes: the decimal round, then seven 0-9 fields.

    Rows whose round numbers have the same digit count form a fixed-width
    block, so each block is one uint8 matrix filled column by column.
    """
    rounds = log["round"]
    width = np.ones(len(rounds), dtype=np.int64)
    for k in range(1, 19):
        width += rounds >= 10**k
    edges = np.flatnonzero(np.diff(width)) + 1
    out = []
    for lo, hi in zip(np.r_[0, edges], np.r_[edges, len(rounds)]):
        w = int(width[lo])
        block = np.full((hi - lo, w + 2 * len(_LOG_FIELDS) + 1), ord(","), dtype=np.uint8)
        value = rounds[lo:hi]
        for k in range(w):
            block[:, w - 1 - k] = value // 10**k % 10 + ord("0")
        for j, name in enumerate(_LOG_FIELDS):
            block[:, w + 1 + 2 * j] = log[name][lo:hi].astype(np.uint8) + ord("0")
        block[:, -1] = ord("\n")
        out.append(block.tobytes())
    return b"".join(out)


def _write_log(log: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_LOG_HEADER.encode("ascii"))
        for start in range(0, len(log), CHUNK_ROUNDS):
            fh.write(_format_log_rows(log[start : start + CHUNK_ROUNDS]))


def _load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ParseError(f"expected 'key = value', got {text!r}", lineno)
            key, _, value = text.partition("=")
            key = key.strip()
            if not key:
                raise ParseError("empty key", lineno)
            if key in values:
                raise ParseError(f"duplicate key {key!r}", lineno)
            values[key] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


class _Options:
    """Merged view of CLI flags and config-file values, flags first."""

    def __init__(self, args: argparse.Namespace, known: dict[str, object]):
        self.args = args
        self.known = known
        self.config: dict[str, str] = {}
        if getattr(args, "config", None):
            self.config = _load_config_file(args.config)
            unknown = set(self.config) - set(known)
            if unknown:
                raise ConfigError(
                    f"unknown config keys: {', '.join(sorted(unknown))}"
                )

    def get(self, key: str, default=None, required: bool = False):
        value = getattr(self.args, key, None)
        if value is None and key in self.config:
            convert = self.known[key]
            value = convert(self.config[key])
        if value is None:
            value = default
        if required and value is None:
            raise ConfigError(f"missing required option '{key}'")
        return value


def _parse_bias(text: str, d: int) -> tuple[float, ...]:
    """A lone number is the bias parameter; a comma list is the full vector."""
    if "," in text:
        return tuple(float(p) for p in text.split(","))
    return default_basis_bias(d, float(text))


def _cmd_gen_bases(args: argparse.Namespace) -> int:
    opts = _Options(args, {"dim": int, "out": str})
    d = opts.get("dim", required=True)
    out = opts.get("out", required=True)
    mubs = mub_set(d)
    report = unbiasedness_report(mubs)
    _atomic_write(out, lambda tmp: save_bases(mubs, tmp))
    print(
        f"wrote {d + 1} bases for dimension {d} to {out} "
        f"(max unbiasedness deviation {report.max_unbiased_deviation:.2e})"
    )
    return 0


_SIMULATE_KEYS = {
    "mode": str,
    "dim": int,
    "rounds": int,
    "seed": int,
    "visibility": float,
    "target_qber": float,
    "bias": str,
    "flip_prob": float,
    "alpha_sq": float,
    "chi": float,
    "eta_file": str,
    "workers": int,
    "exact": _parse_bool,
    "out": str,
    "log": str,
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    opts = _Options(args, _SIMULATE_KEYS)
    mode = opts.get("mode", required=True)
    d = opts.get("dim", required=True)
    rounds = opts.get("rounds", required=True)
    seed = opts.get("seed", required=True)
    out = opts.get("out", required=True)

    visibility = opts.get("visibility")
    target = opts.get("target_qber")
    if visibility is not None and target is not None:
        raise ConfigError("give either visibility or target_qber, not both")
    if target is not None:
        visibility = visibility_for_qber(d, target)
    if visibility is None:
        visibility = 1.0

    bias_text = opts.get("bias")
    bias = _parse_bias(bias_text, d) if bias_text is not None else None

    eta_file = opts.get("eta_file")
    table = load_efficiency_table(eta_file) if eta_file else None

    source = None
    if mode == "eb":
        source = SourceParams(
            pulses=rounds,
            alpha_sq=opts.get("alpha_sq", 0.1),
            chi=opts.get("chi", 0.5),
        )

    cfg = ProtocolConfig(
        dim=d,
        mode=mode,
        rounds=rounds,
        seed=seed,
        basis_bias=bias,
        visibility=visibility,
        flip_prob=opts.get("flip_prob", 0.0),
        source=source,
        efficiencies=table,
    )
    mubs = mub_set(d)
    workers = opts.get("workers", 1)
    log_path = opts.get("log")
    exact = bool(opts.get("exact", False))

    if mode == "eb":
        if exact:
            raise ConfigError("exact mode is only available for prepare-and-measure runs")
        session = run_eb_session(cfg, mubs, workers=workers, keep_full_log=bool(log_path))
    else:
        session = run_pm_session(
            cfg, mubs, workers=workers, keep_full_log=bool(log_path), exact=exact
        )

    _atomic_write(out, lambda tmp: save_counts(session.counts, tmp))
    if log_path:
        _atomic_write(log_path, lambda tmp: _write_log(session.log, tmp))

    total = session.counts.total_coincidences()
    print(
        f"simulated {rounds} {mode} rounds (d={d}, seed={seed}): "
        f"{total:g} coincidences -> {out}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    opts = _Options(
        args,
        {
            "counts": str,
            "dim": int,
            "prob": _parse_bool,
            "partial": _parse_bool,
            "out_report": str,
            "out_csv": str,
        },
    )
    counts = load_counts(
        opts.get("counts", required=True),
        dim=opts.get("dim"),
        allow_float=bool(opts.get("prob", False)),
        allow_partial=bool(opts.get("partial", False)),
    )
    report = analyze_counts(counts)
    text = report.to_text()
    sys.stdout.write(text)
    out_report = opts.get("out_report")
    if out_report:
        _atomic_write(out_report, lambda tmp: tmp.write_text(text, encoding="utf-8"))
    out_csv = opts.get("out_csv")
    if out_csv:
        csv_text = report_csv_rows([report])
        _atomic_write(out_csv, lambda tmp: tmp.write_text(csv_text, encoding="utf-8"))
    return 0


def _cmd_efficiency(args: argparse.Namespace) -> int:
    opts = _Options(
        args, {"counts": str, "dim": int, "prob": _parse_bool, "out": str}
    )
    counts = load_counts(
        opts.get("counts", required=True),
        dim=opts.get("dim"),
        allow_float=bool(opts.get("prob", False)),
        allow_partial=True,
    )
    records = []
    for basis in range(counts.n_bases):
        for elem in range(counts.dim):
            cell = (basis, elem, basis, elem)
            sa = float(counts.singles_a[cell])
            sb = float(counts.singles_b[cell])
            cc = float(counts.coincidences[cell])
            if sa == 0 and sb == 0 and cc == 0:
                continue
            records.append(
                CountRecord(
                    basis_a=basis,
                    elem_a=elem,
                    basis_b=basis,
                    elem_b=elem,
                    singles_a=sa,
                    singles_b=sb,
                    coincidences=cc,
                )
            )
    if not records:
        raise CountDataError("counts hold no data on conjugate-correlated setting pairs")
    table = estimate_efficiency(records, counts.dim)
    uniformity = efficiency_uniformity(table)

    out = opts.get("out")
    if out:
        _atomic_write(out, lambda tmp: save_efficiency_table(table, tmp))
        print(f"wrote efficiency table to {out}")
    for basis in range(counts.dim + 1):
        for elem in range(counts.dim):
            ea, eb = table.eta_a[basis, elem], table.eta_b[basis, elem]
            if np.isfinite(ea) or np.isfinite(eb):
                idx = basis * counts.dim + elem + 1
                print(f"vector {idx}: eta_a={ea:.5f} eta_b={eb:.5f}")
    sa = ", ".join(
        f"{basis}: {s:.3f}" for basis, s in enumerate(uniformity.spread_a) if np.isfinite(s)
    )
    sb = ", ".join(
        f"{basis}: {s:.3f}" for basis, s in enumerate(uniformity.spread_b) if np.isfinite(s)
    )
    print(f"within-basis spread arm A  {sa}")
    print(f"within-basis spread arm B  {sb}")
    return 0


def _parse_sweep(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"sweep must hold three numbers, got {text!r}") from None
    if step <= 0 or hi < lo or lo < 0:
        raise ConfigError(f"bad sweep range {text!r}")
    return lo, hi, step


def _cmd_keyrate(args: argparse.Namespace) -> int:
    opts = _Options(args, {"dim": int, "qber": float, "sweep": str, "out": str})
    d = opts.get("dim", required=True)
    qber = opts.get("qber")
    sweep = opts.get("sweep")
    if (qber is None) == (sweep is None):
        raise ConfigError("give exactly one of qber or sweep")

    if qber is not None:
        rate = key_rate(d, qber)
        ceiling = q_max(d)
        print(f"r_min = {rate:.4f} bits/symbol (d={d}, Q={qber:.4f})")
        print(f"Q_max = {ceiling:.4f}")
        out = opts.get("out")
        if out:
            text = (
                "d,qber,key_rate,q_max\n"
                f"{d},{qber:.10g},{rate:.10g},{ceiling:.10g}\n"
            )
            _atomic_write(out, lambda tmp: tmp.write_text(text, encoding="utf-8"))
        return 0

    lo, hi, step = _parse_sweep(sweep)
    edge = d / (d + 1)
    if hi >= edge:
        raise ConfigError(
            f"sweep end {hi:g} must stay below the error-rate ceiling d/(d+1) = {edge:.6g}"
        )
    n_rows = int((hi + 1e-12 - lo) // step) + 1
    lines = ["d,qber,key_rate"]
    for i in range(n_rows):
        q = min(lo + i * step, hi)
        lines.append(f"{d},{q:.10g},{key_rate(d, q):.10g}")
    text = "\n".join(lines) + "\n"
    out = opts.get("out")
    if out:
        _atomic_write(out, lambda tmp: tmp.write_text(text, encoding="utf-8"))
        print(f"wrote {len(lines) - 1} sweep rows to {out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubqkd",
        description="Simulate and analyze the unbiased-bases filter protocol.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-bases", help="write a complete basis set to a file")
    p.add_argument("--dim", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(handler=_cmd_gen_bases)

    p = sub.add_parser("simulate", help="run a Monte Carlo session")
    p.add_argument("--mode", choices=("eb", "pm"))
    p.add_argument("--dim", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--visibility", type=float)
    p.add_argument("--target-qber", dest="target_qber", type=float)
    p.add_argument("--bias", help="bias parameter or full comma-separated weights")
    p.add_argument("--flip-prob", dest="flip_prob", type=float)
    p.add_argument("--alpha-sq", dest="alpha_sq", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--eta-file", dest="eta_file")
    p.add_argument("--workers", type=int)
    p.add_argument("--exact", action="store_const", const=True)
    p.add_argument("--out")
    p.add_argument("--log")
    p.add_argument("--config")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("analyze", help="security analysis of a counts file")
    p.add_argument("--counts")
    p.add_argument("--dim", type=int)
    p.add_argument("--prob", action="store_const", const=True)
    p.add_argument("--partial", action="store_const", const=True)
    p.add_argument("--out-report", dest="out_report")
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--config")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("efficiency", help="estimate detector efficiencies from counts")
    p.add_argument("--counts")
    p.add_argument("--dim", type=int)
    p.add_argument("--prob", action="store_const", const=True)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(handler=_cmd_efficiency)

    p = sub.add_parser("keyrate", help="key rate at one error rate or over a sweep")
    p.add_argument("--dim", type=int)
    p.add_argument("--qber", type=float)
    p.add_argument("--sweep", help="lo:hi:step")
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(handler=_cmd_keyrate)

    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except (NumericError, ConstructionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (MubQkdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
