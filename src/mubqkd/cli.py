"""Command-line front end.

Subcommands: gen-bases, simulate, analyze, efficiency, keyrate.  Every
option can also come from a ``--config`` key = value file, with explicit
command-line flags taking precedence; ``_COMMANDS`` declares both.  Output
files are written atomically (temp file plus rename).  Exit codes: 0
success, 1 validation problem, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .bases import mub_set, save_bases, unbiasedness_report
from .counts import load_counts, save_counts
from .errors import (
    ConfigError,
    ConstructionError,
    MubQkdError,
    NumericError,
    ParseError,
    _text_lines,
    check_range,
)
from .photonics import (
    SourceParams,
    _table_rows,
    efficiency_uniformity,
    estimate_efficiency,
    load_efficiency_table,
    save_efficiency_table,
)
from .protocol import (
    ProtocolConfig,
    _RoundKernel,
    _run_chunked,
    default_basis_bias,
    expected_count_matrix,
)
from .security import analyze_counts, key_rate, q_max, report_csv_rows
from .states import visibility_for_qber


def _atomic_write(path, writer):
    """Run writer(temp_path) on a new temp file beside path, then rename into place.

    The temp file is created 0o666 for the kernel to mask, so the file gets the
    umask's mode.  Returns what writer returns.
    """
    target = Path(path)
    tmp = target.parent / f"tmp{os.urandom(8).hex()}.tmp"
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        result = writer(tmp)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


# Every field after the round is one digit: indices below 10 and 0/1 flags.
_LOG_FIELDS = ("basis_a", "elem_a", "basis_b", "elem_b", "click_a", "click_b", "coincidence")
_LOG_HEADER = ",".join(("round",) + _LOG_FIELDS) + "\n"


def _log_size(rounds: int) -> int:
    """Bytes of a log of rounds rows: the header, then digits(r) + 15 for each round r."""
    return len(_LOG_HEADER) + 16 * rounds + sum(rounds - 10**k for k in range(1, len(str(rounds))))


def _field(a: np.ndarray, offset: int, size: int) -> np.ndarray:
    """Bytes offset to offset + size of each item of the contiguous 1-D array a, as V{size}."""
    return np.ndarray(len(a), f"V{size}", a, offset, (a.itemsize,))


def _format_log_rows(rows: np.ndarray, out, last: int):
    """A writer(first, cat) of consecutive CSV log rows, up to round last, to the binary file out.

    Row i is round first + i, then the seven 0-9 fields of rows[cat[i]], by
    name.  Calls ascend.  Rounds between multiples of 10**4 and powers of ten
    share their width w and high digits: such a run is one gather from a
    table of whole rows at width w, plus a slice of "0000" to "9999".  Only
    the current width's table is kept, and the text leaves a run at a time.
    """
    quad = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    quad = quad.view("<u4").ravel()  # "0000" to "9999"; below 10**4, the last w bytes
    table = tail = np.tile(np.frombuffer(b",0" * len(_LOG_FIELDS) + b"\n", "V15"), len(rows))
    tail.view(np.uint8).reshape(-1, 15)[:, 1::2] += np.stack([rows[f] for f in _LOG_FIELDS], -1)
    tables = np.empty(len(rows) * (len(str(last)) + 15), dtype=np.uint8)  # one width's at a time
    text = np.empty(10**4 * (len(str(last)) + 15), dtype=np.uint8)

    def write(first: int, cat: np.ndarray) -> None:
        nonlocal table
        r, end = first, first + len(cat)
        while r < end:
            w, k = len(str(r)), min(len(str(r)), 4)
            stop = min(end, 10**w, r - r % 10**4 + 10**4)
            if table.itemsize != w + 15:
                table = tables[: len(rows) * (w + 15)].view(f"V{w + 15}")
                _field(table, w, 15)[...] = tail
            _field(table, 0, w - k)[...] = np.void(str(r)[: w - k].encode())
            run = text[: (stop - r) * (w + 15)].view(table.dtype)
            np.take(table, cat[r - first : stop - first], out=run, mode="clip")
            _field(run, w - k, k)[...] = _field(quad[r % 10**4 : r % 10**4 + stop - r], 4 - k, k)
            out.write(run)
            r = stop

    return write


def _load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, text in _text_lines(path):
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

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.known = _COMMANDS[args.command][2]
        self.config: dict[str, str] = {}
        if getattr(args, "config", None):
            self.config = _load_config_file(args.config)
            unknown = set(self.config) - set(self.known)
            if unknown:
                raise ConfigError(
                    f"unknown config keys: {', '.join(sorted(unknown))}"
                )

    def get(self, key: str, default=None, required: bool = False):
        value = getattr(self.args, key, None)
        if value is None and key in self.config:
            try:
                value = self.known[key](self.config[key])
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {self.config[key]!r}") from None
        if value is None:
            value = default
        if required and value is None:
            raise ConfigError(f"missing required option '{key}'")
        return value


def _parse_bias(text: str, d: int) -> tuple[float, ...]:
    """A lone number is the bias parameter; a comma list is the full vector."""
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad bias {text!r}") from None
    if "," in text:
        return values
    if not 0.0 < values[0] < 1.0:  # also rejects NaN
        raise ConfigError(f"bad bias {text!r}: a lone value must lie in (0, 1)")
    return default_basis_bias(d, values[0])


def _cmd_gen_bases(args: argparse.Namespace) -> int:
    opts = _Options(args)
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


def _cmd_simulate(args: argparse.Namespace) -> int:
    opts = _Options(args)
    mode = opts.get("mode", required=True)
    d = opts.get("dim", required=True)
    mubs = mub_set(d)  # first: the bias and efficiency table allocate by d
    rounds = opts.get("rounds", required=True)
    exact = bool(opts.get("exact", False))
    seed = opts.get("seed", 0 if exact else None, required=True)  # exact counts draw nothing
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

    # Built in both modes, so that a bad alpha_sq or chi fails even where only
    # eb reads it.  A negative round count is left for ProtocolConfig to report.
    source = SourceParams(max(rounds, 0), opts.get("alpha_sq", 0.1), opts.get("chi", 0.5))

    cfg = ProtocolConfig(
        dim=d,
        mode=mode,
        rounds=rounds,
        seed=seed,
        basis_bias=bias,
        visibility=visibility,
        flip_prob=opts.get("flip_prob", 0.0),
        source=source if mode == "eb" else None,
        efficiencies=table,
    )
    workers = opts.get("workers", 1)
    log_path = opts.get("log")

    if exact and mode == "eb":
        raise ConfigError("exact mode is only available for prepare-and-measure runs")
    check_range("worker count", workers, 1)  # --exact never reaches the session's check
    kernel = None if exact else _RoundKernel(cfg, mubs)

    def simulate(take_rows=None):
        if exact:
            counts = expected_count_matrix(cfg, mubs)
        else:
            counts = _run_chunked(cfg, kernel, workers, bool(log_path), take_rows)
        _atomic_write(out, lambda tmp: save_counts(counts, tmp))
        return counts

    def stream_log(tmp):
        # The counts are written before the log is renamed: a failed run leaves no log.
        # A full log numbers its rounds consecutively, so each chunk's draw is its rows.
        # Sized before the draw: a full disk fails first, and a rename over an old
        # log need not write the new one back (ext4 does for delayed allocations).
        size = _log_size(rounds if kernel else 0)  # --exact: the header alone
        with open(tmp, "wb") as fh:
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, size)
            fh.write(_LOG_HEADER.encode("ascii"))
            write = _format_log_rows(kernel.rows, fh, rounds - 1) if kernel else None
            counts = simulate(lambda chunk, at, cat: write(chunk * kernel.chunk_rounds, cat))
            if fh.tell() != size:  # else the preallocated tail would stay NUL bytes
                raise RuntimeError(f"log holds {fh.tell()} bytes, sized for {size}")
            return counts

    counts = _atomic_write(log_path, stream_log) if log_path else simulate()

    total = counts.total_coincidences()
    print(
        f"simulated {rounds} {mode} rounds (d={d}, seed={seed}): "
        f"{total:g} coincidences -> {out}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    opts = _Options(args)
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
    opts = _Options(args)
    counts = load_counts(
        opts.get("counts", required=True),
        dim=opts.get("dim"),
        allow_float=bool(opts.get("prob", False)),
        allow_partial=True,
    )
    table = estimate_efficiency(counts, counts.dim)
    uniformity = efficiency_uniformity(table)

    out = opts.get("out")
    if out:
        _atomic_write(out, lambda tmp: save_efficiency_table(table, tmp))
        print(f"wrote efficiency table to {out}")
    for idx, ea, eb in _table_rows(table):
        print(f"vector {idx}: eta_a={ea:.5f} eta_b={eb:.5f}")
    for arm, spread in (("A", uniformity.spread_a), ("B", uniformity.spread_b)):
        text = ", ".join(f"{basis}: {s:.3f}" for basis, s in enumerate(spread) if np.isfinite(s))
        print(f"within-basis spread arm {arm}  {text}")
    return 0


def _parse_sweep(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"sweep must hold three numbers, got {text!r}") from None
    if not (0 <= lo <= hi < np.inf and 0 < step < np.inf):  # also rejects NaN
        raise ConfigError(f"bad sweep range {text!r}")
    return lo, hi, step


def _cmd_keyrate(args: argparse.Namespace) -> int:
    opts = _Options(args)
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


# Subcommand -> (help, handler, {option: converter}).  Each option is both the
# flag --option-with-dashes and the config key option_with_underscores; a
# _parse_bool option is a bare flag.
_COMMANDS = {
    "gen-bases": ("write a complete basis set to a file", _cmd_gen_bases,
                  {"dim": int, "out": str}),
    "simulate": ("run a Monte Carlo session", _cmd_simulate, {
        "mode": str, "dim": int, "rounds": int, "seed": int, "visibility": float,
        "target_qber": float, "bias": str, "flip_prob": float, "alpha_sq": float,
        "chi": float, "eta_file": str, "workers": int, "exact": _parse_bool,
        "out": str, "log": str}),
    "analyze": ("security analysis of a counts file", _cmd_analyze, {
        "counts": str, "dim": int, "prob": _parse_bool, "partial": _parse_bool,
        "out_report": str, "out_csv": str}),
    "efficiency": ("estimate detector efficiencies from counts", _cmd_efficiency,
                   {"counts": str, "dim": int, "prob": _parse_bool, "out": str}),
    "keyrate": ("key rate at one error rate or over a sweep", _cmd_keyrate,
                {"dim": int, "qber": float, "sweep": str, "out": str}),
}  # fmt: skip

_OPTION_HELP = {"bias": "bias parameter or full comma-separated weights", "sweep": "lo:hi:step"}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; when command names a subcommand, only its subparser (0.2-0.4 ms, not 1 ms).

    A narrowed parser names all five in an explicit metavar, since the usage
    a bad option (simulate --bogus) prints must list them; the whole parser
    keeps argparse's own, so an unknown name stays "argument command: ...".
    """
    parser = argparse.ArgumentParser(
        prog="mubqkd",
        description="Simulate and analyze the unbiased-bases filter protocol.",
    )
    narrow = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(_COMMANDS) + "}" if narrow else None)
    for name in [command] if narrow else _COMMANDS:
        text, handler, options = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for key, convert in options.items():
            flag = "--" + key.replace("_", "-")
            if convert is _parse_bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=key, type=convert, help=_OPTION_HELP.get(key))
        p.add_argument("--config")
        p.set_defaults(handler=handler)
    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
