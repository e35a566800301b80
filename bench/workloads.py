"""The four benchmark workloads.

Each workload has three main parts:

* ``setup(seed, workdir)`` builds the inputs from the seed (this is what
  ``setup_s`` times in a fresh process);
* ``iterate(inputs, rec)`` runs one pipeline, from the inputs to the final
  report or files, wrapping each public mubqkd call in ``rec.call`` so the
  traced run gets one span per call;
* ``check(inputs, outcome, rec)`` runs the statistical and structural
  correctness checks on that outcome, outside the timed region.

``after(inputs, outcome, rec, traced)`` runs once per run, untimed, after
the measurement loop: the worker-invariance checks, and in traced runs the
workers=2 session.  ``counts`` gives the work counts of one outcome, and
``describe`` the inputs recorded with every result.

All checks are statistical or structural, never golden bytes, so they hold
on any seed and survive a change to the random-stream layout.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
from pathlib import Path

import numpy as np

from mubqkd import (
    EfficiencyTable,
    ProtocolConfig,
    SourceParams,
    analyze_counts,
    average_qber,
    efficiency_uniformity,
    estimate_efficiency,
    estimate_parameters,
    expected_coincidences,
    expected_count_matrix,
    expected_singles,
    isotropic_state,
    joint_prob_matrix,
    key_rate,
    load_counts,
    mub_set,
    q_max,
    run_eb_session,
    run_pm_session,
    save_counts,
    save_efficiency_table,
    sift,
    synthesize_conjugate_records,
    unbiasedness_report,
)
from mubqkd.cli import cli_dispatch
from mubqkd.protocol import pm_effective_overlaps

ESTIMATE_FRACTION = 0.1
SHORT_ROUNDS = 300_000  # worker-invariance configs: five chunks, so workers=2 splits them
# A correct sampler exceeds these on a given run with probability well below 1e-4.
PULL_LIMIT = 7.0  # worst |observed - expected| / sqrt(expected) over all cells
CHI2_Z_LIMIT = 6.0  # worst per-block chi-square, as a Wilson-Hilferty z-score
EXACT_TOL = 1e-12
UNBIASED_TOL = 1e-10
ROOT_TOL = 1e-10
EFFICIENCY_SE_LIMIT = 6.0


def _arrays(counts):
    return {
        "singles_a": counts.singles_a,
        "singles_b": counts.singles_b,
        "coincidences": counts.coincidences,
    }


def model_fit(observed, expected) -> tuple[float, float]:
    """Worst per-cell pull and worst per-block chi-square z-score.

    Pulls use the Poisson error sqrt(expected).  Each (basis_a, basis_b)
    block gives chi2 = sum (o - e)^2 / e over its cells with e > 0, turned
    into a z-score by the Wilson-Hilferty cube-root approximation with one
    degree of freedom per cell.  A count in a cell the model says is
    impossible makes both infinite.
    """
    worst_pull = 0.0
    worst_z = -math.inf
    for name, obs in _arrays(observed).items():
        exp = _arrays(expected)[name]
        impossible = exp <= 0
        if np.any(obs[impossible] > 0):
            return math.inf, math.inf
        safe = np.where(impossible, 1.0, exp)
        worst_pull = max(worst_pull, float(np.max(np.abs(obs - exp) / np.sqrt(safe))))
        terms = np.where(impossible, 0.0, (obs - exp) ** 2 / safe)
        chi2 = terms.sum(axis=(1, 3))
        dof = (~impossible).sum(axis=(1, 3))
        for c, k in zip(chi2.ravel(), dof.ravel()):
            if k == 0:
                continue
            s = 2.0 / (9.0 * k)
            worst_z = max(worst_z, ((c / k) ** (1.0 / 3.0) - (1.0 - s)) / math.sqrt(s))
    return worst_pull, worst_z


def same_basis_coincidences(counts) -> int:
    return int(sum(counts.coincidence_block(i, i).sum() for i in range(counts.n_bases)))


class Workload:
    """Defaults for the optional parts of a workload."""

    # Span whose wall time the workload's simulated rounds are divided by.
    rounds_span: str | None = None

    def counts(self, inputs, out) -> dict:
        """Work counts of one iteration, reported as per-layer metrics."""
        return {}

    def after(self, inputs, out, rec, traced: bool) -> None:
        pass


# --------------------------------------------------------------------------
# eb_kernel and pm_keymat: session -> sift -> estimate -> analyze


@dataclasses.dataclass
class SessionInputs:
    cfg: ProtocolConfig
    mubs: object


@dataclasses.dataclass
class SessionOutcome:
    counts: object
    sifted: int
    sampled: int
    remaining: int
    key_lengths: tuple[int, int]
    log_rows: int


class SessionWorkload(Workload):
    """One Monte Carlo session in one mode, then the key-material chain."""

    rounds_span = "protocol.session"

    def __init__(self, mode: str, rounds: int, **params):
        self.mode = mode
        self.rounds = rounds
        self.params = params
        self.run_session = run_eb_session if mode == "eb" else run_pm_session

    def setup(self, seed: int, workdir: Path) -> SessionInputs:
        d = 3
        source = None
        if self.mode == "eb":
            source = SourceParams(pulses=self.rounds, alpha_sq=0.1, chi=0.5)
        cfg = ProtocolConfig(
            dim=d, mode=self.mode, rounds=self.rounds, seed=seed, source=source, **self.params
        )
        return SessionInputs(cfg=cfg, mubs=mub_set(d))

    def describe(self, inputs: SessionInputs) -> dict:
        cfg = inputs.cfg
        return {
            "mode": cfg.mode,
            "dim": cfg.dim,
            "rounds": cfg.rounds,
            "visibility": cfg.visibility,
            "flip_prob": cfg.flip_prob,
            "basis_bias": list(cfg.basis_bias),
            "pair_prob": cfg.source.pair_prob if cfg.source else None,
            "workers": 1,
            "log": "coincident",
        }

    def iterate(self, inputs: SessionInputs, rec) -> SessionOutcome:
        cfg = inputs.cfg
        with rec.call("protocol.session"):
            session = self.run_session(cfg, inputs.mubs, workers=1)
        with rec.call("protocol.sift"):
            sifted = sift(session)
        rng = np.random.default_rng([cfg.seed, 1])
        with rec.call("protocol.estimate"):
            est = estimate_parameters(sifted, ESTIMATE_FRACTION, rng)
        with rec.call("security.analyze_counts"):
            analyze_counts(session.counts)
        return SessionOutcome(
            counts=session.counts,
            sifted=len(sifted),
            sampled=est.sampled_rounds,
            remaining=len(est.remaining),
            key_lengths=(len(est.remaining.alice_key), len(est.remaining.bob_key)),
            log_rows=len(session.log),
        )

    def check(self, inputs: SessionInputs, out: SessionOutcome, rec) -> None:
        expected = expected_count_matrix(inputs.cfg, inputs.mubs)
        pull, z = model_fit(out.counts, expected)
        rec.check(
            "protocol.counts_fit_model",
            pull <= PULL_LIMIT and z <= CHI2_Z_LIMIT,
            f"worst pull {pull:.2f} (limit {PULL_LIMIT}), worst block chi2 z {z:.2f} "
            f"(limit {CHI2_Z_LIMIT})",
        )
        diag = same_basis_coincidences(out.counts)
        rec.check(
            "protocol.sifted_equals_same_basis_coincidences",
            out.sifted == diag,
            f"{out.sifted} sifted symbols, {diag} same-basis coincidences",
        )
        rec.check(
            "protocol.estimate_split",
            out.sampled + out.remaining == out.sifted
            and out.key_lengths == (out.remaining, out.remaining),
            f"{out.sampled} sampled + {out.remaining} remaining vs {out.sifted} sifted; "
            f"key lengths {out.key_lengths}",
        )

    def counts(self, inputs: SessionInputs, out: SessionOutcome) -> dict:
        coincidences = int(out.counts.total_coincidences())
        return {
            "protocol.rounds": self.rounds,
            "protocol.coincidences": coincidences,
            "protocol.sifted": out.sifted,
            "protocol.key_symbols": out.remaining,
            "protocol.log_rows": out.log_rows,
            "protocol.coinc_yield": coincidences / self.rounds,
            "protocol.sift_yield": out.sifted / coincidences,
        }

    def after(self, inputs: SessionInputs, out: SessionOutcome, rec, traced: bool) -> None:
        short = dataclasses.replace(inputs.cfg, rounds=SHORT_ROUNDS)
        one = self.run_session(short, inputs.mubs, workers=1).counts
        two = self.run_session(short, inputs.mubs, workers=2).counts
        rec.check(
            "protocol.worker_invariance",
            _same_counts(one, two),
            f"{SHORT_ROUNDS}-round {self.mode} counts differ between workers=1 and 2",
        )
        if traced:
            with rec.call("protocol.session_w2"):
                full = self.run_session(inputs.cfg, inputs.mubs, workers=2).counts
            rec.check(
                "protocol.worker_invariance_full",
                _same_counts(out.counts, full),
                f"{inputs.cfg.rounds}-round counts differ between workers=1 and 2",
            )


def _same_counts(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(_arrays(a).values(), _arrays(b).values()))


# --------------------------------------------------------------------------
# algebra_all_d: bases, state tensors, exact expectations, key rates and
# efficiency estimation for every supported dimension; no Monte Carlo.

DIMS = (2, 3, 4, 5, 7)
SWEEP_POINTS = 200
EXACT_ROUNDS = 10**6
RECORD_PULSES = 10**8


@dataclasses.dataclass
class AlgebraCase:
    d: int
    visibility: float
    pm_cfg: ProtocolConfig
    eb_cfg: ProtocolConfig
    source: SourceParams
    eta: EfficiencyTable
    seed: int


@dataclasses.dataclass
class AlgebraResult:
    case: AlgebraCase
    unbiased: object
    joint: object
    qber: float
    pm_report: object
    q_max: float
    rates: list
    efficiency: object
    uniformity: object


class AlgebraWorkload(Workload):
    def setup(self, seed: int, workdir: Path) -> list[AlgebraCase]:
        rng = np.random.default_rng([seed, 2])
        cases = []
        for d in DIMS:
            source = SourceParams(pulses=EXACT_ROUNDS, alpha_sq=0.1, chi=0.5)
            eta = EfficiencyTable(
                dim=d,
                eta_a=rng.uniform(0.05, 0.5, (d + 1, d)),
                eta_b=rng.uniform(0.05, 0.5, (d + 1, d)),
            )
            v = float(rng.uniform(0.8, 1.0))
            pm_cfg = ProtocolConfig(
                dim=d,
                mode="pm",
                rounds=EXACT_ROUNDS,
                seed=seed,
                flip_prob=float(rng.uniform(0.01, 0.1)),
            )
            eb_cfg = ProtocolConfig(
                dim=d,
                mode="eb",
                rounds=EXACT_ROUNDS,
                seed=seed,
                visibility=v,
                source=source,
                efficiencies=eta,
            )
            cases.append(AlgebraCase(d, v, pm_cfg, eb_cfg, source, eta, seed))
        return cases

    def describe(self, cases: list[AlgebraCase]) -> dict:
        return {
            "dims": list(DIMS),
            "visibility": {c.d: round(c.visibility, 6) for c in cases},
            "flip_prob": {c.d: round(c.pm_cfg.flip_prob, 6) for c in cases},
            "key_rate_sweep_points": SWEEP_POINTS,
            "record_pulses": RECORD_PULSES,
        }

    def iterate(self, cases: list[AlgebraCase], rec) -> list[AlgebraResult]:
        return [self._one_dim(case, rec) for case in cases]

    def _one_dim(self, c: AlgebraCase, rec) -> AlgebraResult:
        d, tag = c.d, f"d={c.d}"
        with rec.call("bases.mub_set", tag):
            mubs = mub_set(d)
        with rec.call("bases.unbiasedness_report", tag):
            unbiased = unbiasedness_report(mubs)
        with rec.call("states.isotropic_state", tag):
            rho = isotropic_state(d, c.visibility)
        with rec.call("states.joint_prob_matrix", tag):
            joint = joint_prob_matrix(rho, mubs)
        with rec.call("security.average_qber", tag):
            qber = average_qber(rho, mubs)
        with rec.call("protocol.pm_overlaps", tag):
            pm_effective_overlaps(mubs, c.pm_cfg.flip_prob)
        with rec.call("protocol.expected_counts", tag):
            expected_count_matrix(c.pm_cfg, mubs)
        with rec.call("protocol.expected_counts", tag):
            expected_count_matrix(c.eb_cfg, mubs)
        with rec.call("protocol.session_exact", tag):
            session = run_pm_session(c.pm_cfg, mubs, exact=True)
        with rec.call("security.analyze_counts", tag):
            pm_report = analyze_counts(session.counts)
        with rec.call("security.q_max", tag):
            ceiling = q_max(d)
        with rec.call("security.key_rate_sweep", tag):
            rates = [key_rate(d, q) for q in np.linspace(0.0, ceiling, SWEEP_POINTS)]
        rng = np.random.default_rng([c.seed, 3, d])
        records_source = dataclasses.replace(c.source, pulses=RECORD_PULSES)
        with rec.call("photonics.synthesize_records", tag):
            records = synthesize_conjugate_records(records_source, c.eta, rng=rng)
        with rec.call("photonics.estimate_efficiency", tag):
            efficiency = estimate_efficiency(records, d)
        with rec.call("photonics.efficiency_uniformity", tag):
            uniformity = efficiency_uniformity(efficiency)
        return AlgebraResult(
            c, unbiased, joint, qber, pm_report, ceiling, rates, efficiency, uniformity
        )

    def check(self, cases, results: list[AlgebraResult], rec) -> None:
        for r in results:
            c, d = r.case, r.case.d
            want = (1.0 - c.visibility) * (d - 1) / d
            rec.check(
                "security.average_qber_closed_form",
                abs(r.qber - want) < EXACT_TOL,
                f"d={d}: average_qber {r.qber!r}, (1-v)(d-1)/d = {want!r}",
            )
            sums = r.joint.probs.sum(axis=(1, 3))
            rec.check(
                "states.joint_blocks_normalised",
                float(np.max(np.abs(sums - 1.0))) < EXACT_TOL,
                f"d={d}: block sums deviate by {np.max(np.abs(sums - 1.0)):.2e}",
            )
            rec.check(
                "bases.unbiased",
                r.unbiased.max_unbiased_deviation < UNBIASED_TOL
                and r.unbiased.max_orthonormality_defect < UNBIASED_TOL,
                f"d={d}: deviation {r.unbiased.max_unbiased_deviation:.2e}, "
                f"orthonormality defect {r.unbiased.max_orthonormality_defect:.2e}",
            )
            rec.check(
                "security.key_rate_zero_at_q_max",
                abs(key_rate(d, r.q_max)) < ROOT_TOL and abs(r.rates[-1]) < ROOT_TOL,
                f"d={d}: key_rate(q_max) = {key_rate(d, r.q_max):.2e}",
            )
            rec.check(
                "security.pm_exact_qber_is_flip_prob",
                abs(r.pm_report.qber - c.pm_cfg.flip_prob) < EXACT_TOL,
                f"d={d}: exact PM error rate {r.pm_report.qber!r}, "
                f"flip probability {c.pm_cfg.flip_prob!r}",
            )
            params = dataclasses.replace(c.source, pulses=RECORD_PULSES)
            mu_c = expected_coincidences(params, c.eta.eta_a, c.eta.eta_b)
            se_a = c.eta.eta_a * np.sqrt(1 / mu_c + 1 / expected_singles(params, c.eta.eta_b))
            se_b = c.eta.eta_b * np.sqrt(1 / mu_c + 1 / expected_singles(params, c.eta.eta_a))
            worst = max(
                float(np.max(np.abs(r.efficiency.eta_a - c.eta.eta_a) / se_a)),
                float(np.max(np.abs(r.efficiency.eta_b - c.eta.eta_b) / se_b)),
            )
            rec.check(
                "photonics.efficiency_recovered",
                worst < EFFICIENCY_SE_LIMIT
                and np.all(np.isfinite(r.uniformity.spread_a))
                and np.all(np.isfinite(r.uniformity.spread_b)),
                f"d={d}: worst efficiency error {worst:.2f} SE (limit {EFFICIENCY_SE_LIMIT})",
            )


# --------------------------------------------------------------------------
# cli_files: the command-line tool end to end, with its file writes and reads.

CLI_DIM = 2
CLI_ROUNDS = 250_000
CLI_ALPHA_SQ = 0.18  # pair probability 0.09, the most the source model allows
CLI_VISIBILITY = 0.95
# Efficiencies well below one: the estimator reads 2C/S ~ eta (v + (1-v)/d), and
# at these rates a sampled ratio above one would be a > 6 sigma event.
CLI_ETA_RANGE = (0.25, 0.45)
SWEEP = "0:0.12:0.005"


@dataclasses.dataclass
class CliInputs:
    workdir: Path
    seed: int
    eta_file: Path

    def path(self, name: str) -> str:
        return str(self.workdir / name)


@dataclasses.dataclass
class CliOutcome:
    exit_codes: dict


class CliWorkload(Workload):
    rounds_span = "cli.simulate"

    def setup(self, seed: int, workdir: Path) -> CliInputs:
        rng = np.random.default_rng([seed, 4])
        shape = (CLI_DIM + 1, CLI_DIM)
        table = EfficiencyTable(
            dim=CLI_DIM,
            eta_a=rng.uniform(*CLI_ETA_RANGE, shape),
            eta_b=rng.uniform(*CLI_ETA_RANGE, shape),
        )
        eta_file = workdir / "eta.txt"
        save_efficiency_table(table, eta_file)
        return CliInputs(workdir=workdir, seed=seed, eta_file=eta_file)

    def describe(self, inputs: CliInputs) -> dict:
        return {
            "simulate": self._simulate_args(inputs)[:-1] + [inputs.eta_file.name],
            "gen_bases_dim": 7,
            "keyrate_sweep": SWEEP,
        }

    def _simulate_args(self, inputs: CliInputs) -> list[str]:
        bias = ",".join([repr(1.0 / (CLI_DIM + 1))] * (CLI_DIM + 1))
        return [
            "simulate", "--mode", "eb", "--dim", str(CLI_DIM),
            "--rounds", str(CLI_ROUNDS), "--seed", str(inputs.seed),
            "--visibility", str(CLI_VISIBILITY), "--bias", bias,
            "--alpha-sq", str(CLI_ALPHA_SQ), "--eta-file", str(inputs.eta_file),
        ]  # fmt: skip

    def iterate(self, inputs: CliInputs, rec) -> CliOutcome:
        p = inputs.path
        sim = self._simulate_args(inputs)
        commands = {
            "cli.gen_bases": ["gen-bases", "--dim", "7", "--out", p("bases7.txt")],
            "cli.simulate": sim + ["--out", p("counts.csv")],
            "cli.simulate_log": sim + ["--out", p("counts_log.csv"), "--log", p("log.csv")],
            "cli.analyze": [
                "analyze", "--counts", p("counts.csv"),
                "--out-report", p("report.txt"), "--out-csv", p("report.csv"),
            ],
            "cli.efficiency": ["efficiency", "--counts", p("counts.csv"), "--out", p("eta_est.txt")],
            "cli.keyrate_sweep": [
                "keyrate", "--dim", str(CLI_DIM), "--sweep", SWEEP, "--out", p("sweep.csv"),
            ],
        }  # fmt: skip
        codes = {}
        for name, argv in commands.items():
            with rec.call(name), contextlib.redirect_stdout(io.StringIO()):
                codes[name] = cli_dispatch(argv)
        with rec.call("counts.load"):
            counts = load_counts(p("counts.csv"))
        with rec.call("counts.save"):
            save_counts(counts, p("counts_copy.csv"))
        return CliOutcome(exit_codes=codes)

    def check(self, inputs: CliInputs, out: CliOutcome, rec) -> None:
        p = inputs.path
        rec.check(
            "cli.exit_codes",
            all(code == 0 for code in out.exit_codes.values()),
            f"exit codes {out.exit_codes}",
        )
        counts = Path(p("counts.csv")).read_bytes()
        rec.check(
            "counts.round_trip",
            Path(p("counts_copy.csv")).read_bytes() == counts,
            "load_counts then save_counts changed the counts file",
        )
        rec.check(
            "cli.log_does_not_change_counts",
            Path(p("counts_log.csv")).read_bytes() == counts,
            "simulate wrote different counts with --log",
        )
        lines = Path(p("log.csv")).read_bytes().count(b"\n")
        rec.check(
            "cli.log_rows",
            lines == CLI_ROUNDS + 1,
            f"log has {lines} lines, want {CLI_ROUNDS + 1}",
        )
        rec.check("cli.report_csv_parses", _report_csv_ok(p("report.csv")), "bad report CSV")

    def counts(self, inputs: CliInputs, out: CliOutcome) -> dict:
        log_rows = Path(inputs.path("log.csv")).read_bytes().count(b"\n") - 1
        coincidences = int(load_counts(inputs.path("counts.csv")).total_coincidences())
        return {
            "protocol.rounds": CLI_ROUNDS,
            "protocol.coincidences": coincidences,
            "protocol.log_rows": log_rows,
            "protocol.coinc_yield": coincidences / CLI_ROUNDS,
            "counts.bytes": Path(inputs.path("counts.csv")).stat().st_size,
            "cli.log_bytes": Path(inputs.path("log.csv")).stat().st_size,
        }


def _report_csv_ok(path: str) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1 or list(rows[0]) != ["d", "Q", "Q_max", "r_min", "I_AB", "holevo_gap"]:
        return False
    values = [float(v) for v in rows[0].values()]
    return all(math.isfinite(v) for v in values) and int(values[0]) == CLI_DIM


WORKLOADS = {
    "eb_kernel": SessionWorkload("eb", 8_000_000, visibility=0.9),
    "pm_keymat": SessionWorkload("pm", 4_000_000, flip_prob=0.05),
    "algebra_all_d": AlgebraWorkload(),
    "cli_files": CliWorkload(),
}
