"""mubqkd benchmark: one workload per run, or all four with ``--workload all``.

    python3 bench/run.py --workload eb_kernel --seed 7 --seconds 30 --trace 0

Run it from the repository root.  The benchmark imports mubqkd from
``src/`` next to it and fails with exit code 1 if that is missing.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json;
with ``--trace 1`` they are the ``per_layer`` list, measured from spans.
The lines before it name every metric with its unit, and the environment.
A full record (samples, environment, spans) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import ITERATION, Recorder, spans_as_records, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("eb_kernel", "pm_keymat", "algebra_all_d", "cli_files")
SETUP_PROBES = 7
# setup_s is quoted at the speed where one reference pass takes this long: the
# median pass on the machine the benchmark was written on (see bench/README.md).
REFERENCE_S = 0.30
PROBE_TIMEOUT_S = 120
TAIL_SAMPLES = 10  # a tail percentile needs this many samples above it
# Environment fields that must match before two results are compared.
ENVIRONMENT_KEYS = ("cpu_model", "caches", "nproc", "python", "numpy")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("seed must be a nonnegative 63-bit integer")
    return args


def work_dir() -> Path:
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


# --------------------------------------------------------------------------
# set-up time, in fresh processes


def print_probe(args) -> None:
    """Print one fresh-process figure, as asked by ``--probe``.

    ``setup``: seconds from before ``import mubqkd`` to built inputs.
    ``rss``: peak resident MiB after set-up and one iteration, so the
    figure holds the workload's memory and none of the harness's.
    """
    workdir = work_dir()
    try:
        t0 = time.perf_counter()
        import mubqkd  # noqa: F401  (timed: the package import is part of set-up)
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        inputs = wl.setup(args.seed, workdir)
        if args.probe == "setup":
            print(repr(time.perf_counter() - t0))
        else:
            wl.iterate(inputs, Recorder())
            print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_probe(args, kind: str) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# the measurement loop


def one_iteration(wl, inputs, rec):
    t0 = time.perf_counter()
    try:
        with rec.span(ITERATION):
            out = wl.iterate(inputs, rec)
    except Exception as exc:  # counted as a failed operation, reported below
        rec.fail(f"iteration {rec.iteration}", exc)
        return None, 0.0
    elapsed = time.perf_counter() - t0
    try:
        wl.check(inputs, out, rec)
    except Exception as exc:
        rec.fail(f"checks of iteration {rec.iteration}", exc)
    return out, elapsed


def measure(wl, inputs, rec, seconds: float, trace: bool, probe):
    """Time iterations until the next would overrun ``seconds``.

    One pass of the reference workload runs before each iteration.  The
    gated figure divides the untraced iterations' total time by the total,
    over those iterations, of the mean of the passes just before and just
    after each (see bench/reference.py).  The SETUP_PROBES set-up probes
    run between iterations, spread over the run, each followed by a
    reference pass.  A traced run alternates untraced and traced iterations, so one run
    gives the tracing overhead.  Returns the last outcome (None after a
    failure) and a dict of samples: ``plain`` and ``traced`` iteration
    seconds, ``ref`` the reference seconds around each untraced iteration
    as (before, after), ``setup`` set-up seconds with the reference pass
    after each as (setup, reference), and ``rss_mb``, the peak
    resident MiB of a fresh process that ran one iteration.
    """
    from reference import reference_s  # imports numpy, which set-up probes must time

    start = time.perf_counter()
    samples = {"plain": [], "traced": [], "ref": [], "setup": [], "rss_mb": probe("rss")}
    before = None  # reference before the last untraced iteration, awaiting the one after
    while True:
        setup = None
        if len(samples["setup"]) < SETUP_PROBES * (time.perf_counter() - start) / seconds:
            setup = probe("setup")
        rec.iteration += 1
        rec.tracing = trace and rec.iteration % 2 == 0
        ref = reference_s()
        if setup is not None:
            samples["setup"].append((setup, ref))
        if before is not None:
            samples["ref"].append((before, ref))
            before = None
        out, elapsed = one_iteration(wl, inputs, rec)
        if out is None:
            break
        if rec.tracing:
            samples["traced"].append(elapsed)
        else:
            samples["plain"].append(elapsed)
            before = ref
        plain = samples["plain"]
        enough = bool(plain) and (bool(samples["traced"]) or not trace)
        if enough and time.perf_counter() + statistics.median(plain) > start + seconds:
            break
    rec.tracing = False
    if before is not None:
        samples["ref"].append((before, reference_s()))
    while len(samples["setup"]) < SETUP_PROBES:
        samples["setup"].append((probe("setup"), reference_s()))
    return out, samples


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with TAIL_SAMPLES samples above it, and its value."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return None
    k = n - TAIL_SAMPLES - 1
    return 100.0 * (k + 1) / n, sorted(samples)[k]


# --------------------------------------------------------------------------
# environment


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mubqkd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu() -> tuple[str | None, dict]:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return model, caches


def environment() -> dict:
    import numpy

    model, caches = _cpu()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def layer_values(wl, inputs, out, summary, samples) -> dict:
    """Every per-layer metric this workload has; the rest read 0 (not called)."""
    plain = statistics.median(samples["plain"])
    values = {f"{name}_s": secs for name, secs in summary["calls"].items()}
    values.update({f"{layer}.self_s": secs for layer, secs in summary["self"].items()})
    values["trace.uncovered_s"] = summary["uncovered"]
    values["trace.overhead_s"] = statistics.median(samples["traced"]) - plain
    values.update(wl.counts(inputs, out))
    rounds = values.get("protocol.rounds", 0)
    rounds_time = summary["calls"].get(wl.rounds_span, 0.0)
    values["protocol.rounds_per_s"] = rounds / rounds_time if rounds_time else 0.0
    values["protocol.key_symbols_per_s"] = values.get("protocol.key_symbols", 0) / plain
    plain_sim = values.get("cli.simulate_s", 0.0)
    if plain_sim:
        values["cli.log_overhead"] = values.get("cli.simulate_log_s", 0.0) / plain_sim
    return values


def run_one(args) -> int:
    spec = load_spec()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = work_dir()
    try:
        inputs = wl.setup(args.seed, workdir)
        rec = Recorder()
        t0 = time.perf_counter()
        try:
            out, samples = measure(
                wl, inputs, rec, args.seconds, bool(args.trace), lambda kind: run_probe(args, kind)
            )
        except subprocess.SubprocessError as exc:
            rec.fail("probe process", exc)
            out, samples = None, {"plain": []}
        if out is not None:
            rec.iteration = -1  # spans of the untimed after-phase
            rec.tracing = bool(args.trace)
            try:
                wl.after(inputs, out, rec, bool(args.trace))
            except Exception as exc:
                rec.fail("after-phase", exc)
            rec.tracing = False
        env = environment()
        described = wl.describe(inputs)
        summary = summarize(rec.spans)
        correct = rec.failed == 0 and out is not None
        plain = samples["plain"]
        values = {}
        if plain:
            values = {
                "pipeline_rel": sum(plain) / sum((a + b) / 2.0 for a, b in samples["ref"]),
                "setup_s": REFERENCE_S
                * statistics.median(t / r for t, r in samples["setup"]),
                "peak_rss_mb": samples["rss_mb"],
            }
        if args.trace and correct:
            values.update(layer_values(wl, inputs, out, summary, samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# inputs {json.dumps(described, sort_keys=True)}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for line in rec.failures:
        print(f"# FAILURE {line}")
    print(f"fail_frac = {rec.failed}/{rec.attempted} = {rec.failed / max(rec.attempted, 1):.6g}")
    if plain:
        tail_text = "none (ten or fewer samples)"
        if tail(plain):
            tail_text = "p{:.0f} = {:.6g} s".format(*tail(plain))
        print(
            f"pipeline_s median = {statistics.median(plain):.6g} s, fastest "
            f"{min(plain):.6g} s, tail {tail_text}, n = {len(plain)} iterations"
        )
        refs = [r for pair in samples["ref"] for r in pair]
        print(f"reference_s median = {statistics.median(refs):.6g} s")
        raw_setup = statistics.median(t for t, _ in samples["setup"])
        print(f"setup_s raw median = {raw_setup:.6g} s over {len(samples['setup'])} probes")
    for name, metric in metrics.items():
        absent = " (not called in this workload)" if args.trace and not metric["value"] else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{absent}")
    if args.trace and correct:
        for name, secs in sorted(summary["tagged"].items()):
            print(f"  span {name} = {secs:.6g} s")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": described,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "samples": samples,
        "values": values,
        "tagged_spans_s": summary["tagged"],
        "spans": spans_as_records(rec.spans, t0),
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# all four workloads, and the ROADMAP item-1 table


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(done.stderr)
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
        results[name]["exit_code"] = done.returncode

    if args.trace:
        print_item1_table(args)
    correct = all(r["correct"] and r["exit_code"] == 0 for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def print_item1_table(args) -> None:
    """The ROADMAP item-1 rows next to their first measured baseline."""
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        baseline = json.load(fh)
    records = {}
    for name in WORKLOAD_NAMES:
        path = ROOT / ".bench_out" / f"{name}-seed{args.seed}-trace1.json"
        with open(path, encoding="utf-8") as fh:
            records[name] = json.load(fh)
    here, then = records[WORKLOAD_NAMES[0]]["environment"], baseline["environment"]
    differ = [k for k in ENVIRONMENT_KEYS if here.get(k) != then.get(k)]
    if differ:
        print(f"WARNING: the baseline comes from another environment ({', '.join(differ)} differ)")
    print(f"{'ROADMAP item-1 row':48s} {'metric':46s} {'baseline s':>10s} {'now s':>10s}")
    for row in baseline["item1_table"]:
        key, rec = row["metric"], records[row["workload"]]
        now = rec["values"].get(key, rec["tagged_spans_s"].get(key))
        now_text = "n/a" if now is None else f"{now:.4g}"
        base_text = "n/a" if row["baseline"] is None else f"{row['baseline']:.4g}"
        label = f"{row['workload']}:{key}" if key else "none (needs spans inside mubqkd)"
        print(f"{row['row']:48s} {label:46s} {base_text:>10s} {now_text:>10s}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mubqkd" / "__init__.py").is_file():
        sys.stderr.write("bench: src/mubqkd not found next to the benchmark; nothing to measure\n")
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        print_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
