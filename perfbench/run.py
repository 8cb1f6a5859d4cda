#!/usr/bin/env python3
"""End-to-end sweep benchmark of libbml: four workloads, output-checked.

Run from the repository root:

  python3 perfbench/run.py --workload fleet_day --seed 97 --seconds 38 --trace 0
  python3 perfbench/run.py --workload fleet_day --seed 97 --seconds 38 --trace 1
  python3 perfbench/run.py compare BASE.jsonl NEW.jsonl
  python3 perfbench/run.py record --workload fleet_day --seeds 97,424242

The first form measures the end-to-end metrics, the second the per-layer
metrics (see perfbench/README.md). Both build perfbench/bmlbench against the
repository's libbml first (under $CARGO_TARGET_DIR, default .bench_build),
write the workload's spec for the seed, and then run samples in a closed
loop — one bmlbench process at a time — until --seconds have passed. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --results FILE also appends the run to FILE
for the compare mode. The exit code is non-zero when the build or every
sample process fails (no result is printed then), and when any output
check fails (the result says correct: false).
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

# A run keeps sampling until --seconds have passed, and takes at least this
# many samples, so that every metric is a median.
MIN_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    template: str          # spec under perfbench/specs
    threads: int           # sweep worker threads
    seed_key: str          # top-level spec key the workload seed goes into
    extra: Callable[[int], str] | None = None  # sections appended per seed


def channels_visitors(seed):
    """Transient tenants of channels_day: explicit arrive/depart intervals
    drawn from the workload seed, so that the program sees only a spec."""
    rng = random.Random(seed)
    sections = []
    for k in range(24):
        arrive = 600 + int(rng.random() * 64200)
        depart = arrive + 3600 + int(rng.random() * 18000)
        sections.append(
            "[app]\n"
            f"name = visitor-{k}\n"
            "trace = flash_crowd\n"
            "trace.base = 25000\n"
            "trace.burst_peak = 130000\n"
            "trace.duration = 86400\n"
            "trace.burst_start = 34000\n"
            "trace.ramp = 2400\n"
            "trace.hold = 9000\n"
            "scheduler = bml\n"
            "predictor = oracle-max\n"
            "qos = tolerant\n"
            "fault_domain = visitors\n"
            "priority = 1\n"
            f"arrive = {arrive}\n"
            f"depart = {depart}\n")
    return "\n" + "\n".join(sections)


# Own seeds (the specs' shipped values): fleet_day 97, worldcup_87d 1998,
# predictor_grid 7, channels_day 7. Held out from tuning: 424242.
WORKLOADS = {
    "fleet_day": Workload("fleet_day.scn", 1, "seed"),
    "worldcup_87d": Workload("worldcup_87d.scn", 1, "trace.seed"),
    "predictor_grid": Workload("predictor_grid.scn", 2, "seed"),
    "channels_day": Workload("channels_day.scn", 1, "seed", channels_visitors),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dirs():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench", target / "perfbench-work"


def build():
    """Configures and builds bmlbench; returns its path."""
    build_dir, _ = build_dirs()
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bmlbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "bmlbench"


def write_spec(name, seed, traced):
    """The workload's spec for `seed`; traced specs also set obs.metrics."""
    w = WORKLOADS[name]
    text = (BENCH_DIR / "specs" / w.template).read_text()
    head, sep, apps = text.partition("\n[app]\n")
    lines = head.split("\n")
    hits = [i for i, line in enumerate(lines)
            if line.split("=")[0].strip() == w.seed_key]
    if len(hits) != 1:
        raise SystemExit(f"{w.template}: expected one top-level "
                         f"'{w.seed_key}' line")
    lines[hits[0]] = f"{w.seed_key} = {seed}"
    if traced:
        lines.insert(hits[0] + 1, "obs.metrics = true")
    text = "\n".join(lines) + sep + apps
    if w.extra:
        text += w.extra(seed)
    _, work = build_dirs()
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{name}-{seed}-{'traced' if traced else 'plain'}.scn"
    path.write_text(text)
    return path


def grid_size(spec_path):
    """Scenarios the spec expands to: the product of its sweep axis sizes."""
    n = 1
    for line in spec_path.read_text().splitlines():
        if line.startswith("sweep "):
            n *= len(line.partition("=")[2].split(","))
    return n


def run_bmlbench(args):
    """One bmlbench process; returns its JSON result, or None on failure."""
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        log(f"bmlbench failed ({proc.returncode}): "
            f"{proc.stdout.strip()} {proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"bmlbench printed no result: {proc.stdout!r}")
        return None


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class Checker:
    """Counts attempted and failed scenarios across the samples of a run.

    A scenario fails when its sample process fails, when its CSV row or the
    sweep's metrics text differs from the digest recorded for this workload
    and seed, when its row differs from the first sample's (every sample of
    a run must produce the same bytes), or when its per-app compute
    energies do not sum to the cluster compute energy."""

    def __init__(self, recorded, expected, with_metrics_text):
        self.recorded = recorded
        self.expected = expected
        # Only specs with obs.metrics render a metrics text.
        self.with_metrics_text = with_metrics_text
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, bad, reason):
        self.failed += len(bad)
        self.reasons.append(reason)

    def check(self, sample, extra_bad=(), extra_reason=""):
        self.attempted += self.expected
        if sample is None:
            self.fail(range(self.expected), "sample failed")
            return False
        rows = sample["rows"]
        bad = set(extra_bad)
        if len(rows) != self.expected:
            bad.update(range(self.expected))
        bad.update(sample["conservation_failures"])
        reference = self.recorded or self.first
        if reference:
            if sample["csv_header"] != reference["csv_header"]:
                bad.update(range(self.expected))
            bad.update(i for i, (a, b) in enumerate(zip(rows, reference["rows"]))
                       if a != b)
            if (self.with_metrics_text
                    and sample["metrics_text"] != reference["metrics_text"]):
                bad.update(range(self.expected))
        if self.first is None:
            self.first = {k: sample[k]
                          for k in ("csv_header", "rows", "metrics_text")}
        bad = {i for i in bad if i < self.expected}
        if bad:
            self.fail(bad, extra_reason or "output check")
        return not bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def measure_plain(exe, name, seed, seconds, checker):
    threads = str(WORKLOADS[name].threads)
    spec = write_spec(name, seed, traced=False)
    samples = []
    attempts = 0
    deadline = time.monotonic() + seconds
    while attempts < MIN_SAMPLES or time.monotonic() < deadline:
        attempts += 1
        sample = run_bmlbench([str(exe), "sample", str(spec), threads])
        checker.check(sample)
        if sample is not None:
            samples.append(sample)
    values = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_kb"] / 1024.0 for s in samples],
        "app_days_per_s": [s["app_seconds"] / 86400.0 / s["wall_s"]
                           for s in samples],
    }
    return values, len(samples)


def measure_traced(exe, name, seed, seconds, checker):
    """Pairs of a library sample (with obs.metrics, as `bmlsim sweep
    --metrics`) and a traced replay, each in a fresh process, alternating
    which runs first. The replay must reproduce the library sample."""
    threads = str(WORKLOADS[name].threads)
    spec = write_spec(name, seed, traced=True)
    values = {}
    pairs = 0
    attempts = 0
    deadline = time.monotonic() + seconds
    while attempts < MIN_SAMPLES or time.monotonic() < deadline:
        attempts += 1
        lib_cmd = [str(exe), "sample", str(spec), threads]
        traced_cmd = [str(exe), "traced", str(spec)]
        if attempts % 2 == 1:
            lib, traced = run_bmlbench(lib_cmd), run_bmlbench(traced_cmd)
        else:
            traced, lib = run_bmlbench(traced_cmd), run_bmlbench(lib_cmd)
        bad, reasons = set(), []
        if traced is None:
            bad.update(range(checker.expected))
            reasons.append("traced replay failed")
        elif lib is not None:
            rows = {i for i, (a, b) in enumerate(
                zip(traced["results"], lib["results"])) if a != b}
            if rows:
                bad.update(rows)
                reasons.append("traced rows differ")
            for key in ("metrics_text", "builds", "build_reuses", "scenarios"):
                if traced[key] != lib[key]:
                    bad.update(range(checker.expected))
                    reasons.append(f"traced {key} differs")
            if traced["mismatches"]:
                bad.update(range(checker.expected))
                reasons.extend(traced["mismatches"])
        checker.check(lib, bad, "; ".join(reasons) or "output check")
        if lib is None or traced is None:
            continue
        pairs += 1
        layers = dict(traced["layers"])
        layers["scenario.csv_s"] = lib["csv_s"]
        layers["scenario.builds"] = lib["builds"]
        layers["scenario.build_reuses"] = lib["build_reuses"]
        layers["sweep.busy_s"] = lib["rows_wall_s"]
        layers["sweep.parallel_efficiency"] = (
            lib["rows_wall_s"] / (lib["threads"] * lib["sweep_s"]))
        # The replay runs on one thread; compare it with the library's
        # summed work (set-up plus every row), not with its parallel wall.
        layers["bench.tracing_overhead_s"] = (
            traced["wall_s"] - (lib["setup_s"] + lib["rows_wall_s"]))
        for key, value in layers.items():
            values.setdefault(key, []).append(value)
    return values, pairs


def cmd_measure(args):
    name, seed = args.workload, args.seed
    recorded = load_digests().get(name, {}).get(str(seed))
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    checker = Checker(recorded, grid_size(write_spec(name, seed, args.trace)),
                      with_metrics_text=bool(args.trace))
    measure = measure_traced if args.trace else measure_plain
    values, samples = measure(exe, name, seed, args.seconds, checker)
    if samples == 0:
        log("every sample failed: " + "; ".join(checker.reasons[:5]))
        return 1

    metrics = {}
    print(f"{name} seed={seed} trace={args.trace} samples={samples} "
        f"digest={'recorded' if recorded else 'none (in-run check only)'}")
    for metric, unit in specs:
        if metric not in values:
            log(f"metric {metric} was not measured")
            return 1
        q1, median, q3 = quartiles(values[metric])
        metrics[metric] = {"value": median, "unit": unit}
        print(f"  {metric:32s} {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, "
            f"n={len(values[metric])})")
    failed_frac = checker.failed / checker.attempted
    print(f"  failed_frac {failed_frac:.6g} ({checker.failed} of "
        f"{checker.attempted} scenarios)")
    for reason in sorted(set(checker.reasons)):
        print(f"  check failed: {reason}")
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    if args.results:
        with open(args.results, "a") as out:
            out.write(json.dumps({"workload": name, "seed": seed,
                                  "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


def cmd_record(args):
    """Records the CSV and metrics-text digests of a library sample with
    obs.metrics on, per seed, into perfbench/digests.json."""
    exe = build()
    digests = load_digests()
    for seed in (int(s) for s in args.seeds.split(",")):
        spec = write_spec(args.workload, seed, traced=True)
        sample = run_bmlbench([str(exe), "sample", str(spec),
                               str(WORKLOADS[args.workload].threads)])
        if sample is None or sample["conservation_failures"]:
            log(f"seed {seed}: sample failed, nothing recorded")
            return 1
        digests.setdefault(args.workload, {})[str(seed)] = {
            k: sample[k] for k in ("csv_header", "rows", "metrics_text")}
        log(f"{args.workload} seed {seed}: {len(sample['rows'])} rows")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def verdict(base, new, better):
    """Section 8 of the choosing-metrics method: a side wins when it wins at
    least nine tenths of the pairs (ties count for neither) and the medians
    differ by more than the base's own quartile distance."""
    pairs = list(zip(base, new))
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    q1, med_b, q3 = quartiles(base)
    med_n = statistics.median(new)
    resolved = abs(med_n - med_b) > (q3 - q1)
    if resolved and wins >= 0.9 * len(pairs):
        return "better"
    if resolved and losses >= 0.9 * len(pairs):
        return "worse"
    return "unresolved"


def cmd_compare(args):
    def runs(path):
        by = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                r = json.loads(line)
                if not r["trace"]:
                    by.setdefault(r["workload"], []).append(r)
        return by

    base, new = runs(args.base), runs(args.new)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':15s} {'metric':15s} {'base q1/median/q3':>29s} "
          f"{'new q1/median/q3':>29s} {'pairs':>5s} {'within bound':>12s} "
          "verdict")
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base[workload]]
            n = [r["metrics"][m["name"]]["value"] for r in new[workload]]
            k = min(len(b), len(n))
            b, n = b[:k], n[:k]
            bq, nq = quartiles(b), quartiles(n)
            worse_by = (nq[1] - bq[1]) / bq[1]
            if m["better"] == "higher":
                worse_by = -worse_by
            print(f"{workload:15s} {m['name']:15s} "
                  f"{bq[0]:9.4g}/{bq[1]:9.4g}/{bq[2]:9.4g} "
                  f"{nq[0]:9.4g}/{nq[1]:9.4g}/{nq[2]:9.4g} {k:5d} "
                  f"{'yes' if worse_by <= m['bound'] else 'no':>12s} "
                  f"{verdict(b, n, m['better'])}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="result lines of the parent (--results)")
        p.add_argument("new", help="result lines of the change (--results)")
        return cmd_compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "record":
        p = argparse.ArgumentParser(prog="run.py record")
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--seeds", required=True, help="comma-separated")
        return cmd_record(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", help="append this run to a result-lines file")
    args = p.parse_args()
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2^63)")
    return cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
