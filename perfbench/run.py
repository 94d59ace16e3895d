#!/usr/bin/env python3
"""End-to-end benchmark of the repository: one workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the harness (perfbench/harness,
a Cargo package of its own) into $CARGO_TARGET_DIR (default .bench_build),
then starts one harness process per repeat until S seconds have been
measured, so every repeat begins with cold process state, as every `repro`
invocation does. Each repeat runs the cells of one `repro` invocation and
checks their outputs against the stored references.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced repeats and reports the
per-layer metrics. Human-readable lines (metric, median, quartiles, sample
count, host_cpus, commit, rustc) come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The full record also goes to .bench_out/results/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing into the checkout but .bench_out
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

WORKLOADS = ("fig6-event", "fig6-flow", "datacenter", "golden-sharded")

# The stream and fault seeds `repro` uses for its datacenter campaign. A
# datacenter run with `--seed N` replays DC_CAMPAIGNS campaigns, the i-th at
# (2013 + k, 13 + k) with k = N * DC_CAMPAIGNS + i, cycling through them
# repeat by repeat: replay time depends on the stream, so one campaign per
# run would make the run-to-run spread mostly seed-to-seed spread. Seed 0
# includes repro's own campaign, which is checked byte for byte against the
# stored reference; every campaign gets the invariant audit once per run.
DC_STREAM_SEED = 2013
DC_FAULT_SEED = 13
DC_CAMPAIGNS = 8

# Counts the simulator must reproduce exactly on every run of one seed.
EXACT_COUNTS = (
    "des.resumes",
    "des.parks",
    "simmpi.msgs",
    "simmpi.msg_bytes",
    "simmpi.retransmits",
    "netsim.flows",
    "netsim.reshares",
    "shard.windows_recorded",
    "shard.windows_verified",
    "sched.preemptions",
    "sched.resubmits",
    "sched.audit_violations",
)

# Per-layer families with one metric per cell; BENCHMARK.json lists the
# cells each family reports.
PER_CELL = (
    "hpc_apps.cell_s.",
    "hpc_apps.sim_s_per_host_s.",
    "netsim.flow_over_event.",
    "shard.speedup.",
)

# Every run must end within 180 s; the measuring loop stops starting
# repeats once this much has passed since the build finished.
MEASURE_DEADLINE_S = 150.0


class RunError(Exception):
    """The benchmark cannot run here (no checkout, failed build, ...)."""


def target_dir(root):
    return root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(root):
    """Build the harness; returns the path of its executable."""
    manifest = root / "perfbench" / "harness" / "Cargo.toml"
    if not (root / "crates" / "bench" / "Cargo.toml").is_file():
        raise RunError("crates/bench is missing: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir(root)))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise RunError(f"harness build failed (exit {done.returncode})")
    exe = target_dir(root) / "release" / "perfbench"
    if not exe.is_file():
        raise RunError(f"harness build produced no {exe}")
    return exe


def provenance(root):
    """host_cpus, the commit (or a digest of the sources outside git), and
    the rustc version: recorded with every result."""
    def out(cmd):
        try:
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = out(["git", "rev-parse", "HEAD"])
    if commit is None:
        h = hashlib.sha256()
        for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
            base = root / top
            paths = [base] if base.is_file() else sorted(base.rglob("*"))
            for p in paths:
                rel = p.relative_to(root).as_posix()
                if p.is_file() and "__pycache__" not in rel and "/target/" not in rel:
                    h.update(rel.encode() + b"\0" + p.read_bytes())
        commit = "source-sha256:" + h.hexdigest()[:16]
    return {
        "host_cpus": os.cpu_count(),
        "commit": commit,
        "rustc": out(["rustc", "--version"]) or "unknown",
    }


class Harness:
    """Starts harness processes, one repeat each, within the run's deadline."""

    def __init__(self, exe, root, deadline):
        self.exe, self.root, self.deadline = exe, root, deadline
        self.samples = []

    def run(self, workload, traced=False, extra=()):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError("out of time before a repeat could start")
        cmd = [str(self.exe), "--workload", workload, "--root", str(self.root), *extra]
        if traced:
            cmd.append("--trace")
        t0 = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise RunError(f"{workload} repeat did not finish within {left:.0f} s")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RunError(f"{workload} repeat exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RunError(f"{workload} repeat printed nothing")
        sample = json.loads(lines[-1])
        sample["process_s"] = time.monotonic() - t0
        self.samples.append(sample)
        return sample

    def has_time_for(self, seconds):
        return time.monotonic() + seconds < self.deadline


def cycle(workload):
    """How many distinct input sets a run of `workload` cycles through."""
    return DC_CAMPAIGNS if workload == "datacenter" else 1


def workload_args(workload, seed, r):
    """Harness arguments of repeat `r` of a run with `seed`. The first
    repeat of each input set also makes the checks that replay work: the
    scheduler invariant audit replays every datacenter case once more."""
    if workload != "datacenter":
        return []
    k = seed * DC_CAMPAIGNS + r % DC_CAMPAIGNS
    args = ["--stream-seed", str(DC_STREAM_SEED + k), "--fault-seed", str(DC_FAULT_SEED + k)]
    return args + (["--audit"] if r < DC_CAMPAIGNS else [])


def repeat(h, workload, seconds, seed, traced_too):
    """Repeats until `seconds` of measuring have passed and every input set
    has been run equally often: untraced only, or alternating untraced and
    traced. Traced runs compare exact counts between repeats, so they stay
    on the first input set. Returns (untraced, traced) samples."""
    untraced, traced = [], []
    t0 = time.monotonic()
    slowest = 0.0
    while True:
        r = 0 if traced_too else len(untraced)
        s = h.run(workload, extra=workload_args(workload, seed, r))
        untraced.append(s)
        slowest = max(slowest, s["process_s"])
        if traced_too:
            s = h.run(workload, traced=True, extra=workload_args(workload, seed, 0))
            traced.append(s)
            slowest = max(slowest, s["process_s"])
        done = time.monotonic() - t0 >= seconds and (traced_too or len(untraced) % cycle(workload) == 0)
        if done or not h.has_time_for(2 * slowest):
            return untraced, traced


def end_to_end(untraced):
    """The end-to-end metrics from the untraced repeats, each the median
    over repeats, with the per-repeat values."""
    per_repeat = {
        "wall_s": [s["wall_s"] for s in untraced],
        "setup_s": [stats.median(s["setup_s"]) for s in untraced],
        "critical_cell_s": [max(c["wall_s"] for c in s["cells"]) for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
    }
    return {k: (stats.median(v), v) for k, v in per_repeat.items()}


def cell_medians(samples):
    """`cell key -> median host seconds` over `samples`."""
    walls = {}
    for s in samples:
        for c in s["cells"]:
            walls.setdefault(c["key"], []).append(c["wall_s"])
    return {k: stats.median(v) for k, v in walls.items()}


def per_layer(workload, untraced, traced, baseline, problems):
    """Per-layer metrics: counts from the traced repeats (identical on every
    repeat, or a problem is recorded), host times as medians over the
    untraced repeats, and the cross-process ratios."""
    layers = {}
    untraced_names = set().union(*(s["layers"] for s in untraced))
    for name in untraced_names:
        layers[name] = stats.median([s["layers"][name] for s in untraced if name in s["layers"]])
    for name in set().union(*(s["layers"] for s in traced)) - untraced_names:
        layers[name] = stats.median([s["layers"][name] for s in traced if name in s["layers"]])
    for name in EXACT_COUNTS:
        values = [s["layers"][name] for s in untraced + traced if name in s["layers"]]
        if len(set(values)) > 1:
            problems.append(f"{name} differs between repeats: {values}")

    cells = cell_medians(untraced)
    counted = {c["key"]: c for c in traced[0]["cells"]} if traced else {}
    for denom, metric in (("resumes", "des.ns_per_resume"), ("msgs", "simmpi.ns_per_msg")):
        n = sum(c.get(denom, 0) for c in counted.values())
        busy = sum(cells[k] for k, c in counted.items() if c.get(denom, 0) > 0)
        if n:
            layers[metric] = 1e9 * busy / n

    if workload == "fig6-flow" and baseline:
        event = cell_medians(baseline)
        excess = 0.0
        for key, flow_s in cells.items():
            excess += flow_s - event[key]
            layers["netsim.flow_over_event." + key.removeprefix("fig6.")] = flow_s / event[key]
        layers["netsim.flow_excess_s"] = excess
    if workload == "golden-sharded" and baseline:
        one_engine = cell_medians(baseline)
        for key, sharded_s in cells.items():
            layers["shard.speedup." + key] = one_engine[key] / sharded_s
        layers["shard.speedup"] = sum(one_engine.values()) / sum(cells.values())

    if traced:
        plain = stats.median([s["wall_s"] for s in untraced])
        with_trace = stats.median([s["wall_s"] for s in traced])
        layers["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0)
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
        exe = build(root)
        prov = provenance(root)
        h = Harness(exe, root, time.monotonic() + MEASURE_DEADLINE_S)
        untraced, traced = repeat(h, a.workload, seconds, a.seed, traced_too=a.trace == 1)
        baseline = []
        if a.trace == 1 and a.workload == "fig6-flow":
            baseline = [h.run("fig6-event")]
        if a.trace == 1 and a.workload == "golden-sharded":
            baseline = [h.run("golden-serial") for _ in range(3)]
    except (RunError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    problems = [f"{s['workload']}: {f}" for s in h.samples for f in s["failures"]]
    attempted = sum(s["attempted"] for s in h.samples)
    failed = sum(s["failed"] for s in h.samples)
    if a.trace == 0:
        wanted = spec["end_to_end"]
        spread = end_to_end(untraced)
        measured = {k: v for k, (v, _) in spread.items()}
    else:
        wanted = spec["per_layer"]
        measured = per_layer(a.workload, untraced, traced, baseline, problems)
        spread = {}
        # Per-cell families list only the cells worth gating; any other name
        # the catalogue lacks is a mistake.
        names = {m["name"] for m in wanted}
        unknown = {n for n in set(measured) - names if not n.startswith(PER_CELL)}
        if unknown:
            problems.append(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    # A per-layer metric the workload does not exercise reads 0: that layer
    # does no work on this workload (see perfbench/README.md).
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    correct = not problems and failed == 0

    print(
        f"perfbench {a.workload} seed={a.seed} trace={a.trace} repeats={len(untraced)}"
        f"+{len(traced)}traced host_cpus={prov['host_cpus']} commit={prov['commit']}"
        f" rustc={prov['rustc']!r}"
    )
    idle = [name for name, m in metrics.items() if a.trace == 1 and m["value"] == 0]
    for name, m in metrics.items():
        if name in idle:
            continue
        line = f"  {name:48s} {m['value']:.6g} {m['unit']}"
        if name in spread:
            values = spread[name][1]
            q1, _, q3 = stats.quartiles(values)
            p = stats.highest_supported_percentile(len(values))
            top = "" if p is None else f" p{p}={stats.percentile(values, p):.6g}"
            line += f"  (median of n={len(values)}; q1={q1:.6g} q3={q3:.6g}{top})"
        print(line)
    if idle:
        print(f"  ({len(idle)} per-layer metrics read 0: layers this workload does not exercise)")
    if a.trace == 0 and a.workload == "datacenter":
        rate = stats.median([s["layers"]["sched.replay_jobs_per_s"] for s in untraced])
        print(f"  {'replay_jobs_per_s':48s} {rate:.6g} 1/s  (median of n={len(untraced)})")
    print(f"  cell_fail_frac {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for p in problems[:20]:
        print(f"  FAILED: {p}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=a.workload, seed=a.seed, trace=a.trace, problems=problems, **prov)
    record["repeats"] = {k: v for k, (_, v) in spread.items()}
    out = root / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
