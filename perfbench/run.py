#!/usr/bin/env python3
"""The repository's benchmark: schedule exploration, end to end and per layer.

    python3 perfbench/run.py --workload exh-dedup --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 [--record]

Run from the root of a checkout. The script builds perfbench/bench.exe
from source (dune, release profile, build directory .bench_build), then
drives it one measurement per process, so the peak RSS and CPU time of
each run belong to that run alone.

--trace 0 repeats the untraced workload for about --seconds seconds and
reports the medians of the end-to-end metrics. --trace 1 runs the
workload untraced, layer-timed, layer-timed again and untraced again,
runs the standalone rungs (Fiber, Aug/Aug_spec, Harness, Obs) and
reports the per-layer metrics. Both check verdicts: clean runs report no violation, repeated
and traced runs report the same counts, exh-dedup reports the same
counts on 1 and 2 domains, and the workload's seeded-bug twin is caught.
Every check is one attempt; `failed` counts the ones that did not hold.

A table of every metric, with its unit and workload, goes to standard
output; the last line is one JSON object {correct, attempted, failed,
metrics}. --workload all runs every workload in both modes; --record
then appends one line (git sha, nproc, OCaml version, each workload's
medians) to perfbench/trajectory.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
TRAJECTORY = os.path.join(ROOT, "perfbench", "trajectory.jsonl")

NPROC = len(os.sched_getaffinity(0))

# name -> domains of the measured run
WORKLOADS = {
    "exh-dedup": min(2, NPROC),
    "exh-racing": 1,
    "sweep-spec": 1,
}

MIN_REPS = 3  # untraced repetitions per --trace 0 run, at least
PASS_BUDGET_S = 170  # a run must end within 180 s
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Default oracles of the three workloads (Aug_target and Harness_target).
ORACLES = ["no-failure", "aug-spec", "theorem20", "progress",
           "lemma26-replay", "consensus"]

LAYER_UNITS = {
    "explore.prefixes": "count",
    "explore.executions": "count",
    "explore.leaves": "count",
    "explore.dedup_hits": "count",
    "explore.leaf_frac": "ratio",
    "explore.dedup_hit_rate": "ratio",
    "explore.probe_us": "us",
    "explore.probe_share": "ratio",
    "explore.outer_share": "ratio",
    "explore.cpu_util": "ratio",
    "explore.execs_per_s": "1/s",
    "explore.exec_self_us": "us",
    "explore.exec_ns_per_step": "ns",
    "explore.judge_us": "us",
    **{f"oracle.{o}_us": "us" for o in ORACLES},
    "fiber.dispatch_ns_per_op": "ns",
    "fiber.minor_words_per_op": "words",
    "fiber.run_setup_us": "us",
    "fiber.retained_kb_per_stopped_run": "KB",
    "aug.apply_ns.hscan": "ns",
    "aug.apply_ns.append_triples": "ns",
    "aug.apply_ns.append_lrecords": "ns",
    "aug.scan_hops": "count",
    "aug.bu_yield_frac": "ratio",
    "aug_spec.check_us": "us",
    "harness.run_us": "us",
    "harness.h_ops_per_run": "count",
    "obs.incr_ns.d1": "ns",
    "obs.incr_ns.d2": "ns",
    "gc.minor_words_per_exec": "words",
    "gc.promoted_words_per_exec": "words",
    "gc.major_collections": "count",
    "gc.top_heap_mb": "MB",
    "trace.overhead_frac": "ratio",
}

COUNT_KEYS = ["prefixes", "executions", "leaves", "dedup_hits"]


def build():
    # Keep every file the build writes inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(BUILD, "xdg-cache"))
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", "--display", "quiet",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")


class Pass:
    """One measurement pass: its deadline and its verdict checks."""

    def __init__(self):
        self.deadline = time.monotonic() + PASS_BUDGET_S
        self.checks = []  # (name, ok, detail)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        return ok

    def child(self, *args):
        """Run bench.exe once; its JSON result with the process's peak RSS
        (MB), or None after recording a failed check."""
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        label = " ".join(args)
        if timeout <= 0:
            self.check(label, False, "time budget exhausted")
            return None
        p = subprocess.Popen([EXE, *args], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            out = p.stdout.read().decode(errors="replace")
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            p.stdout.close()
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if p.returncode != 0 or result is None:
            self.check(label, False,
                       f"exit {p.returncode}: {out.strip()[-300:]}")
            return None
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    def clean_run(self, label, r):
        """A run of the unfaulted workload must report no violation."""
        return self.check(label, r is not None and not r["violations"],
                          "" if r is None else "; ".join(r["violations"]))

    def same_counts(self, label, a, b):
        if a is None or b is None:
            return self.check(label, False, "missing run")
        ca = [a[k] for k in COUNT_KEYS]
        cb = [b[k] for k in COUNT_KEYS]
        return self.check(label, ca == cb, f"{ca} vs {cb}")

    def twin(self, workload, seed, domains):
        r = self.child("twin", workload, str(seed), str(domains))
        self.check("seeded-bug twin caught",
                   r is not None and r["caught"],
                   "" if r is None else "; ".join(r["errors"]))

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.checks if not ok)


def end_to_end(workload, seed, seconds):
    ps = Pass()
    domains = WORKLOADS[workload]
    start = time.monotonic()
    runs = []
    while True:
        r = ps.child("plain", workload, str(seed), str(domains))
        ps.clean_run(f"plain run {len(runs) + 1}", r)
        if r is None:
            break
        if runs:
            ps.same_counts(f"plain run {len(runs) + 1} counts", runs[0], r)
        runs.append(r)
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_REPS and elapsed * (1 + 1 / len(runs)) > seconds:
            break
        if time.monotonic() + elapsed / len(runs) * 1.5 > ps.deadline - 20:
            break
    setup = ps.child("setup", workload, str(seed), str(domains))
    ps.twin(workload, seed, domains)
    metrics = {}
    if runs and setup is not None:
        for k, unit in E2E_UNITS.items():
            if k != "setup_s":
                metrics[k] = (statistics.median(r[k] for r in runs), unit)
        metrics["setup_s"] = (setup["setup_s"], "s")
    notes = {"runs": len(runs),
             "ocaml": runs[0]["ocaml"] if runs else "unknown"}
    return ps, metrics, notes


def per_layer(workload, seed):
    ps = Pass()
    domains = WORKLOADS[workload]
    args = (workload, str(seed), str(domains))
    # Plain, traced, traced, plain: the tracing overhead is taken over
    # both pairs, so a drift in machine speed during the pass cancels.
    plain = ps.child("plain", *args)
    traced = ps.child("traced", *args)
    traced2 = ps.child("traced", *args)
    plain2 = ps.child("plain", *args)
    for label, r in [("plain run", plain), ("traced run", traced),
                     ("second traced run", traced2),
                     ("second plain run", plain2)]:
        ps.clean_run(label, r)
        if r is not plain:
            ps.same_counts(f"{label}: same counts as the plain run", r, plain)
    one = plain
    if domains > 1:
        one = ps.child("plain", workload, str(seed), "1")
        ps.clean_run("1-domain run", one)
        ps.same_counts(f"counts on 1 domain = on {domains}", one, plain)
    ps.twin(workload, seed, domains)
    rungs = {}
    for rung in ["fiber", "aug", "harness", "obs"]:
        r = ps.child("rung", rung, str(seed))
        ps.check(f"{rung} rung", r is not None)
        if r is not None:
            r.pop("peak_rss_mb")
            rungs.update(r)

    metrics, e2e = {}, {}
    if plain is not None:
        for k, unit in E2E_UNITS.items():
            if k in plain:
                e2e[k] = (plain[k], unit)
    runs = [plain, traced, traced2, plain2, one]
    if all(r is not None for r in runs):
        m = {}
        execs = plain["executions"]
        m["explore.prefixes"] = plain["prefixes"]
        m["explore.executions"] = execs
        m["explore.leaves"] = plain["leaves"]
        m["explore.dedup_hits"] = plain["dedup_hits"]
        m["explore.leaf_frac"] = plain["leaves"] / execs
        m["explore.dedup_hit_rate"] = (
            plain["dedup_hits"] / (plain["prefixes"] + plain["dedup_hits"]))
        capacity = traced["wall_s"] * traced["domains"]
        probes = traced["probes"]
        m["explore.probe_us"] = (
            traced["probe_s"] / probes * 1e6 if probes else 0.0)
        m["explore.probe_share"] = traced["probe_s"] / capacity
        m["explore.outer_share"] = (
            1 - (traced["exec_s"] + traced["judge_s"]) / capacity)
        m["explore.cpu_util"] = (
            plain["cpu_s"] / (plain["wall_s"] * plain["domains"]))
        m["explore.execs_per_s"] = execs / plain["wall_s"]
        self_s = (traced["exec_s"] - traced["probe_s"]
                  - traced["oracle_in_exec_s"])
        m["explore.exec_self_us"] = self_s / traced["execs"] * 1e6
        m["explore.exec_ns_per_step"] = self_s / traced["steps"] * 1e9
        judged = traced["judges"] + traced["checked"]
        m["explore.judge_us"] = (
            (traced["judge_s"] + traced["oracle_in_exec_s"]) / judged * 1e6)
        for o in ORACLES:
            # 0 for an oracle that is not one of this workload's defaults
            m[f"oracle.{o}_us"] = (
                traced["oracle_s"].get(o, 0.0) / judged * 1e6)
        m.update(rungs)
        one_execs = one["executions"]
        m["gc.minor_words_per_exec"] = one["minor_words"] / one_execs
        m["gc.promoted_words_per_exec"] = one["promoted_words"] / one_execs
        m["gc.major_collections"] = one["major_collections"]
        m["gc.top_heap_mb"] = one["top_heap_words"] * 8 / 2**20
        m["trace.overhead_frac"] = (
            (traced["wall_s"] + traced2["wall_s"])
            / (plain["wall_s"] + plain2["wall_s"]) - 1)
        missing = [k for k in LAYER_UNITS if k not in m]
        if ps.check("every per-layer metric measured", not missing,
                    ", ".join(missing)):
            metrics = {k: (m[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    notes = {"absent": [f"oracle.{o}_us" for o in ORACLES
                        if traced and o not in traced["oracle_s"]]}
    return ps, metrics, dict(notes, e2e=e2e)


def fmt(v):
    return str(v) if isinstance(v, int) else f"{v:.6f}"


def print_table(workload, trace, ps, metrics, notes):
    mode = "per-layer (traced pass)" if trace else "end-to-end (untraced)"
    print(f"== {workload}: {mode}")
    if not trace:
        print(f"   medians of {notes['runs']} runs; OCaml {notes['ocaml']},"
              f" nproc {NPROC}, {WORKLOADS[workload]} domain(s)")
    for k, (v, unit) in notes.get("e2e", {}).items():
        print(f"{workload:<11} {k:<36} {fmt(v):>16} {unit}  (untraced run)")
    absent = set(notes.get("absent", []))
    for k, (v, unit) in metrics.items():
        shown = "n/a" if k in absent else fmt(v)
        print(f"{workload:<11} {k:<36} {shown:>16} {unit}")
    attempted = len(ps.checks)
    rate = ps.failed / attempted if attempted else 1.0
    print(f"{workload:<11} {'error_rate':<36} {rate:>16.6f} ratio"
          f"  ({ps.failed} of {attempted} checks failed)")
    for name, ok, detail in ps.checks:
        if not ok:
            print(f"   FAILED {name}: {detail}")


def run_pass(workload, seed, seconds, trace):
    if trace:
        return per_layer(workload, seed)
    return end_to_end(workload, seed, seconds)


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=10)
        return r.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="with --workload all: append to the trajectory")
    a = ap.parse_args()
    if a.record and a.workload != "all":
        ap.error("--record needs --workload all")
    build()

    if a.workload != "all":
        ps, metrics, notes = run_pass(a.workload, a.seed, a.seconds, a.trace)
        print_table(a.workload, a.trace, ps, metrics, notes)
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        checks = ps.checks
    else:
        out, checks, record, ocaml = {}, [], {}, "unknown"
        for w in WORKLOADS:
            for trace in (0, 1):
                ps, metrics, notes = run_pass(w, a.seed, a.seconds, trace)
                print_table(w, trace, ps, metrics, notes)
                checks += ps.checks
                out.update({f"{w}/{k}": {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()})
                if not trace:
                    ocaml = notes["ocaml"]
                    record[w] = {k: v for k, (v, _) in metrics.items()}
                    record[w]["error_rate"] = ps.failed / len(ps.checks)
        if a.record and all(ok for _, ok, _ in checks):
            line = {"sha": git_sha(), "nproc": NPROC, "ocaml": ocaml,
                    "seed": a.seed, "seconds": a.seconds,
                    "date": time.strftime("%Y-%m-%d", time.gmtime()),
                    "workloads": record}
            with open(TRAJECTORY, "a") as f:
                f.write(json.dumps(line, sort_keys=True) + "\n")
            print(f"recorded in {os.path.relpath(TRAJECTORY, ROOT)}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
