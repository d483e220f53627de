#!/usr/bin/env python3
"""hcsim benchmark: end-to-end sweep times and per-layer costs.

Usage (from the repository root):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check
  python3 perfbench/run.py --pin 0-39        # re-pin reference row digests
  python3 perfbench/run.py --cross-check     # layer harness vs hcsim_bench

Builds the repository and perfbench/hcsim_perf into .bench_build/, then runs
one workload (see README.md) repetition after repetition, one process each,
for --seconds (default: BENCHMARK.json's run_seconds). --trace 0 prints the
end-to-end metrics of BENCHMARK.json, their times scaled to a reference host
speed by a probe run beside every repetition (host_probe.cpp); --trace 1
alternates untraced and traced repetitions, prints the per-layer metrics and
keeps the last traced repetition's span log as .bench_run/spans-WORKLOAD.jsonl.
Every repetition's sweep CSV rows are checked against the pinned serial
reference (reference.json), or, for a seed with no pinned
digest, against a serial in-process run made before the timed runs. The last
stdout line is the JSON result.
"""
import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_ROOT = Path(".bench_run")  # relative to ROOT: keeps socket paths short
REFERENCE = BENCH_DIR / "reference.json"
CPUS = min(len(os.sched_getaffinity(0)), 4)  # build jobs, parallel reference runs
# Sweep threads and hcsimd pool size: half the CPUs, so a busy neighbour or
# the harness itself takes a spare CPU instead of stalling a sweep thread
# (at 4 threads on 4 shared vCPUs a repetition's wall time strayed 10-45%
# above its user time / 4; at 2 threads, 4-10% above user time / 2).
THREADS = max(1, CPUS // 2)

# Per-workload hcsim_perf arguments. Changing one invalidates its pinned rows.
WORKLOADS = {
    "ladder_cached": ["--len", "300000"],
    "fig12_sampled": ["--len", "10000000", "--sample-warmup", "20000",
                      "--sample-measure", "80000", "--sample-period", "2000000"],
    "daemon_mixed": ["--len", "300000"],
}
# Tiny sizes for --self-check.
TINY = {
    "ladder_cached": ["--len", "4000"],
    "fig12_sampled": ["--len", "300000", "--sample-warmup", "2000",
                      "--sample-measure", "8000", "--sample-period", "100000"],
    "daemon_mixed": ["--len", "4000"],
}
# Layer rows (by name prefix) each workload's traced run must emit itself;
# --self-check asserts them.
EXPECTED_LAYERS = {
    "ladder_cached": ("trace.classify", "bbcache.lookup", "steer.", "predict.", "mem.",
                      "core.", "exp.", "power."),
    "fig12_sampled": ("wload.", "sample.", "bbcache.fill", "bbcache.hit", "core.setup_us",
                      "exp."),
    "daemon_mixed": ("svc.", "rv."),
}
INPUTS_PER_SEED = 6
MIN_REPS = INPUTS_PER_SEED  # every input of the seed runs at least once
DIGEST_CHARS = 8  # pinned row digests keep this many hex digits
REP_TIMEOUT_S = 150
# host_probe's pass time on the host in README.md at its usual speed.
# End-to-end times are scaled to it (see host_probe.cpp); it sets only the
# scale, so it never needs re-measuring.
PROBE_PASS_S = 0.0018
# How much more a sweep slows than the probe's ALU loop when the host slows:
# its repetition times moved with the 1.5th power of the probe's pass time
# (README.md, "End-to-end metrics").
PROBE_EXPONENT = 1.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build hcsim_perf, hcsimd and hcsim_bench."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        r = subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            sys.exit("configure failed")
    r = subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "hcsim_perf",
                        "-j", str(CPUS)], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("build failed")


def binary(name):
    own = name in ("hcsim_perf", "hcsim_probe")  # this project's; the rest are hcsim's
    return str(BUILD_DIR / (name if own else "hcsim/" + name))


def group_alive(pgid):
    """Whether any non-zombie process is left in process group `pgid`."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def run_child(args, timeout=REP_TIMEOUT_S):
    """Run one child process in its own process group; whatever it leaves
    behind (hcsimd included) is killed and waited for. Returns (rc, stdout)."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"timed out: {' '.join(args)}")
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    return proc.returncode, out


def start_probe():
    """Start host_probe beside the timed repetitions (see host_probe.cpp), or
    return None on a single CPU, where it would take the sweep's own CPU."""
    if CPUS < 2:
        return None
    return subprocess.Popen([binary("hcsim_probe")], cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)


def stop_probe(proc):
    """Stop host_probe and wait for it. Returns its passes as
    [(end_ns, dur_ns)]; empty when it did not run."""
    if proc is None:
        return []
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    try:
        passes = [tuple(map(int, line.split())) for line in out.splitlines()]
    except ValueError:
        passes = []
    if proc.returncode != 0 or not passes:
        sys.exit("host probe failed")
    return passes


def host_scale(passes, t0, t1):
    """(PROBE_PASS_S ÷ the probe's mean pass time while a repetition ran from
    t0 to t1, monotonic ns) ** PROBE_EXPONENT; 1.0 when there was no probe
    (a single CPU)."""
    durs = [d for end, d in passes if t0 <= end <= t1]
    if not durs:
        return 1.0
    return (PROBE_PASS_S / (statistics.mean(durs) / 1e9)) ** PROBE_EXPONENT


def spans_path(workload):
    """Where the span log of a workload's last traced repetition is kept."""
    return ROOT / RUN_ROOT / f"spans-{workload}.jsonl"


def hcsim_perf(mode, workload, seed, extra=(), tiny=False):
    """One hcsim_perf invocation in a fresh private run directory. Returns
    the parsed result object, or None when the process failed."""
    run_dir = RUN_ROOT / f"{os.getpid()}-{time.monotonic_ns()}"
    (ROOT / run_dir).mkdir(parents=True)
    args = [binary("hcsim_perf"), mode, "--workload", workload, "--seed", str(seed),
            "--threads", str(THREADS), "--hcsimd", binary("hcsimd"),
            "--run-dir", str(run_dir)]
    args += (TINY if tiny else WORKLOADS)[workload] + list(extra)
    try:
        rc, out = run_child(args)
        spans = ROOT / run_dir / "spans.jsonl"
        if mode == "traced" and rc == 0 and spans.exists():
            spans.replace(spans_path(workload))
    finally:
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        log(f"hcsim_perf {mode} {workload} exited with {rc}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"hcsim_perf {mode} {workload}: unparsable result")
        return None


def pin_key(workload, tiny):
    return " ".join(["v1", workload] + (TINY if tiny else WORKLOADS)[workload])


def input_seeds(seed):
    """The input seeds run --seed rotates through, one per repetition.
    Rotating spreads a run over several generated programs, so a run's
    medians do not hang on one seed's memory footprint or speed."""
    return [INPUTS_PER_SEED * seed + j for j in range(INPUTS_PER_SEED)]


def reference_rows(workload, inputs, tiny=False):
    """Row digests per input seed: pinned, or from serial in-process runs
    made now (in parallel, one process per input seed)."""
    pins = json.loads(REFERENCE.read_text()).get(pin_key(workload, tiny), {}) \
        if REFERENCE.exists() else {}
    refs = {i: pins[str(i)] for i in inputs if str(i) in pins}
    missing = [i for i in inputs if i not in refs]
    if missing:
        log(f"no pinned reference for {workload} inputs {missing}: running serially")
        with ThreadPoolExecutor(max_workers=CPUS) as ex:
            for i, r in zip(missing, ex.map(
                    lambda i: hcsim_perf("reference", workload, i, tiny=tiny), missing)):
                if r is None:
                    sys.exit("reference run failed")
                refs[i] = compact(r["csv"])
    return refs


def compact(csv_rows):
    """{grid: [row digest, ...]} -> {grid: concatenated short digests}."""
    return {g: "".join(d[:DIGEST_CHARS] for d in rows) for g, rows in csv_rows.items()}


def row_failures(rows, ref):
    """CSV rows differing from the reference (missing and extra rows count)."""
    bad = 0
    for grid, want in ref.items():
        want = [want[i:i + DIGEST_CHARS] for i in range(0, len(want), DIGEST_CHARS)]
        got = [d[:DIGEST_CHARS] for d in rows.get(grid, [])]
        bad += sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
    return bad


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        sys.exit("BENCHMARK.json not found")
    return json.loads(path.read_text())


def median(v):
    return statistics.median(v) if v else 0.0


def percentile(v, p):
    """Nearest-rank percentile."""
    if not v:
        return 0.0
    s = sorted(v)
    k = max(1, -(-len(s) * p // 100))
    return s[min(int(k), len(s)) - 1]


def measure(workload, seed, seconds, trace, tiny=False, extra=()):
    """Repetitions for `seconds`, rotating through the seed's inputs.
    Returns (timed results, traced results, jobs attempted, jobs failed)."""
    inputs = input_seeds(seed)
    refs = reference_rows(workload, inputs, tiny)
    reps, traced = [], []
    attempted = failed = 0
    expected_jobs = None
    # Untraced runs time the host beside every repetition.
    probe = None if trace else start_probe()
    t0 = time.monotonic()
    try:
        for it in itertools.count():
            inp = inputs[it % len(inputs)]
            for mode in ["timed", "traced"] if trace else ["timed"]:
                span = time.monotonic_ns()
                r = hcsim_perf(mode, workload, inp, extra, tiny)
                if r is None:
                    attempted += expected_jobs or 1
                    failed += expected_jobs or 1
                    continue
                r["input"] = inp
                r["span_ns"] = (span, time.monotonic_ns())
                expected_jobs = int(r["attempted"])
                attempted += int(r["attempted"])
                # A lost job also misses its rows: count it once.
                failed += min(int(r["attempted"]),
                              int(r["failed"]) + row_failures(r["csv"], refs[inp]))
                (traced if mode == "traced" else reps).append(r)
            elapsed = time.monotonic() - t0
            if elapsed >= seconds and len(reps) >= (1 if trace else MIN_REPS):
                break
            if elapsed > seconds + 100:  # keep a slow host inside the run limit
                break
    finally:
        passes = stop_probe(probe)
    for r in reps:
        r["host_scale"] = host_scale(passes, *r["span_ns"])
    return reps, traced, attempted, failed


def per_input(reps, value, across=median):
    """`across` (default: median) over the run's inputs of each input's
    median, so an input that ran once more than another carries no extra
    weight."""
    by_input = {}
    for r in reps:
        by_input.setdefault(r["input"], []).append(value(r))
    return across([median(v) for v in by_input.values()])


def e2e_metrics(reps):
    """End-to-end metrics over the timed repetitions, with sample counts.
    Every time is scaled by its repetition's host_scale, so it reads as on the
    reference host speed; sweep_wall_s and host_scale show the raw parts."""
    job_ms = [x * r["host_scale"] for r in reps for x in r["job_ms"]]
    setup = [x * r["host_scale"] for r in reps for x in r["setup_s"]]
    n = len(reps)
    out = {
        "sweep_s": (per_input(reps, lambda r: r["sweep_s"] * r["host_scale"]), n),
        "uops_per_s": (per_input(
            reps, lambda r: r["covered_uops"] / (r["sweep_s"] * r["host_scale"])), n),
        "setup_s": (median(setup), len(setup)),
        # The smallest input's peak: per-input peaks are heavy-tailed in the
        # generated program's size (fig12_sampled: 19-48 MB), so a median
        # over a run's inputs moves by half with the seed; the floor does not.
        "peak_rss_mb": (per_input(reps, lambda r: r["peak_rss_mb"], min), n),
        "job_p50_ms": (percentile(job_ms, 50), len(job_ms)),
        "job_p90_ms": (percentile(job_ms, 90), len(job_ms)),
        "sweep_wall_s": (per_input(reps, lambda r: r["sweep_s"]), n),
        "host_scale": (median([r["host_scale"] for r in reps]), n),
    }
    return out


def layer_metrics(reps, traced, names):
    """Per-layer medians over the traced repetitions; a layer the workload
    does not call reads 0."""
    out = {}
    for name in names:
        vals = [t["layers"][name] for t in traced if name in t["layers"]]
        out[name] = (median(vals), len(vals))
    if traced and reps:
        out["trace.overhead_s"] = (median([t["sweep_s"] for t in traced]) -
                                   median([r["sweep_s"] for r in reps]), len(traced))
    return out


def print_table(title, rows, units):
    print(title)
    print(f"  {'metric':38s} {'value':>16s} {'unit':10s} {'n':>5s}")
    for name, (value, n) in rows.items():
        print(f"  {name:38s} {value:16.6g} {units.get(name, ''):10s} {n:5d}")


def run(workload, seed, seconds, trace):
    bench = load_benchmark()
    if workload not in {w["name"] for w in bench["workloads"]}:
        sys.exit(f"unknown workload {workload}")
    if seconds is None:
        seconds = bench["run_seconds"]
    build()
    group = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    reps, traced, attempted, failed = measure(workload, seed, seconds, trace)
    if not reps or (trace and not traced):
        sys.exit("no repetition completed")
    if trace:
        rows = layer_metrics(reps, traced, [m["name"] for m in group])
        span_rows = traced[-1].get("spans", {})
        print(f"spans of the last traced run ({workload}): total / self seconds")
        for name, s in span_rows.items():
            print(f"  {name:24s} {s['total_s']:12.6f} {s['self_s']:12.6f} {int(s['count']):7d}")
        print(f"span log of the last traced run: {spans_path(workload).relative_to(ROOT)}")
    else:
        rows = e2e_metrics(reps)
    rows["error_rate"] = (failed / attempted if attempted else 1.0, attempted)
    units.update(error_rate="fraction", sweep_wall_s="s", host_scale="ratio")
    print_table(f"{workload} seed {seed}: {'per-layer (traced)' if trace else 'end to end'}",
                rows, units)
    metrics = {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]} for m in group}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def span_log_ok(path):
    """A non-empty span log whose every line is one well-formed span."""
    try:
        spans = [json.loads(line) for line in path.read_text().splitlines()]
    except (OSError, json.JSONDecodeError):
        return False
    keys = {"name", "start_ns", "end_ns", "parent", "job"}
    return bool(spans) and all(set(s) == keys and s["end_ns"] >= s["start_ns"] and
                               s["parent"] < i for i, s in enumerate(spans))


def self_check():
    """Tiny runs of every workload, plus injected faults that must be
    counted, not crash the harness or fall back to local compute."""
    bench = load_benchmark()
    build()
    ok = True

    def check(cond, what):
        nonlocal ok
        ok &= bool(cond)
        print(f"[{'PASS' if cond else 'FAIL'}] {what}")

    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = set()
    for w in [w["name"] for w in bench["workloads"]]:
        reps, _, attempted, failed = measure(w, 0, 0, False, tiny=True)
        rows = e2e_metrics(reps)
        check(all(n in rows and rows[n][1] > 0 for n in e2e_names),
              f"{w}: every end-to-end metric printed with a sample count")
        check(attempted > 0 and failed == 0, f"{w}: error_rate 0 ({failed}/{attempted})")
        spans_path(w).unlink(missing_ok=True)
        reps, traced, attempted, failed = measure(w, 0, 0, True, tiny=True)
        check(traced and failed == 0, f"{w}: traced run completes, error_rate 0")
        # The rows hcsim_perf itself emitted, not run.py's zero-filled table.
        raw = [set(t["layers"]) for t in traced]
        seen = set.union(set(), *raw)
        emitted |= seen | ({"trace.overhead_s"} if reps and traced else set())
        rows = layer_metrics(reps, traced, [n for n in layer_units if n in seen])
        expected = [n for n in layer_units if n.startswith(EXPECTED_LAYERS[w])]
        missing = [n for n in expected if not all(n in r for r in raw)]
        # core.glue_ns_per_uop is a remainder and may read below 0.
        zero = [n for n in expected if layer_units[n] in ("ns", "us", "ms") and
                n != "core.glue_ns_per_uop" and n not in missing and rows[n][0] <= 0]
        check(raw and expected and not missing and not zero,
              f"{w}: traced run emits its {len(expected)} layer rows, timings > 0"
              + (f" (missing {missing})" if missing else "")
              + (f" (zero {zero})" if zero else ""))
        check(span_log_ok(spans_path(w)), f"{w}: span log of the traced run written")
        reps, _, attempted, failed = measure(w, 0, 0, False, tiny=True,
                                             extra=["--corrupt-row"])
        check(reps and failed > 0, f"{w}: a corrupted CSV row counts in error_rate "
                                   f"({failed}/{attempted})")
    reps, _, attempted, failed = measure("daemon_mixed", 0, 0, False, tiny=True,
                                         extra=["--kill-daemon-after", "5"])
    check(reps and failed > 0 and reps[0]["failed"] > 0,
          f"daemon_mixed: hcsimd killed mid-pass counts as failed jobs "
          f"({failed}/{attempted})")
    unemitted = [n for n in layer_units if n not in emitted]
    check(not unemitted, "every per-layer metric of BENCHMARK.json is emitted by a workload"
          + (f" (never emitted: {unemitted})" if unemitted else ""))
    print("self-check", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        a, _, b = part.partition("-")
        seeds += list(range(int(a), int(b or a) + 1))
    return seeds


def pin(seeds):
    """Serial in-process reference digests for every input of every seed."""
    build()
    pins = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    pins = {k: v for k, v in pins.items() if k in {pin_key(w, False) for w in WORKLOADS}}
    tasks = [(w, i) for w in WORKLOADS for s in seeds for i in input_seeds(s)
             if str(i) not in pins.get(pin_key(w, False), {})]
    with ThreadPoolExecutor(max_workers=CPUS) as ex:
        results = list(ex.map(lambda t: hcsim_perf("reference", t[0], t[1]), tasks))
    for (w, i), r in zip(tasks, results):
        if r is None:
            sys.exit(f"reference run failed: {w} input {i}")
        pins.setdefault(pin_key(w, False), {})[str(i)] = compact(r["csv"])
    REFERENCE.write_text(json.dumps(pins, sort_keys=True, indent=0) + "\n")
    log(f"pinned {len(tasks)} references into {REFERENCE}")


def cross_check(rounds=5):
    """core.pipeline_ns_per_uop.baseline vs 1e9 / hcsim_bench pipeline_baseline,
    interleaved on the same build."""
    build()
    bench_ns, layer_ns = [], []
    for _ in range(rounds):
        rc, out = run_child([binary("hcsim_bench"), "--uops", "100000", "--reps", "5"])
        if rc == 0:
            bench_ns.append(1e9 / json.loads(out)["items_per_second"]["pipeline_baseline"])
        r = hcsim_perf("traced", "ladder_cached", 0)
        if r is not None:
            layer_ns.append(r["layers"]["core.pipeline_ns_per_uop.baseline"])
    for name, v in (("hcsim_bench 1e9/pipeline_baseline", bench_ns),
                    ("core.pipeline_ns_per_uop.baseline", layer_ns)):
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        print(f"{name:36s} median {median(v):8.2f} ns  quartiles {q[0]:8.2f} {q[2]:8.2f}")
    print(f"ratio layer/bench {median(layer_ns) / median(bench_ns):.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--pin")
    ap.add_argument("--cross-check", action="store_true")
    a = ap.parse_args()
    if a.seed < 0:
        sys.exit("--seed must be non-negative")
    if a.self_check:
        self_check()
    elif a.pin:
        pin(parse_seeds(a.pin))
    elif a.cross_check:
        cross_check()
    elif a.workload:
        run(a.workload, a.seed, a.seconds, a.trace)
    else:
        ap.error("--workload is required")


if __name__ == "__main__":
    main()
