#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for injcheck.

    python3 perfbench/run.py --workload crn_screen --seed 3 --seconds 55 --trace 0

One process, one closed-loop caller: a pool of generated inputs (see
workloads.py) is parsed in set-up, then decided pass after pass, each problem
starting only when the previous one has finished, until --seconds have gone
by and at least MIN_DECIDES verdicts were timed. Every pass works on a deep
copy of the pool built in set-up, so no state a verdict leaves behind (the
cached sign vectors of a subspace, say) carries into the next pass.

Per input the loop calls check_injectivity, then verify_certificate on the
verdict, then falsify on every INJECTIVE verdict. An operation fails when it
raises, when it contradicts a decided reference verdict (references.json),
when verify_certificate returns False, or when the falsifier finds a
singular member of an INJECTIVE class.

--trace 0 prints the end-to-end metrics, times scaled to reference machine
speed by a loop timed between operations (see spin). --trace 1 alternates untraced and
traced passes and prints per-layer metrics per pass (plus one traced build of
the pool); the difference of the two kinds of pass is the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import os

THREAD_CAPS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                    "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse
import copy
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
WORKLOAD_NAMES = ("crn_screen", "sign_sweep", "det_square", "falsify_audit")
MIN_DECIDES = 100      # decide_ms_p90 needs at least 10 samples beyond it
SETUP_REPEATS = 5      # set-ups per untraced run, each in a fresh process
HARD_STOP_S = 140.0    # never start another pass after this long
SPIN_EVERY_S = 0.25    # machine-speed sample interval, between operations
SPIN_LOOPS = 40000     # iterations of the speed-sample loop
SPIN_NOMINAL_S = 0.004  # the loop's typical time on a 2-vCPU Xeon VM; sets the time scale
STATUS_CHAR = {"INJECTIVE": "I", "NOT_INJECTIVE": "N", "INCONCLUSIVE": "U"}


def _imports():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "injcheck" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'injcheck'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import injcheck
    if Path(injcheck.__file__).resolve().parent != (SRC / "injcheck").resolve():
        raise SystemExit(f"perfbench: imported injcheck from {injcheck.__file__}")
    return numpy, injcheck


def source_digest() -> str:
    """Identity of the code under test: a hash of the package source."""
    h = hashlib.sha256()
    for path in sorted((SRC / "injcheck").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def set_up(workload_name: str, seed: int):
    """Import, generate and parse. Returns (numpy, injcheck, items, pool,
    seconds spent generating the input texts)."""
    numpy, injcheck = _imports()
    import workloads
    t = time.monotonic()
    items = workloads.WORKLOADS[workload_name].generate(seed)
    generate_s = time.monotonic() - t
    pool = [workloads.build(item) for item in items]
    return numpy, injcheck, items, pool, generate_s


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: from its start (interpreter start-up
    included) until the pool is parsed, less the benchmark's own generation of
    the input texts. The child prints the CLOCK_MONOTONIC time at which its
    set-up ended; that clock is shared by all processes, so it is compared
    with the time just before the child was started."""
    t_start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    t_end, generate_s = map(float, proc.stdout.split()[-2:])
    return t_end - t_start - generate_s


# ---------------------------------------------------------------------------
# machine speed


def spin() -> float:
    """Time a fixed pure-Python loop, a sample of the speed the machine gives
    this process right now."""
    t = time.perf_counter()
    s = 0
    for i in range(SPIN_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t


def speed_scale(samples) -> float:
    """Factor that turns times measured alongside `samples` into times at
    reference speed: the loop's nominal time over its mean time."""
    return SPIN_NOMINAL_S / statistics.fmean(samples)


# ---------------------------------------------------------------------------
# one pass over the pool


@dataclass
class PassResult:
    wall_s: float = 0.0
    decide_ms: list = field(default_factory=list)
    verify_ms: list = field(default_factory=list)
    falsify_ms: list = field(default_factory=list)
    op_s: list = field(default_factory=list)    # every operation's time, by operation id - 1
    spins: list = field(default_factory=list)   # machine-speed samples taken during the pass
    statuses: str = ""
    digest: str = ""
    attempted: int = 0
    failures: list = field(default_factory=list)
    mix: Counter = field(default_factory=Counter)

    @property
    def scale(self) -> float:
        return speed_scale(self.spins)


def run_pass(injcheck, workload, items, pool, reference, tracer=None,
             decide_only=False) -> PassResult:
    """Decide, verify and falsify every problem of a deep copy of `pool`,
    timing each call. `reference` holds one status letter per problem.

    Between operations, at most every SPIN_EVERY_S, the pass samples the
    machine's speed with `spin`; the samples' time is not in `wall_s`."""
    problems = copy.deepcopy(pool)
    cfg = injcheck.OracleConfig(trials=workload.falsify_trials, seed=0)
    out = PassResult()
    statuses = []
    digest = hashlib.sha256()
    clock = time.perf_counter
    op = 0
    next_spin = 0.0

    def start_op():
        nonlocal op, next_spin
        if clock() >= next_spin:
            out.spins.append(spin())
            next_spin = clock() + SPIN_EVERY_S
        op += 1
        out.attempted += 1
        if tracer is not None:
            tracer.op_id = op

    t_pass = clock()
    for k, (item, problem) in enumerate(zip(items, problems)):
        start_op()
        t = clock()
        try:
            verdict = injcheck.check_injectivity(problem)
        except Exception as exc:  # a failed operation, recorded and counted
            out.op_s.append(clock() - t)
            out.decide_ms.append(out.op_s[-1] * 1e3)
            out.failures.append((item.name, "decide", type(exc).__name__))
            statuses.append("E")
            digest.update(f"{k}:error:{type(exc).__name__}\n".encode())
            continue
        out.op_s.append(clock() - t)
        out.decide_ms.append(out.op_s[-1] * 1e3)
        status = STATUS_CHAR[verdict.status.value]
        statuses.append(status)
        out.mix[f"{verdict.status.value}/{verdict.method.value}"] += 1
        digest.update(json.dumps(verdict.to_payload(), sort_keys=True).encode() + b"\n")
        expected = reference[k] if reference else None
        if expected in ("I", "N") and status != expected:
            out.failures.append((item.name, "decide", f"status {status}, reference {expected}"))
        if decide_only:
            continue
        start_op()
        t = clock()
        try:
            ok, why = injcheck.verify_certificate(verdict, problem), "returned False"
        except Exception as exc:
            ok, why = False, type(exc).__name__
        out.op_s.append(clock() - t)
        out.verify_ms.append(out.op_s[-1] * 1e3)
        if not ok:
            out.failures.append((item.name, "verify", why))
        if status != "I":
            continue
        start_op()
        t = clock()
        try:
            hit, why = injcheck.falsify(problem, cfg), "singular member of an INJECTIVE class"
        except Exception as exc:
            hit, why = exc, type(exc).__name__
        out.op_s.append(clock() - t)
        out.falsify_ms.append(out.op_s[-1] * 1e3)
        if hit is not None:
            out.failures.append((item.name, "falsify", why))
    out.wall_s = clock() - t_pass - sum(out.spins)
    out.statuses = "".join(statuses)
    out.digest = digest.hexdigest()[:16]
    return out


# ---------------------------------------------------------------------------
# reporting helpers


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_problem(passes, attr: str, scaled: bool = True) -> list[float]:
    """Every timed call of one kind, its time (at reference speed, if
    `scaled`) replaced by the median time of its problem over the passes.

    The pool is small and every pass times the same problems, so the samples
    come in one cluster per problem and a percentile of the raw samples falls
    on the edge of a cluster: the slowest or fastest call of one problem, an
    extreme that jumps from run to run. Over per-problem medians it lands
    inside a cluster, and a collector pause in one call does not move it. The
    sample count stays the number of calls.
    """
    columns = zip(*([t * (p.scale if scaled else 1.0) for t in getattr(p, attr)]
                    for p in passes))
    return [statistics.median(c) for c in columns for _ in c]


def base_digest(workload) -> str:
    return hashlib.sha256(repr(workload.base_pool()).encode()).hexdigest()[:16]


def _load_reference(workload):
    """The reference statuses of the pool, or None when none were recorded
    for this base pool."""
    if not REFERENCES.is_file():
        return None
    entry = json.loads(REFERENCES.read_text()).get(workload.name)
    if entry is None or entry["base"] != base_digest(workload):
        return None
    return entry["statuses"]


def inputs_digest(items) -> str:
    return hashlib.sha256(repr([(i.name, i.spec) for i in items]).encode()).hexdigest()[:16]


def _digest_check(digest: str, src: str, inputs: str) -> list[str]:
    """Compare the run's verdict digest with earlier runs of the same code on
    the same inputs in this checkout."""
    problems = []
    OUT.mkdir(exist_ok=True)
    state = OUT / f"digest-{src}-{inputs}.txt"
    if state.is_file():
        earlier = state.read_text().strip()
        if earlier != digest:
            problems.append(f"verdict digest {digest} differs from an earlier run's {earlier}")
    else:
        state.write_text(digest + "\n")
    return problems


def _metric(metrics: dict, name: str, value, unit: str, raw=None, note: str = "") -> None:
    """Record a metric and print it; `raw` is the value before scaling to
    reference speed."""
    metrics[name] = {"value": value, "unit": unit}
    notes = ([f"raw {raw:.6g}"] if raw is not None else []) + ([note] if note else [])
    print(f"metric {name} = {value:.6g} {unit}" + (f"  ({', '.join(notes)})" if notes else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    numpy, injcheck, items, pool, generate_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(repr(time.monotonic()), repr(generate_s))
        return 0
    import tracing
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    setups, setup_spins = [], []
    for _ in range(0 if args.trace else SETUP_REPEATS):
        setup_spins += [spin() for _ in range(5)]
        setups.append(setup_seconds(args.workload, args.seed))

    src = source_digest()
    ref_statuses = _load_reference(workload)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "thread_caps": THREAD_CAPS,
        "pool": len(items), "source": src,
        "reference_statuses": "recorded" if ref_statuses else "none for this pool",
    }
    print("run_record " + json.dumps(record, sort_keys=True))

    tracer = tracing.Tracer() if args.trace else None
    setup_trace = None
    if tracer is not None:
        tracer.install()
        tracer.op_id = 0
        for item in items:
            workloads.build(item)
        setup_trace = tracer.end_pass(keep="setup")
        tracer.uninstall()

    passes, untraced, traced = [], [], []
    t_start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(passes) % 2 == 1
        if use_tracer:
            tracer.install()
        try:
            result = run_pass(injcheck, workload, items, pool, ref_statuses,
                              tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        passes.append(result)
        if use_tracer:
            traced.append((result, tracer.end_pass(keep="" if traced else "pass")))
        else:
            untraced.append(result)
        elapsed = time.perf_counter() - t_start
        decided = sum(len(p.decide_ms) for p in passes[1:])
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= args.seconds and (traced if tracer else decided >= MIN_DECIDES):
            break

    problems = []
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"verdict digest changed between passes: {sorted(digests)}")
    problems += _digest_check(passes[0].digest, src, inputs_digest(items))
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)

    first = passes[0]
    print(f"passes {len(passes)} ({len(traced)} traced), pool {len(items)}, "
          f"verdict digest {first.digest}")
    print("verdict mix per pass: " + json.dumps(dict(sorted(first.mix.items()))))
    print(f"failed_frac = {len(failures) / attempted:.6g} ratio "
          f"(failed {len(failures)} of {attempted} attempted operations)")
    for name, stage, what in sorted(Counter(failures))[:20]:
        print(f"failure {name} {stage}: {what}")

    metrics: dict = {}
    if tracer is None:
        timed = passes[1:] or passes  # the first pass warms caches and lazy imports
        decide = _per_problem(timed, "decide_ms")
        verify = _per_problem(timed, "verify_ms")
        falsify = _per_problem(timed, "falsify_ms")
        raw_decide = _per_problem(timed, "decide_ms", scaled=False)
        spins = [t for p in timed for t in p.spins]
        print(f"speed: {len(spins)} samples, loop median {statistics.median(spins) * 1e3:.4g} ms, "
              f"scale {speed_scale(spins):.4g} (nominal {SPIN_NOMINAL_S * 1e3:.4g} ms)")
        per_problem = f"per-problem medians over {len(timed)} passes"
        setup_raw = statistics.median(setups)
        _metric(metrics, "setup_s", setup_raw * speed_scale(setup_spins + spins), "s", setup_raw,
                f"median of {len(setups)} set-ups, each in a fresh process")
        _metric(metrics, "wall_s", statistics.median(p.wall_s * p.scale for p in timed), "s",
                statistics.median(p.wall_s for p in timed),
                f"median pass over {len(items)} inputs, {len(timed)} timed passes")
        _metric(metrics, "decide_per_s", len(decide) / (sum(decide) / 1e3), "1/s",
                len(raw_decide) / (sum(raw_decide) / 1e3), f"{len(decide)} decides")
        _metric(metrics, "decide_ms_p50", statistics.median(decide), "ms",
                statistics.median(raw_decide), f"{len(decide)} calls, {per_problem}")
        _metric(metrics, "decide_ms_p90", _p90(decide), "ms", _p90(raw_decide),
                f"{len(decide)} calls, {per_problem}")
        _metric(metrics, "verify_ms_p50", statistics.median(verify), "ms",
                statistics.median(_per_problem(timed, "verify_ms", scaled=False)),
                f"{len(verify)} calls, {per_problem}")
        _metric(metrics, "falsify_ms_p50", statistics.median(falsify), "ms",
                statistics.median(_per_problem(timed, "falsify_ms", scaled=False)),
                f"{len(falsify)} calls, {per_problem}")
        if len(falsify) >= 100:
            print(f"falsify_ms_p90 = {_p90(falsify):.6g} ms ({len(falsify)} calls, "
                  f"{per_problem})")
        _metric(metrics, "peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        problems += _report_layers(metrics, tracing, setup_trace, traced, untraced)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv")

    for p in problems:
        print("problem " + p)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def _report_layers(metrics, tracing, setup_trace, traced, untraced) -> list[str]:
    """Per-layer metrics for one build of the pool plus one pass over it.
    Counts come from the first traced pass and must repeat on every other;
    self times are medians over the traced passes."""
    problems = []
    first = traced[0][1]
    for result, agg in traced[1:]:
        if agg["calls"] != first["calls"] or agg["counts"] != first["counts"]:
            problems.append("work counts differ between traced passes")
            break
    per_span_s = tracing.span_cost()
    for result, agg in traced:
        problems += tracing.check_operations(result.op_s, agg, per_span_s)
    for fid, name in enumerate(tracing.NAMES):
        calls = setup_trace["calls"][fid] + first["calls"][fid]
        self_s = setup_trace["self_s"][fid] + statistics.median(a["self_s"][fid] for _, a in traced)
        _metric(metrics, f"{name}.calls", calls, "count")
        _metric(metrics, f"{name}.self_s", self_s, "s")
    counts = Counter(setup_trace["counts"]) + Counter(first["counts"])
    for name in tracing.WORK_COUNTS:
        _metric(metrics, name, counts.get(name, 0), "count")
    lps = counts.get("feasibility.lp_calls", 0)
    _metric(metrics, "feasibility.feasible_ratio",
            counts.get("feasibility.lp_feasible", 0) / lps if lps else 0.0, "ratio")
    traced_wall = statistics.median(r.wall_s for r, _ in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced[1:] or untraced)  # [0] warms up
    op_wall = statistics.median(sum(r.op_s) for r, _ in traced)
    _metric(metrics, "trace.wall_s", traced_wall, "s", note="traced pass")
    _metric(metrics, "trace.untraced_wall_s", untraced_wall, "s", note="untraced pass")
    _metric(metrics, "trace.overhead_s", traced_wall - untraced_wall, "s")
    _metric(metrics, "trace.spans", first["spans"], "count", note="spans of a traced pass")
    _metric(metrics, "trace.span_overhead_s", first["spans"] * per_span_s, "s",
            note=f"spans times {per_span_s * 1e6:.3g} us, the measured cost of a wrapped call")
    _metric(metrics, "trace.op_wall_s", op_wall, "s", note="timed operations of a traced pass")
    _metric(metrics, "trace.self_sum_s", statistics.median(sum(a["self_s"]) for _, a in traced),
            "s", note="self times of a traced pass, summed")
    return problems


if __name__ == "__main__":
    sys.exit(main())
