"""The g2cert benchmark: one command per workload, every result gated.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Run it from the repository root; it builds nothing and imports the package
from ``src/``.  Every operation is generated by one process, one at a time
(a closed loop with a single client), because g2cert is a batch certifier
that one person runs.  ``bench/README.md`` says why each workload exists and
which numbers each layer should move.

With ``--trace 0`` the workload runs untraced for ``--seconds`` seconds and the
end-to-end metrics are reported.  With ``--trace 1`` a fixed amount of the
same work runs in-process twice, first untraced and then under the span
tracer, and the per-layer metrics are reported.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the metric names and units are the ones declared in
``BENCHMARK.json``.  The exit code is 0 only when every operation passed its
correctness gate and every gate passed its self-check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "report_golden.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"

# Input sizes.  verify-default uses the CLI defaults on purpose.
MAXIMALITY_SAMPLES = 300
MUTATION_SAMPLES = 5
SETUP_REPEATS = 11
OP_TIMEOUT_S = 150
TRACED_MUTANTS = 60

# Timings are rescaled to a reference speed, because on a shared machine the
# same work can run up to 1.6x faster or slower from one minute to the next
# (measured on a shared 2-vCPU Xeon virtual machine).
# Between operations the benchmark times `reference_work`, which does not use
# g2cert, for about PROBE_SHARE of the time since the previous probe, and each
# operation's wall time is multiplied by REF_NOMINAL_S over the mean of the
# probes taken just before and just after it.  REF_NOMINAL_S is about the
# reference's time on the baseline machine.  The raw wall times are printed too.
REF_NOMINAL_S = 0.010
PROBE_SHARE = 0.05
PROBE_GAP_S = 0.2

# Witnesses that record the sample count; the golden file was made with 5.
SAMPLE_WITNESSES = {("cayley", "sample_size"), ("maximality", "random_samples")}

WORKLOADS = ("verify-default", "maximality-sampling", "mutation-sweep")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad spec)."""


# ---------------------------------------------------------------------------
# correctness gates: each returns None when the result is correct, else why


def gate_verify_default(code: int, report: dict | None, golden: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no JSON report"
    got = {c["id"]: c for c in report["checks"]}
    want = {c["id"]: c for c in golden["checks"]}
    if sorted(got) != sorted(want):
        return f"checks {sorted(got)}"
    for cid, check in got.items():
        if check["status"] != "pass":
            return f"{cid}: {check['status']}"
        expected = want[cid]["witnesses"]
        if sorted(check["witnesses"]) != sorted(expected):
            return f"{cid}: witness keys differ"
        for key, value in check["witnesses"].items():
            if (cid, key) in SAMPLE_WITNESSES:
                continue
            if value != expected[key]:
                return f"{cid}.{key} = {value!r}, golden {expected[key]!r}"
    return None


def gate_maximality(code: int, report: dict | None, samples: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no JSON report"
    got = {c["id"]: c for c in report["checks"]}
    for cid in ("decomposition", "maximality"):
        if cid not in got or got[cid]["status"] != "pass":
            return f"{cid}: {got.get(cid, {}).get('status', 'missing')}"
    w = got["maximality"]["witnesses"]
    if w.get("closure_failures") != 0 or w.get("generation_failures") != 0:
        return f"closure/generation failures {w.get('closure_failures')}/{w.get('generation_failures')}"
    if w.get("random_samples") != samples:
        return f"random_samples = {w.get('random_samples')!r}, want {samples}"
    return None


def gate_mutant(reports) -> str | None:
    """A mutant must be rejected: cayley does not pass and der has dim != 14."""
    by_id = {r.id: r for r in reports}
    if "cayley" not in by_id or by_id["cayley"].status == "pass":
        return "cayley passed"
    dim = by_id.get("derivations") and by_id["derivations"].witnesses.get("derivation_dim")
    if dim is None:
        return "no derivation_dim witness"
    if dim == 14:
        return "derivation_dim is 14"
    return None


# ---------------------------------------------------------------------------
# operations


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli_child(args: list[str]) -> tuple[int, dict | None]:
    """One `python -m g2cert ...` run in a fresh process: (exit code, JSON report)."""
    proc = subprocess.run(
        [sys.executable, "-m", "g2cert", *args],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=OP_TIMEOUT_S,
    )
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        report = None
    if proc.returncode != 0 or report is None:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    return proc.returncode, report


def run_cli_inprocess(args: list[str]) -> tuple[int, dict | None]:
    from g2cert import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    try:
        return code, json.loads(buf.getvalue())
    except ValueError:
        return code, None


def verify_default_args(seed: int) -> list[str]:
    return ["verify", "--all", "--seed", str(seed), "--format", "json"]


def maximality_args(seed: int) -> list[str]:
    return ["verify", "--check", "maximality", "--samples", str(MAXIMALITY_SAMPLES),
            "--seed", str(seed), "--format", "json"]


def mutant(base, index: int | None):
    """The split Cayley algebra with structure constant index//2 changed by
    +1 (even index) or -1 (odd index); None gives the pristine algebra."""
    from fractions import Fraction

    from g2cert.octonion import SplitCayley, StructureConstantAlgebra

    mul = [[list(prod) for prod in row] for row in base.algebra.mul]
    if index is not None:
        i, rest = divmod(index // 2, 64)
        j, k = divmod(rest, 8)
        mul[i][j][k] += Fraction(1 if index % 2 == 0 else -1)
    alg = StructureConstantAlgebra(
        dim=base.algebra.dim, mul=tuple(tuple(tuple(p) for p in row) for row in mul)
    )
    return SplitCayley(algebra=alg, form=base.form, unit=base.unit)


def run_mutant(base, index: int | None, seed: int):
    from g2cert.lie import derivation_algebra
    from g2cert.suite import SuiteConfig, VerificationContext, run_all

    cand = mutant(base, index)
    der = derivation_algebra(cand.algebra)
    cfg = SuiteConfig(seed=seed, samples=MUTATION_SAMPLES, checks=("cayley", "derivations"))
    return run_all(cfg, ctx=VerificationContext(cayley_candidate=cand, derivations_candidate=der))


def op_plan(workload: str, seed: int):
    """Endless, seed-determined stream of per-operation inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "mutation-sweep":
        order = list(range(1024))
        rng.shuffle(order)
        i = 0
        while True:
            yield order[i % 1024], rng.randrange(2**63)
            i += 1
    while True:
        yield None, rng.randrange(2**63)


def make_op(workload: str, golden: dict, inprocess: bool):
    """A callable (mutant index, seed) -> failure reason, or None if correct.

    A crash is a failed operation, never a dropped one."""
    if workload == "mutation-sweep":
        from g2cert.octonion import build_split_cayley

        base = build_split_cayley()

        def attempt(index, seed):
            return gate_mutant(run_mutant(base, index, seed))
    else:
        run_cli = run_cli_inprocess if inprocess else run_cli_child

        def attempt(_index, seed):
            if workload == "verify-default":
                return gate_verify_default(*run_cli(verify_default_args(seed)), golden)
            return gate_maximality(*run_cli(maximality_args(seed)), MAXIMALITY_SAMPLES)

    def op(index, seed):
        try:
            return attempt(index, seed)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            return f"{type(exc).__name__}: {exc}"

    return op


# ---------------------------------------------------------------------------
# self-checks: each gate must be able to fail


def self_check(workload: str, golden: dict) -> list[str]:
    problems = []
    if workload == "verify-default":
        if gate_verify_default(0, golden, golden) is not None:
            problems.append("verify-default gate rejects the golden report")
        altered = json.loads(json.dumps(golden))
        altered["checks"][0]["witnesses"]["imaginary_dim"] = 6
        if gate_verify_default(0, altered, golden) is None:
            problems.append("verify-default gate accepts an altered witness")
    elif workload == "maximality-sampling":
        doc = {"checks": [
            {"id": "decomposition", "status": "pass", "witnesses": {}},
            {"id": "maximality", "status": "pass", "witnesses": {
                "closure_failures": 0, "generation_failures": 0,
                "random_samples": MAXIMALITY_SAMPLES}},
        ]}
        if gate_maximality(0, doc, MAXIMALITY_SAMPLES) is not None:
            problems.append("maximality gate rejects a passing report")
        doc["checks"][1]["witnesses"]["closure_failures"] = 1
        if gate_maximality(0, doc, MAXIMALITY_SAMPLES) is None:
            problems.append("maximality gate accepts a closure failure")
    else:
        from g2cert.octonion import build_split_cayley

        if gate_mutant(run_mutant(build_split_cayley(), None, 0)) is None:
            problems.append("mutation gate accepts the pristine algebra")
    return problems


# ---------------------------------------------------------------------------
# measurement


def reference_work() -> Fraction:
    """Fixed Fraction and big-integer work, about 10 ms, independent of g2cert."""
    acc, x = Fraction(0), Fraction(1, 3)
    for i in range(1, 1500):
        acc += x * i / (i + 1)
    return acc


def probe(interval: float) -> float:
    """Median time of `reference_work`, run for about PROBE_SHARE of `interval`."""
    samples = []
    for _ in range(max(1, round(interval * PROBE_SHARE / REF_NOMINAL_S))):
        t = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the probes
    measure the speed of the CPU the operations run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine_info() -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        nproc = None
    import numpy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def cold_start(_index, _seed):
    """Cold interpreter start plus `import g2cert.cli`."""
    subprocess.run([sys.executable, "-c", "import g2cert.cli"], cwd=ROOT, env=child_env(), check=True)


def timed_loop(op, plan, seconds: float = 0.0, count: int = 0):
    """Run operations back to back, probing the machine's speed between them,
    until `seconds` have passed or `count` operations ran (at least one).

    Returns the wall time of each operation, the same at reference speed, the
    failure reasons, and the loop's wall time without the probes."""
    walls, scaled, failures, pending = [], [], [], []
    probe_s = 0.0
    before = probe(PROBE_GAP_S)
    start = mark = time.perf_counter()
    while True:
        index, seed = next(plan)
        t = time.perf_counter()
        reason = op(index, seed)
        pending.append(time.perf_counter() - t)
        if reason is not None:
            failures.append(reason)
        now = time.perf_counter()
        done = (now - start >= seconds) if seconds else len(walls) + len(pending) >= count
        if done or now - mark >= PROBE_GAP_S:
            after = probe(now - mark)
            factor = REF_NOMINAL_S / ((before + after) / 2)
            walls += pending
            scaled += [w * factor for w in pending]
            pending, before = [], after
            probe_s += time.perf_counter() - now
            mark = time.perf_counter()
        if done:
            return walls, scaled, failures, time.perf_counter() - start - probe_s


def run_untraced(workload: str, seed: int, seconds: float, golden: dict):
    op = make_op(workload, golden, inprocess=workload == "mutation-sweep")
    walls, times, failures, elapsed = timed_loop(op, op_plan(workload, seed), seconds=seconds)
    if workload == "mutation-sweep":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_of = "the benchmark process"
    else:
        # setup children run after this reading, so it covers op children only
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_of = f"{len(times)} child processes"
    # one warm-up start writes the bytecode cache: users pay that once, not per run
    cold_start(None, None)
    setup_walls, setup, _, _ = timed_loop(
        cold_start, itertools.repeat((None, None)), count=SETUP_REPEATS)

    n = len(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "ops_per_s": n / sum(times),
        "peak_rss_mb": peak_kb / 1024,
    }
    size = {
        "verify-default": "samples=100 census_bound=10",
        "maximality-sampling": f"samples={MAXIMALITY_SAMPLES}",
        "mutation-sweep": f"samples={MUTATION_SAMPLES} checks=cayley,derivations",
    }[workload]
    print("timings at reference speed, wall time in parentheses")
    print(f"setup_s      {metrics['setup_s']:.4f} s ({statistics.median(setup_walls):.4f})  "
          f"median of {len(setup)} cold starts")
    print(f"op_s_p50     {metrics['op_s_p50']:.4f} s ({statistics.median(walls):.4f})  n={n}")
    if n < 100:
        print(f"op_s_p90     omitted: n={n}, fewer than 10 samples would lie beyond it")
    else:
        p90, wall_p90 = (statistics.quantiles(x, n=10)[-1] for x in (times, walls))
        print(f"op_s_p90     {p90:.4f} s ({wall_p90:.4f})  n={n}, "
              f"{sum(t > p90 for t in times)} beyond it")
    print(f"ops_per_s    {metrics['ops_per_s']:.4f} 1/s ({n / elapsed:.4f})  "
          f"{n} ops in {elapsed:.2f} s, {size}")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  max over {rss_of}")
    print(f"failed_ratio {len(failures) / n:.4f}   {len(failures)}/{n}")
    for reason in failures[:10]:
        print(f"  failed: {reason}")
    return metrics, n, failures


def layer_metrics(names, stats: dict[str, dict]) -> dict[str, float]:
    """Read each `<span>.<stat>` metric from the tracer statistics.

    Suite stages and checks report one number each, `<span>_s`, their self
    time.  A traced span the run never entered reports 0."""
    from tracer import STAT_KEYS, span_names

    from g2cert.suite import CHECK_IDS

    known = span_names() | {f"suite.check.{c}" for c in CHECK_IDS}
    out: dict[str, float] = {}
    for name in names:
        if name.startswith("suite."):
            span, key = name[:-2], "self_s"
        else:
            span, _, key = name.rpartition(".")
        if span not in known or key not in STAT_KEYS:
            raise BenchError(f"per-layer metric {name!r} names no traced span statistic")
        out[name] = stats.get(span, {}).get(key, 0)
    return out


def run_traced(workload: str, seed: int, golden: dict, names):
    """The same work untraced and then traced, in this process."""
    from tracer import Tracer

    plan = op_plan(workload, seed)
    count = TRACED_MUTANTS if workload == "mutation-sweep" else 1
    inputs = [next(plan) for _ in range(count)]
    op = make_op(workload, golden, inprocess=True)

    def run_all_inputs():
        """Time of the whole pass at reference speed, and the failures."""
        _, scaled, failures, _ = timed_loop(op, iter(inputs), count=len(inputs))
        return sum(scaled), failures

    plain_s, failures = run_all_inputs()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_failures = run_all_inputs()
    finally:
        tracer.uninstall()
    failures += traced_failures
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
    tracer.write(trace_path)

    extra = {"trace.overhead_ratio": traced_s / plain_s, "src.lines": src_lines()}
    metrics = layer_metrics([n for n in names if n not in extra], tracer.summary())
    metrics.update(extra)
    print(f"traced {count} op(s) at reference speed: {traced_s:.3f} s traced, {plain_s:.3f} s untraced, "
          f"{len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g}" if isinstance(metrics[name], float)
              else f"  {name} = {metrics[name]}")
    return metrics, 2 * count, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "g2cert" / "__init__.py").is_file() or not GOLDEN.is_file():
            raise BenchError(f"g2cert sources or golden report missing under {ROOT}")
        spec = json.loads(SPEC.read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    golden = json.loads(GOLDEN.read_text())

    info = machine_info()
    pin_to_one_cpu()
    info["pinned_cpu"] = min(os.sched_getaffinity(0))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(info))
    print(f"src.lines {src_lines()}")
    if args.trace:
        metrics, attempted, failures = run_traced(args.workload, args.seed, golden, list(declared))
    else:
        metrics, attempted, failures = run_untraced(args.workload, args.seed, args.seconds, golden)
    problems = self_check(args.workload, golden)
    for p in problems:
        print(f"self-check FAILED: {p}")
    if not problems:
        print("self-check ok: the gate rejects a known-bad result")

    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"bench: metrics declared but not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
