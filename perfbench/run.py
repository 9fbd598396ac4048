"""Benchmark of the oddcolor CLI: two closed-loop workloads, one client.

    python3 perfbench/run.py [--workload audit|reduce|all] [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-pins

Run from the root of a checkout; the package is imported from ``src/``
there, never from an installed copy.  Each op is one call of
``oddcolor.cli.main`` in this process with stdout captured; ops run one
after another (a closed loop with one client, no threads).

Set-up runs three rounds.  Each round generates one shard of the inputs
from the seed, writes them, checks their sha256 against ``pins.json`` when
the seed is the pinned one, and runs one warm-up op.  ``setup_s`` is the
import time, plus the median round, plus inputs made once per run.  The
measurement then runs whole passes over every input, so every pass has the
same mix of sizes, and stops after the pass that ends nearest ``--seconds``.

End-to-end metrics (``--trace 0``): ``setup_s``, ``ops_per_s`` (successful
ops per second of wall time, failed ops' time included), ``op_p50_s`` and
``op_tail_s`` (the highest of p50/p75/p90/p95/p99 with at least ten
samples beyond it), ``success_ratio`` (1 - fail ratio; an op
fails on a non-zero exit, an exception or output failing the check) and
``peak_rss_mb``.  The latency percentiles are taken over inputs, each
input's latency being the mean of its successful ops: on a shared host the
speed can drift by up to 2x within seconds, and a percentile of single ops
follows the fastest or slowest moments of a run, while a mean over passes
evens them out.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics of ``tracing.py`` and
``trace_overhead_ratio``.  Every run writes a stamped result file, and the
traced run its spans, under ``.perfbench_out/``.

With ``--workload all`` each workload runs in its own child process.
``--write-pins`` regenerates ``pins.json`` from the pinned seed; run it only
when a change to the generators is meant to change the inputs.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = Path(__file__).resolve().parent / "pins.json"
ROUNDS = 3
TAIL_LADDER = (50, 75, 90, 95, 99)
WORKLOAD_NAMES = ("audit", "reduce")
PIN_SEED = 1


class SetupError(Exception):
    pass


def load_program():
    """Import ``oddcolor.cli`` from this checkout's ``src`` directory."""
    if not (SRC / "oddcolor" / "__init__.py").is_file():
        raise SetupError(f"no oddcolor package under {SRC}")
    sys.path.insert(0, str(SRC))
    import oddcolor.cli

    if SRC.resolve() not in Path(oddcolor.cli.__file__).resolve().parents:
        raise SetupError(f"imported oddcolor from {oddcolor.cli.__file__}, not {SRC}")
    return oddcolor.cli


def git_commit() -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(cli, argv: list[str]) -> tuple[float, str, str | None]:
    """One CLI call: (latency, captured stdout, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        reason = None if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
    except SystemExit as exc:
        reason = f"SystemExit({exc.code}): {err.getvalue().strip()[:200]}"
    except Exception as exc:  # a crashing op is a measured failure, not the end of the run
        reason = f"{type(exc).__name__}: {str(exc)[:200]}"
    return time.perf_counter() - start, out.getvalue(), reason


class Bench:
    def __init__(self, cli, wl, seed: int, workdir: Path, tracer=None):
        self.cli, self.wl, self.seed, self.workdir, self.tracer = cli, wl, seed, workdir, tracer
        self.inputs = []
        self.digests: dict[str, str] = {}

    def path(self, inp) -> Path:
        return self.workdir / f"{inp.name}{self.wl.suffix}"

    def op(self, inp, op_id: str) -> dict:
        if self.tracer:
            self.tracer.op = op_id
        latency, stdout, reason = run_op(self.cli, self.wl.argv(self.path(inp)))
        if reason is None:
            try:
                reason = self.wl.check(inp, self.path(inp), stdout)
                if reason is not None:
                    reason = f"check: {reason}"
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"check: unreadable output ({type(exc).__name__}: {exc})"
        return {"input": inp.name, "size": inp.size, "latency": latency, "reason": reason, "stdout": stdout}

    def add(self, inputs, pins: dict | None) -> list:
        """Write and digest inputs, checking them against pins if given."""
        for inp in inputs:
            self.path(inp).write_text(inp.text)
            digest = sha256(inp.text)
            if pins is not None and pins["sha256"].get(inp.name) != digest:
                raise SetupError(
                    f"{self.wl.name} input {inp.name}: sha256 {digest} does not match "
                    f"pinned {pins['sha256'].get(inp.name)}; the generated workload changed"
                )
            self.digests[inp.name] = digest
        return inputs

    def setup(self, pins: dict | None) -> dict:
        """Three set-up rounds plus the once-per-run inputs; checks pins if given.

        A pass spreads the inputs of each size class evenly over its length,
        so each class's latencies sample the machine's speed changes over
        the whole pass, not over one stretch of it.
        """
        rounds, shards = [], []
        for r in range(ROUNDS):
            if self.tracer:
                self.tracer.op = f"setup-r{r}"
            start = time.perf_counter()
            shards.append(self.add(self.wl.shard(self.seed, r), pins))
            warm = self.op(shards[-1][0], f"setup-r{r}")
            if warm["reason"]:
                raise SetupError(f"warm-up op on {warm['input']} failed: {warm['reason']}")
            rounds.append(time.perf_counter() - start)
        if self.tracer:
            self.tracer.op = "setup-once"
        start = time.perf_counter()
        once = self.add(self.wl.once(self.seed), pins)
        once_s = time.perf_counter() - start
        if pins is not None and set(pins["sha256"]) != set(self.digests):
            raise SetupError(f"{self.wl.name} inputs {sorted(set(pins['sha256']) ^ set(self.digests))} differ from pins")
        self.inputs = spread([x for shard in shards for x in shard] + once)
        return {"round_s": rounds, "once_s": once_s}

    def run_pass(self, tag: str) -> list[dict]:
        return [self.op(inp, f"{tag}:{inp.name}") for inp in self.inputs]


def spread(inputs: list) -> list:
    """The inputs reordered so that each size class is spaced evenly."""
    classes = Counter(x.size for x in inputs)
    seen: Counter = Counter()
    keys = []
    for x in inputs:
        keys.append((seen[x.size] + 0.5) / classes[x.size])
        seen[x.size] += 1
    return [x for _, x in sorted(zip(keys, inputs), key=lambda kx: kx[0])]


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest ladder percentile with at least ten samples beyond it, and its value."""
    pct = max([p for p in TAIL_LADDER if len(latencies) * (100 - p) / 100 >= 10], default=50)
    if len(latencies) < 2:
        return pct, latencies[0] if latencies else 0.0
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def failures(results: list[dict]) -> list[dict]:
    return [{"input": r["input"], "reason": r["reason"]} for r in results if r["reason"]]


def load_pins(wl_name: str, seed: int) -> dict | None:
    """Pinned input digests when seed is the pinned seed."""
    pins = json.loads(PINS.read_text())
    return pins[wl_name] if seed == pins["seed"] else None


def write_pins() -> None:
    """Regenerate pins.json: every workload's input digests for PIN_SEED."""
    cli = load_program()
    import workloads

    pins: dict = {"seed": PIN_SEED}
    for name in WORKLOAD_NAMES:
        workdir = OUT / f"pins-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        bench = Bench(cli, workloads.WORKLOADS[name], PIN_SEED, workdir)
        bench.setup(None)
        pins[name] = {"sha256": dict(sorted(bench.digests.items()))}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    import_s = time.perf_counter() - T_START
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    bench = Bench(cli, wl, seed, workdir, tracer)

    if tracer:
        tracer.install()
    setup = bench.setup(load_pins(name, seed))
    if tracer:
        tracer.remove()
    setup_s = import_s + statistics.median(setup["round_s"]) + setup["once_s"]
    per_pass = len(bench.inputs)

    if trace:
        start = time.perf_counter()
        plain = bench.run_pass("plain")
        plain_s = time.perf_counter() - start
        tracer.install()
        start = time.perf_counter()
        results = bench.run_pass("traced")
        traced_s = time.perf_counter() - start
        tracer.remove()
        passes, wall = 1, traced_s
        metrics = tracer.layer_metrics()
        metrics["trace_overhead_ratio"] = traced_s / plain_s
        same_failures = {f["input"] for f in failures(plain)} == {f["input"] for f in failures(results)}
        tracer.write(workdir / "spans.tsv", T_START)
    else:
        results = []
        passes = 0
        start = time.perf_counter()
        while True:
            results += bench.run_pass(f"pass{passes}")
            passes += 1
            wall = time.perf_counter() - start
            if wall + wall / passes / 2 >= seconds:  # one more pass would end farther off
                break
        same_failures = True

    ok = [r["latency"] for r in results if r["reason"] is None]
    per_input: dict[str, list[float]] = {}
    for r in results:
        if r["reason"] is None:
            per_input.setdefault(r["input"], []).append(r["latency"])
    typical = [statistics.fmean(lat) for lat in per_input.values()]
    pct, tail_s = tail(typical)
    fails = failures(results)
    wrong = [f for f in fails if f["reason"].startswith("check:")]
    first_pass = results[:per_pass]
    by_size: dict[str, list[float]] = {}
    for r in results:
        by_size.setdefault(r["size"], []).append(r["latency"])
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "stamp": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "seed": seed,
            "ops_per_size": {size: len(lat) for size, lat in by_size.items()},
        },
        "seconds_per_size": {size: sum(lat) for size, lat in by_size.items()},
        "passes": passes,
        "ops_per_pass": per_pass,
        "wall_s": wall,
        "setup": {"import_s": import_s, **setup},
        "fail_ratio": len(fails) / len(results),
        "failures": fails,
        "tail": {"percentile": pct, "inputs": len(typical), "ops": len(ok)},
        "latencies": per_input,
        "output_sha256": sha256("".join(r["stdout"] for r in first_pass)),
        "input_sha256": bench.digests,
    }
    if trace:
        report["trace_same_failures"] = same_failures
        report["untraced_failures"] = failures(plain)
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(ok) / wall,
            "op_p50_s": statistics.median(typical) if typical else 0.0,
            "op_tail_s": tail_s,
            "success_ratio": len(ok) / len(results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    report["metrics"] = metrics
    report["correct"] = not wrong and same_failures
    report["attempted"] = len(results)
    report["failed"] = len(fails)
    (workdir / "result.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "success_ratio": "ratio", "peak_rss_mb": "MB"}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    return "s" if metric.endswith("_s") else "ratio"


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"# {name}: seed {report['seed']}, {report['attempted']} ops in {report['passes']} pass(es), "
          f"{report['wall_s']:.3f} s")
    if not report["trace"]:
        t = report["tail"]
        print(f"# {name}: op_p50_s and op_tail_s (p{t['percentile']}) are over the mean latency "
              f"of each of {t['inputs']} inputs, from {t['ops']} successful ops")
    for f in report["failures"]:
        print(f"# {name}: failed {f['input']}: {f['reason']}")
    if report["trace"] and not report["trace_same_failures"]:
        print(f"# {name}: traced pass failed other ops than the untraced pass: "
              f"{report['untraced_failures']}")
    print(f"# {name}: output sha256 {report['output_sha256']}")
    for metric, value in report["metrics"].items():
        print(f"{name} {metric} {value:.6g} {unit(metric)}")
    print(f"{name} fail_ratio {report['fail_ratio']:.6g} ratio")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-pins", action="store_true", help="regenerate pins.json and exit")
    args = p.parse_args(argv)
    if args.write_pins:
        write_pins()
        return 0
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    metrics = {m: {"value": v, "unit": unit(m)} for m, v in report["metrics"].items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
