"""Benchmark runner for the effectdiagrams CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 40 --trace 0

One client in one process sends the workload's seeded requests in a
closed loop: each request is one ``effdiag`` argv, run in-process through
``effectdiagrams.cli.main`` with stdout/stderr captured, and the next one
is sent only after the previous returns.  Every output is checked against
an expected text computed by ``workloads.py`` without the library.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed prefix of the request list once
untraced and once under ``tracer.Tracer`` and reports per-layer counts and
self times.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The library is imported from ``src/`` of the current directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORK = Path(".bench_run")
# set-up probes per run, spread evenly over the measured time
SETUP_PROBES = 20
WARMUP_S = 1.0
# throughput is the median over windows of whole cycles at least this long
WINDOW_S = 3.0
# traced runs replay this many whole cycles from the start of the list
TRACE_CYCLES = {"fanout": 1, "recursion": 2, "laws": 1, "compose": 2}
MAX_REPORTED_FAILURES = 5


class Result(NamedTuple):
    ok: bool
    seconds: float
    detail: str = ""


def matches(request, text: str) -> bool:
    """Exact comparison, except for lines left free by ``free_prefix``."""
    if text == request.stdout:
        return True
    prefix = request.free_prefix
    want, got = request.stdout.split("\n"), text.split("\n")
    return bool(prefix) and len(want) == len(got) and all(
        w == g or (w == prefix and g.startswith(prefix) and len(g) > len(w))
        for w, g in zip(want, got))


def attempt(main, request) -> Result:
    """Run one request through ``main`` and check its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(request.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request
            seconds = time.perf_counter() - start
            return Result(False, seconds, f"raised {exc!r}")
        seconds = time.perf_counter() - start
    text = out.getvalue()
    if code != 0 or err.getvalue() or not matches(request, text):
        return Result(False, seconds,
                      f"exit {code!r}, stderr {err.getvalue()[:200]!r}, "
                      f"stdout {text[:300]!r}, expected {request.stdout[:300]!r}")
    return Result(True, seconds)


class Tally:
    """Counts attempts and failures; reports the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, request, result: Result) -> None:
        self.attempted += 1
        if not result.ok:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {' '.join(request.argv)[:200]}: "
                      f"{result.detail}", file=sys.stderr)


def import_cli():
    """Import the CLI from ./src, or return None when it is not there."""
    if not (SRC / "effectdiagrams" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from effectdiagrams import cli
    if Path(cli.__file__).resolve().parent != (SRC / "effectdiagrams").resolve():
        return None
    return cli


def probe_setup() -> float:
    """Wall time from a fresh interpreter to a ready CLI."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, exit {code}")
    return seconds


def write_files(files: dict) -> None:
    for path, text in files.items():
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def remove_files(files: dict) -> None:
    for folder in {Path(path).parent for path in files}:
        shutil.rmtree(folder, ignore_errors=True)


def warm_up(main, requests, tally) -> None:
    """Send requests untimed for ``WARMUP_S``, so caches fill first."""
    deadline = time.perf_counter() + WARMUP_S
    for request in requests:
        tally.record(request, attempt(main, request))
        if time.perf_counter() >= deadline:
            break


def closed_loop(main, work, seconds, tally):
    """Send requests back to back for ``seconds`` of measured time.

    Between two requests, every ``seconds / SETUP_PROBES``, a set-up
    probe runs; its time is left out of the measured time and of the
    windows.  Spreading the probes over the run keeps ``setup_s`` from
    hanging on a few seconds of machine speed.

    Returns every request's latency, the rate of correct completions in
    each window of whole cycles, and the set-up probe times.
    """
    requests = work.requests
    latencies, rates, setups = [], [], []
    interval = seconds / SETUP_PROBES
    start = time.perf_counter()
    window_start, window_ok, k, paused = start, 0, 0, 0.0
    while True:
        now = time.perf_counter()
        measured = now - start - paused
        if measured >= seconds:
            break
        if len(setups) < SETUP_PROBES and measured >= len(setups) * interval:
            setups.append(probe_setup())
            pause = time.perf_counter() - now
            paused += pause
            window_start += pause
            continue
        request = requests[k % len(requests)]
        k += 1
        result = attempt(main, request)
        tally.record(request, result)
        latencies.append(result.seconds)
        window_ok += result.ok
        now = time.perf_counter()
        if k % work.cycle == 0 and now - window_start >= WINDOW_S:
            rates.append(window_ok / (now - window_start))
            window_start, window_ok = now, 0
    if not rates:
        rates.append(window_ok / (time.perf_counter() - window_start))
    return latencies, rates, setups


def end_to_end(cli, work, seconds, tally) -> dict:
    warm_up(cli.main, work.requests, tally)
    gc.collect()
    latencies, rates, setups = closed_loop(cli.main, work, seconds, tally)
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if n > 1 else latencies[0]
    beyond = sum(1 for t in latencies if t > p90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"requests {n}, {beyond} beyond p90, {len(rates)} windows; "
          f"error_rate {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted}, warm-up included)")
    if beyond < 10:
        print("warning: fewer than 10 samples beyond p90", file=sys.stderr)
    return {
        "throughput_rps": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _replay(main, requests, tally) -> float:
    start = time.perf_counter()
    for request in requests:
        tally.record(request, attempt(main, request))
    return time.perf_counter() - start


def traced(cli, name, seed, work, tally) -> dict:
    requests = work.requests[:work.cycle * TRACE_CYCLES[name]]
    _replay(cli.main, requests, tally)          # warm-up, untimed
    gc.collect()
    plain_s = _replay(cli.main, requests, tally)
    gc.collect()
    trace = tracer.Tracer()
    trace.install()
    try:
        traced_s = _replay(cli.main, requests, tally)
    finally:
        trace.uninstall()
    WORK.mkdir(exist_ok=True)
    dump = trace.to_obj()
    dump.update(workload=name, seed=seed, requests=len(requests),
                untraced_s=plain_s, traced_s=traced_s)
    path = WORK / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(dump, indent=1) + "\n", encoding="utf-8")
    if trace.absent:
        print(f"absent (reported as 0): {', '.join(trace.absent)}")
    print(f"spans written to {path}")
    return layer_metrics(trace, traced_s, plain_s)


# per-layer metric -> (span, field); calls are counts, the rest seconds
LAYER_SPANS = {
    "cli.main_calls": ("cli.main", "calls"),
    "cli.self_s": ("cli.main", "self_s"),
    "lang.parse_s": ("lang.parse", "self_s"),
    "lang.default_defs_s": ("lang.default_defs", "incl_s"),
    "lang.evaluate_calls": ("lang.evaluate", "calls"),
    "lang.evaluate_self_s": ("lang.evaluate", "self_s"),
    "lang.substitute_s": ("lang.substitute", "self_s"),
    "lang.free_vars_calls": ("lang.free_vars", "calls"),
    "lang.free_vars_s": ("lang.free_vars", "self_s"),
    "monads.bind_calls": ("monads.bind", "calls"),
    "monads.bind_self_s": ("monads.bind", "self_s"),
    "monads.op_apply_calls": ("monads.op_apply", "calls"),
    "monads.op_apply_s": ("monads.op_apply", "self_s"),
    "monads.unit_calls": ("monads.unit", "calls"),
    "monads.normalise_calls": ("monads.normalise", "calls"),
    "monads.normalise_s": ("monads.normalise", "self_s"),
    "monads.support_s": ("monads.support", "self_s"),
    "presentations.decompose_calls": ("presentations.decompose", "calls"),
    "presentations.decompose_s": ("presentations.decompose", "self_s"),
    "presentations.interpret_s": ("presentations.interpret", "self_s"),
    "presentations.render_s": ("presentations.render", "self_s"),
    "presentations.from_obj_s": ("presentations.from_obj", "self_s"),
    "algebra.seq_compose_calls": ("algebra.seq_compose", "calls"),
    "algebra.seq_compose_s": ("algebra.seq_compose", "self_s"),
    "algebra.check_commutative_s": ("algebra.check_commutative", "self_s"),
    "serialize.to_obj_calls": ("serialize.to_obj", "calls"),
    "serialize.to_obj_s": ("serialize.to_obj", "self_s"),
    "serialize.from_obj_calls": ("serialize.from_obj", "calls"),
    "serialize.from_obj_s": ("serialize.from_obj", "self_s"),
    "serialize.render_value_s": ("serialize.render_value", "self_s"),
    "gen.random_value_calls": ("gen.random_value", "calls"),
    "gen.random_value_s": ("gen.random_value", "self_s"),
}
LAYER_SPANS.update({f"lawcheck.cell_s.{law}": (f"lawcheck.cell.{law}", "incl_s")
                    for law in workloads.LAWS})


def layer_metrics(trace, traced_s: float, plain_s: float) -> dict:
    m = {}
    for name, (span, field) in LAYER_SPANS.items():
        m[name] = (getattr(trace.stat(span), field),
                   "count" if field == "calls" else "s")
    beta = trace.beta_steps
    m["lang.beta_steps"] = (beta, "count")
    m["lang.free_vars_per_beta"] = (
        m["lang.free_vars_calls"][0] / beta if beta else 0.0, "ratio")
    m["monads.normalise_share"] = (m["monads.normalise_s"][0] / traced_s,
                                   "ratio")
    m["lawcheck.trials"] = (trace.law_trials, "count")
    m["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    if cli is None:
        print(f"error: no effectdiagrams sources under {SRC}",
              file=sys.stderr)
        return 2

    work = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        write_files(work.files)
        if args.trace:
            metrics = traced(cli, args.workload, args.seed, work, tally)
        else:
            metrics = end_to_end(cli, work, args.seconds, tally)
    finally:
        remove_files(work.files)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
