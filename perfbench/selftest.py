"""Self-checks of the benchmark itself.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

1. Every workload's first cycle passes against the real CLI, and the
   same requests are counted as failures when the CLI's output is
   corrupted, its exit code is wrong, or it raises.
2. The generated request lists (argv, expected output, files) are
   identical across two fresh interpreters.
3. Two traced runs of each workload report identical ``count`` metrics,
   including ``lang.beta_steps``.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent

DIGEST_SEEDS = (1, 2, 3)
TRACE_SEED = 2


def digest() -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        for seed in DIGEST_SEEDS:
            work = workloads.WORKLOADS[name](seed)
            blob = json.dumps([list(work.requests), work.cycle,
                               sorted(work.files.items())])
            out[f"{name}:{seed}"] = hashlib.sha256(blob.encode()).hexdigest()
    return out


def _corrupt_last_char(main):
    def corrupted(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        text = buf.getvalue().rstrip("\n")
        last = "#" if text[-1:] != "#" else "%"
        print(text[:-1] + last)
        return code
    return corrupted


def _wrong_exit(main):
    def wrong(argv):
        main(argv)
        return 1
    return wrong


def _raising(argv):
    raise RuntimeError("simulated crash")


def _tally(main, requests):
    tally = run.Tally()
    with contextlib.redirect_stderr(io.StringIO()):
        for request in requests:
            tally.record(request, run.attempt(main, request))
    return tally


def check_corruption(cli) -> list:
    problems = []
    fakes = {"corrupted output": _corrupt_last_char(cli.main),
             "wrong exit code": _wrong_exit(cli.main),
             "exception": _raising}
    for name, build in workloads.WORKLOADS.items():
        work = build(1)
        requests = work.requests[:work.cycle]
        run.write_files(work.files)
        try:
            found = []
            good = _tally(cli.main, requests)
            if good.failed:
                found.append(f"{name}: {good.failed} real outputs rejected")
            for label, fake in fakes.items():
                bad = _tally(fake, requests)
                if bad.failed != bad.attempted:
                    found.append(f"{name}: {label} counted as correct in "
                                 f"{bad.attempted - bad.failed} requests")
        finally:
            run.remove_files(work.files)
        if not found:
            print(f"corruption check {name}: {len(requests)} real outputs "
                  f"accepted, {len(fakes)} kinds of corruption all rejected")
        problems += found
    return problems


def check_digests() -> list:
    runs = [subprocess.run([sys.executable, __file__, "--digest"],
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    if runs[0] != runs[1] or json.loads(runs[0]) != digest():
        return ["request lists differ between invocations"]
    print(f"request lists identical across invocations "
          f"({len(json.loads(runs[0]))} workload/seed pairs)")
    return []


def traced_counts(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(TRACE_SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def check_trace_counts() -> list:
    problems = []
    for name in workloads.WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        if first != second:
            diff = sorted(k for k in first if first[k] != second.get(k))
            problems.append(f"{name}: traced counts differ: {diff}")
        else:
            print(f"traced counts repeat exactly on {name}: "
                  f"beta_steps {first['lang.beta_steps']}, "
                  f"bind_calls {first['monads.bind_calls']}")
    return problems


def main() -> int:
    if sys.argv[1:] == ["--digest"]:
        print(json.dumps(digest()))
        return 0
    cli = run.import_cli()
    if cli is None:
        print("error: no effectdiagrams sources under ./src", file=sys.stderr)
        return 2
    problems = check_corruption(cli)
    problems += check_digests()
    problems += check_trace_counts()
    for p in problems:
        print(f"PROBLEM: {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
