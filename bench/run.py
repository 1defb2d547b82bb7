"""hyperpos benchmark: closed-loop sessions of in-process CLI calls and point sampling.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke     # tiny self-test of every workload and metric
    python3 bench/run.py --pin       # re-pin every pooled answer from the current code

Run from the root of a checkout: the package is imported from ./src and every
file it writes goes under ./.benchrun.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, timed with no tracing; with --trace 1 the run
first repeats the untraced sessions for half the time (per-command times,
failure ratio), then records spans for the other half (per-layer metrics and
the tracing overhead).
"""

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import POOL, WORKLOADS, choose, make_ops, pool_choices

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("cli", "groebner", "heights", "polyring", "position", "replace", "weights")
COMMAND_KINDS = ("delta", "classify", "replace", "sample_points", "margin", "hweight")
# set-up is repeated and its median reported; a warm set-up fills a whole cache
SETUP_REPS = {"lattice_cold": 5, "lattice_warm": 2, "variety_points": 5}
# Reference time of calibration_kernel.  On a shared host the same Python code
# can run up to twice as fast or as slow for minutes at a time, so each session
# time is scaled by CALIBRATION_REF_S over the kernel's median time within that
# session (set-up times: within the run).  The figures then read as seconds on
# a machine where the kernel takes 30 ms.
CALIBRATION_REF_S = 0.030


def calibration_kernel():
    """Fixed stdlib-only work like the package's own: dense products over Q."""
    poly = {(i, j, 4 - i - j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5 - i)}
    for _ in range(20):
        out = {}
        for ma, ca in poly.items():
            for mb, cb in poly.items():
                mono = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return out


class Hyperpos:
    """The hyperpos modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "hyperpos" or m.startswith("hyperpos.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("hyperpos." + name))


def import_checked():
    """Put ./src first on the path and make sure hyperpos comes from there."""
    if not (SRC / "hyperpos" / "cli.py").is_file():
        raise SystemExit(f"bench: no hyperpos sources under {SRC}")
    sys.path.insert(0, str(SRC))
    hp = Hyperpos()
    if Path(hp.cli.__file__).resolve().parent != SRC / "hyperpos":
        raise SystemExit(f"bench: hyperpos imported from {hp.cli.__file__}, not {SRC}")
    return hp


class Session:
    __slots__ = ("wall", "by_kind", "attempted", "failed", "report_bytes",
                 "cache_writes", "cache_bytes", "kernel_times")

    def __init__(self):
        self.wall = 0.0
        self.by_kind = {}
        self.attempted = self.failed = self.report_bytes = 0
        self.cache_writes = self.cache_bytes = 0
        self.kernel_times = []

    def scaled(self):
        """Session time at the reference speed of the calibration kernel."""
        return self.wall * CALIBRATION_REF_S / statistics.median(self.kernel_times)


def _cache_files(path):
    return {e.path: e.stat().st_size for e in os.scandir(path) if e.name.endswith(".json")}


class Runner:
    """One workload at one seed: set-up, then sessions of its operations."""

    def __init__(self, workload, scale, seed, pinned, rundir):
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.pinned = pinned
        self.rundir = rundir
        self.hp = None
        self.ops = []
        self.warm_dir = None
        self.attempted = self.failed = 0
        self.op_log = []
        self.kernel_times = []

    def calibrate(self):
        start = perf_counter()
        calibration_kernel()
        self.kernel_times.append(perf_counter() - start)
        return self.kernel_times[-1]

    def setup(self):
        self.calibrate()
        start = perf_counter()
        self.hp = Hyperpos()
        indir = tempfile.mkdtemp(prefix="inputs-", dir=self.rundir)
        self.ops = make_ops(self.workload, self.scale, choose(self.seed), indir, self.hp)
        if self.workload == "lattice_warm":
            self.warm_dir = tempfile.mkdtemp(prefix="warm-", dir=self.rundir)
            fill = Session()
            for op in self.ops:
                self.run_op(op, ["--cache-dir", self.warm_dir], fill)
            self.attempted += fill.attempted
            self.failed += fill.failed
        return perf_counter() - start

    def check(self, op, answer):
        try:
            if op.project(answer) != self.pinned[op.key]:
                return False
            return op.verify is None or bool(op.verify(answer))
        except (KeyError, TypeError, ValueError, IndexError):
            return False

    def run_op(self, op, cache_flags, session, tracer=None):
        if tracer is not None:
            tracer.op_id = len(self.op_log)
            self.op_log.append({"id": tracer.op_id, "kind": op.kind, "key": op.key})
        answer = None
        if op.argv is not None:
            buf = io.StringIO()
            start = perf_counter()
            with redirect_stdout(buf):
                code = self.hp.cli.main(op.argv + cache_flags)
            elapsed = perf_counter() - start
            text = buf.getvalue()
            session.report_bytes += len(text.encode())
            if code == 0:
                try:
                    answer = json.loads(text)["payload"]
                except (ValueError, KeyError):
                    answer = None
            else:
                print(f"bench: {op.key} exited {code}: {text.strip()}", file=sys.stderr)
        else:
            self.hp.groebner.set_cache_dir(None)
            start = perf_counter()
            try:
                answer = op.call()
            except Exception:  # a failed library call is counted, and the loop goes on
                traceback.print_exc(file=sys.stderr)
            elapsed = perf_counter() - start
        session.wall += elapsed
        session.by_kind[op.kind] = session.by_kind.get(op.kind, 0.0) + elapsed
        session.attempted += 1
        if answer is None or not self.check(op, answer):
            session.failed += 1
            print(f"bench: wrong or missing answer for {op.key}", file=sys.stderr)

    def session(self, tracer=None):
        s = Session()
        scratch = tempfile.mkdtemp(prefix="session-", dir=self.rundir)
        before = _cache_files(self.warm_dir) if self.warm_dir else {}
        caches = []
        for op in self.ops:
            # untimed, between operations, so the kernel sees the same machine
            s.kernel_times.append(self.calibrate())
            if self.workload == "lattice_cold":
                # a fresh, empty cache per invocation: every basis is computed and written
                caches.append(tempfile.mkdtemp(dir=scratch))
                flags = ["--cache-dir", caches[-1]]
            elif self.workload == "lattice_warm":
                flags = ["--cache-dir", self.warm_dir]
            else:
                flags = ["--no-cache"]
            self.run_op(op, flags, s, tracer)
        written = {}
        for path in caches:
            written.update(_cache_files(path))
        if self.warm_dir:
            written = {p: n for p, n in _cache_files(self.warm_dir).items() if p not in before}
        s.cache_writes, s.cache_bytes = len(written), sum(written.values())
        shutil.rmtree(scratch)
        self.attempted += s.attempted
        self.failed += s.failed
        return s


def measure(runner, budget, tracer=None):
    """Closed loop: sessions back to back until the next would end well past budget."""
    sessions = []
    start = perf_counter()
    while not sessions or (perf_counter() - start
                           + statistics.median(s.wall for s in sessions) / 2 < budget):
        sessions.append(runner.session(tracer))
    return sessions


def run_workload(workload, scale, seed, seconds, trace, pinned, units):
    base = ROOT / ".benchrun"
    rundir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    # no default cache may leak in: every invocation names its own cache or none
    os.environ.pop("HYPERPOS_CACHE_DIR", None)
    runner = Runner(workload, scale, seed, pinned, rundir)
    try:
        setups = [runner.setup() for _ in range(SETUP_REPS[workload])]
        if not trace:
            sessions = measure(runner, seconds)
            metrics = {
                "run_s": statistics.median(s.scaled() for s in sessions),
                "setup_s": statistics.median(setups) * CALIBRATION_REF_S
                / statistics.median(runner.kernel_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            plain = measure(runner, seconds / 2)
            tracer = Tracer(runner.hp)
            tracer.install()
            try:
                traced = measure(runner, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(
                len(traced), sum(s.cache_writes for s in traced),
                sum(s.cache_bytes for s in traced), sum(s.report_bytes for s in traced))
            # scaled times, so a change of machine speed between the halves
            # does not read as tracing cost
            metrics["trace.overhead_ratio"] = (statistics.median(s.scaled() for s in traced)
                                               / statistics.median(s.scaled() for s in plain) - 1)
            metrics["calibration.kernel_ms"] = 1000 * statistics.median(
                t for s in plain for t in s.kernel_times)
            metrics["run_raw_s"] = statistics.median(s.wall for s in plain)
            for kind in COMMAND_KINDS:
                metrics[f"{kind}_s"] = statistics.median(s.by_kind.get(kind, 0.0) for s in plain)
            metrics["failed_ratio"] = runner.failed / runner.attempted
            tracer.dump(base / f"trace-{workload}-seed{seed}.json", runner.op_log)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


# ---------------------------------------------------------------------------
# smoke test and pinning

def smoke(pinned, units, spec):
    """Every workload, both modes, at a tiny size; then a tampered answer must fail."""
    problems = []
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_workload(workload, "smoke", 0, 0.2, trace, pinned, units)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            if not out["correct"] or out["failed"]:
                problems.append(f"{workload} trace={trace}: {out['failed']} failed")
        prefix = "margin/" if workload == "variety_points" else "delta/"
        tampered = {k: "tampered" if k.startswith(prefix) else v for k, v in pinned.items()}
        out = run_workload(workload, "smoke", 0, 0.2, 1, tampered, units)
        if out["correct"] or not out["metrics"]["failed_ratio"]["value"] > 0:
            problems.append(f"{workload}: tampered {prefix} answers were not caught")
    for problem in problems:
        print("bench smoke:", problem, file=sys.stderr)
    return not problems


def pin(hp):
    """Answers of the current code for every pooled input, both scales."""
    rundir = Path(tempfile.mkdtemp(prefix="pin-", dir=ROOT / ".benchrun"))
    answers = {}
    try:
        for scale in ("full", "smoke"):
            found = answers.setdefault(scale, {})
            for choice in pool_choices():
                for workload in ("lattice_cold", "variety_points"):
                    for op in make_ops(workload, scale, choice, str(rundir), hp):
                        if op.key in found:
                            continue
                        answer = _answer(hp, op)
                        if op.verify is not None and not op.verify(answer):
                            raise SystemExit(f"bench: {op.key} fails its own check; not pinned")
                        found[op.key] = op.project(answer)
                        print(f"pinned {scale} {op.key}", file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return answers


def _answer(hp, op):
    if op.call is not None:
        hp.groebner.set_cache_dir(None)
        return op.call()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = hp.cli.main(op.argv + ["--no-cache"])
    if code != 0:
        raise SystemExit(f"bench: {op.key} exited {code}: {buf.getvalue()}")
    return json.loads(buf.getvalue())["payload"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    hp = import_checked()
    units = {name: m["unit"] for name, m in json.loads((BENCH / "metrics.json").read_text()).items()}
    (ROOT / ".benchrun").mkdir(exist_ok=True)
    if args.pin:
        pinned = {"pool": POOL, "answers": pin(hp)}
        (BENCH / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        return 0
    answers = json.loads((BENCH / "pinned.json").read_text())["answers"]
    if args.smoke:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        ok = smoke(answers["smoke"], units, spec)
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, "full", args.seed, args.seconds, args.trace,
                          answers["full"], units)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
