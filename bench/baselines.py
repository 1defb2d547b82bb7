"""One-off re-recording of the ROADMAP "Baselines" table (not a gate).

    python3 bench/baselines.py     # about two minutes; writes bench/baselines.json

Single wall-clock runs of library calls, no profiler.  The quadric families
come from `random_form` in tests/test_acceptance.py with the seed shown, as
in the original table.
"""

import json
import os
import platform
import random
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import_start = perf_counter()
import hyperpos.cli  # noqa: E402,F401
IMPORT_S = perf_counter() - import_start
from hyperpos import groebner  # noqa: E402
from hyperpos.groebner import GREVLEX, groebner_basis  # noqa: E402
from hyperpos.heights import sample_points  # noqa: E402
from hyperpos.polyring import parse_poly  # noqa: E402
from hyperpos.position import build_family, build_variety, distributive_constant  # noqa: E402
from test_acceptance import random_form  # noqa: E402


def timed(fn):
    start = perf_counter()
    out = fn()
    return perf_counter() - start, out


def quadrics(nvars, q, seed):
    rng = random.Random(seed)
    return [random_form(rng, nvars, 2) for _ in range(q)]


def delta_row(nvars, q, seed, cache_root, warm):
    v = build_variety([], num_vars=nvars)
    members = quadrics(nvars, q, seed)
    cache = tempfile.mkdtemp(dir=cache_root)
    groebner.set_cache_dir(None)
    cold, rep = timed(lambda: distributive_constant(v, build_family(v, members)).delta)
    rows = [{"workload": f"distributive_constant, P^{nvars - 1}, q={q} quadrics (seed {seed}), "
                         "no cache", "seconds": cold, "answer": str(rep)}]
    if warm:
        groebner.set_cache_dir(cache)
        distributive_constant(v, build_family(v, members))
        hot, rep = timed(lambda: distributive_constant(v, build_family(v, members)).delta)
        groebner.set_cache_dir(None)
        rows.append({"workload": "same, warm disk cache", "seconds": hot, "answer": str(rep)})
    return rows


def dense_gb_row():
    rng = random.Random(1)
    gens = []
    while len(gens) < 4:
        form = random_form(rng, 6, 2)
        if len(form.terms) == 21:  # dense: every quadratic monomial of P^5
            gens.append(form)
    seconds, gb = timed(lambda: groebner_basis(gens, GREVLEX, num_vars=6))
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for g in gb.generators for c in g.terms.values())
    return {"workload": "groebner_basis, 4 dense quadrics in P^5 (random_form, seed 1)",
            "seconds": seconds, "answer": f"{len(gb.generators)} gens, coefficients up to {bits} bits"}


def main():
    (ROOT / ".benchrun").mkdir(exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="baselines-", dir=ROOT / ".benchrun")
    rows = [{"workload": "import hyperpos.cli (first import in this process)", "seconds": IMPORT_S}]
    try:
        rows += delta_row(4, 8, 1, cache_root, warm=True)
        rows += delta_row(3, 12, 5, cache_root, warm=True)
        rows += delta_row(5, 7, 1, cache_root, warm=False)
        rows.append(dense_gb_row())
        conic = build_variety([parse_poly("x0*x2 - x1^2", 3)], num_vars=3)
        for count in (40, 60, 80):
            seconds, pts = timed(lambda: sample_points(conic, count))
            rows.append({"workload": f"sample_points on conic x0*x2 - x1^2, {count} points",
                         "seconds": seconds, "answer": f"max shell {max(max(map(abs, p.coords)) for p in pts)}"})
            print(json.dumps(rows[-1]), flush=True)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "note": "single wall-clock runs on a shared machine; the first entry of the trajectory, not a gate",
        "rows": rows,
    }
    (BENCH / "baselines.json").write_text(json.dumps(record, indent=1) + "\n")
    for row in rows:
        print(f"{row['seconds']:9.3f} s  {row['workload']}  {row.get('answer', '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
