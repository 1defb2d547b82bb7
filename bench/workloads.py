"""Inputs, operations and answer checks of the benchmark workloads.

Every workload is one client in a closed loop: a session runs its operations
one after another, each waiting for the previous one.  The program sees only
the config, ideal and points files written here; the random choices are
made from the workload seed.

Seeded inputs come from finite pools (POOL entries per kind) so that every
answer can be pinned in ``pinned.json`` from the seed commit.  The seed picks
the pool entries, so the same seed always gives the same inputs.
"""

import hashlib
import json
import os
import random
from itertools import combinations_with_replacement, product
from math import gcd, prod

POOL = 16
WORKLOADS = ("lattice_cold", "lattice_warm", "variety_points")

# Dense quadrics (every monomial, nonzero coefficients in [-3, 3]) keep the
# Buchberger cost of one family close to that of another, so the run-to-run
# spread across seeds stays small.  `replace` runs on fixed families: the P^4
# ordering makes the search test 83 prefix dimensions; the natural order
# needs 8843 and takes minutes.
SCALES = {
    "full": {
        "families": ((3, 11), (4, 6)),
        "replace": ((4, None), (5, "2,11,6,8,5,1,3,4,10,9,7")),
        "samples": (("conic", 40), ("quadric", 400), ("P1", 420), ("P2", 300)),
        "hweight_u": 4,
    },
    "smoke": {
        "families": ((3, 5), (4, 4)),
        "replace": ((4, None),),
        "samples": (("conic", 8), ("quadric", 20), ("P1", 40), ("P2", 30)),
        "hweight_u": 2,
    },
}

VARIETIES = {
    "conic": (3, ("x0*x2 - x1^2",)),
    "quadric": (4, ("x0*x3 - x1*x2",)),
    "P1": (2, ()),
    "P2": (3, ()),
}
TWISTED_CUBIC = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")

# acceptance criterion 9: q = n + 2 monic linear forms, delta = 1, eps = 1/2
MARGIN_FAMILIES = {"P1": ("x0", "x1", "x0 + x1"), "P2": ("x0", "x1", "x2", "x0 + x1 + x2")}
MARGIN_PRIMES = (2, 3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# input generation (no hyperpos import: set-up writes plain text)

def _monomial_text(exp):
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e]
    return "*".join(parts)


def dense_quadric(rng, nvars):
    terms = []
    for combo in combinations_with_replacement(range(nvars), 2):
        coef = rng.choice((-3, -2, -1, 1, 2, 3))
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        mono = _monomial_text(exp)
        sign = "-" if coef < 0 else "+"
        terms.append((sign, f"{abs(coef)}*{mono}"))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {s} {b}" for s, b in terms[1:])


def quadric_family(nvars, q, index):
    rng = random.Random(f"quadrics:{nvars}:{q}:{index}")
    return [dense_quadric(rng, nvars) for _ in range(q)]


def pair_products(nvars):
    pairs = [f"x{i}*x{j}" for i in range(nvars) for j in range(i + 1, nvars)]
    return pairs + [" + ".join(f"x{i}^2" for i in range(nvars))]


def weight_pool(width):
    rng = random.Random(f"weights:{width}")
    pool = []
    while len(pool) < POOL:
        c = tuple(rng.randint(0, 4) for _ in range(width))
        if len(set(c)) > 1 and c not in pool:
            pool.append(c)
    return pool


def reference_points(nvars, count):
    """First `count` canonical points of P^(nvars-1), in sample_points order."""
    found = []
    shell = 0
    while len(found) < count:
        shell += 1
        for tup in product(range(-shell, shell + 1), repeat=nvars):
            if max(abs(t) for t in tup) != shell:
                continue
            if next(t for t in tup if t) < 0 or gcd(*tup) != 1:
                continue
            found.append(tup)
            if len(found) == count:
                break
    return found


def rough_part(m):
    """|m| with every prime up to 13 divided out."""
    m = abs(m)
    for p in MARGIN_PRIMES:
        while m % p == 0:
            m //= p
    return m


def _linear_value(text, point):
    return sum(point[int(tok.strip()[1:])] for tok in text.split("+"))


def points_digest(points):
    text = ";".join(",".join(str(c) for c in p) for p in points)
    return hashlib.sha256(text.encode()).hexdigest()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


# ---------------------------------------------------------------------------
# operations

class Op:
    """One closed-loop request: a CLI argv or a library call, plus its check.

    `project` maps the answer to the part pinned under `key`; `verify` is an
    independent check (closed form, oracle flag) that must also hold.
    """

    __slots__ = ("kind", "key", "argv", "call", "project", "verify")

    def __init__(self, kind, key, project, argv=None, call=None, verify=None):
        self.kind = kind
        self.key = key
        self.argv = argv
        self.call = call
        self.project = project
        self.verify = verify


def _pick(payload, *names):
    return {n: payload[n] for n in names}


def choose(seed):
    """Pool indices for one run: a family per size, two conic weights, one cubic weight."""
    rng = random.Random(seed)
    return {"families": [rng.randrange(POOL) for _ in range(2)],
            "hweight": rng.sample(range(POOL), 2), "efcheck": rng.randrange(POOL)}


def pool_choices():
    """Choices that together cover every pool entry, for pinning the answers."""
    return [{"families": [i, i], "hweight": [i, (i + 1) % POOL], "efcheck": i}
            for i in range(POOL)]


def lattice_ops(scale, choice, indir):
    spec = SCALES[scale]
    ops = []
    for (nvars, q), index in zip(spec["families"], choice["families"]):
        tag = f"P{nvars - 1}q{q}/{index}"
        conf = _write_json(os.path.join(indir, f"family-P{nvars - 1}-q{q}.json"), {
            "ambient": nvars - 1, "variety": [], "family": quadric_family(nvars, q, index)})
        ops.append(Op("delta", f"delta/{tag}", lambda p: _pick(p, "delta", "witness"),
                      argv=["delta", "--config", conf]))
        ops.append(Op("classify", f"classify/{tag}", lambda p: p,
                      argv=["classify", "--config", conf]))
    for nvars, order in spec["replace"]:
        conf = _write_json(os.path.join(indir, f"pairs-P{nvars - 1}.json"), {
            "ambient": nvars - 1, "variety": [], "family": pair_products(nvars)})
        argv = ["replace", "--config", conf] + (["--order", order] if order else [])
        ops.append(Op("replace", f"replace/P{nvars - 1}pairs",
                      lambda p: _pick(p, "ok", "ordering", "prefix_dims"),
                      argv=argv, verify=lambda p: p["ok"] is True))
    return ops


def margin_closed_form(payload, members, count):
    """Negative slack exactly where rough(prod Q_j(x))^2 < h(x), as in criterion 9.

    With delta = 1 and eps = 1/2 the slack is log rough - log(h)/2 exactly;
    a tie (slack 0) is left to the pinned answer.
    """
    flagged = {tuple(p) for p in payload["summary"]["negative_points"]}
    for rep in payload["reports"]:
        point = tuple(rep["point"])
        values = prod(_linear_value(t, point) for t in members)
        lhs, rhs = rough_part(values) ** 2, max(abs(c) for c in point)
        if lhs != rhs and (lhs < rhs) != (point in flagged):
            return False
    return len(payload["reports"]) == count


def variety_ops(scale, choice, indir, hp):
    """hp: the imported hyperpos modules, used to build the sampler's varieties."""
    spec = SCALES[scale]
    ops = []
    for name, count in spec["samples"]:
        nvars, polys = VARIETIES[name]
        v = hp.position.build_variety([hp.polyring.parse_poly(t, nvars) for t in polys],
                                      num_vars=nvars)
        ref = reference_points(nvars, count) if not polys else None

        def verify(points, count=count, polys=polys, nvars=nvars, ref=ref):
            coords = [p.coords for p in points]
            eqs = [hp.polyring.parse_poly(t, nvars) for t in polys]
            on_v = all(g.evaluate(c) == 0 for c in coords for g in eqs)
            return len(coords) == count and on_v and (ref is None or coords == ref)

        ops.append(Op("sample_points", f"sample/{name}/{count}",
                      lambda pts: points_digest(p.coords for p in pts),
                      call=lambda v=v, count=count: hp.heights.sample_points(v, count),
                      verify=verify))
    for name, members in MARGIN_FAMILIES.items():
        nvars = VARIETIES[name][0]
        count = dict(spec["samples"])[name]
        pts = [p for p in reference_points(nvars, count)
               if all(_linear_value(t, p) != 0 for t in members)]
        ptsfile = os.path.join(indir, f"points-{name}.txt")
        with open(ptsfile, "w", encoding="utf-8") as handle:
            handle.write("".join(",".join(map(str, p)) + "\n" for p in pts))
        conf = _write_json(os.path.join(indir, f"margin-{name}.json"), {
            "ambient": nvars - 1, "variety": [], "family": list(members)})
        ops.append(Op("margin", f"margin/{name}/{count}",
                      lambda p: p["summary"]["negative_points"],
                      argv=["margin", "--config", conf, "--points", ptsfile,
                            "--eps", "1/2", "--delta", "1"],
                      verify=lambda p, m=members, n=len(pts): margin_closed_form(p, m, n)))
    u = spec["hweight_u"]
    conic = _write_json(os.path.join(indir, "conic.json"),
                        {"ambient": 2, "polys": list(VARIETIES["conic"][1])})
    for index in choice["hweight"]:
        cs = ",".join(map(str, weight_pool(3)[index]))
        ops.append(Op("hweight", f"hweight/{u}/{cs}", lambda p: p["weight"],
                      argv=["hweight", "--variety", conic, "--u", str(u), "--c", cs, "--oracle"],
                      verify=lambda p: p["agrees"] is True and p["oracle"] == p["weight"]))
    cubic = _write_json(os.path.join(indir, "twisted-cubic.json"),
                        {"ambient": 3, "polys": list(TWISTED_CUBIC)})
    cs = ",".join(map(str, weight_pool(4)[choice["efcheck"]]))
    ops.append(Op("efcheck", f"efcheck/4/{cs}", lambda p: p,
                  argv=["efcheck", "--variety", cubic, "--u", "4", "--c", cs,
                        "--subset", "0,3"], verify=lambda p: p["holds"] is True))
    return ops


def make_ops(workload, scale, choice, indir, hp):
    if workload == "variety_points":
        return variety_ops(scale, choice, indir, hp)
    return lattice_ops(scale, choice, indir)
