"""Spans around the calls into each hyperpos layer, recorded from outside.

Every module imports its dependencies by name (`position`, `replace`,
`weights` and `cli` all bind `groebner_basis` directly), so `install` swaps
every binding of a traced function in every loaded hyperpos module, and
`uninstall` puts the originals back.  Nothing under src/ is edited.

A span is [name, start, end, parent index, operation id].  Spans stay in
memory and are written out once, at the end of the traced run.
"""

import json
import statistics
from time import perf_counter

# (module, function, span name); the walk front ends share the `position.walk` prefix
TARGETS = (
    ("cli", "main", "cli.main"),
    ("polyring", "parse_poly", "polyring.parse"),
    ("groebner", "groebner_basis", "groebner.basis"),
    ("groebner", "_cache_fetch", "groebner.cache.fetch"),
    ("groebner", "_cache_store", "groebner.cache.store"),
    ("groebner", "ideal_profile", "groebner.profile"),
    ("groebner", "hilbert_function", "groebner.hilbert"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "standard_monomials", "groebner.standard_monomials"),
    ("position", "load_configuration", "position.load"),
    ("position", "build_variety", "position.build_variety"),
    ("position", "distributive_constant", "position.walk.delta"),
    ("position", "classify_position", "position.walk.classify"),
    ("position", "dimension_profile", "position.walk.profile"),
    ("replace", "build_replacement", "replace.build"),
    ("replace", "verify_replacement", "replace.verify"),
    ("weights", "hilbert_weight", "weights.hilbert_weight"),
    ("weights", "hilbert_weight_bruteforce", "weights.bruteforce"),
    ("weights", "ef_lower_bound_check", "weights.efcheck"),
    ("heights", "sample_points", "heights.sample_points"),
    ("heights", "theorem15_margin", "heights.margin"),
    ("heights", "weil_function", "heights.weil"),
)

# results kept for counting after the run, so no accounting runs inside a span
KEEP_RESULT = {"groebner.basis", "replace.build", "heights.sample_points"}


class Tracer:
    """Spans and counters of one traced run; `hp` holds the imported hyperpos modules."""

    def __init__(self, hp):
        self.hp = hp
        self.spans = []
        self.results = []        # (span index, result) for KEEP_RESULT names
        self.walk_q = {}         # delta walk span index -> family size q
        self.combine_parents = []  # parent span of every replace-side poly_combine
        self.homopoly_inits = 0
        self.op_id = -1
        self._stack = []
        self._swaps = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [vars(getattr(self.hp, name)) for name in vars(self.hp)]

    def _rebind(self, original, replacement):
        for namespace in self._modules():
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._swaps.append((namespace, key, original))

    def install(self):
        for module, func, name in TARGETS:
            original = getattr(getattr(self.hp, module), func)
            self._rebind(original, self._wrap(name, original))
        combine = self.hp.replace.poly_combine
        self._rebind(combine, self._count_combine(combine))
        cls = self.hp.polyring.HomoPoly
        original_init = cls.__init__

        def counting_init(obj, *args, **kwargs):
            self.homopoly_inits += 1
            original_init(obj, *args, **kwargs)

        cls.__init__ = counting_init
        self._swaps.append((cls, "__init__", original_init))

    def uninstall(self):
        for target, key, original in reversed(self._swaps):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._swaps.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_RESULT
        delta_walk = name == "position.walk.delta"
        fetch = name == "groebner.cache.fetch"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if fetch:
                # a None key means the cache is off: neither a hit nor a miss
                self.results.append((idx, (args[0] is not None, result is not None)))
            elif keep:
                self.results.append((idx, result))
            if delta_walk:
                self.walk_q[idx] = args[1].q
            return result

        return traced

    def _count_combine(self, fn):
        stack, parents = self._stack, self.combine_parents

        def counted(*args, **kwargs):
            parents.append(stack[-1] if stack else -1)
            return fn(*args, **kwargs)

        return counted

    # -- output ---------------------------------------------------------------

    def dump(self, path, ops):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"ops": ops, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)

    def layer_metrics(self, sessions, cache_writes, cache_bytes, report_bytes):
        """Per-layer metrics, each a per-session mean unless it is a max or a ratio."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]

        def named(prefix):
            return [i for i, s in enumerate(spans) if s[0] == prefix or s[0].startswith(prefix + ".")]

        def total(idxs):
            return sum(dur[i] for i in idxs) / sessions

        def self_time(idxs):
            # span time not covered by its direct (library) child spans
            return sum(dur[i] - child_time[i] for i in idxs) / sessions

        def calls(idxs):
            return len(idxs) / sessions

        def children_named(parents, name):
            parents = set(parents)
            return [i for i, s in enumerate(spans) if s[0] == name and s[3] in parents]

        basis = named("groebner.basis")
        basis_ms = sorted(dur[i] * 1000 for i in basis)
        results = dict(self.results)

        def kept(idxs):
            # a call that raised left no result
            return [results[i] for i in idxs if i in results]

        bases = kept(basis)
        bits = [max(c.numerator.bit_length(), c.denominator.bit_length())
                for gb in bases for g in gb.generators for c in g.terms.values()]
        fetches = kept(named("groebner.cache.fetch"))
        lookups = sum(1 for keyed, _ in fetches if keyed)
        hits = sum(1 for keyed, hit in fetches if keyed and hit)
        misses = lookups - hits
        walk = named("position.walk")
        delta_walks = named("position.walk.delta")
        subsets = sum(2 ** self.walk_q[i] - 1 for i in delta_walks)
        build = named("replace.build")
        verify = named("replace.verify")
        build_set = set(build)
        candidates = sum(1 for p in self.combine_parents if p in build_set)
        accepted = sum(len(system.replacements) - 1 for system in kept(build))
        samples = named("heights.sample_points")
        sampled = kept(samples)
        shells = [max(max(abs(c) for c in p.coords) for p in pts) for pts in sampled]
        scanned = sum(sum((2 * s + 1) ** len(pts[0].coords) for s in range(1, top + 1))
                      for pts, top in zip(sampled, shells))
        brute = named("weights.bruteforce")
        main = named("cli.main")
        return {
            "groebner.basis.calls": calls(basis),
            "groebner.basis.s": total(basis),
            "groebner.basis.self_s": self_time(basis),
            "groebner.basis.p50_ms": _quantile(basis_ms, 50),
            "groebner.basis.p99_ms": _quantile(basis_ms, 99),
            "groebner.basis.gens_out": sum(len(gb.generators) for gb in bases) / sessions,
            "groebner.basis.max_coeff_bits": max(bits, default=0),
            "groebner.cache.hits": hits / sessions,
            "groebner.cache.misses": misses / sessions,
            "groebner.cache.writes": cache_writes / sessions,
            "groebner.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "groebner.cache.bytes_written": cache_bytes / sessions,
            "groebner.profile.calls": calls(named("groebner.profile")),
            "groebner.profile.s": total(named("groebner.profile")),
            "groebner.hilbert.calls": calls(named("groebner.hilbert")),
            "groebner.hilbert.s": total(named("groebner.hilbert")),
            "groebner.normal_form.calls": calls(named("groebner.normal_form")),
            "groebner.normal_form.s": total(named("groebner.normal_form")),
            "position.walk.s": total(walk),
            "position.walk.self_s": self_time(walk),
            "position.gb_calls_per_subset":
                len(children_named(delta_walks, "groebner.basis")) / subsets if subsets else 0.0,
            "replace.build.s": total(build),
            "replace.build.self_s": self_time(build),
            "replace.build.gb_calls": calls(children_named(build, "groebner.basis")),
            "replace.candidates": candidates / sessions,
            "replace.accept_ratio": accepted / candidates if candidates else 0.0,
            "replace.verify.s": total(verify),
            "replace.verify.gb_calls": calls(children_named(verify, "groebner.basis")),
            "weights.hilbert_weight.s": total(named("weights.hilbert_weight")),
            "weights.bruteforce.s": total(brute),
            "weights.bruteforce.self_s": self_time(brute),
            "weights.efcheck.s": total(named("weights.efcheck")),
            "heights.sample_points.s": total(samples),
            "heights.sample_points.points": sum(len(p) for p in sampled) / sessions,
            "heights.sample_points.max_shell": max(shells, default=0),
            "heights.sample_points.tuples_scanned_computed": scanned / sessions,
            "heights.margin.s": total(named("heights.margin")),
            "heights.weil.calls": calls(named("heights.weil")),
            "heights.weil.s": total(named("heights.weil")),
            "polyring.parse.calls": calls(named("polyring.parse")),
            "polyring.parse.s": total(named("polyring.parse")),
            "polyring.homopoly.inits": self.homopoly_inits / sessions,
            "cli.overhead_s": self_time(main),
            "cli.report_bytes": report_bytes / sessions,
        }


def _quantile(sorted_values, pct):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[pct - 1]
