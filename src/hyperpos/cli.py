"""Command line entry point: every toolkit operation as a subcommand.

Output is a single JSON report on stdout with the shape
{"command", "digest", "payload", "version"}; rationals are printed as "a/b"
and floats appear only in fields suffixed "_approx".  Exit codes: 0 success,
1 usage error, 2 domain error (error name in the payload), 3 internal fault.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, groebner
from .errors import DomainError
from .groebner import EMPTY, GREVLEX, groebner_basis, hilbert_function, ideal_profile
from .heights import (INFINITE, Place, RationalPoint, default_places, height_point,
                      height_poly, height_scalar, product_formula_check,
                      summarize_margins, theorem15_margin, weil_function)
from .polyring import parse_poly, poly_from_json, poly_to_json, rat_from_str, rat_to_str
from .position import (DEFAULT_SUBSET_CAP, build_variety, classify_position,
                       dimension_profile, distributive_constant, load_configuration,
                       remark_bounds)
from .replace import build_replacement, exponent_schedule, verify_power_inequality, \
    verify_replacement
from .weights import (DEFAULT_ORACLE_CAP, compare_bounds, ef_lower_bound_check,
                      hilbert_weight, hilbert_weight_bruteforce, truncation_m0)

_FILE_ARGS = ("config", "ideal", "variety", "points")
_PLUMBING_ARGS = ("handler", "command", "timing", "no_cache", "cache_dir")
_DEFAULT_PRECISION = 12


# ---------------------------------------------------------------------------
# argument parsing helpers

def _rat_arg(text):
    try:
        return rat_from_str(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(exc.message)


def _int_list(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _rat_list(text):
    try:
        return tuple(rat_from_str(tok) for tok in text.split(","))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(exc.message)


def _place_arg(text):
    if text.strip().lower() in ("oo", "inf", "infinity"):
        return INFINITE
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'oo' or a prime, got {text!r}")


# ---------------------------------------------------------------------------
# input loading

def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise DomainError(f"invalid JSON in {path}: {exc}")


def _int_knob(obj, name, default):
    """An integer knob, given as a JSON integer or a string of one."""
    value = obj.get(name, default)
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _load_config(path):
    """SessionConfig file: geometry keys plus optional seed/cap/precision knobs."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise DomainError(f"configuration in {path} must be a JSON object")
    v, fam = load_configuration(obj)
    knobs = {
        "seed": _int_knob(obj, "seed", 0),
        "subset_cap": _int_knob(obj, "subset_cap", DEFAULT_SUBSET_CAP),
        "precision": _int_knob(obj, "precision", _DEFAULT_PRECISION),
    }
    for name in ("subset_cap", "precision"):
        if knobs[name] < 1:
            raise DomainError(f"{name} must be positive, got {knobs[name]}")
    return v, fam, knobs


def _load_ideal(path):
    """Ideal/variety file: {"ambient": N, "polys": [text or JSON, ...]}."""
    obj = _read_json(path)
    try:
        ambient = int(obj["ambient"])
        raw = obj["polys"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path} needs ambient and polys: {exc}")
    if not isinstance(raw, list):
        raise DomainError(f"polys in {path} must be a list, got {type(raw).__name__}")
    num_vars = ambient + 1
    polys = [parse_poly(e, num_vars) if isinstance(e, str) else poly_from_json(e)
             for e in raw]
    return polys, num_vars


def _load_points(path, num_vars):
    points = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            coords = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise DomainError(f"{path}:{line_no}: expected comma-separated integers")
        if len(coords) != num_vars:
            raise DomainError(
                f"{path}:{line_no}: point has {len(coords)} coordinates, expected {num_vars}")
        points.append(RationalPoint(coords))
    if not points:
        raise DomainError(f"{path} contains no points")
    return points


# ---------------------------------------------------------------------------
# serialization helpers

def _r(x):
    return rat_to_str(Fraction(x))


def _dim_json(d):
    return "EMPTY" if d is EMPTY else d


def _one_based(indices):
    return [i + 1 for i in indices]


def _approx(x, digits=_DEFAULT_PRECISION):
    return round(float(x), digits)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_parse(args):
    p = parse_poly(args.poly, args.nvars)
    return {
        "canonical": str(p),
        "degree": None if p.is_zero else p.degree,
        "json": poly_to_json(p),
    }


def cmd_dim(args):
    polys, num_vars = _load_ideal(args.ideal)
    prof = ideal_profile(groebner_basis(polys, GREVLEX, num_vars=num_vars))
    return {
        "ambient": num_vars - 1,
        "dimension": _dim_json(prof.projective_dimension),
        "degree": prof.degree,
    }


def cmd_delta(args):
    v, fam, knobs = _load_config(args.config)
    cap = args.cap if args.cap is not None else knobs["subset_cap"]
    rep = distributive_constant(v, fam, cap=cap, include_table=args.table)
    payload = {"delta": _r(rep.delta), "witness": _one_based(rep.witness)}
    if args.table:
        payload["table"] = [
            {"subset": _one_based(combo), "dimension": dim, "ratio": _r(ratio)}
            for combo, (_, dim, ratio) in sorted(rep.per_subset.items())
        ]
    return payload


def cmd_classify(args):
    v, fam, _ = _load_config(args.config)
    cls = classify_position(v, fam)
    bounds = remark_bounds(v, cls)
    return {
        "l_value": cls.l_value,
        "general_position": cls.general_position,
        "kappa": cls.kappa,
        "t_vector": list(cls.t_vector),
        "bounds": {
            "subgeneral": None if bounds.subgeneral is None else _r(bounds.subgeneral),
            "t_vector": _r(bounds.t_vector),
            "index": None if bounds.index is None else _r(bounds.index),
        },
    }


def _ordering_from(args, fam):
    if args.order is None:
        return tuple(range(fam.q))
    return tuple(i - 1 for i in args.order)


def cmd_profile(args):
    v, fam, _ = _load_config(args.config)
    prof = dimension_profile(v, fam, _ordering_from(args, fam))
    return {
        "ordering": _one_based(prof.ordering),
        "prefix_dims": [_dim_json(d) for d in prof.prefix_dims],
        "t_values": list(prof.t_values),
        "l_value": prof.l_value,
    }


def cmd_replace(args):
    v, fam, knobs = _load_config(args.config)
    prof = dimension_profile(v, fam, _ordering_from(args, fam))
    seed = args.seed if args.seed is not None else knobs["seed"]
    system = build_replacement(v, fam, prof, seed=seed, max_bound=args.bound)
    verdict = verify_replacement(v, system)
    if not verdict.ok:
        raise RuntimeError("replacement system failed its own re-verification")
    return {
        "ordering": _one_based(prof.ordering),
        "degree": fam.degrees[0],
        "coeff_matrix": [[_r(c) for c in row] for row in system.coeff_matrix],
        "prefix_dims": [_dim_json(d) for d in verdict.prefix_dims],
        "ok": verdict.ok,
    }


def cmd_schedule(args):
    sch = exponent_schedule(args.t)
    return {
        "delta": _r(sch.delta),
        "m_values": [_r(m) for m in sch.m_values],
        "max_index": sch.max_index,
    }


def cmd_ineq(args):
    res = verify_power_inequality(args.t, args.a)
    return {
        "holds": res.holds,
        "equality": res.equality,
        "lhs": _r(res.lhs),
        "rhs": _r(res.rhs),
        "power": res.power,
    }


def cmd_hilbert(args):
    polys, num_vars = _load_ideal(args.ideal)
    gb = groebner_basis(polys, GREVLEX, num_vars=num_vars)
    return {"u": args.u, "value": hilbert_function(gb, args.u)}


def cmd_hweight(args):
    polys, num_vars = _load_ideal(args.variety)
    v = build_variety(polys, num_vars=num_vars)
    rep = hilbert_weight(v, args.u, args.c)
    payload = {
        "u": args.u,
        "weight": _r(rep.weight),
        "basis": [list(m) for m in rep.basis],
    }
    if args.oracle:
        cap = args.cap if args.cap is not None else DEFAULT_ORACLE_CAP
        oracle = hilbert_weight_bruteforce(v, args.u, args.c, cap=cap)
        payload["oracle"] = _r(oracle)
        payload["agrees"] = oracle == rep.weight
    return payload


def cmd_efcheck(args):
    polys, num_vars = _load_ideal(args.variety)
    v = build_variety(polys, num_vars=num_vars)
    res = ef_lower_bound_check(v, args.u, args.c, args.subset)
    return {
        "holds": res.holds,
        "lhs": _r(res.lhs),
        "rhs": _r(res.rhs),
        "u": res.u,
        "subset": list(res.subset),
    }


def cmd_m0(args):
    rep = truncation_m0(args.n, args.d, args.degv, args.delta, args.q, args.eps)
    return {
        "m0": rep.m0,
        "defect_total": _r(rep.defect_total),
        "coefficient": _r(rep.coefficient),
    }


def cmd_compare(args):
    table = compare_bounds(args.n, args.ambient, args.l, args.kappa, args.q)
    return {
        "entries": {name: _r(val) for name, val in sorted(table.entries.items())},
        "this_paper": _r(table.this_paper),
        "strictly_better": dict(sorted(table.strictly_better.items())),
    }


def cmd_height(args):
    if args.point is not None:
        lr = height_point(RationalPoint(args.point))
    elif args.scalar is not None:
        lr = height_scalar(args.scalar)
    else:
        if args.nvars is None:
            raise DomainError("--nvars is required with --poly")
        lr = height_poly(parse_poly(args.poly, args.nvars))
    return {"argument": _r(lr.argument), "log_approx": _approx(lr.value())}


def cmd_weil(args):
    q = parse_poly(args.poly, args.nvars)
    x = RationalPoint(args.point)
    place = INFINITE if args.place is INFINITE else Place.finite(args.place)
    lr = weil_function(q, x, place)
    return {"argument": _r(lr.argument), "log_approx": _approx(lr.value())}


def cmd_pfcheck(args):
    res = product_formula_check(args.x)
    return {"product": _r(res.product), "ok": res.ok}


def cmd_margin(args):
    v, fam, knobs = _load_config(args.config)
    if args.primes is None:
        places = default_places()
    else:
        places = (INFINITE,) + tuple(Place.finite(p) for p in args.primes)
    if args.delta is not None:
        delta = args.delta
    else:
        delta = distributive_constant(v, fam, cap=knobs["subset_cap"]).delta
    points = _load_points(args.points, v.num_vars)
    reports = theorem15_margin(v, fam, delta, args.eps, places, points)
    summary = summarize_margins(reports)
    digits = knobs["precision"]
    return {
        "delta": _r(delta),
        "eps": _r(args.eps),
        "reports": [
            {
                "point": list(r.point.coords),
                "lhs_argument": _r(r.lhs.argument),
                "lhs_root": r.lhs.root,
                "rhs_argument": _r(r.rhs.argument),
                "rhs_root": r.rhs.root,
                "slack_approx": round(r.slack, digits),
            }
            for r in reports
        ],
        "summary": {
            "min_slack_approx": None if summary.min_slack is None
            else round(summary.min_slack, digits),
            "negative_points": [list(p.coords) for p in summary.negative_points],
        },
    }


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timing", action="store_true",
                        help="include timing_ms_approx in the report")
    common.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk dimension cache")
    common.add_argument("--cache-dir", help="dimension cache directory override")

    top = argparse.ArgumentParser(
        prog="hyperpos",
        description="Exact position invariants of hypersurface families.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("parse", parents=[common], help="parse one polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("dim", parents=[common], help="projective dimension and degree")
    p.add_argument("--ideal", required=True)
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("delta", parents=[common], help="distributive constant")
    p.add_argument("--config", required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--table", action="store_true")
    p.set_defaults(handler=cmd_delta)

    p = sub.add_parser("classify", parents=[common], help="position classification")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("profile", parents=[common], help="dimension profile of an ordering")
    p.add_argument("--config", required=True)
    p.add_argument("--order", type=_int_list, help="1-based member ordering")
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("replace", parents=[common], help="replacement system construction")
    p.add_argument("--config", required=True)
    p.add_argument("--order", type=_int_list, help="1-based member ordering")
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int, default=8, help="spiral coefficient pool bound")
    p.set_defaults(handler=cmd_replace)

    p = sub.add_parser("schedule", parents=[common], help="exponent schedule from t-values")
    p.add_argument("--t", type=_int_list, required=True)
    p.set_defaults(handler=cmd_schedule)

    p = sub.add_parser("ineq", parents=[common], help="power inequality check")
    p.add_argument("--t", type=_int_list, required=True)
    p.add_argument("--a", type=_rat_list, required=True)
    p.set_defaults(handler=cmd_ineq)

    p = sub.add_parser("hilbert", parents=[common], help="Hilbert function value")
    p.add_argument("--ideal", required=True)
    p.add_argument("--u", type=int, required=True)
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("hweight", parents=[common], help="Hilbert weight")
    p.add_argument("--variety", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--c", type=_rat_list, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    p.add_argument("--cap", type=int, help="oracle monomial-count cap")
    p.set_defaults(handler=cmd_hweight)

    p = sub.add_parser("efcheck", parents=[common], help="chained lower-bound inequality")
    p.add_argument("--variety", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--c", type=_rat_list, required=True)
    p.add_argument("--subset", type=_int_list, required=True,
                   help="0-based coordinate indices")
    p.set_defaults(handler=cmd_efcheck)

    p = sub.add_parser("m0", parents=[common], help="truncation level bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--degv", type=int, required=True)
    p.add_argument("--delta", type=_rat_arg, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", type=_rat_arg, required=True)
    p.set_defaults(handler=cmd_m0)

    p = sub.add_parser("compare", parents=[common], help="defect bound comparison table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("height", parents=[common], help="logarithmic height")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=_int_list)
    group.add_argument("--scalar", type=_rat_arg)
    group.add_argument("--poly")
    p.add_argument("--nvars", type=int)
    p.set_defaults(handler=cmd_height)

    p = sub.add_parser("weil", parents=[common], help="Weil function at one place")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--point", type=_int_list, required=True)
    p.add_argument("--place", type=_place_arg, required=True, help="'oo' or a prime")
    p.set_defaults(handler=cmd_weil)

    p = sub.add_parser("pfcheck", parents=[common], help="product formula check")
    p.add_argument("--x", type=_rat_arg, required=True)
    p.set_defaults(handler=cmd_pfcheck)

    p = sub.add_parser("margin", parents=[common], help="empirical inequality margins")
    p.add_argument("--config", required=True)
    p.add_argument("--points", required=True, help="file with one point per line")
    p.add_argument("--eps", type=_rat_arg, required=True)
    p.add_argument("--primes", type=_int_list, help="finite places to include")
    p.add_argument("--delta", type=_rat_arg, help="override the computed constant")
    p.set_defaults(handler=cmd_margin)

    return top


# ---------------------------------------------------------------------------
# runner

def _digest(args):
    h = hashlib.sha256()
    h.update(f"command:{args.command}".encode())
    for key in sorted(vars(args)):
        if key in _PLUMBING_ARGS:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if key in _FILE_ARGS:
            h.update(f"\n{key}:".encode())
            h.update(Path(value).read_bytes())
        else:
            h.update(f"\n{key}={value!r}".encode())
    return h.hexdigest()


def _configure_cache(args):
    if getattr(args, "no_cache", False):
        groebner.set_cache_dir(None)
    elif getattr(args, "cache_dir", None):
        groebner.set_cache_dir(args.cache_dir)
    elif os.environ.get("HYPERPOS_CACHE_DIR"):
        groebner.set_cache_dir(os.environ["HYPERPOS_CACHE_DIR"])
    else:
        groebner.set_cache_dir(os.path.expanduser(os.path.join("~", ".cache", "hyperpos")))


def _emit(args, started, digest, payload):
    report = {
        "command": args.command,
        "digest": digest,
        "payload": payload,
        "version": __version__,
    }
    if getattr(args, "timing", False):
        report["timing_ms_approx"] = round((time.perf_counter() - started) * 1000, 3)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        digest = _digest(args)
    except OSError as exc:
        _emit(args, started, "", {"error": "UsageError", "message": str(exc)})
        return 1
    _configure_cache(args)
    try:
        payload = args.handler(args)
    except DomainError as exc:
        _emit(args, started, digest, {"error": exc.code, "message": exc.message})
        return 2
    except OSError as exc:
        _emit(args, started, digest, {"error": "UsageError", "message": str(exc)})
        return 1
    except Exception as exc:
        _emit(args, started, digest,
              {"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"})
        return 3
    _emit(args, started, digest, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
