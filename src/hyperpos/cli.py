"""Command line entry point: every toolkit operation as a subcommand.

Output is a single JSON report on stdout with the shape
{"command", "digest", "payload", "version"}.  Handlers return exact values;
`_render` prints them all, a Fraction as "a/b" and the empty dimension as
"EMPTY", and floats appear only in fields suffixed "_approx".  Exit codes:
0 success, 1 usage error, 2 domain error (error name in the payload),
3 internal fault.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__, groebner
from .errors import DomainError
from .groebner import EMPTY, GREVLEX, groebner_basis, hilbert_function, ideal_profile
from .heights import (INFINITE, Place, RationalPoint, height_point,
                      height_poly, height_scalar, product_formula_check,
                      summarize_margins, theorem15_margin, weil_function)
from .polyring import (ascii_int, int_from_json, parse_poly, poly_to_json, polys_from_json,
                       rat_from_str, rat_to_str)
from .position import (IndexOutOfRange, build_variety, classify_position, dimension_profile,
                       distributive_constant, load_configuration, remark_bounds)
from .replace import build_replacement, exponent_schedule, verify_power_inequality, \
    verify_replacement
from .weights import (DEFAULT_ORACLE_CAP, compare_bounds, ef_lower_bound_check,
                      hilbert_weight, hilbert_weight_bruteforce, truncation_m0)

_FILE_ARGS = ("config", "ideal", "variety", "points")
_PLUMBING_ARGS = ("command", "timing", "no_cache", "cache_dir")
_DEFAULT_PRECISION = 12


# ---------------------------------------------------------------------------
# argument parsing helpers

def _arg(read, refusal=None):
    """An argparse type: `read(text)`, with a ValueError or DomainError
    refused as `refusal`, formatted with the text, or as the error's message."""
    def convert(text):
        try:
            return read(text)
        except (ValueError, DomainError) as exc:
            raise argparse.ArgumentTypeError(refusal.format(text) if refusal else exc.message)
    return convert


_rat_arg = _arg(rat_from_str)
_rat_list = _arg(lambda text: tuple(rat_from_str(tok) for tok in text.split(",")))
_int = _arg(ascii_int, "invalid int value: {!r}")
_int_list = _arg(lambda text: tuple(ascii_int(tok) for tok in text.split(",")),
                 "expected comma-separated integers, got {!r}")
_place_arg = _arg(lambda text: INFINITE if text.strip().lower() in ("oo", "inf", "infinity")
                  else ascii_int(text), "expected 'oo' or a prime, got {!r}")


# ---------------------------------------------------------------------------
# input loading

def _read_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        raise DomainError(f"invalid JSON in {path}: {exc}")


def _load_config(path):
    """SessionConfig file: geometry keys plus the optional precision knob."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise DomainError(f"configuration in {path} must be a JSON object")
    v, fam = load_configuration(obj)
    precision = int_from_json(obj.get("precision", _DEFAULT_PRECISION), "precision")
    if precision < 1:
        raise DomainError(f"precision must be positive, got {precision}")
    return v, fam, precision


def _load_ideal(path):
    """Ideal/variety file: {"ambient": N, "polys": [text or JSON, ...]}."""
    obj = _read_json(path)
    try:
        ambient = int_from_json(obj["ambient"], "ambient")
        raw = obj["polys"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"{path} needs ambient and polys: {exc}")
    num_vars = ambient + 1
    return polys_from_json(raw, num_vars, f"polys in {path}"), num_vars


def _load_points(path, num_vars):
    points = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}")
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            coords = tuple(ascii_int(tok) for tok in text.split(","))
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
# payload helpers

def _one_based(indices):
    return [i + 1 for i in indices]


def _approx(x):
    return round(float(x), _DEFAULT_PRECISION)


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
        "dimension": prof.projective_dimension,
        "degree": prof.degree,
    }


def cmd_delta(args):
    v, fam, _ = _load_config(args.config)
    rep = distributive_constant(v, fam, include_table=args.table)
    payload = {"delta": rep.delta, "witness": _one_based(rep.witness)}
    if args.table:
        payload["table"] = [
            {"subset": _one_based(combo), "dimension": dim, "ratio": ratio}
            for combo, (_, dim, ratio) in sorted(rep.per_subset.items())
        ]
    return payload


def cmd_classify(args):
    v, fam, _ = _load_config(args.config)
    cls = classify_position(v, fam)
    return {**cls._asdict(), "bounds": remark_bounds(v, cls)._asdict()}


def _ordering_from(args, fam):
    if args.order is None:
        return tuple(range(fam.q))
    if sorted(args.order) != list(range(1, fam.q + 1)):
        raise IndexOutOfRange(f"--order must be a permutation of 1..{fam.q}")
    return tuple(i - 1 for i in args.order)


def cmd_profile(args):
    v, fam, _ = _load_config(args.config)
    prof = dimension_profile(v, fam, _ordering_from(args, fam))
    return {
        "ordering": _one_based(prof.ordering),
        "prefix_dims": prof.prefix_dims,
        "t_values": prof.t_values,
        "l_value": prof.l_value,
    }


def cmd_replace(args):
    v, fam, _ = _load_config(args.config)
    prof = dimension_profile(v, fam, _ordering_from(args, fam))
    system = build_replacement(v, fam, prof)
    verdict = verify_replacement(v, system)
    if not verdict.ok:
        raise RuntimeError("replacement system failed its own re-verification")
    return {
        "ordering": _one_based(prof.ordering),
        "degree": fam.degrees[0],
        "coeff_matrix": system.coeff_matrix,
        "prefix_dims": verdict.prefix_dims,
        "ok": verdict.ok,
    }


def cmd_schedule(args):
    sch = exponent_schedule(args.t)
    return {"delta": sch.delta, "m_values": sch.m_values, "max_index": sch.max_index}


def cmd_ineq(args):
    return verify_power_inequality(args.t, args.a)._asdict()


def cmd_hilbert(args):
    polys, num_vars = _load_ideal(args.ideal)
    gb = groebner_basis(polys, GREVLEX, num_vars=num_vars)
    return {"u": args.u, "value": hilbert_function(gb, args.u)}


def cmd_hweight(args):
    polys, num_vars = _load_ideal(args.variety)
    v = build_variety(polys, num_vars=num_vars)
    rep = hilbert_weight(v, args.u, args.c)
    payload = rep._asdict()
    if args.oracle:
        cap = args.cap if args.cap is not None else DEFAULT_ORACLE_CAP
        oracle = hilbert_weight_bruteforce(v, args.u, args.c, cap=cap)
        payload["oracle"] = oracle
        payload["agrees"] = oracle == rep.weight
    return payload


def cmd_efcheck(args):
    polys, num_vars = _load_ideal(args.variety)
    v = build_variety(polys, num_vars=num_vars)
    return ef_lower_bound_check(v, args.u, args.c, args.subset)._asdict()


def cmd_m0(args):
    return truncation_m0(args.n, args.d, args.degv, args.delta, args.q, args.eps)._asdict()


def cmd_compare(args):
    table = compare_bounds(args.n, args.ambient, args.l, args.kappa, args.q)
    return {"entries": table.entries, "this_paper": table.this_paper,
            "strictly_better": table.strictly_better}


def cmd_height(args):
    if args.point is not None:
        lr = height_point(RationalPoint(args.point))
    elif args.scalar is not None:
        lr = height_scalar(args.scalar)
    else:
        if args.nvars is None:
            raise DomainError("--nvars is required with --poly")
        lr = height_poly(parse_poly(args.poly, args.nvars))
    return {"argument": lr.argument, "log_approx": _approx(lr.value())}


def cmd_weil(args):
    q = parse_poly(args.poly, args.nvars)
    x = RationalPoint(args.point)
    place = INFINITE if args.place is INFINITE else Place.finite(args.place)
    lr = weil_function(q, x, place)
    return {"argument": lr.argument, "log_approx": _approx(lr.value())}


def cmd_pfcheck(args):
    res = product_formula_check(args.x)
    return {"product": res.product, "ok": res.ok}


def cmd_margin(args):
    v, fam, digits = _load_config(args.config)
    places = None  # theorem15_margin's default places
    if args.primes is not None:
        places = (INFINITE,) + tuple(Place.finite(p) for p in args.primes)
    if args.delta is not None:
        delta = args.delta
    else:
        delta = distributive_constant(v, fam).delta
    points = _load_points(args.points, v.num_vars)
    reports = theorem15_margin(v, fam, delta, args.eps, places, points)
    summary = summarize_margins(reports)
    return {
        "delta": delta,
        "eps": args.eps,
        "reports": [
            {
                "point": r.point.coords,
                "lhs_argument": r.lhs.argument,
                "lhs_root": r.lhs.root,
                "rhs_argument": r.rhs.argument,
                "rhs_root": r.rhs.root,
                "slack_approx": round(r.slack, digits),
            }
            for r in reports
        ],
        "summary": {
            "min_slack_approx": None if summary.min_slack is None
            else round(summary.min_slack, digits),
            "negative_points": [p.coords for p in summary.negative_points],
        },
    }


# ---------------------------------------------------------------------------
# parser wiring

# Built once per process: parsing leaves the parser unchanged, and building it
# is tens of add_argument calls.  Subcommand `name` runs `cmd_<name>`.
@functools.cache
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
    p.add_argument("--nvars", type=_int, required=True)

    p = sub.add_parser("dim", parents=[common], help="projective dimension and degree")
    p.add_argument("--ideal", required=True)

    p = sub.add_parser("delta", parents=[common], help="distributive constant")
    p.add_argument("--config", required=True)
    p.add_argument("--table", action="store_true")

    p = sub.add_parser("classify", parents=[common], help="position classification")
    p.add_argument("--config", required=True)

    p = sub.add_parser("profile", parents=[common], help="dimension profile of an ordering")
    p.add_argument("--config", required=True)
    p.add_argument("--order", type=_int_list, help="1-based member ordering")

    p = sub.add_parser("replace", parents=[common], help="replacement system construction")
    p.add_argument("--config", required=True)
    p.add_argument("--order", type=_int_list, help="1-based member ordering")

    p = sub.add_parser("schedule", parents=[common], help="exponent schedule from t-values")
    p.add_argument("--t", type=_int_list, required=True)

    p = sub.add_parser("ineq", parents=[common], help="power inequality check")
    p.add_argument("--t", type=_int_list, required=True)
    p.add_argument("--a", type=_rat_list, required=True)

    p = sub.add_parser("hilbert", parents=[common], help="Hilbert function value")
    p.add_argument("--ideal", required=True)
    p.add_argument("--u", type=_int, required=True)

    p = sub.add_parser("hweight", parents=[common], help="Hilbert weight")
    p.add_argument("--variety", required=True)
    p.add_argument("--u", type=_int, required=True)
    p.add_argument("--c", type=_rat_list, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    p.add_argument("--cap", type=_int, help="oracle monomial-count cap")

    p = sub.add_parser("efcheck", parents=[common], help="chained lower-bound inequality")
    p.add_argument("--variety", required=True)
    p.add_argument("--u", type=_int, required=True)
    p.add_argument("--c", type=_rat_list, required=True)
    p.add_argument("--subset", type=_int_list, required=True,
                   help="0-based coordinate indices")

    p = sub.add_parser("m0", parents=[common], help="truncation level bound")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--d", type=_int, required=True)
    p.add_argument("--degv", type=_int, required=True)
    p.add_argument("--delta", type=_rat_arg, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--eps", type=_rat_arg, required=True)

    p = sub.add_parser("compare", parents=[common], help="defect bound comparison table")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--ambient", type=_int, required=True)
    p.add_argument("--l", type=_int, required=True)
    p.add_argument("--kappa", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)

    p = sub.add_parser("height", parents=[common], help="logarithmic height")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=_int_list)
    group.add_argument("--scalar", type=_rat_arg)
    group.add_argument("--poly")
    p.add_argument("--nvars", type=_int)

    p = sub.add_parser("weil", parents=[common], help="Weil function at one place")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=_int, required=True)
    p.add_argument("--point", type=_int_list, required=True)
    p.add_argument("--place", type=_place_arg, required=True, help="'oo' or a prime")

    p = sub.add_parser("pfcheck", parents=[common], help="product formula check")
    p.add_argument("--x", type=_rat_arg, required=True)

    p = sub.add_parser("margin", parents=[common], help="empirical inequality margins")
    p.add_argument("--config", required=True)
    p.add_argument("--points", required=True, help="file with one point per line")
    p.add_argument("--eps", type=_rat_arg, required=True)
    p.add_argument("--primes", type=_int_list, help="finite places to include")
    p.add_argument("--delta", type=_rat_arg, help="override the computed constant")

    return top


# ---------------------------------------------------------------------------
# the printer

class NumberTooLarge(DomainError):
    code = "NumberTooLarge"


def _json_value(x):
    """The encoder's hook: a Fraction prints as "a/b", the empty dimension as "EMPTY"."""
    if isinstance(x, Fraction):
        return rat_to_str(x)
    if x is EMPTY:
        return "EMPTY"
    raise TypeError(f"{type(x).__name__} {x!r} has no JSON form")


_INF = float("inf")


def _encode(x, indent, out):
    """Append to `out`, and return it, the text of `x` at the line start
    `indent`, as `json.dumps(x, indent=2, sort_keys=True, default=_json_value)`
    writes it: the same type tests in the same order, so bool goes before int,
    and a float's NaN and infinities print as NaN and (-)Infinity."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        # refuses a number past sys.get_int_max_str_digits() with ValueError
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append("NaN" if x != x else "Infinity" if x == _INF else "-Infinity" if x == -_INF
                   else float.__repr__(x))
    elif isinstance(x, (list, tuple)):
        inner = indent + "  "
        out.append("[")
        for item in x:
            out.append(inner)
            _encode(item, inner, out)
            out.append(",")
        out[-1] = indent + "]" if x else "[]"
    elif isinstance(x, dict):
        inner = indent + "  "
        out.append("{")
        for key in sorted(x):  # every payload's keys are str
            out.append(f"{inner}{encode_basestring_ascii(key)}: ")
            _encode(x[key], inner, out)
            out.append(",")
        out[-1] = indent + "}" if x else "{}"
    else:
        _encode(_json_value(x), indent, out)
    return out


def _render(args, started, digest, payload):
    """The report's text: the one place a payload value is printed.

    Tuples print as arrays; a result record is a tuple too, so a handler
    returns `record._asdict()` for its fields to print as keys.  A payload is
    a tree, so the encoder needs no check for cycles.
    """
    report = {
        "command": args.command,
        "digest": digest,
        "payload": payload,
        "version": __version__,
    }
    if getattr(args, "timing", False):
        report["timing_ms_approx"] = round((time.perf_counter() - started) * 1000, 3)
    try:
        text = "".join(_encode(report, "\n", []))
    except ValueError:
        # int -> str refuses a number longer than sys.get_int_max_str_digits()
        raise NumberTooLarge(
            f"the report holds a number of more than {sys.get_int_max_str_digits()} "
            "digits, the most that Python prints") from None
    return text + "\n"


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
            with open(value, "rb") as handle:
                h.update(handle.read())
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


def _failure(exc):
    """Exit code and error payload for an exception raised while answering."""
    if isinstance(exc, DomainError):
        return 2, {"error": exc.code, "message": exc.message}
    if isinstance(exc, OSError):
        return 1, {"error": "UsageError", "message": str(exc)}
    return 3, {"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"}


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    digest = ""  # an input file that cannot be read has none
    try:
        digest = _digest(args)
        _configure_cache(args)
        # looked up on each call, so the parser built once holds no handler
        payload = globals()[f"cmd_{args.command}"](args)
        groebner.close_cache()  # written before the clock stops for timing_ms_approx
        code, text = 0, _render(args, started, digest, payload)
    except Exception as exc:
        code, payload = _failure(exc)
        text = _render(args, started, digest, payload)
    finally:
        # one write of this invocation's stores, whatever the exit code
        groebner.close_cache()
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
