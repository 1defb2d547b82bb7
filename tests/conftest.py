import sqlite3
import sys
from contextlib import closing

import pytest

from hyperpos import groebner as groebner_mod
from hyperpos.groebner import normal_form, weighted_order
from hyperpos.polyring import HomoPoly, parse_poly


def lex(nvars):
    """Weights 100^(nvars-1-i): the lex order on every monomial of degree below 100."""
    return weighted_order([100 ** (nvars - 1 - i) for i in range(nvars)])


def leading_monomial(p, order):
    return max(p.terms, key=order.key)


@pytest.fixture(autouse=True)
def _no_disk_cache():
    # individual tests opt in; nothing may leak a cache dir to its neighbours
    groebner_mod.set_cache_dir(None)
    yield
    groebner_mod.set_cache_dir(None)


@pytest.fixture()
def default_digit_limit():
    """`int` at its default limit on the digits of a string, whatever the environment set."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


def parse_many(texts, nvars):
    return tuple(parse_poly(t, nvars) for t in texts)


def s_polynomial(f, g, order):
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    big = tuple(max(a, b) for a, b in zip(lmf, lmg))

    def shifted(h, lm):
        shift = [b - a for a, b in zip(lm, big)]
        return HomoPoly(h.nvars, {tuple(e + s for e, s in zip(m, shift)): c / h.terms[lm]
                                  for m, c in h.terms.items()})

    return shifted(f, lmf) - shifted(g, lmg)


def certify(gb):
    """Buchberger certificate: all S-polynomials of basis pairs reduce to zero."""
    gens = gb.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            spoly = s_polynomial(gens[i], gens[j], gb.order)
            assert normal_form(spoly, gb).is_zero, (i, j)


def cache_rows(directory):
    """Every (key, value) row of the cache database in `directory`.

    The stores held in memory are written first, as at the end of a command.
    """
    groebner_mod.close_cache()
    with closing(sqlite3.connect(directory / groebner_mod.CACHE_FILE)) as db:
        return sorted(db.execute("SELECT key, value FROM dimensions"))


def write_rows(directory, *rows):
    """Make `rows` the whole table of the cache database in `directory`."""
    groebner_mod.close_cache()
    with closing(sqlite3.connect(directory / groebner_mod.CACHE_FILE)) as db, db:
        db.execute(groebner_mod._CREATE_TABLE)
        db.execute("DELETE FROM dimensions")
        db.executemany("INSERT INTO dimensions VALUES (?, ?)", rows)


def is_summary(value):
    """Whether a row value is a walk summary: every other row holds an int or "EMPTY"."""
    return isinstance(value, str) and value != "EMPTY"


def dimension_rows(directory):
    """The rows of `cache_rows` that hold a dimension."""
    return [row for row in cache_rows(directory) if not is_summary(row[1])]


def drop_summary_rows(directory):
    """Delete the walk-summary rows of the cache database in `directory`, so
    that the next `delta` or `classify` on it walks; the rows deleted."""
    summaries = [row for row in cache_rows(directory) if is_summary(row[1])]
    with closing(sqlite3.connect(directory / groebner_mod.CACHE_FILE)) as db, db:
        db.executemany("DELETE FROM dimensions WHERE key = ?", [(key,) for key, _ in summaries])
    return summaries
