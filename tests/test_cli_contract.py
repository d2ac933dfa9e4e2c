"""The CLI input contract on generated argument vectors.

``cli.main`` runs in process.  Exit 2 is invalid input and 3 a resource
guard: either way stdout is empty and stderr is one ``error:`` or
``resource guard:`` line, never a traceback.  On exit 0, stdout is the
answer of the library call.  Labels come from a grammar with huge
powers, empty factors, ``*`` and ``,`` mixes and stray whitespace; every
huge power is refused by the parse guard or a rank guard, so no example
computes for long.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import (HealthCheck, event, example, given, settings,
                        strategies as st)

from noncross import closedform, decomp, ncposet, triangles
from noncross.cli import main
from noncross.rootsystem import SUPPORTED_AMBIENTS, degrees
from noncross.typelabel import ResourceGuardError, label

IRREDUCIBLE = (["A%d" % k for k in range(1, 10)]
               + ["D%d" % k for k in range(2, 10)] + ["E6", "E7", "E8"])
VALID = st.builds("{}{}".format, st.sampled_from(IRREDUCIBLE),
                  st.sampled_from(["", "", "^1", "^2", "^0"]))
# each parses to a rank above every rank guard, and any two of them
# exceed the parse guard
HUGE = st.sampled_from(["A1^4001", "A1^9999", "A2^4001", "D2^2500",
                        "E8^600", "D9^1000", "E8^1251"])
JUNK = st.sampled_from(["", "0", "a3", "E5", "A0", "D1", "B2", "A1^-1",
                        "A1^10001", "A1^99999999999"])
SPACE = st.sampled_from(["", "", " ", "  "])
# up to three components, each padded and followed by a separator; the
# last separator is dropped
LABEL = st.lists(st.tuples(SPACE, st.one_of(VALID, VALID, HUGE, JUNK), SPACE,
                           st.sampled_from("*****,")),
                 min_size=1, max_size=3).map(
    lambda parts: "".join("".join(part) for part in parts)[:-1])
TUPLE = st.one_of(st.just("-"), LABEL, st.builds("{},{}".format, LABEL, LABEL))
AMBIENT = st.sampled_from(SUPPORTED_AMBIENTS + ("A9", "D3", "E5", "a3", "B2",
                                                " E8", ""))
M = st.one_of(st.integers(-3, 4),
              st.sampled_from([-10**9, 10**6, 10**12])).map(str)
ARGV = st.one_of(
    st.builds(lambda t: ["chi", t], LABEL),
    st.builds(lambda t, m, flags: ["zeta", t, "--m", m] + flags, LABEL, M,
              st.lists(st.just("--symbolic"), max_size=1)),
    st.builds(lambda a, t: ["decomp", "count", a, t], AMBIENT, TUPLE),
    st.builds(lambda a, m, flags: ["mtriangle", a, "--m", m] + flags,
              AMBIENT, M,
              st.lists(st.sampled_from(["--symbolic", "--dual"]),
                       unique=True)),
    st.builds(lambda a, m: ["ftriangle", a, "--m", str(m)], AMBIENT,
              st.integers(-2, 3)),
    st.builds(lambda a: ["rootsys", "info", a], AMBIENT))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def ambient(name):
    if name not in SUPPORTED_AMBIENTS:
        raise ValueError("unsupported ambient %r" % name)
    return name


def tuple_key(text):
    if text == "-":
        return ()
    tokens = text.split(",")
    if any(not tok.strip() for tok in tokens):
        raise ValueError("empty factor")
    return decomp.canonical_tuple(tuple(label(tok) for tok in tokens))


def answer(argv):
    """The library's answer to a command: the text it prints, or for
    ``ftriangle`` and ``rootsys`` the coefficients and the degrees."""
    command = argv[0]
    m = int(argv[argv.index("--m") + 1]) if "--m" in argv else 1
    if command == "chi":
        return "%s\n" % ncposet.characteristic_polynomial(label(argv[1]))
    if command == "zeta":
        m = "m" if "--symbolic" in argv else m
        return "%s\n" % closedform.zeta_closed(label(argv[1]), m=m)
    if command == "decomp":
        table = decomp.full_table(ambient(argv[2]))
        return "%s\n" % table.lookup(tuple_key(argv[3]))
    if command == "rootsys":
        return list(degrees(ambient(argv[2])))
    if command == "ftriangle" and m < 1:
        raise ValueError("ftriangle needs m >= 1")
    name = ambient(argv[1])
    mt = triangles.assemble_dual(name, decomp.full_table(name))
    if command == "ftriangle":
        return {"x^%d*y^%d" % kl: str(v) for kl, v
                in sorted(triangles.fm_transform(mt, m).coefficients.items())}
    source = mt.dual if "--dual" in argv else mt.primal
    if "--symbolic" not in argv:
        source = source.substitute(m=m)
    return "%s\n" % source


def expected(argv):
    """The exit code and answer the contract asks for: a ValueError is
    invalid input, a resource guard refuses."""
    try:
        return 0, answer(argv)
    except ResourceGuardError:
        return 3, None
    except ValueError:
        return 2, None


@settings(max_examples=250, deadline=10_000,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV, st.sampled_from(["text", "json", "csv"]))
@example(["zeta", "E8^300"], "text")
@example(["zeta", "A1^600", "--symbolic"], "text")
@example(["zeta", "A1^3000", "--m", "2"], "text")
@example(["chi", "A1^6000"], "text")
@example(["chi", "A1^5000*E8"], "json")
@example(["decomp", "count", "E8", "A1^9999,D4"], "text")
def test_cli_keeps_its_input_contract(argv, fmt):
    code, out, err = run(argv + ["--format", fmt])
    want, result = expected(argv)
    event("%s exits %s" % (argv[0], code))
    assert code == want, (argv, err)
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert err.count("\n") == 1, err
        assert err.startswith("error: " if code == 2 else "resource guard: ")
        return
    assert err == ""
    if argv[0] not in ("ftriangle", "rootsys"):
        assert out == result
    elif fmt == "json":
        payload = json.loads(out)
        assert payload["coefficients" if argv[0] == "ftriangle"
                       else "degrees"] == result


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on converting an int to text")
def test_answers_above_the_int_text_limit_print():
    # the largest coefficient of zeta(A1^60) at m = 10^80 has 4,818
    # digits; an --m of more digits than the limit is still bad input
    limit = sys.get_int_max_str_digits()
    m = 10 ** 80
    code, out, err = run(["zeta", "A1^60", "--m", str(m)])
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        zeta = closedform.zeta_closed(label("A1^60"), m=m)
        assert max(len(str(abs(c))) for c in zeta.terms.values()) == 4818
        assert out == "%s\n" % zeta
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, _ = run(["zeta", "A1", "--m", "1" * 4301])
    assert (code, out) == (2, "")
    assert sys.get_int_max_str_digits() == limit
