"""Acceptance gate: every suite of the check registry, within its budget.

The checks live in ``noncross.verify.SUITES``, which ``noncross verify``
runs too.  Most suites run as ``test_suite[<name>]``; the appendix,
the linear-system replays and the E8 lookups run under the test names
that carried them before the registry.  The heavyweight E7/E8 objects
are computed once per session through the module-level caches in the
library, so a replay suite run by two tests costs its replay once.
"""

import time

import pytest

from noncross import verify
from noncross.verify import SUITES

_REPLAYS = ("e6", "d6", "d7", "e7", "e8")

# suites run by the named tests below rather than by test_suite
_NAMED = {"appendix", "e6", "d6", "d7", "e8", "lookups"}


def _check(name, generator=None):
    """Run one suite (or the part of it given as ``generator``): no
    failing check, no repeated description, within the suite's budget."""
    suite, budget_s = SUITES[name]
    start = time.time()
    results = list((generator or suite)())
    elapsed = time.time() - start
    assert results
    assert len({desc for desc, _ in results}) == len(results)
    assert [desc for desc, ok in results if not ok] == []
    if name == "e8" and generator is None:
        # the benchmark gates `noncross verify e8` on 19 passed checks
        assert len(results) == 19
    if budget_s is not None:
        assert elapsed < budget_s


@pytest.mark.parametrize("name", [n for n in SUITES if n not in _NAMED])
def test_suite(name):
    _check(name)


def test_01_golden_tables_core():
    _check("appendix", verify.appendix_core)


def test_01_golden_tables_extended():
    _check("appendix", verify.appendix_extended)


def test_08_E8_headline():
    _check("e8")
    _check("lookups")


def test_10_linear_system_replay():
    for name in _REPLAYS:
        _check(name)

