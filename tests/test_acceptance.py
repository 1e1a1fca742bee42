"""Acceptance gate: thirteen criteria from the paper, one PASS/FAIL line each.

`CRITERIA` maps each criterion to the `verify` identities that hold it; `check` runs
them at their default terms.  A new criterion names identities and never calls a kernel.
"""

from orbitkit.identities import REGISTRY, run

# criterion number: (name, the registry identities that hold it)
CRITERIA = {
    1: ("self-product series", ("ttimest-series",)),
    2: ("identity-map iterates", ("iterate-id2-series", "iterate-idp-series")),
    3: ("doubling cascade counts", ("feigenbaum-iterate",)),
    4: ("Euler transforms of the worked systems", ("euler-partitions", "golden-mean-monoid",
                                                   "full-shift-monoid", "dual-rational-monoid")),
    5: ("three-route monoid agreement", ("three-route-monoid",)),
    6: ("simulation oracle equivalence", ("oracle-product", "oracle-iterate")),
    7: ("cyclic subgroups and primitive lattices", ("cyclic-subgroups", "primitive-lattices")),
    8: ("prime-set indicator factorization", ("zeta-factorization",)),
    9: ("odd-part product series", ("a035109-prefix", "sp-zeta-product-series")),
    10: ("interpolation and Ramanujan series",
         ("s-part-interpolation", "rational-a-series", "ramanujan-series")),
    11: ("iterated indicator closed form", ("sp-iterate-closed-form",)),
    12: ("orbit growth asymptotics", ("pnt-ratio", "mertens-drift", "orbit-growth")),
    13: ("transform round-trips", ("fix-orbit-roundtrip", "euler-roundtrip")),
}


def check(num):
    """Print `C## <name>: PASS` or `FAIL`; assert that every named identity exists and passes."""
    name, names = CRITERIA[num]
    failed = [n for n in names if n not in REGISTRY] or [r for r in map(run, names) if not r.ok]
    print(f"C{num:02d} {name}: {'FAIL' if failed else 'PASS'}")
    assert failed == []


def test_c01():
    check(1)


def test_c02():
    check(2)


def test_c03():
    check(3)


def test_c04():
    check(4)


def test_c05():
    check(5)


def test_c06():
    check(6)


def test_c07():
    check(7)


def test_c08():
    check(8)


def test_c09():
    check(9)


def test_c10():
    check(10)


def test_c11():
    check(11)


def test_c12():
    check(12)


def test_c13():
    check(13)
