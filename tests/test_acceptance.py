"""Acceptance battery: one test per item on the agreed checklist.

Each test prints a single PASS line with its headline numbers so a -s
run reads as a checklist.  Ratio bounds are asserted by exact integer
cross-multiplication wherever rounding could blur a strict inequality
(the pell ratios sit closer to 4 than 50-digit decimals can resolve by
m around 80).
"""

import hashlib
import json
import time
from fractions import Fraction

from powerful_ap import (
    BudgetExceeded,
    analyze_triple,
    ap_identity_check,
    ck_constants,
    compute_D,
    consecutive_check,
    extend_ap,
    extension_exponent,
    find_kaps,
    five_ap,
    four_ap,
    is_powerful,
    long_ap,
    pell_3ap,
    radical_inequality_check,
    ratio_bound_holds,
    record_min_ratio,
    squares_3ap,
    validate_witness,
    valuation,
    witness_from_terms,
)
from powerful_ap.cli import main

import oracles


def _pass(label: str) -> None:
    print(f"PASS {label}")


class _Clock:
    def __init__(self, limit_s):
        self.limit = limit_s
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"
        return elapsed


def test_01_folklore_square_triple(capsys):
    clock = _Clock(1.0)
    code = main(["construct", "--family", "squares3", "--m", "1"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)[0]
    assert row["terms"] == ["1", "25", "49"]
    assert row["d"] == "24"
    assert row["verified"] is True
    elapsed = clock.check()
    _pass(f"01 squares3 m=1 gives (1, 25, 49), d=24 in {elapsed:.2f}s")


def test_02_pell_family_m1_to_200():
    clock = _Clock(10.0)
    witnesses = [pell_3ap(m) for m in range(1, 201)]
    for w in witnesses:
        validate_witness(w)
        x = w.params["x"]
        assert w.d == 8 * x + 4
    first = witnesses[0]
    assert first.terms == (392, 484, 576) and first.d == 92
    # d/sqrt(N) in (4, 4.65], strictly decreasing, within 1e-3 of 4 by the end.
    # All three claims are exact-integer comparisons: r > 4 iff d^2 > 16 N,
    # r <= 4.65 iff 400 d^2 <= 8649 N, r_m > r_{m+1} iff d_m^2 N' > d'^2 N_m.
    for w in witnesses:
        n, d = w.terms[0], w.d
        assert d * d > 16 * n
        assert 400 * d * d <= 8649 * n
    for a, b in zip(witnesses, witnesses[1:]):
        assert a.d**2 * b.terms[0] > b.d**2 * a.terms[0]
    last = witnesses[-1]
    # r_200 < 4 + 1e-3 iff 1000^2 d^2 < 4001^2 N
    assert 10**6 * last.d**2 < 4001**2 * last.terms[0]
    elapsed = clock.check()
    _pass(
        "02 pell3 m=1..200 verified, d=8x+4, d/sqrt(N) strictly decreasing "
        f"in (4, 4.65] and within 1e-3 of 4 at m=200, {elapsed:.2f}s"
    )


def test_03_four_term_family():
    clock = _Clock(10.0)
    witnesses = [four_ap(m) for m in range(1, 16)]
    first = witnesses[0]
    assert first.terms[0] == 31_212_000 and first.d == 2_080_800
    for w in witnesses:
        validate_witness(w)
        if w.terms[-1] < 10**12:
            assert all(is_powerful(t) for t in w.terms)
        # d <= 3 N^{4/5} exactly
        assert ratio_bound_holds(w.d, Fraction(3), w.terms[0], Fraction(4, 5))
    # strictly decreasing: r_m > r_{m+1} iff d_m^5 N'^4 > d'^5 N_m^4
    for a, b in zip(witnesses, witnesses[1:]):
        assert a.d**5 * b.terms[0] ** 4 > b.d**5 * a.terms[0] ** 4
    # within 1e-2 of 2 by m=15: d <= (2 + 1/100) N^{4/5}
    assert ratio_bound_holds(
        witnesses[-1].d, Fraction(201, 100), witnesses[-1].terms[0], Fraction(4, 5)
    )
    elapsed = clock.check()
    _pass(
        "03 four-term family m=1..15 powerful, N_1=31212000, d_1=2080800, "
        f"d/N^(4/5) <= 3 decreasing to within 1e-2 of 2, {elapsed:.2f}s"
    )


def test_04_five_term_family():
    clock = _Clock(10.0)
    first = five_ap(1)
    y, a = first.params["y"], first.params["a"]
    assert (y - 2 * a, y, y + 2 * a) == (392, 484, 576)
    assert (y - 2 * a, y, y + 2 * a) == pell_3ap(1).terms
    for m in range(1, 11):
        w = five_ap(m)
        validate_witness(w)
        assert ratio_bound_holds(w.d, Fraction(3), w.terms[0], Fraction(9, 10))
    elapsed = clock.check()
    _pass(
        "04 five-term family m=1..10 powerful, m=1 anchored on (392, 484, 576), "
        f"d <= 3 N^(9/10), {elapsed:.2f}s"
    )


def test_05_extension_chain():
    clock = _Clock(300.0)
    seed = squares_3ap(1)
    assert seed.terms == (1, 25, 49) and seed.d == 24
    w7 = long_ap(7, seed)
    validate_witness(w7)
    assert w7.k == 7
    # the whole AP is scaled by 73^2, then 97^2
    assert w7.params["multipliers"][:2] == [73, 97]
    try:
        w8 = long_ap(8, seed)
    except BudgetExceeded as exc:
        assert exc.step is not None and exc.number is not None
        detail = f"k=8 stopped at step {exc.step} (factoring cap)"
    else:
        validate_witness(w8)
        assert w8.k == 8
        assert w8.params["multipliers"] == [73, 97, 1, 145, 1]
        detail = "k=8 reached with multipliers 73,97,1,145,1"
    elapsed = clock.check()
    _pass(f"05 extension chain from (1,25,49): k=7 ok, {detail}, {elapsed:.2f}s")


def test_06_growth_bound_chain():
    w = five_ap(1)
    ds = {}
    for k in (6, 7):
        w = extend_ap(w)
        assert w.k == k
        validate_witness(w)
        ck = ck_constants(k)
        theta = extension_exponent(k)
        assert theta == Fraction(1, 1) - Fraction(1, 10 * 3 ** (k - 5))
        assert ratio_bound_holds(w.d, ck, w.terms[0], theta)
        ds[k] = w.d
    assert ds[6] == 959_044_063_244_054_400
    assert ds[7] == 26_746_779_879_813_433_161_600
    _pass(
        "06 growth bound: extending the five-term start to k=6,7 keeps "
        "d <= C_k N^(1 - 1/(10*3^(k-5))) with exact arithmetic"
    )


def test_07_enumeration_oracle():
    clock = _Clock(60.0)
    from powerful_ap import enumerate_powerful

    got = list(enumerate_powerful(10**6))
    want = oracles.brute_powerful_upto(10**6)
    assert got == want
    count8 = len(enumerate_powerful(10**8))
    expected = 2.173 * 10**4
    rel = abs(count8 - expected) / expected
    assert rel < 0.05
    elapsed = clock.check()
    _pass(
        f"07 enumeration matches definition at 1e6 ({len(got)} values); "
        f"count(1e8)={count8} is {rel * 100:.1f}% from 2.173e4, {elapsed:.1f}s"
    )


def test_08_consecutive_pairs(table_1e8):
    clock = _Clock(120.0)
    runs = consecutive_check(table_1e8)
    assert (8, 9) in runs
    assert (288, 289) in runs
    assert all(len(run) == 2 for run in runs)
    assert len(runs) == 10
    elapsed = clock.check()
    _pass(
        f"08 ten consecutive pairs up to 1e8 (incl. (8,9), (288,289)), "
        f"no run of three, {elapsed:.1f}s"
    )


def test_09_verification_battery(table_1e8):
    failures = []

    # every 3-AP found by the flagship search
    records = find_kaps(table_1e8, 3, 10**6)
    assert len(records) == 25_602
    for rec in records:
        assert ap_identity_check(rec.n, rec.d)
        t = analyze_triple(witness_from_terms(rec.terms(), rec.d, "search"))
        if not (t.all_ok() and radical_inequality_check(t)):
            failures.append(("search", rec.n, rec.d))

    # the constructed witnesses: the folklore square triple ...
    t = analyze_triple(squares_3ap(1))
    assert t.D == 1 and t.all_ok() and radical_inequality_check(t)

    # ... and the pell family.  Identity and D-consistency are gcd-only and
    # run for every m; the radical/valuation checks need full factorizations,
    # so they run in two tiers: a complete battery for m <= 50 under a raised
    # factoring budget, then a fixed screening budget beyond, where any triple
    # the budget does complete must still pass.  Skips are counted, failures
    # are not tolerated.
    for m in range(1, 201):
        w = pell_3ap(m)
        assert ap_identity_check(w.terms[0], w.d)
        assert compute_D(w) == 4
    skipped = []
    for m in range(1, 51):
        t = analyze_triple(pell_3ap(m), budget=10**8)
        if not (t.all_ok() and radical_inequality_check(t)):
            failures.append(("pell", m))
    completed = []
    for m in range(51, 201):
        try:
            t = analyze_triple(pell_3ap(m), budget=200_000)
        except BudgetExceeded:
            skipped.append(m)
            continue
        completed.append(m)
        if not (t.all_ok() and radical_inequality_check(t)):
            failures.append(("pell", m))
    assert completed == [54, 56, 65, 77]

    # exhaustive small-parameter sweep of the valuation lemma
    checks = 0
    for a in range(1, 51):
        for b in range(1, 51):
            n = a * a * b * b * b
            for p in (2, 3, 5, 7):
                delta = 0
                q = p
                while n % q == 0:
                    delta += 1
                    q *= p
                for dd in range(1, delta + 1):
                    assert 3 * valuation(p, a * b) >= dd
                    checks += 1
    assert checks > 10_000

    assert failures == []
    _pass(
        f"09 zero failures: {len(records)} search triples, squares3 m=1, "
        f"pell m=1..200 (identity+D), full abc battery m<=50, screening "
        f"completed {completed} beyond (skipped {len(skipped)}), "
        f"{checks} lemma checks"
    )


def test_10_fresh_run_determinism(tmp_path, capsys):
    """Determinism: two fresh runs of the flagship search, each enumerating
    its own table, give the same frozen bytes."""
    blobs = []
    for run in (1, 2):
        out = tmp_path / f"search-{run}.json"
        code = main(["search", "--limit", str(10**8), "--dmax", str(10**6),
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert hashlib.sha256(blobs[0]).hexdigest() == (
        "c083535ceec224e87765619f304f3907f5fc314e803360e323065b317103a390"
    )
    _pass(
        f"10 search at limit 1e8 is byte-identical over two fresh runs "
        f"({len(blobs[0])} bytes)"
    )


def test_11_record_ratio_table(table_1e8, capsys):
    """The running-minimum table of d/sqrt(N) over all 3-APs found.

    Small progressions sit far below the asymptotic floor of 4 (down to
    0.37 at N=729000).  Those are reported as notable findings, never as
    errors; this test pins the table and checks the reporting path.
    """
    minima = record_min_ratio(find_kaps(table_1e8, 3, 10**6))
    assert [(r.n, r.d) for r in minima] == [
        (1, 24),
        (8, 28),
        (36, 36),
        (72, 28),
        (343, 49),
        (1728, 36),
        (729000, 316),
    ]
    below = [r for r in minima if r.ratio_half < 4]
    assert [(r.n, r.d) for r in below] == [
        (72, 28),
        (343, 49),
        (1728, 36),
        (729000, 316),
    ]
    assert str(minima[-1].ratio_half).startswith("0.3701036076345214329302")

    code = main(["search", "--limit", str(10**8), "--dmax", str(10**6)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    notes = payload["notes"]
    assert len(notes) == len(below)
    for rec, note in zip(below, notes):
        assert f"N={rec.n}, d={rec.d}" in note
        assert "notable, not an error" in note
    for rec in below:
        w = witness_from_terms(rec.terms(), rec.d, "search")
        validate_witness(w)
        assert all(is_powerful(t) for t in w.terms)
    _pass(
        "11 record table pinned; 4 sub-4 ratios (record 0.3701 at N=729000) "
        "reported as notable findings, all reverified as genuine"
    )
