"""End-to-end runs of the command line through main(argv).

Exit codes are part of the public contract: 0 pass, 1 verification
failure, 2 resource limit, 3 unparseable input.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from powerful_ap import (
    abcver,
    arith,
    cli,
    consecutive_check,
    constructions,
    enumerate_powerful,
    find_kaps,
    five_ap,
    four_ap,
    pell_3ap,
    record_min_ratio,
)
from powerful_ap.arith import ratio_digits
from powerful_ap.cli import main

import oracles

GOLDEN_PELL_CSV = (
    "family,k,m,N,d,theta,ratio,verified\n"
    "pell3,3,1,392,92,1/2,"
    "4.6467017049401694460626915224032936867289218762385,true\n"
    "pell3,3,2,13448,476,1/2,"
    "4.1046686322536173367658770288037578377997793456063,true\n"
)

# sha256 of the exact stdout bytes of each command, pinned so that a
# refactor of the report layer cannot move a single byte unnoticed.
GOLDEN_STDOUT_SHA256 = {
    "construct --family kap --k 5":
        "b75f764f35eba3bd379db0cf62ef531e75b9e610d5f7e229e2c9d5a23a0f0a69",
    "construct --family four --m 1..2":
        "4b4fc07df14d1ff30b7a4c6f2f50a8596e1f551cf6cf540b50d0a1fb35b4288b",
    # validating these witnesses needs rho: the squarefree tests of b
    "construct --family four --m 14..15":
        "e90e24250fa452b9ff8e59bacdc74667a7fc74e6eb531be38a1e3db6fa01eb72",
    "construct --family five --m 1..3":
        "cbe45665b75c076b1396c7f0d7c79fbb8e6fdad755d71994fef3ce4b0f7dd237",
    "verify --family five --m 1..2":
        "8de16ef3e7c6c26547d4ee446f57d6f1f6e88b469a98d83c622f15800fa011a8",
    "verify --family pell3 --m 1..3":
        "4679b6e33f4ade51fd56441771bf74d8be4edbb66cb7c449cf4a55775d293bab",
    "verify --family squares3 --m 1..2 --format csv":
        "d490fad4f3983db05c672cc6b991b3b67d2815bb85692ca7988a5a6a1888692c",
    "search --limit 1000 --dmax 100 --format csv":
        "1fbff3db6ad1d74a1af878c1f3372d62aab93d81f6d5198d7d4558b8604be5f6",
    "report":
        "2c01333d7cc04536a908e373cf928ec436b46d2691d65fabbfab1fa3aa7cb667",
    # k >= 4 through find_kaps's even-start scan: 407 and 96 records
    "search --limit 10000000 --dmax 100000 --k 4":
        "c8d51df2438d4b8008d7afed0e795375cc8a4a9cf9af3de8f93c38c98e4bb3e1",
    "search --limit 10000000 --dmax 100000 --k 5":
        "877eb4a6a2ae56421bb6ff889ce2fdf7af1693b6817787eb526f194f07fd5205",
    # report's search section: 71,128 bytes, its record lists one level deeper
    "report --m 1 --limit 100000 --dmax 3000":
        "b2317bee17e775ef6fe2a613bc00ca4a958de7c393392122ca3dd7e79d1a05e6",
    # rho and ECM split five cofactors, each shared by several numbers
    "verify --family four --m 14..15":
        "2e009dac6cb4ddea1a8ab57ba18e66ef9b59d92d840cd3dffd0ebbe8bd99d262",
}


# sha256 of `verify` stdout on the 1,087 hits of `search --limit 1000000
# --dmax 10000`, given as a witness file in report order: 113 reduced
# triples and 5 of the 6 case tags through the verify FILE path.
GOLDEN_HIT_FILE_SHA256 = "f24d208f44cf4d57b674daa560e2c1bcc45b69dc9a8e8be9c0feab63e96b3261"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT_SHA256))
def test_golden_stdout_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[command]


def test_golden_hit_file_bytes(tmp_path, capsys):
    found = tmp_path / "search.json"
    code, _, _ = run(capsys, "search", "--limit", "1000000", "--dmax", "10000",
                     "--out", str(found))
    assert code == 0
    records = json.loads(found.read_text())["records"]
    assert len(records) == 1087
    hits = tmp_path / "hits.json"
    hits.write_text(json.dumps([
        {"k": 3, "terms": [str(n), str(n + d), str(n + 2 * d)], "d": str(d),
         "family": "search"}
        for n, d in ((int(r["N"]), int(r["d"])) for r in records)]))
    code, out, err = run(capsys, "verify", str(hits))
    assert code == 0 and err == ""
    assert len(out.encode()) == 1_185_894
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_HIT_FILE_SHA256


def _written(value):
    chunks = []
    cli._write_json(value, chunks.append)
    return chunks


# ASCII (control characters included), any code point, and lone surrogates
_TEXT = st.text(st.characters(max_codepoint=0x7F) | st.characters()
                | st.characters(categories=["Cs"]), max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10**40, max_value=10**40) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=16,
)


class TestJsonWriter:
    @given(_JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    @example([])
    @example({})
    @example([[], {}, {"": []}])
    @example("\ud800\x00\u00e9")
    def test_equals_indented_json_dumps(self, value):
        assert "".join(_written(value)) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("value", [1.5, Decimal("1"), (1, 2), [{"x": 1.5}],
                                       {"x": [Decimal("2")]}, {1: "x"}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _written(value)

    def test_buffer_is_bounded_at_every_depth(self):
        # one top-level value holding 40,000 leaves two levels down
        value = {"records": [{"rows": [str(i) for i in range(40_000)]}]}
        chunks = _written(value)
        assert "".join(chunks) == json.dumps(value, indent=2) + "\n"
        assert len(chunks) > 10
        assert max(len(c) for c in chunks) < 100_000


class TestConstruct:
    def test_single_family_json(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "squares3", "--m", "1")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload == [
            {
                "k": 3,
                "terms": ["1", "25", "49"],
                "d": "24",
                "family": "squares3",
                "m": 1,
                "N": "1",
                "theta": "3/4",
                "ratio": "24",
                "verified": True,
            }
        ]

    def test_csv_golden_bytes(self, capsys):
        code, out, err = run(
            capsys, "construct", "--family", "pell3", "--m", "1..2", "--format", "csv"
        )
        assert code == 0
        assert out == GOLDEN_PELL_CSV

    def test_kap_chain_reports_stages(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "kap", "--k", "5")
        assert code == 0
        stages = json.loads(out)
        assert [s["k"] for s in stages] == [3, 4, 5]
        assert stages[0]["family"] == "pell3"
        assert "multipliers" not in stages[0]
        assert stages[1]["multipliers"] == ["167"]
        assert stages[2]["multipliers"] == ["167", "190"]
        assert stages[2]["seed_family"] == "pell3"
        assert all(s["verified"] for s in stages)

    def test_theta_override(self, capsys):
        _, out, _ = run(
            capsys, "construct", "--family", "pell3", "--m", "1", "--theta", "3/4"
        )
        row = json.loads(out)[0]
        assert row["theta"] == "3/4"
        assert row["ratio"].startswith("1.04429518861")  # 92 / 392^(3/4)

    def test_missing_m_is_parse_error(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "pell3")
        assert code == 3
        assert json.loads(err)["error"] == "InvalidInput"

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--family", "fibonacci", "--m", "1"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("k, seed, detail", [
        ("2", "pell3:1", "k must be >= 3, got 2"),
        ("4", "five:1", "seed already has 5 > 4 terms"),
    ])
    def test_kap_rejects_k_verify_rejects(self, capsys, k, seed, detail):
        for command in ("construct", "verify"):
            code, out, err = run(capsys, command, "--family", "kap",
                                 "--k", k, "--seed", seed)
            assert code == 3 and out == ""
            assert json.loads(err) == {"error": "InvalidInput", "detail": detail}

    def test_bad_m_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--family", "pell3", "--m", "1..x"])
        assert exc.value.code == 3


class TestSearch:
    def test_frozen_payload_limit_100(self, capsys):
        code, out, _ = run(capsys, "search", "--limit", "100", "--dmax", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 14
        assert payload["values"][:4] == ["1", "4", "8", "9"]
        assert payload["consecutive_runs"] == [["8", "9"]]
        assert [(r["N"], r["d"]) for r in payload["records"]] == [
            ("1", "24"),
            ("8", "28"),
        ]
        assert payload["records"][1]["ratio_half"].startswith("9.89949493661166534")
        assert payload["record_minima"] == payload["records"]
        assert payload["notes"] == []

    def test_stats_only_without_dmax(self, capsys):
        code, out, _ = run(capsys, "search", "--limit", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 54
        assert "records" not in payload
        assert "d_max" not in payload

    def test_large_tables_omit_value_dump(self, capsys):
        _, out, _ = run(capsys, "search", "--limit", "1000000")
        payload = json.loads(out)
        assert payload["count"] == 2027
        assert "values" not in payload

    def test_csv_rows_are_reverified(self, capsys):
        code, out, _ = run(
            capsys, "search", "--limit", "1000", "--dmax", "100", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,k,m,N,d,theta,ratio,verified"
        assert len(lines) > 1
        assert all(line.startswith("search,3,,") for line in lines[1:])
        assert all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize("extra", [[], ["--dmax", "10"]])
    @pytest.mark.parametrize("k", ["2", "0"])
    def test_k_below_3_is_rejected_with_or_without_dmax(self, capsys, k, extra):
        code, out, err = run(capsys, "search", "--limit", "100", "--k", k, *extra)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "InvalidInput",
                                   "detail": f"--k must be >= 3, got {k}"}

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--limit", "100", "--threads", "4"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def _search_section(limit, dmax, k):
    """The search payload as a dict with one dict per record, the shape
    json.dumps(payload, indent=2) prints; each ratio is taken on its own."""
    table = enumerate_powerful(limit)
    runs = consecutive_check(table)
    payload = {"limit": limit, "count": len(table)}
    if len(table) <= 1000:
        payload["values"] = [str(v) for v in table.values]
    payload["consecutive_runs"] = [[str(v) for v in run] for run in runs]
    notes = [f"run of {len(run)} consecutive powerful numbers at {run[0]} "
             "(previously unknown; report this)" for run in runs if len(run) >= 3]
    if dmax is not None:
        records = find_kaps(table, k, dmax)

        def as_dict(r):
            ratio = ratio_digits(lambda: Decimal(r.d) / Decimal(r.n).sqrt())
            return {"N": str(r.n), "d": str(r.d), "k": r.k, "ratio_half": str(ratio)}

        payload["k"] = k
        payload["d_max"] = dmax
        payload["records"] = [as_dict(r) for r in records]
        payload["record_minima"] = [as_dict(r) for r in record_min_ratio(records)]
        if k == 3:
            notes += [f"3-AP at N={m['N']}, d={m['d']} has d/sqrt(N) = "
                      f"{m['ratio_half'][:12]}... < 4 (notable, not an error)"
                      for m in payload["record_minima"]
                      if int(m["d"]) ** 2 < 16 * int(m["N"])]
    payload["notes"] = notes
    return payload


def _stdout(*argv):
    """stdout of main(argv), which must exit 0 (no capsys: hypothesis runs
    many examples in one test call)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


class TestSearchRendering:
    """search and report's search section print the record lists straight
    from the records, as json.dumps prints them from one dict per record."""

    @given(limit=st.integers(1, 3000), dmax=st.none() | st.integers(1, 300),
           k=st.integers(3, 5))
    @settings(max_examples=60, deadline=None)
    @example(limit=3000, dmax=300, k=3)  # minima with d/sqrt(N) < 4: notes
    @example(limit=100, dmax=1, k=3)  # no records
    @example(limit=1, dmax=1, k=5)
    @example(limit=2000, dmax=None, k=3)
    def test_equals_json_dumps_of_record_dicts(self, limit, dmax, k):
        expected = _search_section(limit, dmax, k)
        argv = ["--limit", str(limit), "--k", str(k)]
        argv += [] if dmax is None else ["--dmax", str(dmax)]
        assert _stdout("search", *argv) == json.dumps(expected, indent=2) + "\n"
        out = _stdout("report", "--m", "1", *argv)
        report = json.loads(out)
        report["search"] = expected
        assert out == json.dumps(report, indent=2) + "\n"

    def test_examples_cover_notes_and_empty_lists(self):
        assert len(_search_section(3000, 300, 3)["notes"]) == 3
        assert _search_section(100, 1, 3)["records"] == []

    def test_record_lists_flush_in_bounded_pieces(self, table_1e6):
        records = find_kaps(table_1e6, 3, 10**4) * 5  # 5,435 records
        chunks = _written({"records": cli._Records(records)})
        assert len(chunks) > 2
        assert "".join(chunks) == json.dumps({"records": [
            {"N": str(r.n), "d": str(r.d), "k": r.k, "ratio_half": str(r.ratio_half)}
            for r in records]}, indent=2) + "\n"


class TestVerify:
    def test_family_battery(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "pell3", "--m", "1..3")
        assert code == 0 and err == ""
        reports = json.loads(out)
        assert len(reports) == 3
        first = reports[0]
        assert first["verified"] is True
        triple = first["triples"][0]
        assert triple["D"] == "4"
        assert triple["abc"] == ["14112", "529", "14641"]
        assert triple["quality"].startswith("1.03457231590080263667")
        assert triple["radical_ok"] is True
        assert all(row["ok"] for row in triple["per_prime"])

    def test_witness_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "construct", "--family", "pell3", "--m", "2", "--out", str(path)
        )
        assert code == 0
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)[0]["verified"] is True

    def test_handwritten_witness_object(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps({"k": 3, "terms": ["1", "25", "49"], "d": "24",
                        "family": "adhoc", "comment": "extras are fine"})
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)[0]["family"] == "adhoc"

    def test_nonpowerful_term_fails_verification(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps({"k": 3, "terms": ["1", "25", "50"], "d": "25",
                        "family": "adhoc"})
        )
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "InvalidWitness"

    def test_first_bad_witness_of_a_file_decides(self, tmp_path, capsys):
        # [valid, not an AP, not powerful]: the second one is named, and no
        # report is written for the first
        path = tmp_path / "w.json"
        path.write_text(json.dumps([
            {"k": 3, "terms": ["1", "25", "49"], "d": "24", "family": "adhoc"},
            {"k": 3, "terms": ["1", "25", "64"], "d": "24", "family": "adhoc"},
            {"k": 3, "terms": ["1", "25", "50"], "d": "25", "family": "adhoc"},
        ]))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "InvalidWitness",
                                   "detail": "terms[2] - terms[1] = 39 != d = 24"}

    def test_each_triple_is_validated_once(self, tmp_path, capsys, monkeypatch):
        four = four_ap(1)
        calls = []
        real = constructions.validate_witness

        def counting(w, budget=None):
            calls.append(w.terms)
            return real(w, budget)

        # wherever the battery or the file reader could call it
        for module in (abcver, cli, constructions):
            monkeypatch.setattr(module, "validate_witness", counting, raising=False)
        # squares3 and pell3 m = 1, pell3 m = 1 times 3^3 (its triple
        # reduces), and four m = 1 (two triples)
        path = tmp_path / "w.json"
        path.write_text(json.dumps([
            {"k": len(terms), "terms": [str(t) for t in terms], "d": str(d),
             "family": "adhoc"}
            for terms, d in (((1, 25, 49), 24), ((392, 484, 576), 92),
                             ((392 * 27, 484 * 27, 576 * 27), 92 * 27),
                             (four.terms, four.d))]))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        reports = json.loads(out)
        assert reports[2]["triples"][0]["N"] == "392"  # reduced by 3
        assert sum(len(r["triples"]) for r in reports) == 5
        assert calls == [(1, 25, 49), (392, 484, 576),
                         (392 * 27, 484 * 27, 576 * 27),
                         four.terms[:3], four.terms[1:]]

    def test_kap_verification(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "kap", "--k", "5")
        assert code == 0
        report = json.loads(out)[0]
        assert report["k"] == 5
        assert len(report["triples"]) == 3
        assert report["verified"] is True

    def test_csv_out_non_ascii_family(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps({"k": 3, "terms": ["1", "25", "49"], "d": "24",
                        "family": "carr\u00e9"}),
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "verify", str(path), "--format", "csv",
                           "--out", str(out))
        assert code == 0 and err == ""
        assert out.read_text(encoding="utf-8").splitlines()[1].startswith(
            "carr\u00e9,3,,1,24,")

    def test_csv_summary(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "squares3", "--m", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("squares3,3,1,1,24,3/4,1.2039689893")
        assert lines[1].endswith(",true")


def _recorded_analyses(monkeypatch, change=None):
    """Analyses cli gets from analyze_triple, in call order; `change` maps
    (index, analysis) to the analysis cli gets instead."""
    seen = []
    real = abcver.analyze_triple

    def recording(w, budget=None):
        t = real(w, budget)
        if change is not None:
            t = change(len(seen), t)
        seen.append(t)
        return t

    monkeypatch.setattr(cli, "analyze_triple", recording)
    return seen


def _oracle_text(witnesses, analyses):
    return json.dumps(oracles.verify_reports(witnesses, analyses), indent=2) + "\n"


def _radical_fails(t):
    product_ab = math.prod(dec.a * dec.b for dec in t.reduced.decomps)
    return dataclasses.replace(t, quotient_radical=product_ab + 1)


def _row_fails(t):
    row = t.per_prime[0]
    bad = dataclasses.replace(row, lhs=row.rhs + 1, ok=False)
    return dataclasses.replace(t, per_prime=(bad, *t.per_prime[1:]))


def _quality_17(t):
    return dataclasses.replace(t, quality=Decimal("1.7"))


class TestVerifyRendering:
    """verify's JSON equals json.dumps of the oracle's report dicts."""

    def test_five_family(self, capsys, monkeypatch):
        seen = _recorded_analyses(monkeypatch)
        code, out, err = run(capsys, "verify", "--family", "five", "--m", "1..2")
        assert code == 0 and err == ""
        assert len(seen) == 6
        assert out == _oracle_text([five_ap(1), five_ap(2)], seen)

    def test_family_names_are_escaped(self, tmp_path, capsys, monkeypatch):
        families = ["carr\u00e9", 'tab\t"quoted" back\\slash', "\U0001d4ab"]
        path = tmp_path / "w.json"
        path.write_text(json.dumps([
            {"k": 3, "terms": ["1", "25", "49"], "d": "24", "family": f}
            for f in families]), encoding="utf-8")
        seen = _recorded_analyses(monkeypatch)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0 and err == ""
        assert '"family": "carr\\u00e9"' in out
        witnesses = [constructions.witness_from_terms((1, 25, 49), 24, f)
                     for f in families]
        assert out == _oracle_text(witnesses, seen)

    @pytest.mark.parametrize("change, code, failed", [
        (_radical_fails, 1, "radical_inequality"),
        (_row_fails, 1, "valuation_inequality"),
        (_quality_17, 0, None),
    ])
    def test_synthetic_analyses(self, capsys, monkeypatch, change, code, failed):
        # the second witness's analysis is changed; both reports are written
        seen = _recorded_analyses(
            monkeypatch, lambda i, t: change(t) if i == 1 else t)
        argv = ["verify", "--family", "pell3", "--m", "1..2"]
        got, out, err = run(capsys, *argv)
        assert got == code
        expected = oracles.verify_reports([pell_3ap(1), pell_3ap(2)], seen)
        assert out == json.dumps(expected, indent=2) + "\n"
        assert [r["verified"] for r in expected] == [True, failed is None]
        assert ["note" in r for r in expected] == [False, change is _quality_17]
        if failed is None:
            assert err == ""
        else:
            assert json.loads(err) == {"error": "VerificationFailed",
                                       "detail": f"first failing check: {failed}"}
        seen.clear()
        got, out, _ = run(capsys, *argv, "--format", "csv")
        assert got == code
        rows = out.splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in rows] == [
            "true", "true" if failed is None else "false"]
        assert rows[1].split(",")[6] == str(seen[1].quality)


class TestExitCodes:
    def test_capacity_exhaustion(self, capsys):
        code, _, err = run(capsys, "search", "--limit", str(10**14))
        assert code == 2
        assert json.loads(err)["error"] == "CapacityExceeded"

    def test_budget_exhaustion_names_the_number(self, capsys, tmp_path):
        # m=48 used to exhaust the default budget; ECM now completes it
        code, out, _ = run(capsys, "verify", "--family", "pell3", "--m", "48")
        assert code == 0
        assert json.loads(out)[0]["verified"] is True
        # a term c^2 with c a product of two primes above 10^25 cannot be
        # decomposed at the default budget
        p, q = oracles.OUT_OF_REACH
        c = p * q
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"k": 3, "terms": [str(c * c), str(25 * c * c),
                                                      str(49 * c * c)],
                                    "d": str(24 * c * c), "family": "adhoc"}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "BudgetExceeded"
        assert int(obj["number"]) == c * c

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_budget_exhaustion_after_a_verified_witness(self, capsys, tmp_path,
                                                        monkeypatch, fmt, to_file):
        # p^2, q^2, r^2 with p^2 + r^2 = 2q^2: p, q, r = |u^2 - 2uv - v^2|,
        # u^2 + v^2, u^2 + 2uv - v^2 for u = 62 P, v = 7 Q.  is_prime accepts
        # what is left of each of p, q, r once its factors below 1000 are
        # divided out, so the file loads, but d = 4uv(u + v)(u - v) cannot
        # be split at the default budget, and the battery factors d/D
        # (D = 1 here).
        P, Q = oracles.OUT_OF_REACH
        u, v = 62 * P, 7 * Q
        p, q, r = abs(u * u - 2 * u * v - v * v), u * u + v * v, u * u + 2 * u * v - v * v
        d = q * q - p * p
        path = tmp_path / "w.json"
        path.write_text(json.dumps([
            {"k": 3, "terms": ["1", "25", "49"], "d": "24", "family": "adhoc"},
            {"k": 3, "terms": [str(p * p), str(q * q), str(r * r)], "d": str(d),
             "family": "adhoc"}]))
        seen = _recorded_analyses(monkeypatch)
        out = tmp_path / f"out.{fmt}"
        argv = ["verify", str(path), "--format", fmt]
        if to_file:
            argv += ["--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert len(seen) == 1  # the first witness was analyzed
        assert code == 2 and stdout == ""
        obj = json.loads(err)
        assert obj["error"] == "BudgetExceeded"
        assert int(obj["number"]) == d
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--budget"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_budget_and_threads(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--family", "pell3", "--m", "1",
                             flag, value)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "InvalidInput",
                                   "detail": f"{flag} must be >= 1, got {value}"}

    def test_malformed_json_file(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert json.loads(err)["error"] == "InvalidInput"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/w.json")
        assert code == 3

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_bytes('{"k": 3, "terms": ["1", "25", "49"], "d": "24", '
                         '"family": "caf\xe9"}'.encode("latin-1"))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "InvalidInput"
        assert str(path) in obj["detail"]

    @pytest.mark.parametrize("argv, digits", [
        ("construct --family pell3 --m 1 --theta 1/{}", 1),
        ("construct --family pell3 --m 1..{}", 1),
        ("construct --family kap --k 4 --seed pell3:{}", 0),
        ("search --limit {}", 0),
        ("search --limit 1000 --dmax {}", 0),
        ("construct --family kap --k {}", 0),
        ("verify --family pell3 --m 1 --budget {}", 0),
        ("construct --family pell3 --m {}", None),
        ("construct --family kap --k 4 --seed pell3:{}", None),
        ("verify {file}", None),
    ], ids=["--theta", "--m", "--seed", "--limit", "--dmax", "--k", "--budget",
            "--m letters", "--seed letters", "file term letters"])
    def test_overlong_argument_is_not_echoed(self, tmp_path, capsys, argv, digits):
        # digits counts the argument's digits outside the over-long integer;
        # None marks 3,000 letters, which no digit limit applies to
        limit = sys.get_int_max_str_digits()
        text = "x" * 3000 if digits is None else "1" * (limit + 100)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"k": 3, "terms": [text, "2", "3"], "d": "1",
                                    "family": "x"}))
        try:
            code = main(argv.format(text, file=path).split())
        except SystemExit as exc:  # argparse rejects the options it types
            code = exc.code
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert len(captured.err.encode()) < 500
        assert text[:13] not in captured.err
        if digits is None:
            assert "... (0 digits)" in captured.err
        else:
            assert f"has {len(text) + digits} digits" in captured.err
            assert f"limit of {limit} digits" in captured.err

    @pytest.mark.parametrize("argv, last_line", [
        ("search --limit abc",
         "powerful-ap search: error: argument --limit: invalid int value: 'abc'"),
        ("construct --family pell3 --m 1..x",
         "powerful-ap construct: error: argument --m: bad m range '1..x'"),
        ("construct --family pell3 --m 1 --theta 2/x",
         "powerful-ap construct: error: argument --theta: bad fraction '2/x'"),
        ("construct --family kap --k 4 --seed pell3:q",
         '{"error": "InvalidInput", "detail": "bad seed index \'q\'"}'),
    ])
    def test_short_unparsed_value_is_quoted_in_full(self, capsys, argv, last_line):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.splitlines()[-1] == last_line

    @pytest.mark.parametrize("argv, digits", [
        ("construct --family pell3 --m {}..1", 4001),
        ("construct --family pell3 --m 1 --theta {}/1", 4000),
        ("search --limit -{}", 4000),
        ("search --limit 1000 --dmax -{}", 4000),
        ("verify --family pell3 --m 1 --budget -{}", 4000),
    ], ids=["--m", "--theta", "--limit", "--dmax", "--budget"])
    def test_long_out_of_range_value_is_not_echoed(self, capsys, argv, digits):
        # under the int/str limit, so only the range check rejects it
        code, out, err = run(capsys, *argv.format("1" * 4000).split())
        assert code == 3 and out == ""
        assert len(err.encode()) < 500
        assert json.loads(err)["error"] == "InvalidInput"
        assert f"({digits} digits)" in err

    @pytest.mark.parametrize("argv, detail", [
        ("construct --family pell3 --m 3..1", "bad m range 3..1"),
        ("construct --family pell3 --m 1 --theta 3/2", "theta must lie in (0, 1), got 3/2"),
        ("search --limit -7", "--limit must be >= 1, got -7"),
    ])
    def test_short_out_of_range_value_is_echoed(self, capsys, argv, detail):
        code, _, err = run(capsys, *argv.split())
        assert code == 3
        assert json.loads(err) == {"error": "InvalidInput", "detail": detail}

    @pytest.mark.parametrize("command", ["construct --family pell3", "report"])
    def test_output_past_int_str_limit_is_a_capacity_error(self, tmp_path, capsys,
                                                           command):
        # pell3 m=2900 has terms of 4,442 digits, past the default 4,300
        digits = Decimal(pell_3ap(2900).terms[0]).adjusted() + 1
        assert digits > sys.get_int_max_str_digits()
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, *command.split(), "--m", "2900",
                                "--out", str(out))
        assert code == 2 and stdout == ""
        obj = json.loads(err)
        assert obj["error"] == "CapacityExceeded"
        assert f"{digits} digits" in obj["detail"]
        assert f"limit of {sys.get_int_max_str_digits()} digits" in obj["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("quoted", [False, True])
    def test_input_past_int_str_limit_is_a_parse_error(self, tmp_path, capsys,
                                                       quoted):
        digits = sys.get_int_max_str_digits() + 100
        big = "7" * digits
        path = tmp_path / "w.json"
        path.write_text('{"k": 3, "terms": [%s, "2", "3"], "d": "1", "family": "x"}'
                        % (f'"{big}"' if quoted else big))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        obj = json.loads(err)
        assert obj["error"] == "InvalidInput"
        assert f"{digits} digits" in obj["detail"]
        assert f"limit of {sys.get_int_max_str_digits()} digits" in obj["detail"]
        assert "7777" not in err

    def test_structural_witness_problem(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"k": 3, "terms": ["1", "25"], "d": "24",
                                    "family": "adhoc"}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert "terms" in json.loads(err)["detail"]


@pytest.mark.parametrize("command", ["search", "report"])
def test_cache_flag_is_gone(tmp_path, capsys, command):
    cache = tmp_path / "table.cache"
    with pytest.raises(SystemExit) as exc:
        main([command, "--limit", "100", "--cache", str(cache)])
    assert exc.value.code == 3
    assert "unrecognized arguments: --cache" in capsys.readouterr().err
    assert not cache.exists()


def test_cache_env_var_is_ignored(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env.cache"
    monkeypatch.delenv("POWERFUL_AP_CACHE", raising=False)
    code, without, _ = run(capsys, "search", "--limit", "1000")
    monkeypatch.setenv("POWERFUL_AP_CACHE", str(cache))
    code_env, with_env, _ = run(capsys, "search", "--limit", "1000")
    assert code == code_env == 0
    assert with_env == without
    assert list(tmp_path.iterdir()) == []


class TestReport:
    def test_default_shape(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        payload = json.loads(out)
        rows = payload["families"]
        assert len(rows) == 20  # 4 families x m=1..5
        assert {r["family"] for r in rows} == {"squares3", "pell3", "four", "five"}
        assert all(r["verified"] for r in rows)
        constants = payload["constants"]
        assert constants[0] == {"k": 5, "C_k": "3", "exponent": "9/10"}
        assert constants[1]["C_k"].startswith("3.6090751082463499")
        assert constants[1]["exponent"] == "29/30"
        assert [c["k"] for c in constants] == [5, 6, 7, 8, 9]

    def test_search_section(self, capsys):
        code, out, _ = run(capsys, "report", "--m", "1..2", "--k", "5",
                           "--limit", "100", "--dmax", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["search"]["count"] == 14
        assert len(payload["families"]) == 8

    @pytest.mark.parametrize("extra", [[], ["--dmax", "10"]])
    @pytest.mark.parametrize("k", ["2", "0"])
    def test_k_below_3_is_rejected_with_limit(self, capsys, k, extra):
        code, out, err = run(capsys, "report", "--k", k, "--limit", "100", *extra)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "InvalidInput",
                                   "detail": f"--k must be >= 3, got {k}"}

    def test_dmax_without_limit_is_rejected(self, capsys):
        code, out, err = run(capsys, "report", "--dmax", "10")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "InvalidInput",
                                   "detail": "--dmax needs --limit"}

    def test_k_2_without_limit_sizes_an_empty_constants_table(self, capsys):
        code, out, err = run(capsys, "report", "--k", "2")
        assert code == 0 and err == ""
        assert json.loads(out)["constants"] == []
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "73651a3e079fec4ab8c86bf0369b91b9a7bab587fe37c98328d8b2ff03197ee5")


def test_factor_memo_lives_for_one_call(monkeypatch, capsys):
    seen = []

    def probe(family, args):
        seen.append(dict(arith._memo.get()))
        arith.factorize(2**3 * 3**5)
        return []

    # The parser is built once and keeps the command functions it was built
    # with, so the probe replaces a helper that cmd_construct looks up per call.
    monkeypatch.setattr(cli, "_family_witnesses", probe)
    for _ in range(2):
        assert main(["construct", "--family", "squares3", "--m", "1"]) == 0
    assert seen == [{}, {}]
    assert arith._memo.get() is None


def test_each_hard_cofactor_is_split_once_per_command(monkeypatch, capsys):
    # the four-family witnesses need rho or ECM on eight distinct numbers
    # (16 factorize calls), which leave five distinct cofactors after trial
    # division
    split = []
    real = arith._factor_into

    def counting(n, mult, out, budget):
        split.append(n)
        return real(n, mult, out, budget)

    monkeypatch.setattr(arith, "_factor_into", counting)
    code, out, err = run(capsys, "verify", "--family", "four", "--m", "14..15")
    assert code == 0 and err == ""
    assert len(split) == len(set(split)) == 5


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    payloads = []
    for extra in (["--k", "4"], []):
        code, out, _ = run(capsys, "search", "--limit", "1000", *extra,
                           "--dmax", "100")
        assert code == 0
        payloads.append(json.loads(out))
    assert [p["k"] for p in payloads] == [4, 3]
