"""Command-line front end: construct, search, verify, report.

Everything here is orchestration; the mathematics lives in the library
modules.  Two contracts shape the output:

* Reports are deterministic.  The same arguments produce byte-identical
  files, so outputs can be diffed.
* Exact integers are serialized as decimal strings in JSON (term values
  overflow doubles almost immediately); small structural counters like k
  and m stay native.

JSON payloads of construct, search and report go through one writer,
_write_json.  The records and record minima of a search, in search and
in report's search section alike, have a fixed schema, so _write_json
renders them straight from the records (_Records) rather than from a dict
per record.  Verify reports have a fixed schema too, so each witness
report is rendered straight to its JSON text, the bytes json.dumps(...,
indent=2) gives it; nothing is opened or written until every witness has
been analyzed, so a command that fails part way writes no report.

Exit codes: 0 all checks passed, 1 a verification failed, 2 a resource
limit was hit (factoring budget, table capacity, an integer too long for
Python's int-to-str limit), 3 arguments or input files could not be
parsed.  Errors are mirrored to stderr as one-line JSON objects so
scripts do not have to scrape messages.

Witness files are JSON objects (or arrays of objects) with the shape
{"k": 3, "terms": ["392", "484", "576"], "d": "92", "family": "pell3"};
extra keys are ignored on input, so a construct report can be fed
straight back into verify.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence, TextIO

from .abcver import TripleAnalysis, analyze_triple, radical_inequality_check
from .arith import DEFAULT_RHO_BUDGET, factor_memo, ratio_digits
from .constructions import (
    FAMILY_FIVE,
    FAMILY_FOUR,
    FAMILY_PELL3,
    FAMILY_SEARCH,
    FAMILY_SQUARES3,
    APWitness,
    ck_constants,
    default_theta,
    extension_exponent,
    five_ap,
    four_ap,
    long_ap,
    pell_3ap,
    squares_3ap,
    theta_ratio,
    witness_from_terms,
)
from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    ConsistencyFailure,
    InvalidInput,
    InvalidWitness,
    NotPowerful,
)
from .search import (
    APRecord,
    consecutive_check,
    enumerate_powerful,
    find_kaps,
    record_min_ratio,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_RESOURCE = 2
EXIT_PARSE = 3

_CONSTRUCTORS: dict[str, Callable[..., APWitness]] = {
    FAMILY_SQUARES3: lambda m, budget: squares_3ap(m),
    FAMILY_PELL3: lambda m, budget: pell_3ap(m),
    FAMILY_FOUR: four_ap,
    FAMILY_FIVE: five_ap,
}

# --------------------------------------------------------------- serialization

CSV_FIELDS = ("family", "k", "m", "N", "d", "theta", "ratio", "verified")


# Python's digit limit on int/str conversion; 0 means none, as on
# interpreters older than 3.10.7, which lack it.
_int_str_limit: Callable[[], int] = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digit_limit(what: str, digits: int) -> str:
    return (f"{what} has {digits} digits, more than Python's limit of "
            f"{_int_str_limit()} digits for int/str conversion")


def _dec(n: int) -> str:
    """str(n), or CapacityExceeded (exit 2) when n has more digits than
    the interpreter converts.  The limit is process-wide, and main() also
    runs in-process, so it is reported rather than lifted."""
    try:
        return str(n)
    except ValueError:
        digits = Decimal(n).adjusted() + 1
        raise CapacityExceeded(_digit_limit("an integer of the report", digits)) from None


def _row(w: APWitness, theta: Fraction, ratio: Decimal,
         verified: bool) -> dict[str, Any]:
    """One report row: a witness plus how it was measured.

    The JSON form doubles as a witness file entry (it round-trips through
    verify); the CSV line is the CSV_FIELDS of the same dict.
    """
    m = w.params.get("m")
    row: dict[str, Any] = {
        "k": w.k,
        "terms": [_dec(t) for t in w.terms],
        "d": _dec(w.d),
        "family": w.family,
        "m": m if isinstance(m, int) else None,
        "N": _dec(w.terms[0]),
        "theta": str(theta),
        "ratio": str(ratio),
        "verified": verified,
    }
    if "multipliers" in w.params:
        row["multipliers"] = [_dec(b) for b in w.params["multipliers"]]
        row["seed_family"] = w.params.get("seed_family")
    return row


def _measured_row(w: APWitness, args: argparse.Namespace) -> dict[str, Any]:
    """Row for a constructed or found witness: d / N^theta.  The witness was
    checked by its constructor or witness_from_terms, so it is verified."""
    theta = getattr(args, "theta", None)
    if theta is None:
        theta = default_theta(w)
    return _row(w, theta, theta_ratio(w, theta), True)


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


_FLUSH_PIECES = 4096


class _Records:
    """A list of search records in a JSON payload.

    _write_json renders it as the JSON text of a list of
    {"N": str, "d": str, "k": int, "ratio_half": str} objects, straight
    from the records.
    """

    __slots__ = ("records",)

    def __init__(self, records: list[APRecord]):
        self.records = records

    def texts(self, pad: str) -> Iterator[str]:
        """Each record's object as it follows its list separator, for a
        list whose items are indented by pad.  Every string is digits or
        a Decimal's str, which JSON needs no escapes for."""
        key = pad + "  "
        head = f'{{{key}"N": "'
        d, k = f'",{key}"d": "', f'",{key}"k": '
        ratio, tail = f',{key}"ratio_half": "', f'"{pad}}}'
        for r in self.records:
            yield f"{head}{r.n}{d}{r.d}{k}{r.k}{ratio}{r.ratio_half!s}{tail}"


def _write_json(value: Any, write: Callable[[str], Any]) -> None:
    """Write json.dumps(value, indent=2) + "\n" through `write`, in pieces.

    Only dict (with str keys), list, str, int, bool and None are written,
    and _Records as the list it stands for; any other type raises
    TypeError.  Every list loop passes the pieces gathered so far to
    `write` once there are _FLUSH_PIECES of them, so the text held at once
    stays bounded at every depth (the 25,602-hit battery report is 32 MB).
    The stdlib's indented encoder runs in pure Python and takes about
    twice as long on that report.
    """
    pieces: list[str] = []
    put = pieces.append
    quote = json.encoder.encode_basestring_ascii

    def node(v: Any, pad: str) -> None:
        # pad is the newline and indent of v's closing bracket
        if isinstance(v, str):
            put(quote(v))
        elif v is None:
            put("null")
        elif v is True:
            put("true")
        elif v is False:
            put("false")
        elif isinstance(v, int):
            put(int.__repr__(v))
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key, item in v.items():
                put(sep)
                put(quote(key))  # a key that is not a str raises TypeError here
                put(": ")
                sep = "," + inner
                node(item, inner)
            put(pad + "}")
        elif isinstance(v, (list, _Records)):
            rendered = isinstance(v, _Records)
            if not (v.records if rendered else v):
                put("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for item in v.texts(inner) if rendered else v:
                put(sep)
                sep = "," + inner
                if rendered:
                    put(item)
                else:
                    node(item, inner)
                if len(pieces) >= _FLUSH_PIECES:
                    write("".join(pieces))
                    pieces.clear()
            put(pad + "]")
        else:
            raise TypeError(f"cannot write {type(v).__name__} as report JSON")

    node(value, "\n")
    put("\n")
    write("".join(pieces))
    # node() refers to itself, so this frame's closures live until a gc
    # pass; drop the text they hold now.
    pieces.clear()


@contextlib.contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """The --out file, open for the block, or else stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _write_csv(rows: list[dict[str, Any]], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([_csv_cell(row[f]) for f in CSV_FIELDS] for row in rows)


def _emit(payload: Any, rows: list[dict[str, Any]], args: argparse.Namespace) -> None:
    with _output(args) as fh:
        if args.format == "json":
            _write_json(payload, fh.write)
        else:
            _write_csv(rows, fh)


def _error(name: str, detail: str, **extras: Any) -> None:
    obj = {"error": name, "detail": detail}
    obj.update({k: v for k, v in extras.items() if v is not None})
    print(json.dumps(obj), file=sys.stderr)


# Longest user text an error message quotes in full.
_ECHO_CHARS = 100


def _shown(message: str, value: Any, label: str | None = None) -> str:
    """message.format(value), the one way an error message quotes user text.

    Text over _ECHO_CHARS long goes in as its first characters and its
    digit count.  Text that failed to parse as `label` and holds more
    digits than Python converts gives the _digit_limit message instead.
    """
    text = str(value)
    if len(text) <= _ECHO_CHARS:
        return message.format(value)
    digits = sum(ch.isdigit() for ch in text)
    limit = _int_str_limit()
    if label is not None and limit and digits > limit:
        return _digit_limit(label, digits)
    return message.format(f"{text[:12]}... ({digits} digits)")


def _as_int(value: Any, label: str) -> int:
    if isinstance(value, bool):
        raise InvalidInput(f"{label} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            raise InvalidInput(_shown(
                f"{label} is not a decimal string: {{!r}}", value, label)) from exc
    raise InvalidInput(f"{label} must be an integer or decimal string")


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # json only hands over -?[0-9]+, so the digit limit is the one failure
        raise InvalidInput(_digit_limit("a JSON number", len(text.lstrip("-")))) from None


def witness_from_json(obj: Any, budget: int | None = None) -> APWitness:
    """Rebuild a full witness (decompositions included) from file JSON.

    Structural problems raise InvalidInput (exit 3); a well-formed object
    whose numbers do not form a powerful AP raises InvalidWitness (exit 1)
    from witness_from_terms.
    """
    if not isinstance(obj, dict):
        raise InvalidInput("witness must be a JSON object")
    for key in ("k", "terms", "d", "family"):
        if key not in obj:
            raise InvalidInput(f"witness is missing key {key!r}")
    k = _as_int(obj["k"], "k")
    if not isinstance(obj["terms"], list):
        raise InvalidInput("terms must be a list")
    terms = tuple(_as_int(t, "term") for t in obj["terms"])
    d = _as_int(obj["d"], "d")
    family = obj["family"]
    if not isinstance(family, str):
        raise InvalidInput("family must be a string")
    if k != len(terms):
        raise InvalidInput(f"k={k} but {len(terms)} terms given")
    if any(t < 1 for t in terms) or d < 1:
        # Shape trouble is a parse error; wrong arithmetic is a
        # verification failure.  Nonpositive values cannot be decomposed
        # at all, so they land on the parse side.
        raise InvalidInput("terms and d must be positive")
    try:
        return witness_from_terms(terms, d, family, budget)
    except NotPowerful as exc:
        raise InvalidWitness(f"claimed term is not powerful: {exc}") from exc


# ----------------------------------------------------------------- subcommands

def _seed_witness(text: str, budget: int) -> APWitness:
    name, sep, num = text.partition(":")
    if not sep or name not in _CONSTRUCTORS:
        families = ", ".join(sorted(_CONSTRUCTORS))
        raise InvalidInput(f"seed must look like 'family:m' with family in {families}")
    try:
        m = int(num, 10)
    except ValueError as exc:
        raise InvalidInput(_shown("bad seed index {!r}", num, "seed index")) from exc
    return _CONSTRUCTORS[name](m, budget)


def _family_witnesses(family: str, args: argparse.Namespace) -> list[APWitness]:
    """The witnesses --family names: one per m in --m, or for kap every
    stage of the chain from --seed up to --k terms."""
    if family != "kap":
        if args.m is None:
            raise InvalidInput(f"--m is required for --family {family}")
        lo, hi = args.m
        return [_CONSTRUCTORS[family](m, args.budget) for m in range(lo, hi + 1)]
    if args.k is None:
        raise InvalidInput("--k is required for --family kap")
    w = _seed_witness(args.seed, args.budget)
    stages = [w]
    while w.k < args.k:
        w = long_ap(w.k + 1, w, args.budget)
        stages.append(w)
    # With w at --k terms this does no work; it rejects a --k below 3 or
    # below the seed's length.
    long_ap(args.k, w, args.budget)
    return stages


def cmd_construct(args: argparse.Namespace) -> int:
    rows = [_measured_row(w, args) for w in _family_witnesses(args.family, args)]
    _emit(rows, rows, args)
    return EXIT_OK


def _search_payload(args: argparse.Namespace,
                    k: int) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    table = enumerate_powerful(args.limit)
    runs = consecutive_check(table)
    payload: dict[str, Any] = {
        "limit": table.limit,
        "count": len(table),
    }
    if len(table) <= 1000:
        payload["values"] = [str(v) for v in table.values]
    payload["consecutive_runs"] = [[str(v) for v in run] for run in runs]
    notes: list[str] = []
    for run in runs:
        if len(run) >= 3:
            notes.append(
                f"run of {len(run)} consecutive powerful numbers at {run[0]} "
                "(previously unknown; report this)"
            )
    rows: list[dict[str, Any]] = []
    if args.dmax is not None:
        records = find_kaps(table, k, args.dmax)
        minima = record_min_ratio(records)
        payload["k"] = k
        payload["d_max"] = args.dmax
        payload["records"] = _Records(records)
        payload["record_minima"] = _Records(minima)
        if k == 3:
            for rec in minima:
                if rec.d * rec.d < 16 * rec.n:  # d/sqrt(N) < 4, exactly
                    notes.append(
                        f"3-AP at N={rec.n}, d={rec.d} has d/sqrt(N) = "
                        f"{str(rec.ratio_half)[:12]}... < 4 (notable, not an error)"
                    )
        if args.format == "csv":
            # CSV rows promise a real verified flag, so re-prove each hit.
            rows = [_measured_row(witness_from_terms(
                        rec.terms(), rec.d, FAMILY_SEARCH, args.budget), args)
                    for rec in records]
    payload["notes"] = notes
    return payload, rows


def cmd_search(args: argparse.Namespace) -> int:
    payload, rows = _search_payload(args, args.k)
    _emit(payload, rows, args)
    return EXIT_OK


# Every string of a verify report but the family name is digits, a
# Decimal's str or a fixed ASCII tag, which JSON needs no escapes for; the
# family name is user text and is escaped as json.dumps escapes it.

_NOTE_ABOVE = Decimal("1.6")
_NOTE = ',\n    "note": "abc quality above 1.6: extraordinary, double-check inputs"'


def _triple_text(t: TripleAnalysis, radical_ok: bool) -> str:
    """One entry of a witness report's "triples" list, as its JSON text."""
    rows = ",".join(
        f'\n          {{\n            "p": "{_dec(row.p)}",'
        f'\n            "nu_D": {_dec(row.nu_d)},'
        f'\n            "lhs": {_dec(row.lhs)},'
        f'\n            "rhs": {_dec(row.rhs)},'
        f'\n            "ok": {"true" if row.ok else "false"},'
        f'\n            "case": "{row.case}"\n          }}'
        for row in t.per_prime)
    # per_prime is never empty: a reduced triple has a term above 1
    margin = min(row.rhs - row.lhs for row in t.per_prime)
    a, b, c = t.abc
    return (
        f'\n      {{\n        "N": "{_dec(t.reduced.terms[0])}",'
        f'\n        "d": "{_dec(t.reduced.d)}",'
        f'\n        "D": "{_dec(t.D)}",'
        f'\n        "quality": "{t.quality!s}",'
        f'\n        "abc": [\n          "{_dec(a)}",\n          "{_dec(b)}",'
        f'\n          "{_dec(c)}"\n        ],'
        f'\n        "kappa": "{_dec(t.kappa)}",'
        f'\n        "radical_ok": {"true" if radical_ok else "false"},'
        f'\n        "min_margin": {_dec(margin)},'
        f'\n        "per_prime": [{rows}\n        ]\n      }}'
    )


def _verify_witness(w: APWitness, budget: int,
                    as_json: bool) -> tuple[str, Decimal, str | None]:
    """Analyze every consecutive triple of w.

    Returns the witness's report rendered from the fixed verify schema, as
    the JSON text it has as an item of the indented report list ("" unless
    as_json), the first triple's abc quality (the CSV ratio) and the first
    failed check, or None.  Nothing is written here: cmd_verify writes the
    texts once every witness has been analyzed.
    """
    texts = []
    failed: str | None = None
    note = False
    for i in range(w.k - 2):
        sub = w if w.k == 3 else APWitness(
            k=3,
            terms=w.terms[i : i + 3],
            d=w.d,
            decomps=w.decomps[i : i + 3],
            family=w.family,
            params=dict(w.params),
        )
        t = analyze_triple(sub, budget)
        radical_ok = radical_inequality_check(t)
        if i == 0:
            quality = t.quality
        if failed is None:
            if not radical_ok:
                failed = "radical_inequality"
            elif not t.all_ok():
                failed = "valuation_inequality"
        note = note or t.quality > _NOTE_ABOVE
        if as_json:
            texts.append(_triple_text(t, radical_ok))
    if not as_json:
        return "", quality, failed
    text = (
        f'\n  {{\n    "family": {json.encoder.encode_basestring_ascii(w.family)},'
        f'\n    "k": {_dec(w.k)},'
        f'\n    "N": "{_dec(w.terms[0])}",'
        f'\n    "d": "{_dec(w.d)}",'
        f'\n    "triples": [{",".join(texts)}\n    ],'
        f'\n    "verified": {"true" if failed is None else "false"}'
        f'{_NOTE if note else ""}\n  }}'
    )
    return text, quality, failed


def _load_witness_file(path: str, budget: int | None) -> list[APWitness]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path} is not UTF-8: {exc}") from exc
    objs = data if isinstance(data, list) else [data]
    if not objs:
        raise InvalidInput(f"{path} contains no witnesses")
    return [witness_from_json(obj, budget) for obj in objs]


def cmd_verify(args: argparse.Namespace) -> int:
    """Analyze every witness, then write the report.

    The JSON report is the texts _verify_witness renders from the fixed
    schema, joined as json.dumps(reports, indent=2) would join them; CSV
    has one row per witness.  The output is opened only after the last
    witness has been analyzed, so a BudgetExceeded or any other error on a
    later witness leaves stdout and --out untouched.
    """
    if args.witness_file:
        witnesses = _load_witness_file(args.witness_file, args.budget)
    elif args.family:
        witnesses = _family_witnesses(args.family, args)
        if args.family == "kap":
            witnesses = witnesses[-1:]
    else:
        raise InvalidInput("verify needs a witness file or --family")

    as_json = args.format == "json"
    texts: list[str] = []
    rows: list[dict[str, Any]] = []
    first_failure: str | None = None
    for w in witnesses:
        text, quality, failed = _verify_witness(w, args.budget, as_json)
        if as_json:
            texts.append(text)
        else:
            rows.append(_row(w, default_theta(w), quality, failed is None))
        if failed and first_failure is None:
            first_failure = failed
    with _output(args) as fh:
        if as_json:
            sep = "["  # there is at least one witness
            for text in texts:
                fh.write(sep)
                fh.write(text)
                sep = ","
            fh.write("\n]\n")
        else:
            _write_csv(rows, fh)
    if first_failure is not None:
        _error("VerificationFailed", f"first failing check: {first_failure}")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    rows = [_measured_row(w, args)
            for family in (FAMILY_SQUARES3, FAMILY_PELL3, FAMILY_FOUR, FAMILY_FIVE)
            for w in _family_witnesses(family, args)]
    constants = []
    for k in range(5, (args.k or 9) + 1):
        ck = ck_constants(k)
        constants.append(
            {
                "k": k,
                "C_k": str(ratio_digits(
                    lambda: Decimal(ck.numerator) / Decimal(ck.denominator))),
                "exponent": str(extension_exponent(k)),
            }
        )
    payload: dict[str, Any] = {
        "families": list(rows),
        "constants": constants,
    }
    if args.limit is not None:
        # --k sizes the constants table and, when given, the search's AP length.
        search_payload, search_rows = _search_payload(args, args.k or 3)
        payload["search"] = search_payload
        rows.extend(search_rows)
    _emit(payload, rows, args)
    return EXIT_OK


# ----------------------------------------------------------------- entry point

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; our contract reserves 2 for
    resource limits, so rewire usage errors to the parse-error code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _check(args: argparse.Namespace) -> None:
    """Reject out-of-range option values (argparse only checks their type)."""
    # --k is the AP length of a search, and of report's search section
    searches = args.func is cmd_search or (
        args.func is cmd_report and args.limit is not None)
    if searches and args.k is not None and args.k < 3:
        raise InvalidInput(_shown("--k must be >= 3, got {}", args.k))
    for name in ("limit", "dmax", "k", "budget"):
        v = getattr(args, name, None)
        if v is not None and v < 1:
            raise InvalidInput(_shown(f"--{name} must be >= 1, got {{}}", v))
    if args.func is cmd_report and args.dmax is not None and args.limit is None:
        raise InvalidInput("--dmax needs --limit")
    m_range = getattr(args, "m", None)
    if m_range is not None:
        lo, hi = m_range
        if lo < 1 or hi < lo:
            raise InvalidInput(_shown("bad m range {}", f"{lo}..{hi}"))
    theta = getattr(args, "theta", None)
    if theta is not None and not 0 < theta < 1:
        raise InvalidInput(_shown("theta must lie in (0, 1), got {}", theta))


def _int(text: str) -> int:
    """int(text) for the integer options, quoted by _shown when it fails."""
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            _shown("invalid int value: {!r}", text, "int value")) from exc


def _m_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo, 10)
        b = int(hi, 10) if sep else a
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            _shown("bad m range {!r}", text, "m range")) from exc
    return a, b


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            _shown("bad fraction {!r}", text, "fraction")) from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parse_args keeps no state)."""
    parser = _Parser(
        prog="powerful-ap",
        description="Construct, search for, and verify arithmetic "
        "progressions of powerful numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=_int, default=DEFAULT_RHO_BUDGET,
                       help="factoring work cap per number for rho and then "
                       "ECM, in units of one rho step (1.5 modular "
                       "multiplications on average; ECM pays two units per "
                       f"multiplication; default {DEFAULT_RHO_BUDGET})")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--out", default=None, help="write output to this file")

    families = sorted(_CONSTRUCTORS) + ["kap"]

    p = sub.add_parser("construct", help="build family witnesses")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--m", type=_m_range, default=None,
                   help="index or range A..B within the family")
    p.add_argument("--k", type=_int, default=None,
                   help="target length for --family kap")
    p.add_argument("--seed", default=f"{FAMILY_PELL3}:1",
                   help="seed witness for kap as family:m (default pell3:1)")
    p.add_argument("--theta", type=_fraction, default=None,
                   help="override the reporting exponent")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="enumerate powerful numbers and scan for APs")
    p.add_argument("--limit", type=_int, required=True)
    p.add_argument("--k", type=_int, default=3, help="AP length (default 3)")
    p.add_argument("--dmax", type=_int, default=None,
                   help="difference window; omit to skip the AP scan")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run the 3-AP verification battery")
    p.add_argument("witness_file", nargs="?", default=None,
                   help="JSON witness file; omit to use --family")
    p.add_argument("--family", choices=families, default=None)
    p.add_argument("--m", type=_m_range, default=None)
    p.add_argument("--k", type=_int, default=None)
    p.add_argument("--seed", default=f"{FAMILY_PELL3}:1")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="family table, growth constants, "
                       "optional search summary")
    p.add_argument("--m", type=_m_range, default=(1, 5),
                   help="family index range (default 1..5)")
    p.add_argument("--k", type=_int, default=None,
                   help="largest k for the constants table (default 9); with "
                   "--limit also the AP length of the search section (default "
                   "3); the C_k work grows like 3^k digits, so k >= 13 is slow")
    p.add_argument("--limit", type=_int, default=None,
                   help="add a search section up to this bound")
    p.add_argument("--dmax", type=_int, default=None,
                   help="difference window of the search section; needs --limit")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check(args)
        with factor_memo():
            return args.func(args)
    except BudgetExceeded as exc:
        _error("BudgetExceeded", str(exc),
               number=str(exc.number) if exc.number is not None else None,
               step=exc.step)
        return EXIT_RESOURCE
    except CapacityExceeded as exc:
        _error("CapacityExceeded", str(exc))
        return EXIT_RESOURCE
    except (InvalidWitness, ConsistencyFailure) as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_VERIFY
    except InvalidInput as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_PARSE
    except OSError as exc:
        _error("IOError", str(exc))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
