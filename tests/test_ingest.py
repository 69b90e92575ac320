"""Triple parsing, aggregation filters, and the JSON document round trip."""

import json
import math
import sys

import numpy as np
import pytest

from helpers import make
from streamshare import (
    BadAlphaError,
    CellBudgetError,
    DimensionError,
    EmptyAfterFilterError,
    Instance,
    InstanceError,
    NegativeWeightError,
    ParseError,
    SchemaError,
    TripleRecord,
    ZeroRowError,
    default_ids,
    ingest,
    ingest_triples,
    load_document,
    read_triples,
    save_document,
    validate,
)
from streamshare import cli
from streamshare.cli import main

SAMPLE = [
    "user\tartist\tcount",
    "alice\tradiohead\t12",
    "alice\tbjork\t3",
    "",
    "bob\tradiohead\t1",
]


def test_read_triples_skips_header_and_blanks():
    recs = list(read_triples(SAMPLE))
    assert len(recs) == 3
    assert recs[0] == TripleRecord("alice", "radiohead", 12.0)
    assert recs[2].user_id == "bob"


def test_read_triples_comma_and_no_header():
    recs = list(read_triples(["u1,a1,5\n", "u1,a2,0.5\r\n"]))
    assert [r.count for r in recs] == [5.0, 0.5]


def test_read_triples_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        list(read_triples(["a,b,1", "too,few"]))
    assert exc.value.line_no == 2
    assert "expected 3 fields" in str(exc.value)
    # a later non-numeric count is an error, not a second header
    with pytest.raises(ParseError):
        list(read_triples(["a,b,1", "c,d,lots"]))
    with pytest.raises(ParseError):
        list(read_triples(["a,,3"]))
    with pytest.raises(ParseError):
        list(read_triples(["a,b,-1"]))
    with pytest.raises(ParseError):
        list(read_triples(["a,b,inf"]))


def _sample_records():
    return [
        TripleRecord("alice", "radiohead", 10),
        TripleRecord("alice", "bjork", 2),
        TripleRecord("bob", "radiohead", 1),
        TripleRecord("bob", "radiohead", 4),  # duplicate pair, sums
        TripleRecord("carol", "lowfi", 0.5),
    ]


def test_ingest_aggregates_in_first_appearance_order():
    res = ingest_triples(_sample_records())
    assert res.user_ids == ("alice", "bob", "carol")
    assert res.artist_ids == ("radiohead", "bjork", "lowfi")
    expected = np.array([[10, 2, 0], [5, 0, 0], [0, 0, 0.5]])
    assert np.array_equal(res.instance.weights, expected)
    assert res.instance.alpha == 1.0


def test_ingest_min_user_total_filter():
    res = ingest_triples(_sample_records(), min_user_total=1.0)
    assert res.user_ids == ("alice", "bob")
    with pytest.raises(EmptyAfterFilterError):
        ingest_triples(_sample_records(), min_user_total=100.0)


def test_ingest_top_artists_ranked_by_total():
    res = ingest_triples(_sample_records(), top_artists=2)
    # totals: radiohead 15, bjork 2, lowfi 0.5
    assert res.artist_ids == ("radiohead", "bjork")
    # carol only streamed lowfi, so she drops out with it
    assert res.user_ids == ("alice", "bob")


def test_ingest_top_artists_tie_keeps_earlier():
    recs = [TripleRecord("u", "first", 3), TripleRecord("u", "second", 3)]
    res = ingest_triples(recs, top_artists=1)
    assert res.artist_ids == ("first",)


@pytest.mark.parametrize("top", [-1, -2])
def test_ingest_rejects_negative_top_artists(top):
    with pytest.raises(ValueError, match="top_artists must be >= 0"):
        ingest_triples(_sample_records(), top_artists=top)


@pytest.mark.parametrize("top", [1.5, 2.0, "2", True])
def test_ingest_rejects_fractional_top_artists(top):
    """Any count operator.index refuses, and a bool, gets the negative
    count's error, even where it would never be used to cut the artist list."""
    with pytest.raises(ValueError, match="top_artists must be >= 0"):
        ingest_triples(_sample_records(), top_artists=top)


@pytest.mark.parametrize("top", [np.int64(1)])
def test_ingest_takes_integer_like_top_artists(top):
    assert ingest_triples(_sample_records(), top_artists=top).artist_ids == \
        ingest_triples(_sample_records(), top_artists=1).artist_ids


def test_ingest_cell_budget():
    recs = [TripleRecord(f"u{i}", f"a{i}", 1) for i in range(8)]
    with pytest.raises(CellBudgetError):
        ingest_triples(recs, cell_budget=63)
    assert ingest_triples(recs, cell_budget=64).instance.n_users == 8


def test_default_ids():
    users, artists = default_ids(make([[1, 2], [3, 4], [5, 6]]))
    assert users == ("u0", "u1", "u2")
    assert artists == ("a0", "a1")


def test_document_round_trip(tmp_path):
    inst = make([[3, 1], [0, 1]], alpha=0.7)
    path = tmp_path / "doc.json"
    save_document(path, inst, user_ids=("x", "y"), artist_ids=("p", "q"))
    res = load_document(path)
    assert np.array_equal(res.instance.weights, inst.weights)
    assert res.instance.alpha == 0.7
    assert res.user_ids == ("x", "y")
    assert res.artist_ids == ("p", "q")


def test_loaded_weights_reach_the_rule_uncopied(tmp_path, monkeypatch):
    """The matrix load_document builds is frozen, and the instance the CLI
    divides, at the document's alpha or at the --alpha flag's, holds that
    same array."""
    path = tmp_path / "doc.json"
    save_document(path, make([[3, 1], [0, 1]], alpha=0.7))
    built = []
    read = ingest._read_layout
    monkeypatch.setattr(ingest, "_read_layout", lambda r, i: built.append(read(r, i)) or built[-1])
    for flag_alpha in (None, 0.5):
        instance = cli._load_with_alpha(path, flag_alpha)[0]
        assert instance.weights is built[-1]
        assert not instance.weights.flags.writeable and instance.weights.flags.owndata


def test_save_defaults_ids_and_checks_lengths(tmp_path):
    inst = make([[1, 1]])
    path = tmp_path / "doc.json"
    save_document(path, inst)
    assert load_document(path).user_ids == ("u0",)
    with pytest.raises(SchemaError):
        save_document(path, inst, user_ids=("only",), artist_ids=("too", "many", "ids"))
    # each table defaults on its own; an array of ids is not tested for truth
    save_document(path, make([[1, 1], [2, 2]]), np.array(["x", "y"]))
    res = load_document(path)
    assert (res.user_ids, res.artist_ids) == (("x", "y"), ("a0", "a1"))
    save_document(path, make([[1, 1], [2, 2]]), artist_ids=np.array(["p", "q"]))
    res = load_document(path)
    assert (res.user_ids, res.artist_ids) == (("u0", "u1"), ("p", "q"))


def _write(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_document_schema_errors(tmp_path):
    good = {
        "version": 1,
        "alpha": 1.0,
        "user_ids": ["u0"],
        "artist_ids": ["a0", "a1"],
        "weights": [[1.0, 2.0]],
    }
    load_document(_write(tmp_path, good))

    for mutation in (
        {"version": 2},
        {"version": True},  # the JSON integer 1 only
        {"version": 1.0},
        {"alpha": "high"},
        {"weights": [[1.0], [2.0, 3.0]]},  # ragged
        {"weights": [1.0, 2.0]},  # not a matrix
        {"user_ids": ["u0", "u1"]},  # length mismatch
    ):
        with pytest.raises(SchemaError):
            load_document(_write(tmp_path, {**good, **mutation}))

    # a string would be split into one id per character, an object into its keys
    for mutation in ({"user_ids": 5}, {"user_ids": None}, {"artist_ids": "ab"},
                     {"user_ids": {"u0": 1}}):
        with pytest.raises(SchemaError, match="must be a JSON array"):
            load_document(_write(tmp_path, {**good, **mutation}))

    for missing in ("alpha", "user_ids", "artist_ids", "weights"):
        doc = {k: v for k, v in good.items() if k != missing}
        with pytest.raises(SchemaError):
            load_document(_write(tmp_path, doc))

    nan_doc = tmp_path / "nan.json"
    nan_doc.write_text('{"version": 1, "alpha": 1.0, "user_ids": ["u0"], "artist_ids": ["a0"], "weights": [[NaN]]}')
    with pytest.raises(SchemaError):
        load_document(nan_doc)

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    with pytest.raises(SchemaError):
        load_document(not_json)

    array_root = tmp_path / "arr.json"
    array_root.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError):
        load_document(array_root)


def test_load_document_runs_instance_validation(tmp_path):
    doc = {
        "version": 1,
        "alpha": 1.0,
        "user_ids": ["u0"],
        "artist_ids": ["a0"],
        "weights": [[0.0]],
    }
    with pytest.raises(ValueError):  # zero row comes from core validation
        load_document(_write(tmp_path, doc))


ID_DOC = {"version": 1, "alpha": 1.0, "user_ids": ["u0", "u1", "u2"],
          "artist_ids": ["a0", "a1"], "weights": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}


@pytest.mark.parametrize("ids, message", [
    ({"user_ids": ["u0", None, "u2"]}, "user_ids[1] must be a JSON string, got null"),
    ({"artist_ids": ["a0", 1.5]}, "artist_ids[1] must be a JSON string, got 1.5"),
    ({"user_ids": [7, "u1", {"a": 1}]}, "user_ids[0] must be a JSON string, got 7"),
    ({"artist_ids": [["a0"], "a1"]}, 'artist_ids[0] must be a JSON string, got ["a0"]'),
    ({"user_ids": ["u0", "u1", True]}, "user_ids[2] must be a JSON string, got true"),
    ({"user_ids": ["u", "v", "u"]}, 'user_ids[2] repeats the id "u" of user_ids[0]'),
    ({"artist_ids": ["a", "a"]}, 'artist_ids[1] repeats the id "a" of artist_ids[0]'),
    ({"user_ids": ["x", "y", "y"], "artist_ids": ["a", "a"]},
     'user_ids[2] repeats the id "y" of user_ids[1]'),
])
def test_load_document_refuses_bad_ids(tmp_path, capsys, ids, message):
    _assert_refused(_write(tmp_path, {**ID_DOC, **ids}), message, capsys)


def _assert_refused(path, message, capsys):
    """load_document raises a SchemaError with ``message``, and divide
    exits 1 with an error line and no output."""
    with pytest.raises(SchemaError) as info:
        load_document(path)
    assert str(info.value) == message
    assert main(["divide", "--rule", "globalprop", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


HUGE_INT = int("1" * 400)


@pytest.mark.parametrize("fields, message", [
    ({"weights": [["1.5", True], [False, "2"], [1.0, 1.0]]},
     'weights[0][0] must be a JSON number, got "1.5"'),
    ({"weights": [[1.0, True], [0.0, 1.0], [1.0, 1.0]]}, "weights[0][1] must be a JSON number, got true"),
    ({"weights": [[1.0, 0.0], [0.0, 1.0], [False, 1.0]]}, "weights[2][0] must be a JSON number, got false"),
    ({"weights": [[1.0, 0.0], [0.0, -HUGE_INT], [1.0, 1.0]]},
     "weights[1][1] must be a number a float can hold, got an integer of 400 digits"),
    ({"alpha": "0.5"}, 'alpha must be a JSON number, got "0.5"'),
    ({"alpha": True}, "alpha must be a JSON number, got true"),
    ({"alpha": None}, "alpha must be a JSON number, got null"),
    ({"alpha": HUGE_INT}, "alpha must be a number a float can hold, got an integer of 400 digits"),
], ids=["string weight", "true weight", "false weight", "huge weight", "string alpha",
        "true alpha", "null alpha", "huge alpha"])
def test_load_document_refuses_non_numbers(tmp_path, capsys, fields, message):
    """A string, a boolean or an integer too large for a float where the
    document needs a number is refused, the member named, rather than
    converted (or overflowing) as np.array and float would."""
    _assert_refused(_write(tmp_path, {**ID_DOC, **fields}), message, capsys)


@pytest.mark.parametrize("alpha, message", [
    ('"0.5"', 'alpha must be a JSON number, got "0.5"'),
    ("true", "alpha must be a JSON number, got true"),
    ("1" * 400, "alpha must be a number a float can hold, got an integer of 400 digits"),
], ids=["string", "true", "huge"])
def test_bytes_path_refuses_a_non_number_alpha(tmp_path, monkeypatch, capsys, alpha, message):
    """A document whose matrix is read from its bytes still has its alpha
    checked."""
    path = tmp_path / "doc.json"
    path.write_text(_saved().replace('"alpha": 1.0', f'"alpha": {alpha}'))
    reads = _record_bytes_reads(monkeypatch)
    _assert_refused(path, message, capsys)
    assert reads[0]


def test_load_document_keeps_distinct_string_ids(tmp_path):
    # ids that differ only in case or spacing, or read like numbers, are distinct strings
    ids = {"user_ids": ["1.5", "null", "U0"], "artist_ids": ["a0", "a0 "]}
    res = load_document(_write(tmp_path, {**ID_DOC, **ids}))
    assert (res.user_ids, res.artist_ids) == (("1.5", "null", "U0"), ("a0", "a0 "))


# ---------------------------------------------------------------------------
# the document reader against json.load + np.array


def _reference_load(path):
    """The reference loader: json.load parses the whole document, then
    np.array converts the weights, once alpha and every entry of a row but
    a list (which np.array refuses as a shape) are JSON numbers a float can
    hold."""
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=ingest._reject_constant,
                            parse_int=_reference_int)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    if type(doc.get("version")) is not int or doc.get("version") != 1:
        raise SchemaError(f"unsupported document version {doc.get('version')!r}")
    for key in ("alpha", "user_ids", "artist_ids", "weights"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    alpha, weights = _reference_number(doc["alpha"], "alpha"), doc["weights"]
    for i, row in enumerate(weights if isinstance(weights, list) else []):
        for j, x in enumerate(row if isinstance(row, list) else []):
            if not isinstance(x, list):
                _reference_number(x, f"weights[{i}][{j}]")
    try:
        w = np.array(weights, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad numeric payload: {exc}") from exc
    if w.ndim != 2:
        raise SchemaError(f"weights must be a matrix, got ndim {w.ndim}")
    if not np.all(np.isfinite(w)):
        raise SchemaError("weights must be finite")
    users = tuple(str(u) for u in doc["user_ids"])
    artists = tuple(str(a) for a in doc["artist_ids"])
    if len(users) != w.shape[0] or len(artists) != w.shape[1]:
        raise SchemaError("id table lengths do not match the weight matrix")
    instance = Instance(w, alpha)
    validate(instance)
    return ingest.IngestResult(instance, users, artists)


def _reference_int(text):
    """int(text), once the integer is no longer than int() converts."""
    limit = sys.get_int_max_str_digits()
    digits = len(text.lstrip("-"))
    if 0 < limit < digits:
        raise SchemaError(f"an integer of {digits} digits is longer than int() converts")
    return int(text)


def _reference_number(x, key):
    """x, an int or a float from json.load and no bool, as a float: its
    decimal text read as a float (an integer too long is infinite)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{key} must be a JSON number, got {json.dumps(x)}")
    if isinstance(x, int) and math.isinf(float(str(x))):
        raise SchemaError(f"{key} must be a number a float can hold, "
                          f"got an integer of {len(str(abs(x)))} digits")
    return float(x)


def _outcome(load, path):
    """The weights' bits and the other fields, or the exception's class and text."""
    try:
        res = load(path)
    except Exception as exc:  # the outcome under test, compared class for class
        return type(exc), str(exc)
    w = res.instance.weights
    return w.shape, w.view(np.int64).tobytes(), res.instance.alpha, res.user_ids, res.artist_ids


def _zero_rows(*entries, width=32):
    """A two-row matrix, mostly "0.0" as gen's catalogs are, with the given
    entries at the start of the first row."""
    first = list(entries) + ["0.0"] * (width - len(entries) - 1) + ["1.0"]
    second = ["2.0"] + ["0.0"] * (width - 1)
    return "[[" + ", ".join(first) + "], [" + ", ".join(second) + "]]"


def _members(**fields):
    """Every member but the weights, for a two-row, 32-column matrix."""
    members = {"version": 1, "alpha": 1.0, "user_ids": ["u0", "u1"],
               "artist_ids": [f"a{j}" for j in range(32)], **fields}
    return ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in members.items())


def _document(weights, **fields):
    return "{" + _members(**fields) + ', "weights": ' + weights + "}"


# the tokens the JSON number grammar accepts, each of which must load as
# json.load reads it; and every other spelling, which json.load rejects
NUMBERS = ["-0", "-0.0", "0", "1E400", "5e-324", "1e-400", "1e+5", "1E-05", "0.5e0",
           "0.05", "10.0", "0.0e5", "9007199254740993", "18446744073709551617",
           "1" + "0" * 308, "2.5"]
# integers json reads but np.array cannot convert to a float
HUGE = ["1" * 400, "-" + "1" * 400, "1" + "0" * 309]
# an integer longer than int() converts
TOO_LONG = "1" * 5000
SPELLINGS = ["01", "1.", ".5", "+1", "1e", "-", "1_0", "0x10", "NaN", "Infinity",
             "-Infinity", "00", "-01", "1.e5", "1e5.5", "1.2.3", "--1", "1-2", "1 2", "0. 0"]
CORPUS = (
    [(f"number {t[:12]}", _document(_zero_rows(t))) for t in NUMBERS]
    + [(f"huge {t[:5]}", _document(_zero_rows(t))) for t in HUGE]
    + [("too long weight", _document(_zero_rows(TOO_LONG))),
       ("too long alpha", _document(_zero_rows()).replace('"alpha": 1.0', f'"alpha": -{TOO_LONG}'))]
    + [(f"spelling {t}", _document(_zero_rows(t))) for t in SPELLINGS]
    + [(f"last {t}", _document(_zero_rows().replace("1.0]", t + "]", 1)))
       for t in ("-0", "7", "01", "1e")]
    + [(f"value {v}", _document(_zero_rows(v)))
       for v in ("true", "false", "null", '"1.5"', '"x"', '"1,5"', "[1.0]", "{}")]
    + [(f"shape {label}", _document(w)) for label, w in [
        ("empty", "[]"), ("empty-row", "[[]]"), ("flat", "[1.0, 2.0]"),
        ("ragged", _zero_rows()[:-2] + ", 0.0]]"), ("string with comma in both rows",
                                                      _zero_rows('"1,5"').replace("[2.0", '["2,5"')),
        ("depth-3", "[[" + _zero_rows() + "]]"), ("row-of-rows", "[" + _zero_rows() + "]"),
        # not an entry of a row, so np.array meets it: a bad numeric payload
        ("flat with a huge integer", "[" + HUGE[0] + ", 2.0]"),
        ("depth-3 with a huge integer", "[[[" + HUGE[0] + "]], [[2.0]]]"),
        # the first bad entry in row order is named, whichever kind it is
        ("huge integer, then a boolean", _zero_rows(HUGE[0]).replace("[2.0", "[true")),
        ("boolean, then a huge integer", _zero_rows("true").replace("[2.0", "[" + HUGE[1])),
        ("ragged with a huge integer", _zero_rows(HUGE[2])[:-2] + ", 0.0]]"),
        ("integer rows", _zero_rows("7").replace(".0", "")),
        ("trailing-comma", _zero_rows()[:-1] + ",]"), ("no-comma", _zero_rows().replace("], [", "] [")),
        ("control character after a row", _zero_rows().replace("], [", "]\x01, [")),
        ("control character before a row", _zero_rows().replace("], [", "], \x01[")),
        ("bracket between rows", _zero_rows().replace("], [", "][[")),
        ("control character before the first row", "[\x01" + _zero_rows()[1:]),
        ("mostly nonzero", "[[" + ", ".join(["1.5"] * 32) + "], [" + ", ".join(["2.5"] * 32) + "]]"),
        # "0 .0" is two runs of token bytes and the empty entry none, so
        # together they have as many runs as entries
        ("split zero and empty entry", "[[0 .0, , " + ", ".join(["0.0"] * 30) + "]]"),
        ("split zero and empty entry, then a nonzero row",
         "[[0 .0, , " + ", ".join(["0.0"] * 30) + "], [" + ", ".join(["2.0"] + ["0.0"] * 31) + "]]"),
        ("unclosed", _zero_rows()[:-1])]]
    + [("tabs and CRLF", _document(_zero_rows().replace(", ", ",\t").replace("], ", "],\r\n"))),
       ("weights first", "{" + '"weights": ' + _zero_rows() + ", " + _members() + "}"),
       ("non-ASCII ids", _document(_zero_rows(), user_ids=["ü", "ß"],
                                   artist_ids=[f"ä{j}" for j in range(32)])),
       ("weights first, non-ASCII ids", "{" + '"weights": ' + _zero_rows() + ", "
        + _members(user_ids=["ü", "ß"]) + "}"),
       ("repeated weights", _document(_zero_rows("3.0"))[:-1] + ', "weights": '
        + _zero_rows("4.0") + "}"),
       ("repeated weights, first invalid", _document(_zero_rows("NaN"))[:-1]
        + ', "weights": ' + _zero_rows() + "}"),
       ("negative", _document(_zero_rows("-1.0"))),
       ("zero row", _document(_zero_rows().replace("[2.0", "[0.0"))),
       ("too few ids", _document(_zero_rows(), user_ids=["u0"])),
       ("version 2", _document(_zero_rows(), version=2)),
       ("version true", _document(_zero_rows(), version=True)),
       ("version 1.0", _document(_zero_rows(), version=1.0)),
       ("extra data", _document(_zero_rows()) + " x"),
       ("missing comma after weights", _document(_zero_rows())[:-1] + ' "x": 1}'),
       ("byte-order mark", "﻿" + _document(_zero_rows())),
       ("array root", "[" + _zero_rows() + "]")]
)


def _saved(token="0.0", indent=1, weights_first=False):
    """A _zero_rows document as save_document lays it out (json.dump with
    indent=1, weights last, a closing newline), with its first entry
    spelled as ``token``."""
    weights, members = json.loads(_zero_rows()), json.loads("{" + _members() + "}")
    doc = {"weights": weights, **members} if weights_first else {**members, "weights": weights}
    text = json.dumps(doc, indent=indent) + "\n"
    at = text.index("0.0", text.index('"weights"'))
    return text[:at] + token + text[at + 3 :]


# the corpus in the layout save_document writes, where the weights are read
# from the document's bytes unless an entry is not one save_document writes
# (other widths, and other three-character spellings such as "1e5") or the
# layout is another one (CRLF line ends in the matrix included: the text
# path, which decodes as text mode does, turns them into LF)
LAYOUT_CORPUS = (
    [("layout", _saved())]
    + [(f"layout {t}", _saved(t)) for t in ("1e5", "-0", "1.e", "NaN", "true", "10.0", "\u0663.0")]
    + [("layout indent 4", _saved(indent=4)),
       ("layout CRLF", _saved().replace("\n", "\r\n")),
       ("layout missing comma", _saved().replace("0.0,\n", "0.0\n", 1)),
       ("layout space for a comma", _saved().replace("0.0,\n", "0.0 \n", 1)),
       ("layout weights first", _saved(weights_first=True)),
       ("layout repeated weights", _saved("3.0")[: -len("\n}\n")] + ",\n "
        + _saved("4.0")[_saved("4.0").index('"weights"') :]),
       ("layout zero row", _saved().replace("   2.0", "   0.0")),
       ("layout one column",
        json.dumps(json.loads(_document("[[1.0], [2.0]]", artist_ids=["a0"])), indent=1) + "\n"),
       ("layout NUL entry", _saved("1\u0000\u0000")),
       # three bytes in UTF-8, the width of an entry
       ("layout non-ASCII entry", _saved("1\u00e9")),
       ("layout nested weights member", _saved().replace(
           '{\n "version"', '{\n "meta": {\n "weights": [\n  [\n   5.0\n  ]\n ]},\n "version"')),
       ("layout weights in a string", _saved().replace(
           '{\n "version"', '{\n "meta": "\n "weights": [\n  [\n",\n "version"')),
       # the matrix runs to the end, so the cut lands inside the nested value
       ("layout weights nested at the end",
        '{\n "meta": {\n "weights": [\n  [\n   1.0\n  ]\n ]\n}\n'),
       ("layout weights in a string at the end",
        '{\n "meta": "x\n "weights": [\n  [\n   1.0\n  ]\n ]\n}\n'),
       ("layout bad header", _saved().replace('"alpha": 1.0', '"alpha": 1.0.0')),
       # another weights member, at an indent the layout's does not have
       ("layout weights also in the header", _saved().replace(
           '{\n "version"', '{\n  "weights": [[9.0]],\n "version"')),
       ("layout first row opened by a brace", _saved().replace('"weights": [\n  [', '"weights": [\n  {')),
       ("layout closed by a bracket", _saved()[: -len("}\n")] + "]\n"),
       ("layout non-ASCII ids", _saved().replace('"u0"', '"\u00fc0"')),
       ("layout CRLF in the header", _saved().replace('"version": 1,\n', '"version": 1,\r\n')),
       ("layout CR in an id", _saved().replace('"u0"', '"u\r0"')),
       ("layout whitespace after the document", _saved() + " \n"),
       ("layout cut off in the last row", _saved()[: _saved().rindex("0.0")]),
       ("layout member after weights", _saved()[: -len("\n}\n")] + ',\n "x": 1\n}\n'),
       # a row break word holding an entry's code where its "\n  " stands
       ("layout digits in a row break", _saved().replace(" ],\n  [\n", " ],1.0[\n", 1)),
       # headers for _decode_layout's parse with a placeholder for the matrix
       ("layout weights alone", '{\n "weights": [\n  [\n   1.0\n  ]\n ]\n}\n'),
       ("layout no comma before weights", _saved().replace('],\n "weights"', ']\n "weights"')),
       ("layout two commas before weights", _saved().replace('],\n "weights"', '],,\n "weights"')),
       ("layout NaN alpha", _saved().replace('"alpha": 1.0', '"alpha": NaN')),
       ("layout comma after the brace", "{," + _saved()[1:]),
       ("layout array root", "[" + _saved()[1:])]
)
# the corpus documents whose weights _read_layout reads from the bytes
READ_FROM_BYTES = {"layout", "layout zero row", "layout one column",
                   "layout weights also in the header", "layout CRLF in the header",
                   "layout weights alone"}


def _record_bytes_reads(monkeypatch):
    """A list that fills as documents load: for each, whether the matrix
    _read_layout read from its bytes is the decoded document's weights."""
    reads, built = [], []
    read, decode = ingest._read_layout, ingest._decode_layout
    monkeypatch.setattr(ingest, "_read_layout", lambda r, i: built.append(read(r, i)) or built[-1])

    def decode_layout(raw):
        reads.append(False)  # stays so when the header raises
        built.clear()
        doc = decode(raw)
        reads[-1] = doc is not None and doc["weights"] is built[-1]
        return doc

    monkeypatch.setattr(ingest, "_decode_layout", decode_layout)
    return reads


@pytest.mark.parametrize("block", [ingest._SAVE_BLOCK_CELLS, 1], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("label, text", CORPUS + LAYOUT_CORPUS,
                         ids=[label for label, _ in CORPUS + LAYOUT_CORPUS])
def test_load_document_matches_json_and_np_array(tmp_path, monkeypatch, label, text, block):
    """Each document loads, or fails, as the reference does, from its bytes
    exactly for READ_FROM_BYTES; one that loads is written back by
    save_document, in one block or a block per row, to json.dump's bytes,
    which load to the same outcome."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(_reference_load, path)
    reads = _record_bytes_reads(monkeypatch)
    assert _outcome(load_document, path) == expected
    assert reads == [label in READ_FROM_BYTES]
    if not isinstance(expected[0], type):
        monkeypatch.setattr(ingest, "_SAVE_BLOCK_CELLS", block)
        loaded = load_document(path)
        _assert_saved_as_json_dump(tmp_path, loaded.instance, loaded.user_ids, loaded.artist_ids)
        assert _outcome(load_document, tmp_path / "saved.json") == expected


@pytest.mark.parametrize("token", NUMBERS)
def test_matrix_reader_takes_json_numbers(tmp_path, monkeypatch, token):
    """A JSON number as an entry of save_document's layout loads as
    json.load reads it: from the bytes when it is three characters wide
    (2.5, as save_document writes it), from the text otherwise."""
    path = tmp_path / "doc.json"
    path.write_text(_saved(token))
    reads = _record_bytes_reads(monkeypatch)
    assert _outcome(load_document, path) == _outcome(_reference_load, path)
    assert reads == [len(token) == 3]


@pytest.mark.parametrize("token", SPELLINGS + HUGE + ["true", '"1.5"'])
def test_matrix_reader_leaves_the_rest_to_json(tmp_path, monkeypatch, token):
    """Any other entry of save_document's layout, three characters wide or
    not, is left to the text path and loads or fails as json.load does."""
    path = tmp_path / "doc.json"
    path.write_text(_saved(token))
    reads = _record_bytes_reads(monkeypatch)
    assert _outcome(load_document, path) == _outcome(_reference_load, path)
    assert reads == [False]


def _extreme(rng, shape):
    mantissa = rng.exponential(1.0, size=shape)
    w = mantissa * 10.0 ** rng.integers(-320, 308, size=shape)
    w.flat[: 4] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
    return w


@pytest.mark.parametrize("kind", ["sparse", "dense", "extreme"])
def test_save_then_load_is_bit_identical(tmp_path, kind):
    rng = np.random.default_rng(20240)
    w = rng.exponential(1.0, size=(60, 40))
    if kind == "sparse":
        w *= rng.random(w.shape) < 0.05
        w[:, 0] += 1.0
    elif kind == "extreme":
        w = _extreme(rng, w.shape)
    path = tmp_path / "doc.json"
    save_document(path, make(w, alpha=0.3))
    loaded = load_document(path)
    assert np.array_equal(loaded.instance.weights.view(np.int64), w.view(np.int64))
    assert _outcome(load_document, path) == _outcome(_reference_load, path)


def test_generated_documents_load_as_before(tmp_path, monkeypatch):
    """Documents written by ``gen`` and ``reduce-ssbve`` are read from their
    bytes, a ``gen`` document with counts of 10 and more is decoded as text,
    and all load bit for bit as json.load + np.array does."""
    graph = tmp_path / "graph.txt"
    graph.write_text("3 3\n0 0\n0 1\n1 1\n2 2\n")
    docs = []
    for seed, (n, m) in enumerate([(300, 30), (800, 80)]):
        docs.append(tmp_path / f"gen{seed}.json")
        assert main(["gen", "--users", str(n), "--artists", str(m), "--seed", str(seed),
                     "--alpha", "0.7", "--out", str(docs[-1])]) == 0
    for ell, delta in [(1, 2), (2, 1)]:
        docs.append(tmp_path / f"reduction{ell}{delta}.json")
        assert main(["reduce-ssbve", "--graph", str(graph), "--ell", str(ell),
                     "--delta", str(delta), "--out", str(docs[-1])]) == 0
    docs.append(tmp_path / "wide.json")
    assert main(["gen", "--users", "300", "--artists", "30", "--seed", "0",
                 "--stream-lambda", "6", "--out", str(docs[-1])]) == 0
    reads = _record_bytes_reads(monkeypatch)
    for path in docs:
        reads.clear()
        assert _outcome(load_document, path) == _outcome(_reference_load, path)
        assert reads == [path.name != "wide.json"], path.name


# ---------------------------------------------------------------------------
# the block writer against json.dump


def _reference_save(path, instance, user_ids=None, artist_ids=None):
    """The document writer before the block writer: json.dump of the whole
    document with indent=1, then a newline."""
    if user_ids is None or artist_ids is None:
        gen_users, gen_artists = default_ids(instance)
        user_ids = user_ids or gen_users
        artist_ids = artist_ids or gen_artists
    doc = {
        "version": 1,
        "alpha": instance.alpha,
        "user_ids": list(user_ids),
        "artist_ids": list(artist_ids),
        "weights": instance.weights.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _assert_saved_as_json_dump(tmp_path, instance, user_ids=None, artist_ids=None):
    saved, expected = tmp_path / "saved.json", tmp_path / "expected.json"
    save_document(saved, instance, user_ids, artist_ids)
    _reference_save(expected, instance, user_ids, artist_ids)
    assert saved.read_bytes() == expected.read_bytes()


def _no_zero_rows(w):
    """w with 1.0 in the last cell of each all-zero row."""
    w[w.sum(axis=1) == 0, -1] = 1.0
    return w


def _special_values(rng, shape):
    """Valid weights holding every extreme a document can: a negative zero,
    the least subnormal and normal floats, and huge values, written column
    by column so that 1e300 and the largest float, whose sum overflows,
    never share a row."""
    w = rng.exponential(1.0, size=shape) * (rng.random(shape) < 0.3)
    w.T.flat[:6] = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]
    return _no_zero_rows(w)


@pytest.mark.parametrize("kind", ["sparse", "dense", "extreme", "special"])
@pytest.mark.parametrize("block_cells", [ingest._SAVE_BLOCK_CELLS, 7], ids=["default", "tiny"])
def test_save_document_writes_json_dump_bytes(tmp_path, monkeypatch, kind, block_cells):
    """Every kind of value a valid document holds, -0.0 and the extremes
    included, in blocks of rows that do not divide the row count (7 cells
    over 3-column rows) or in one block."""
    monkeypatch.setattr(ingest, "_SAVE_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(7)
    w = rng.exponential(1.0, size=(61, 3))
    if kind == "sparse":
        w = _no_zero_rows(w * (rng.random(w.shape) < 0.05))
    elif kind == "extreme":
        w = _extreme(rng, w.shape)
    elif kind == "special":
        w = _special_values(rng, w.shape)
    _assert_saved_as_json_dump(tmp_path, Instance(w, 0.3))


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (1, 1)])
def test_save_document_edge_shapes(tmp_path, shape):
    w = np.full(shape, 2.5)
    _assert_saved_as_json_dump(tmp_path, Instance(w, 1.0))


def test_save_document_rows_wider_than_a_block(tmp_path):
    """Each row wider than a whole block goes out as a block of its own."""
    rng = np.random.default_rng(3)
    w = _special_values(rng, (2, ingest._SAVE_BLOCK_CELLS + 5))
    _assert_saved_as_json_dump(tmp_path, Instance(w, 0.5))


def _record_writer_paths(monkeypatch):
    """A list that fills as documents are saved, one item a block of rows:
    "words" for a block written as the word grid, "text" for a block
    rendered as text."""
    paths = []
    rows_text, layout_words = ingest._rows_text, ingest._layout_words

    def words(block, last):
        grid = layout_words(block, last)
        if grid is not None:
            paths.append("words")
        return grid

    monkeypatch.setattr(ingest, "_rows_text", lambda *block: paths.append("text") or rows_text(*block))
    monkeypatch.setattr(ingest, "_layout_words", words)
    return paths


def _three_char_values(rng, shape, last_column):
    """Valid weights whose nonzero entries all render in three characters
    (k / 10 for k in 1..99), a third of them nonzero, the last column all
    zero or all nonzero; or, for "every-code", k / 10 across row k - 1."""
    if last_column == "every-code":
        return np.repeat(np.arange(1, 100) / 10, shape[1]).reshape(shape)
    w = rng.integers(1, 100, size=shape) / 10 * (rng.random(shape) < 0.3)
    w[:, -1] = rng.integers(1, 100, size=shape[0]) / 10 if last_column == "nonzero" else 0.0
    w[w.sum(axis=1) == 0, 0] = 1.0
    return w


@pytest.mark.parametrize("block_cells", [ingest._SAVE_BLOCK_CELLS, 7], ids=["default", "tiny"])
@pytest.mark.parametrize("shape, last_column", [
    ((1, 1), "nonzero"), ((1, 9), "nonzero"), ((1, 9), "zero"), ((23, 1), "nonzero"),
    ((23, 9), "nonzero"), ((23, 9), "zero"), ((5, 16), "zero"), ((99, 3), "every-code"),
], ids=lambda p: "x".join(map(str, p)) if isinstance(p, tuple) else f"last-{p}")
def test_three_character_matrices_are_written_as_words(tmp_path, monkeypatch, shape, last_column,
                                                       block_cells):
    """A matrix whose nonzero entries render in three characters is written
    as the word grid, every block of it, in blocks that split the rows
    unevenly when a block holds 7 cells, to json.dump's bytes; the document
    loads back from its bytes through _read_layout to the same float64
    bits."""
    monkeypatch.setattr(ingest, "_SAVE_BLOCK_CELLS", block_cells)
    w = _three_char_values(np.random.default_rng(sum(shape)), shape, last_column)
    paths = _record_writer_paths(monkeypatch)
    _assert_saved_as_json_dump(tmp_path, Instance(w, 0.7))
    rows = max(1, block_cells // shape[1])
    assert paths == ["words"] * -(-shape[0] // rows)
    reads = _record_bytes_reads(monkeypatch)
    loaded = load_document(tmp_path / "saved.json").instance.weights
    assert reads == [True]
    assert np.array_equal(loaded.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("value, row", [
    (-0.0, 17), (10.0, 17), (-0.0, 0), (10.0, 0), (-0.0, 22), (10.0, 22),
], ids=["negative zero", "ten", "negative zero-first-block", "ten-first-block",
        "negative zero-last-block", "ten-last-block"])
def test_other_matrices_are_written_as_text(tmp_path, monkeypatch, value, row):
    """One -0.0, or a 10.0 among values up to 9.0, sends the block of two
    rows that holds it to the text writer, be it the first block, a middle
    one or the last, one row that closes the document; every other block
    goes out as words. The document is json.dump's bytes and loads through
    the text path as the reference does."""
    monkeypatch.setattr(ingest, "_SAVE_BLOCK_CELLS", 18)
    w = np.random.default_rng(5).integers(0, 10, size=(23, 9)).astype(float)
    w[:, 0] = 9.0
    w[row, 3] = value
    paths = _record_writer_paths(monkeypatch)
    _assert_saved_as_json_dump(tmp_path, Instance(w, 0.7))
    assert paths == ["text" if block == row // 2 else "words" for block in range(12)]
    reads = _record_bytes_reads(monkeypatch)
    path = tmp_path / "saved.json"
    assert _outcome(load_document, path) == _outcome(_reference_load, path)
    assert reads == [False]


SQUARE = [[1.0, 1.0], [2.0, 2.0]]


@pytest.mark.parametrize("weights, alpha, ids, error", [
    (SQUARE, 1.0, ((1, 2), ("a", "a")), "user_ids[0] must be a JSON string, got 1"),
    (SQUARE, 1.0, (("x", "y"), ("a", "a")), 'artist_ids[1] repeats the id "a" of artist_ids[0]'),
    (SQUARE, 1.0, (("only",), ("a", "b", "c")), "id table lengths do not match the weight matrix"),
    ([[1.0, 0.0], [0.0, 0.0]], 1.0, (None, None), ZeroRowError),
    ([[1.0, -1.0], [0.0, 2.0]], 1.0, (None, None), NegativeWeightError),
    ([[1.0, np.nan]], 1.0, (None, None), InstanceError),
    ([[np.inf, 1.0]], 1.0, (None, None), InstanceError),
    ([[1.0], [-np.inf]], 1.0, (None, None), InstanceError),
    (SQUARE, 0.0, (None, None), BadAlphaError),
    (SQUARE, 1.5, (None, None), BadAlphaError),
    (np.zeros((0, 3)), 1.0, (None, None), DimensionError),
    (np.zeros((3, 0)), 1.0, (None, None), DimensionError),
    (np.zeros((0, 0)), 1.0, (None, None), DimensionError),
], ids=["non-string id", "repeated id", "wrong lengths", "zero row", "negative", "nan", "inf",
        "-inf", "alpha 0", "alpha 1.5", "empty 0x3", "empty 3x0", "empty 0x0"])
def test_save_document_refuses_what_load_document_refuses(tmp_path, weights, alpha, ids, error):
    """The writer raises, before it opens the file, the reader's SchemaError
    for a bad id table and validate's error for bad weights or alpha; the
    document json.dump would write for the same content is one the reader
    refuses."""
    instance = Instance(np.asarray(weights, dtype=float), alpha)
    dumped = tmp_path / "dumped.json"
    _reference_save(dumped, instance, *ids)
    with pytest.raises((SchemaError, InstanceError)) as read:
        load_document(dumped)
    path = tmp_path / "doc.json"
    path.write_bytes(b"an earlier document\n")
    with pytest.raises((SchemaError, InstanceError)) as wrote:
        save_document(path, instance, *ids)
    if isinstance(error, str):
        assert str(wrote.value) == str(read.value) == error
        assert type(wrote.value) is type(read.value) is SchemaError
    else:
        assert type(wrote.value) is error
    assert path.read_bytes() == b"an earlier document\n"


def test_save_document_escapes_ids_as_json_does(tmp_path):
    users = ('q"uote', "back\\slash", "ünïcödé", "snow \u2603", "tab\tnew\nline", "\U0001f3b5")
    artists = ("<a>", "'single'", "\x7f\x00")
    w = np.arange(1, 19, dtype=float).reshape(6, 3)
    _assert_saved_as_json_dump(tmp_path, Instance(w, 0.25), users, artists)


def test_cli_documents_are_json_dump_bytes(tmp_path):
    """gen catalogs at two alphas and reduce-ssbve documents re-dump, from
    their own parsed content, to the bytes on disk."""
    graph = tmp_path / "graph.txt"
    graph.write_text("3 3\n0 0\n0 1\n1 1\n2 2\n")
    docs = []
    for seed, (n, m, alpha) in enumerate([(300, 30, "1"), (800, 80, "0.35")]):
        docs.append(tmp_path / f"gen{seed}.json")
        assert main(["gen", "--users", str(n), "--artists", str(m), "--seed", str(seed),
                     "--alpha", alpha, "--out", str(docs[-1])]) == 0
    for ell, delta in [(1, 1), (1, 2), (2, 1)]:
        docs.append(tmp_path / f"reduction{ell}{delta}.json")
        assert main(["reduce-ssbve", "--graph", str(graph), "--ell", str(ell),
                     "--delta", str(delta), "--out", str(docs[-1])]) == 0
    for path in docs:
        res = load_document(path)
        expected = tmp_path / "expected.json"
        _reference_save(expected, res.instance, res.user_ids, res.artist_ids)
        assert path.read_bytes() == expected.read_bytes(), path.name
