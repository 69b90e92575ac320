"""Listening-history ingestion and instance serialization.

Input is the minimal triple shape `user, artist, count` (tab or comma
separated, optional header). Aggregation keys stay sparse until the final
densification, which refuses to materialize matrices above a cell budget.
Instances round-trip through a small versioned JSON document that carries
the id tables alongside the weights. Loading one parses everything but the
weights with the standard json decoder. The weight matrix, mostly "0.0" in
the documents this package writes, is read by a vectorized scan over blocks
of rows that writes the zeros without parsing them and hands every other
entry to the same decoder (a matrix with few zeros goes to the decoder
whole), so the loaded weights are bit for bit those of json.load followed
by np.array, and every document that loaded or failed to load before does
so the same way. Saving one writes the bytes of json.dump(doc, fh, indent=1)
and a newline, so the format is unchanged, but it renders the weights a
block of rows at a time: each distinct value of a block is rendered once,
and the block is written before the next is built, so no nested list of
the matrix is made.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from json.decoder import WHITESPACE as _WHITESPACE, scanstring

import numpy as np

from .core import Instance, validate, whole

DOCUMENT_VERSION = 1
DEFAULT_CELL_BUDGET = 50_000_000


class ParseError(ValueError):
    def __init__(self, line_no: int, text: str, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason} in {text!r}")


class SchemaError(ValueError):
    """An instance document is malformed or carries non-finite weights."""


class EmptyAfterFilterError(ValueError):
    """Filtering removed every user or every artist."""


class CellBudgetError(ValueError):
    """Densifying would allocate more matrix cells than allowed."""


@dataclass(frozen=True)
class TripleRecord:
    user_id: str
    artist_id: str
    count: float


@dataclass(frozen=True)
class IngestResult:
    instance: Instance
    user_ids: tuple
    artist_ids: tuple


def _split(line: str):
    sep = "\t" if "\t" in line else ","
    return [part.strip() for part in line.split(sep)]


def read_triples(lines):
    """Yield TripleRecords from an iterable of text lines.

    The first non-blank line may be a header; it is skipped when its third
    field does not parse as a number. Blank lines are ignored everywhere.
    """
    first_data_seen = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        parts = _split(line)
        if len(parts) != 3:
            raise ParseError(line_no, line, f"expected 3 fields, got {len(parts)}")
        user, artist, count_text = parts
        try:
            count = float(count_text)
        except ValueError:
            if not first_data_seen:
                first_data_seen = True  # header row
                continue
            raise ParseError(line_no, line, f"bad count {count_text!r}")
        first_data_seen = True
        if not user or not artist:
            raise ParseError(line_no, line, "empty id")
        if not math.isfinite(count) or count < 0:
            raise ParseError(line_no, line, f"count must be finite and >= 0")
        yield TripleRecord(user, artist, count)


def ingest_triples(
    records,
    alpha: float = 1.0,
    min_user_total: float = 0.0,
    top_artists: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> IngestResult:
    """Aggregate triples into a validated instance plus id tables.

    Duplicate (user, artist) pairs sum. Ordering of both tables follows
    first appearance in the stream. With top_artists set, only the
    highest-total columns survive (ties keep the earlier artist), and user
    totals are re-derived over the surviving columns before the
    min_user_total cut. Users must end with positive total.
    """
    if top_artists is not None:
        top_artists = whole(top_artists, ValueError, "top_artists")
    by_user: dict = {}
    artist_order: dict = {}
    for rec in records:
        row = by_user.setdefault(rec.user_id, {})
        row[rec.artist_id] = row.get(rec.artist_id, 0.0) + rec.count
        if rec.artist_id not in artist_order:
            artist_order[rec.artist_id] = len(artist_order)

    artists = list(artist_order)
    if top_artists is not None and top_artists < len(artists):
        totals = {a: 0.0 for a in artists}
        for row in by_user.values():
            for a, c in row.items():
                totals[a] += c
        ranked = sorted(artists, key=lambda a: (-totals[a], artist_order[a]))
        keep = set(ranked[:top_artists])
        artists = [a for a in artists if a in keep]

    kept_artists = set(artists)
    users = []
    for u, row in by_user.items():
        total = sum(c for a, c in row.items() if a in kept_artists)
        if total > 0 and total >= min_user_total:
            users.append(u)

    if not users or not artists:
        raise EmptyAfterFilterError(
            f"{len(users)} users x {len(artists)} artists left after filtering"
        )
    if len(users) * len(artists) > cell_budget:
        raise CellBudgetError(
            f"{len(users)} x {len(artists)} cells exceed the budget {cell_budget}"
        )

    col = {a: j for j, a in enumerate(artists)}
    w = np.zeros((len(users), len(artists)))
    for i, u in enumerate(users):
        for a, c in by_user[u].items():
            if a in kept_artists:
                w[i, col[a]] = c
    instance = Instance(w, alpha)
    validate(instance)
    return IngestResult(instance, tuple(users), tuple(artists))


def default_ids(instance: Instance):
    users = tuple(f"u{i}" for i in range(instance.n_users))
    artists = tuple(f"a{j}" for j in range(instance.n_artists))
    return users, artists


def save_document(path, instance: Instance, user_ids=None, artist_ids=None) -> None:
    """Write the versioned JSON document for an instance, after checking it
    as load_document does: the id tables, their lengths, then validate.

    The bytes are those of json.dump(doc, fh, indent=1) followed by a
    newline. The header members go through the standard encoder; the
    weights are rendered and written one block of rows at a time.
    """
    if user_ids is None or artist_ids is None:
        gen_users, gen_artists = default_ids(instance)
        user_ids = gen_users if user_ids is None else user_ids
        artist_ids = gen_artists if artist_ids is None else artist_ids
    users = _id_table(list(user_ids), "user_ids")
    artists = _id_table(list(artist_ids), "artist_ids")
    if len(users) != instance.n_users or len(artists) != instance.n_artists:
        raise SchemaError("id table lengths do not match the weight matrix")
    validate(instance)
    header = json.JSONEncoder(indent=1).encode(
        {
            "version": DOCUMENT_VERSION,
            "alpha": instance.alpha,
            "user_ids": users,
            "artist_ids": artists,
        }
    )
    w = instance.weights
    rows = max(1, _SAVE_BLOCK_CELLS // w.shape[1])
    with open(path, "w") as fh:
        # "weights" is the last member: it goes where the header object closes.
        fh.write(header[: -len("\n}")] + ',\n "weights": [\n')
        for start in range(0, w.shape[0], rows):
            if start:
                fh.write(",\n")
            fh.write(_rows_text(w[start : start + rows]))
        fh.write("\n ]\n}\n")


# Rows are written in blocks of at most about this many cells (one row if
# it is wider), so that the rendered text of a block stays small.
_SAVE_BLOCK_CELLS = 1 << 16


def _rows_text(block: np.ndarray) -> str:
    """The rows of a block of finite weights as json.dump(..., indent=1)
    writes them inside the weights member, separated by a comma and a
    newline.

    Each distinct bit pattern is rendered once, as the encoder renders a
    float (so -0.0 and 0.0 keep their own text), and the rendered strings
    are gathered back into place.
    """
    r, m = block.shape
    patterns, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    rendered = np.array(list(map(float.__repr__, patterns.view(np.float64).tolist())), dtype=object)
    cells = rendered[inverse].tolist()
    sep = ",\n   "
    return ",\n".join(
        ["  [\n   " + sep.join(cells[i : i + m]) + "\n  ]" for i in range(0, r * m, m)]
    )


def load_document(path) -> IngestResult:
    """Read a JSON instance document back; inverse of save_document."""
    with open(path) as fh:
        try:
            doc = _decode_document(fh.read())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    if doc.get("version") != DOCUMENT_VERSION:
        raise SchemaError(f"unsupported document version {doc.get('version')!r}")
    for key in ("alpha", "user_ids", "artist_ids", "weights"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    users = _id_table(doc["user_ids"], "user_ids")
    artists = _id_table(doc["artist_ids"], "artist_ids")
    try:
        w = np.asarray(doc["weights"], dtype=float)
        alpha = float(doc["alpha"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad numeric payload: {exc}") from exc
    if w.ndim != 2:
        raise SchemaError(f"weights must be a matrix, got ndim {w.ndim}")
    if not np.all(np.isfinite(w)):
        raise SchemaError("weights must be finite")
    if len(users) != w.shape[0] or len(artists) != w.shape[1]:
        raise SchemaError("id table lengths do not match the weight matrix")
    instance = Instance(w, alpha)
    validate(instance)
    return IngestResult(instance, users, artists)


def _id_table(ids, key: str) -> tuple:
    """The id table ``key`` as a tuple: a list of distinct strings (str
    subclasses included), or a SchemaError naming the table and its first
    bad index; a value JSON cannot encode is shown by its repr."""
    if not isinstance(ids, list):
        raise SchemaError(f"{key} must be a JSON array, got {type(ids).__name__}")
    if not set(map(type, ids)) <= {str} and not all(isinstance(x, str) for x in ids):
        i = next(i for i, x in enumerate(ids) if not isinstance(x, str))
        raise SchemaError(f"{key}[{i}] must be a JSON string, got {json.dumps(ids[i], default=repr)}")
    if len(set(ids)) != len(ids):
        first = {}
        i = next(i for i, x in enumerate(ids) if first.setdefault(x, i) != i)
        raise SchemaError(f"{key}[{i}] repeats the id {json.dumps(ids[i])} of {key}[{first[ids[i]]}]")
    return tuple(ids)


def _reject_constant(name: str):
    raise SchemaError(f"non-finite literal {name} is not allowed")


# Where a matrix value ends (the first "]" followed by a second one) and
# where a row ends and another follows (a "]" followed by a comma). They
# are compiled at first use, through re's cache, so that importing the
# package compiles nothing for runs that load no document.
_MATRIX_END = r"\][ \t\n\r]*\]"
_ROW_END = r"\][ \t\n\r]*,"
_COMMA, _OPEN, _CLOSE, _DOT, _ZERO = b",[].0"
# How much of a matrix value is sampled for its share of "0.0" entries,
# and the least share for which the scan is used. On 2000x200 documents of
# exponential(1) weights with a given share of zeros (2-core Xeon, Python
# 3.11, numpy 2.4), the scan took 141/134/129/109 ms where the standard
# decoder took 137/125/136/130 ms at 70/72/74/76% zeros; the sample reads
# those shares as 73/74/76/78%, since values below 0.1 also hold "0.0".
# BENCH_load.json has the whole range.
_SAMPLE_CHARS = 1 << 16
_MIN_ZERO_SHARE = 0.75
# Rows are read in blocks of about this many characters, so that the
# scan's temporary arrays stay small next to the matrix itself.
_BLOCK_CHARS = 1 << 17


def _decode_document(text: str):
    """json.loads(text) with every "weights" member read by _read_matrix.

    The top-level object is walked the way the standard decoder walks it,
    with its scanstring and scan_once, so every other value and every
    accept or reject is the standard decoder's, with the same error
    positions. A root that is not an object goes to json.loads.
    """
    end = _WHITESPACE.match(text).end()
    if text[end : end + 1] != "{":
        return json.loads(text, parse_constant=_reject_constant)
    scan_once = json.JSONDecoder(parse_constant=_reject_constant).scan_once
    pairs = []
    end = _WHITESPACE.match(text, end + 1).end()
    if text[end : end + 1] == "}":
        end += 1
    else:
        while True:
            if text[end : end + 1] != '"':
                raise json.JSONDecodeError(
                    "Expecting property name enclosed in double quotes", text, end
                )
            key, end = scanstring(text, end + 1)
            end = _WHITESPACE.match(text, end).end()
            if text[end : end + 1] != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", text, end)
            end = _WHITESPACE.match(text, end + 1).end()
            read = _read_matrix(text, end) if key == "weights" else None
            if read is None:
                try:
                    read = scan_once(text, end)
                except StopIteration as err:
                    raise json.JSONDecodeError("Expecting value", text, err.value) from None
            value, end = read
            pairs.append((key, value))
            end = _WHITESPACE.match(text, end).end()
            delimiter = text[end : end + 1]
            end += 1
            if delimiter == "}":
                break
            if delimiter != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", text, end - 1)
            end = _WHITESPACE.match(text, end).end()
    end = _WHITESPACE.match(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return dict(pairs)


def _read_matrix(text: str, start: int):
    """(weights, end) for a rectangular JSON matrix of numbers at text[start],
    or None when the value is anything else.

    Equal to np.array(json value, dtype=float) bit for bit. Every canonical
    "0.0" becomes +0.0 without being parsed; the other entries are joined
    into one flat JSON array that the standard decoder parses, so they are
    checked against the JSON number grammar and converted exactly as
    before. Anything this reader does not take (strings, literals, ragged
    rows, other depths, a number json reads but np.array cannot convert) is
    left to the standard decoder and np.array, so it is rejected or
    accepted as before. So is a matrix whose entries, in its first 64K
    characters, are less than three quarters "0.0", where the scan is no
    faster than the decoder (see _MIN_ZERO_SHARE).
    """
    if text[start : start + 1] != "[":
        return None
    matrix_end = re.compile(_MATRIX_END)
    found = matrix_end.search(text, start, start + _SAMPLE_CHARS)
    sample = text[start : found.end() if found else start + _SAMPLE_CHARS]
    if sample.count("0.0") < _MIN_ZERO_SHARE * (sample.count(",") + 1):
        return None
    found = found or matrix_end.search(text, start)
    if found is None:
        return None
    last = found.start() + 1  # just after the last row's "]"
    pos = start + 1
    m, n, nonzero, tokens = None, 0, [], []
    row_end = re.compile(_ROW_END)
    while True:
        cut = row_end.search(text, pos + _BLOCK_CHARS, last)
        block = _read_rows(text[pos : (cut.start() + 1 if cut else last)], m)
        if block is None:
            return None
        rows, m, flat, joined = block
        nonzero.append(flat + n * m)
        if joined:
            tokens.append(joined)
        n += rows
        if cut is None:
            break
        pos = cut.end()
    try:
        values = np.array(json.loads(b"[" + b",".join(tokens) + b"]"), dtype=float)
    except (ValueError, OverflowError):
        return None
    weights = np.zeros((n, m))
    weights.ravel()[np.concatenate(nonzero)] = values
    return weights, found.end()


def _read_rows(text: str, m):
    """(rows, m, flat indices of the entries that are not "0.0", those
    entries joined by commas) for text that is whole matrix rows separated
    by commas, "[t, ..., t], ..., [t, ..., t]", each of m entries (m is
    taken from the first row when None); None for anything else."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    # Dropping whitespace must not join two tokens ("1 2" is not "12"), so
    # count the runs of token bytes before it goes: one per matrix entry.
    r = np.frombuffer(raw, dtype=np.uint8)
    token_byte = r > 32
    for c in (_COMMA, _OPEN, _CLOSE):
        token_byte &= r != c
    runs = np.count_nonzero(token_byte[:-1] > token_byte[1:])
    raw = raw.translate(None, b" \t\n\r")
    first_row_end = raw.find(b"]")
    if first_row_end < 0:
        return None
    if m is None:
        m = raw.count(b",", 0, first_row_end) + 1

    # Per row: "[", m - 1 commas, "]" and a comma (none after the last
    # row), with one token between each "[" or comma and the next delimiter
    # and nothing, not even a control character, anywhere else.
    b = np.frombuffer(raw, dtype=np.uint8)
    delimiter = b == _COMMA
    delimiter |= b == _OPEN
    delimiter |= b == _CLOSE
    pos = np.flatnonzero(delimiter)
    n = (pos.size + 1) // (m + 2)
    if n * (m + 2) != pos.size + 1 or runs != n * m:
        return None
    grid = np.append(pos, b.size).reshape(n, m + 2)
    layout = np.full(m + 1, _COMMA, dtype=np.uint8)
    layout[0], layout[m] = _OPEN, _CLOSE
    if not (
        grid[0, 0] == 0
        and (b[grid[:, :-1]] == layout).all()
        and (b[grid[:-1, -1]] == _COMMA).all()
        and (grid[:, -1] - grid[:, -2] == 1).all()
        and (grid[1:, 0] - grid[:-1, -1] == 1).all()
    ):
        return None
    starts = grid[:, :m] + 1
    ends = grid[:, 1 : m + 1]
    # With no entry empty, as many runs as entries means one run per entry.
    if not (ends > starts).all():
        return None
    zero_at = b[:-2] == _ZERO
    zero_at &= b[1:-1] == _DOT
    zero_at &= b[2:] == _ZERO
    # a one-byte last token starts past zero_at; clipped, its length decides
    flat = np.flatnonzero((ends - starts != 3) | ~zero_at.take(starts, mode="clip"))
    joined = b",".join(
        [raw[i:j] for i, j in zip(starts.ravel()[flat].tolist(), ends.ravel()[flat].tolist())]
    )
    # Number characters only, so each token is one JSON number or an error.
    if joined.translate(None, b"0123456789+-.eE,"):
        return None
    return n, m, flat, joined
