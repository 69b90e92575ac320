"""Listening-history ingestion and instance serialization.

Input is the minimal triple shape `user, artist, count` (tab or comma
separated, optional header). Aggregation keys stay sparse until the final
densification, which refuses to materialize matrices above a cell budget.
Instances round-trip through a small versioned JSON document that carries
the id tables alongside the weights. Loading one reads the file once, as
bytes, and takes one of two paths. A document in the layout save_document
writes, with every weight in three characters as the counts of gen and the
small integers of reduce-ssbve are, is read from those bytes: only its
header members are decoded to text (they must be ASCII) and parsed by the
standard decoder, and the weight matrix, the last member, is read as a
grid of eight-byte words, one per entry. The bytes path takes exactly the
words save_document writes: the word of a "0.0" entry, or that word with
one of the 99 three-character codes of 0.1 to 9.9 in place of "0.0",
whose value is taken from the writer's own table. Every other document,
another spelling of a number included, is decoded to text as
open(path).read() decodes it (the locale codec, universal newlines, the
same decode errors) and parsed by the standard decoder whole. So the
loaded weights are bit for bit those of json.load followed by np.array,
and every document loads or fails to load as it does there, but that a
string, a boolean or an integer too large for a float where a number
belongs is refused, and so is an integer longer than int() converts. The
bytes path builds no matrix: the rows, columns and values of the nonzero
entries it finds become the instance (Instance.from_nonzeros), whose
totals, validation and main rules work from them, and whose dense matrix
is made only when some caller reads its weights. The text path's matrix is
frozen and reaches the instance, and every with_alpha of it, without a
copy. Saving one writes the bytes of
json.dump(doc, fh, indent=1) and a newline, so the format is unchanged, but
no nested list of the matrix is made: the header members are rendered by
json's C string encoder and the indent=1 separators, and the weights go out
a block of rows at a time, each block written before the next is built.
Each block takes its own path: when its nonzero weights all render in three
characters, it is the grid of eight-byte words the bytes reader reads, with
each entry's characters put in the reader's own zero-entry word; any other
block (a -0.0, a weight of four or more characters) is rendered as text,
each distinct value once.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import dataclass
from itertools import compress
from json.encoder import encode_basestring_ascii

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
    if not isinstance(min_user_total, numbers.Real) or min_user_total != min_user_total:
        raise ValueError(f"min_user_total must be a number, got {min_user_total!r}")
    users, artists, cells = {}, {}, {}  # ids numbered by first appearance; counts by pair
    for r in records:
        key = users.setdefault(r.user_id, len(users)), artists.setdefault(r.artist_id, len(artists))
        cells[key] = cells.get(key, 0.0) + r.count  # summed in stream order
    ui, ai = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    c = np.fromiter(cells.values(), float, len(cells))
    keep_a = np.ones(len(artists), dtype=bool)
    if top_artists is not None and top_artists < len(artists):
        by_user = np.argsort(ui, kind="stable")  # each artist's cells user by user
        totals = np.bincount(ai[by_user], c[by_user], len(artists))
        keep_a[np.argsort(-totals, kind="stable")[top_artists:]] = False  # ties keep the earlier
    live = keep_a[ai]
    totals = np.bincount(ui[live], c[live], len(users))  # each user's cells in first appearance
    # each total compares with the threshold as a Python float, whatever the threshold's type
    keep_u = (totals > 0) & (totals.astype(object) >= np.array(min_user_total, dtype=object))
    users, artists = tuple(compress(users, keep_u)), tuple(compress(artists, keep_a))
    n, m = len(users), len(artists)
    if not n or not m:
        raise EmptyAfterFilterError(f"{n} users x {m} artists left after filtering")
    if n * m > cell_budget:
        raise CellBudgetError(f"{n} x {m} cells exceed the budget {cell_budget}")
    live &= keep_u[ui]
    w = np.zeros((n, m))
    w[keep_u.cumsum()[ui[live]] - 1, keep_a.cumsum()[ai[live]] - 1] = c[live]
    instance = Instance(w, alpha)
    validate(instance)
    return IngestResult(instance, users, artists)


def default_ids(instance: Instance):
    users = tuple(f"u{i}" for i in range(instance.n_users))
    artists = tuple(f"a{j}" for j in range(instance.n_artists))
    return users, artists


def save_document(path, instance: Instance, user_ids=None, artist_ids=None) -> None:
    """Write the versioned JSON document for an instance, after checking it
    as load_document does: the id tables the caller gives, their lengths,
    then validate.

    The bytes are those of json.dump(doc, fh, indent=1) followed by a
    newline. The header members are rendered by the standard encoder's
    pieces: each id by json's C string encoder, joined with the indent=1
    separators. The weights go out a block of rows at a time, each block
    as the grid of eight-byte words _read_layout reads when its nonzero
    weights all render in three characters (the counts of a default gen
    catalog, the small integers of reduce-ssbve), else as text (a -0.0, a
    value of four or more characters, as in ingested counts).
    """
    # the default tables are valid as built; only a caller's are checked
    if user_ids is None or artist_ids is None:
        users, artists = default_ids(instance)
    if user_ids is not None:
        users = _id_table(list(user_ids), "user_ids")
    if artist_ids is not None:
        artists = _id_table(list(artist_ids), "artist_ids")
    if len(users) != instance.n_users or len(artists) != instance.n_artists:
        raise SchemaError("id table lengths do not match the weight matrix")
    validate(instance)
    w = instance.weights
    n, m = w.shape
    rows = max(1, _SAVE_BLOCK_CELLS // m)
    with open(path, "wb") as fh:
        # the members in json.dump's order, "weights" last, up to its first row
        fh.write((
            f'{{\n "version": {DOCUMENT_VERSION},\n "alpha": {json.dumps(instance.alpha)},\n'
            f' "user_ids": {_ids_text(users)},\n "artist_ids": {_ids_text(artists)},\n'
            ' "weights": [\n  [\n'
        ).encode())
        for start in range(0, n, rows):
            block, last = w[start : start + rows], start + rows >= n
            words = _layout_words(block, last)
            fh.write(_rows_text(block, last).encode() if words is None else words)


def _ids_text(ids: tuple) -> str:
    """A non-empty id table as json.dump(..., indent=1) writes it as a
    member of the document."""
    return "[\n  " + ",\n  ".join(map(encode_basestring_ascii, ids)) + "\n ]"


# Rows are written in blocks of at most about this many cells (one row if
# it is wider), so that the rendered text of a block stays small.
_SAVE_BLOCK_CELLS = 1 << 16


def _rows_text(block: np.ndarray, last: bool) -> str:
    """The span of _layout_words for a block of finite weights, as text.
    Each distinct bit pattern is rendered once, as the encoder renders a
    float (so -0.0 and 0.0 keep their own text), and gathered into place."""
    r, m = block.shape
    patterns, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    rendered = np.array(list(map(float.__repr__, patterns.view(np.float64).tolist())), dtype=object)
    cells = rendered[inverse].tolist()
    sep, row_break = ",\n   ", "\n  ],\n  [\n"
    rows = ["   " + sep.join(cells[i : i + m]) for i in range(0, r * m, m)]
    return row_break.join(rows) + ("\n  ]\n ]\n}\n" if last else row_break)


def _layout_words(block: np.ndarray, last: bool):
    """A block of rows from its first entry up to the next row's "  [\n",
    or to the document's end after the last block, as the (rows, m + 1)
    grid of words _read_layout reads: the row template's, with each nonzero
    entry's code in its word; None when a nonzero entry renders in other
    than three characters (a -0.0 takes four)."""
    bits = block.view(np.int64).ravel()
    at = np.flatnonzero(bits != 0)  # the boolean scan is the fast one
    found = bits[at]
    index = np.searchsorted(_THREE_CHAR_BITS, found).clip(max=_THREE_CHAR_BITS.size - 1)
    if not np.array_equal(_THREE_CHAR_BITS[index], found):
        return None
    r, m = block.shape
    template = _row_template(m)
    grid = np.tile(template, (r, 1))
    # entry (i, j) of the block is word i * (m + 1) + j of the grid
    grid.ravel()[at + at // m] = template[at % m] & _FRAME | _THREE_CHAR_CODES[index]
    if last:
        grid[-1, -1] = _LAYOUT_END
    return grid


def load_document(path) -> IngestResult:
    """Read a JSON instance document back; inverse of save_document."""
    try:
        doc = _decode_file(path)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    version = doc.get("version")
    if type(version) is not int or version != DOCUMENT_VERSION:  # true and 1.0 equal 1 too
        raise SchemaError(f"unsupported document version {version!r}")
    for key in ("alpha", "user_ids", "artist_ids", "weights"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    users = _id_table(doc["user_ids"], "user_ids")
    artists = _id_table(doc["artist_ids"], "artist_ids")
    alpha, weights = _number(doc["alpha"], "alpha"), doc["weights"]
    if isinstance(weights, tuple):  # the nonzeros _read_layout found, finite and positive
        instance = Instance.from_nonzeros(*weights, alpha)
    else:
        # The text path's entries. Rows of JSON numbers go straight to the
        # conversion. A row holding anything else, or a failed conversion
        # (an integer too large for a float, a ragged matrix), sends the
        # rows through _check_entries first, so the first bad entry is
        # named wherever it lies.
        rows = weights if isinstance(weights, list) else ()
        if not all(set(map(type, row)) <= {int, float} for row in rows if isinstance(row, list)):
            _check_entries(rows)
        try:
            w = np.asarray(weights, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            _check_entries(rows)
            raise SchemaError(f"bad numeric payload: {exc}") from exc
        if w.ndim != 2:
            raise SchemaError(f"weights must be a matrix, got ndim {w.ndim}")
        # a new matrix that nothing else holds: frozen, the instance (and
        # every with_alpha of it) shares it rather than copying it
        w.setflags(write=False)
        instance = Instance(w, alpha)
        # as in validate, the weights are scanned only when a kept row sum is not finite
        if not np.isfinite(instance.user_totals()).all() and not np.isfinite(w).all():
            raise SchemaError("weights must be finite")
    if len(users) != instance.n_users or len(artists) != instance.n_artists:
        raise SchemaError("id table lengths do not match the weight matrix")
    validate(instance)
    return IngestResult(instance, users, artists)


def _check_entries(rows) -> None:
    """Raise _number's SchemaError for the first entry of ``rows``, in row
    order, that is not a JSON number a float can hold; a row of floats alone
    is passed over, and a list in a row is left to the shape check."""
    for i, row in enumerate(rows):
        if isinstance(row, list) and not set(map(type, row)) <= {float}:
            for j, x in enumerate(row):
                if not isinstance(x, list):
                    _number(x, f"weights[{i}][{j}]")


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


def _number(x, key: str) -> float:
    """The member ``key`` as a float: a JSON number (not a string or a
    boolean) that a float can hold, or a SchemaError naming the member."""
    if type(x) not in (int, float):
        raise SchemaError(f"{key} must be a JSON number, got {json.dumps(x)}")
    try:
        return float(x)
    except OverflowError:
        raise SchemaError(f"{key} must be a number a float can hold, "
                          f"got an integer of {len(str(abs(x)))} digits") from None


def _reject_constant(name: str):
    raise SchemaError(f"non-finite literal {name} is not allowed")


def _parse_int(text: str) -> int:
    """A JSON integer as json.loads reads it, or a SchemaError naming its
    digit count when it is longer than int() converts."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise SchemaError(f"an integer of {digits} digits is longer than int() converts") from None


def _loads(text: str):
    """json.loads of ``text``, where a non-finite literal or an integer
    longer than int() converts is a SchemaError. Only a second parse names
    the integer, so a document that parses pays nothing for _parse_int."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, SchemaError):
        raise
    except ValueError:  # int()'s digit limit
        return json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int)


# The layout save_document writes when every weight renders in three
# characters, as the counts 0.0 to 9.0 that gen writes do. The weights
# member comes last: "\n "weights": [\n", the rows, "\n ]\n}\n". A row is
# "  [\n", m lines "   ddd,\n" (the last without its comma) and "  ]", and
# rows are joined by ",\n". So after the matrix's "[\n" and its first
# row's "  [\n", the bytes are n rows of m + 1 eight-byte words: m entries,
# then " ],\n  [\n" between rows and " ]\n ]\n}\n" after the last. A zero
# entry is the word "   0.0,\n", or "   0.0\n " at the end of a row.
_LAYOUT_KEY = b'\n "weights": ['
_LAYOUT_OPEN = b"[\n  [\n"
_ZERO_WORD, _LAST_ZERO_WORD, _ROW_BREAK, _LAYOUT_END = (
    int.from_bytes(word, "little")
    for word in (b"   0.0,\n", b"   0.0\n ", b" ],\n  [\n", b" ]\n ]\n}\n")
)
# the bytes of an entry's word around its three characters
_FRAME = int.from_bytes(b"\xff\xff\xff\0\0\0\xff\xff", "little")
# The finite nonzero floats that render in three characters, as the encoder
# renders a float, are 0.1, 0.2, ..., 9.9 (an exponent takes at least five):
# k / 10 is the float "d.d" names. Their bit patterns, ascending as the
# floats do, and the code of each: its characters where an entry's word
# holds them.
_THREE_CHAR_VALUES = np.arange(1, 100) / 10
_THREE_CHAR_BITS = _THREE_CHAR_VALUES.view(np.int64)
_THREE_CHAR_CODES = np.array(
    [int.from_bytes(text.encode(), "little") << 24
     for text in map(float.__repr__, _THREE_CHAR_VALUES.tolist())], "<u8"
)
# the codes ascending, for the reader's lookup, and the value of each
_SORTED_CODES, _CODE_VALUES = (
    table[np.argsort(_THREE_CHAR_CODES)] for table in (_THREE_CHAR_CODES, _THREE_CHAR_VALUES)
)


def _row_template(m: int) -> np.ndarray:
    """The m + 1 words of a row of zeros in the layout of _LAYOUT_KEY, up
    to the next row's "  [\n"."""
    template = np.full(m + 1, _ZERO_WORD, "<u8")
    template[m - 1 :] = _LAST_ZERO_WORD, _ROW_BREAK
    return template


def _decode_file(path):
    """json.loads of the document's text, read once as bytes: by
    _decode_layout (its matrix as its nonzeros), or decoded to the text
    open(path).read() gives (the locale codec, universal newlines, its
    decode errors) and parsed by the standard decoder."""
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = _decode_layout(raw)
    if doc is not None:
        return doc
    with io.TextIOWrapper(io.BytesIO(raw)) as fh:
        text = fh.read()
    del raw  # not kept while the text is parsed
    return _loads(text)


def _decode_layout(raw: bytes):
    """The document json.loads reads from the text of ``raw``, with the
    weights as the tuple of nonzeros _read_layout gives, when ``raw`` is in
    the layout save_document writes with three-character weights (see
    _LAYOUT_KEY); None for any other document, which is then decoded as
    text.

    Only the header, the bytes before the weights' "[", is decoded, and only
    when it is ASCII, so that its text is the one any ASCII-compatible
    locale codec gives. (A CR, which universal newlines would turn into a
    line break, can stand only as whitespace in a header the standard
    decoder accepts, where it reads as the line break would.) The matrix is
    read from the bytes by _read_layout, and the header is parsed with a
    placeholder "0" for it and a "}" for the document's closing brace.
    That text parses only when the placeholder is the value of a top-level
    "weights" key, the last member: the header ends in a line break and
    '"weights": ', which inside a string is an error, and the "}" must
    close the root. The matrix then takes the placeholder's place. A header
    the decoder rejects sends the document to the text path, which reports
    the error where the standard decoder does.
    """
    key = raw.find(_LAYOUT_KEY)
    start = key + len(_LAYOUT_KEY) - 1
    header = raw[:start]
    if key < 0 or not header.isascii():
        return None
    weights = _read_layout(raw, start)
    if weights is None:
        return None
    try:
        doc = _loads(header.decode("ascii") + "0}")
    except json.JSONDecodeError:
        return None
    doc["weights"] = weights
    return doc


def _read_layout(raw: bytes, start: int):
    """The weights matrix at raw[start] when it runs to the document's end
    in the layout of _LAYOUT_KEY, as _layout_words writes it, or None. The
    matrix is given as the arguments of Instance.from_nonzeros but alpha:
    its shape, then the rows, columns and values of its nonzero entries in
    row-major order, frozen.

    m comes from the first row's length and n from the bytes left. The
    words that differ from the row template, 2-3% of a gen catalog, must be
    entries (not row breaks), each exactly the word _layout_words writes for
    one of the codes of _THREE_CHAR_CODES; every other entry is +0.0. Any
    other spelling of a number ("1e5", "  7", "1e0") leaves the document to
    the text path. Densified, equal bit for bit to np.array of the JSON
    matrix.
    """
    m, odd = divmod(raw.find(b"]", start) - start - 7, 8)
    if odd or m < 1 or raw[start : start + 6] != _LAYOUT_OPEN:
        return None
    n, rest = divmod(len(raw) - start - 6, 8 * (m + 1))
    if rest or n < 1:
        return None
    words = np.frombuffer(raw, "<u8", n * (m + 1), start + 6)
    if words[-1] != _LAYOUT_END:
        return None
    template = _row_template(m)
    # where the words differ from the template, but for the last one
    at = np.flatnonzero(words.reshape(n, m + 1) != template)[:-1]
    row, column = np.divmod(at, m + 1)
    # a row break can frame a code too (" ],1.0[\n"), but is no entry
    if (column == m).any():
        return None
    # with the template's frame, a word's other bits are its code
    found, frame = words[at], template[column] & _FRAME
    index = np.searchsorted(_SORTED_CODES, found ^ frame).clip(max=_SORTED_CODES.size - 1)
    if not np.array_equal(found, frame | _SORTED_CODES[index]):
        return None
    nonzeros = row, column, _CODE_VALUES[index]
    for a in nonzeros:  # handed to the instance uncopied
        a.setflags(write=False)
    return (n, m), *nonzeros
