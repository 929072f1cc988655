"""Feature schema, embedding tables, request containers, and dataset files.

A schema declares non-sequential fields (tagged user / context / item)
and the per-action fields of the behavior sequence.  Non-sequential
embeddings are concatenated user-and-context first, then item, so the
user prefix of the vector is candidate-independent.  A HeadLayout splits
the concatenation into sides of whole heads: one side without user heads,
else the user side then the item side.  split_heads zero-pads each side
to its heads and slices it into equal pieces, so no head slice straddles
the user/item boundary.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import DataError, ShapeError, VocabError

_SIDES = ("user", "context", "item")


@dataclass(frozen=True)
class FeatureField:
    """One non-sequential categorical feature."""

    name: str
    side: str
    vocab_size: int
    dim: int

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise DataError(f"field {self.name}: side must be one of {_SIDES}")
        if self.vocab_size < 1 or self.dim < 1:
            raise DataError(f"field {self.name}: vocab_size and dim must be >= 1")


@dataclass(frozen=True)
class ActionField:
    """One categorical attribute of a sequence action."""

    name: str
    vocab_size: int
    dim: int

    def __post_init__(self) -> None:
        if self.vocab_size < 1 or self.dim < 1:
            raise DataError(f"action field {self.name}: vocab_size and dim must be >= 1")


@dataclass(frozen=True)
class FeatureSchema:
    nonseq_fields: tuple[FeatureField, ...]
    action_fields: tuple[ActionField, ...]
    max_seq_len: int

    def __post_init__(self) -> None:
        if not self.nonseq_fields:
            raise DataError("schema needs at least one non-sequential field")
        if not self.action_fields:
            raise DataError("schema needs at least one action field")
        if self.max_seq_len < 0:
            raise DataError("max_seq_len must be >= 0")
        if len(table_shapes(self)) < len(self.nonseq_fields) + len(self.action_fields):
            raise DataError(
                "two fields share an embedding table: a repeated name, or a "
                "non-sequential field named 'action:<action field>'"
            )

    def user_fields(self) -> tuple[FeatureField, ...]:
        """User and context fields, in schema order."""
        return tuple(f for f in self.nonseq_fields if f.side != "item")

    def item_fields(self) -> tuple[FeatureField, ...]:
        return tuple(f for f in self.nonseq_fields if f.side == "item")

    @property
    def d_ns_user(self) -> int:
        return sum(f.dim for f in self.user_fields())

    @property
    def d_ns_item(self) -> int:
        return sum(f.dim for f in self.item_fields())

    @property
    def d_ns(self) -> int:
        return self.d_ns_user + self.d_ns_item

    @property
    def action_dim(self) -> int:
        return sum(f.dim for f in self.action_fields)


class EmbeddingTable:
    """A (vocab, dim) trainable table plus its Adagrad accumulator."""

    def __init__(self, name: str, weight: np.ndarray):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"table {name}: weight must be 2-d")
        self.name = name
        self.weight = ad.Tensor(weight, requires_grad=True)
        self.adagrad_acc = np.zeros_like(weight)

    @property
    def vocab_size(self) -> int:
        return self.weight.data.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.data.shape[1]

    def lookup(self, ids: np.ndarray) -> ad.Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise VocabError(
                f"table {self.name}: id out of range [0, {self.vocab_size})"
            )
        return ad.embedding(self.weight, ids)


_TABLE_INIT_STD = 0.1


def table_shapes(schema: FeatureSchema) -> dict[str, tuple[int, int]]:
    """(vocab, dim) of every embedding table, in creation order: one per
    field, with action tables keyed 'action:<name>'."""
    shapes = {f.name: (f.vocab_size, f.dim) for f in schema.nonseq_fields}
    shapes.update({f"action:{f.name}": (f.vocab_size, f.dim) for f in schema.action_fields})
    return shapes


def make_tables(schema: FeatureSchema, rng: np.random.Generator) -> dict[str, EmbeddingTable]:
    """The tables of table_shapes, drawn in order from N(0, 0.1^2)."""
    return {
        name: EmbeddingTable(name, rng.normal(0.0, _TABLE_INIT_STD, size=shape))
        for name, shape in table_shapes(schema).items()
    }


# What a Request holds, the widths of the dataset file's <u4 ids and <u1 labels
ID_DTYPE = np.int32
LABEL_DTYPE = np.uint8
_ID_END = int(np.iinfo(ID_DTYPE).max) + 1


def _narrow(values, dtype: type) -> np.ndarray:
    """values at dtype when every value survives the round trip exactly;
    otherwise as given, so that Request.validate rejects them instead of a
    cast wrapping or truncating them."""
    values = np.asarray(values)
    if values.dtype == dtype:
        return values
    with np.errstate(invalid="ignore"):
        narrow = values.astype(dtype)
    return narrow if np.array_equal(narrow, values) else values


@dataclass
class Request:
    """One scoring request: a user, their recent actions, K candidates.

    user_nonseq holds ids for user-and-context fields in schema order;
    actions is (T, n_action_fields); candidates is (K, n_item_fields);
    labels, when present, is (K, n_tasks) in {0, 1}.

    Ids are held as int32 and labels as uint8, the widths of the dataset
    file's <u4 ids and <u1 labels, so a corpus in memory is no larger than
    on disk.  Input that does not fit those widths exactly (an id of 2**32
    + 3, a label of 0.5) is kept as given, and validate rejects it.
    """

    user_id: int
    user_nonseq: np.ndarray
    actions: np.ndarray
    candidates: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.user_nonseq = _narrow(self.user_nonseq, ID_DTYPE)
        self.actions = _narrow(self.actions, ID_DTYPE)
        self.candidates = _narrow(self.candidates, ID_DTYPE)
        if self.labels is not None:
            self.labels = _narrow(self.labels, LABEL_DTYPE)

    @property
    def seq_len(self) -> int:
        return self.actions.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.candidates.shape[0]

    def as_batch(self, candidates: slice = slice(None)) -> "RequestBatch":
        """This request, with the chosen candidates, as a batch of one.
        The arrays are views of the request's, not copies."""
        return RequestBatch(
            user_ids=np.array([self.user_id], dtype=np.int64),
            user_nonseq=self.user_nonseq[None],
            actions=self.actions[None],
            candidates=self.candidates[None, candidates],
            labels=None if self.labels is None else self.labels[None, candidates],
        )

    def validate(self, schema: FeatureSchema) -> None:
        if self.user_nonseq.shape != (len(schema.user_fields()),):
            raise DataError("user_nonseq length does not match schema")
        if self.actions.ndim != 2 or self.actions.shape[1] != len(schema.action_fields):
            raise DataError("actions must be (T, n_action_fields)")
        if self.actions.shape[0] > schema.max_seq_len:
            raise DataError(
                f"sequence length {self.actions.shape[0]} exceeds max {schema.max_seq_len}"
            )
        if (
            self.candidates.ndim != 2
            or self.candidates.shape[0] < 1
            or self.candidates.shape[1] != len(schema.item_fields())
        ):
            raise DataError("candidates must be (K >= 1, n_item_fields)")
        y = self.labels
        if y is not None and (
            y.ndim != 2 or len(y) != self.n_candidates or ((y != 0) & (y != 1)).any()
        ):
            raise DataError("labels must be (K, n_tasks), each 0 or 1")
        for ids, fields in (
            (self.user_nonseq.reshape(1, -1), schema.user_fields()),
            (self.candidates, schema.item_fields()),
            (self.actions, schema.action_fields),
        ):
            # an id past int32 fits no Request, whatever the vocabulary
            bad = (ids < 0) | (ids >= np.minimum([f.vocab_size for f in fields], _ID_END))
            if ids.dtype.kind == "f":  # kept by _narrow: an id of 1.5 is no id
                bad |= ids != np.trunc(ids)
            if bad.any():
                raise VocabError(f"field {fields[bad.any(axis=0).argmax()].name}: id out of range")


@dataclass
class Dataset:
    schema: FeatureSchema
    requests: list[Request]

    @property
    def n_impressions(self) -> int:
        return sum(r.n_candidates for r in self.requests)


@dataclass(frozen=True)
class HeadLayout:
    """How the non-sequential concat is padded and sliced into heads.

    sides holds (first head, end head, field width) per side, in concat
    order: ((0, n_user_heads, d_ns_user), (n_user_heads, n_heads,
    d_ns_item)) with user heads, ((0, n_heads, d_ns),) without.  Each side
    is tail-padded to its heads' share of slice_width columns, so no head
    slice straddles the user/item boundary.
    """

    slice_width: int
    sides: tuple[tuple[int, int, int], ...]


def head_layout(
    schema: FeatureSchema, n_heads: int, n_user_heads: int = 0
) -> HeadLayout:
    if n_heads < 1:
        raise ShapeError("n_heads must be >= 1")
    if not 0 <= n_user_heads < n_heads:
        raise ShapeError("n_user_heads must lie in [0, n_heads): at least one item head")
    sides = ((0, n_heads, schema.d_ns),)
    if n_user_heads:
        sides = ((0, n_user_heads, schema.d_ns_user), (n_user_heads, n_heads, schema.d_ns_item))
    width = max(math.ceil(w / (hi - lo)) for lo, hi, w in sides)
    return HeadLayout(max(width, 1), sides)


def split_heads(
    e_ns, projections, layout: HeadLayout, heads: tuple[int, int] | None = None
) -> ad.Tensor:
    """Pad, slice into head pieces, and project each into model width.

    projections is a stacked (n_heads, model_dim, slice_width) tensor;
    output is (..., n_heads, model_dim), on any leading batch dims.  With
    heads = (lo, hi), which must be whole sides of the layout, e_ns holds
    only those sides' fields and only rows [lo, hi) are projected: output
    is (..., hi - lo, model_dim).
    """
    e_ns = ad.as_tensor(e_ns)
    projections = ad.as_tensor(projections)
    n, _, width = projections.shape
    if n != layout.sides[-1][1] or width != layout.slice_width:
        raise ShapeError(
            f"projections {projections.shape} do not match layout "
            f"(n_heads={layout.sides[-1][1]}, slice_width={layout.slice_width})"
        )
    lo, hi = heads or (0, n)
    sides = [s for s in layout.sides if lo <= s[0] and s[1] <= hi]
    total = sum(w for _, _, w in sides)
    if sum(b - a for a, b, _ in sides) != hi - lo or e_ns.shape[-1] != total:
        raise ShapeError(
            f"concat width {e_ns.shape[-1]} does not fill head rows [{lo}, {hi}) "
            f"of the layout, which take {total}"
        )
    if (lo, hi) != (0, n):
        projections = projections[lo:hi]
    pads = [(b - a) * width - w for a, b, w in sides]
    if any(pads):
        parts: list[ad.Tensor] = []
        off = 0
        for (_, _, w), pad in zip(sides, pads):
            parts.append(e_ns if w == total else e_ns[..., off : off + w])
            if pad:
                parts.append(ad.Tensor(np.zeros(e_ns.shape[:-1] + (pad,))))
            off += w
        e_ns = ad.concat(parts, axis=-1)
    return ad.head_matmul(e_ns.reshape(e_ns.shape[:-1] + (hi - lo, width)), projections)


@dataclass
class RequestBatch:
    """Requests of equal sequence length and candidate count, stacked."""

    user_ids: np.ndarray
    user_nonseq: np.ndarray
    actions: np.ndarray
    candidates: np.ndarray
    labels: np.ndarray | None

    @property
    def n_requests(self) -> int:
        return self.user_nonseq.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.candidates.shape[1]

    @property
    def seq_len(self) -> int:
        return self.actions.shape[1]


def stack_requests(requests: Sequence[Request]) -> RequestBatch:
    if not requests:
        raise DataError("cannot stack an empty request list")
    t = requests[0].seq_len
    k = requests[0].n_candidates
    for r in requests:
        if r.seq_len != t or r.n_candidates != k:
            raise DataError("stacked requests must share seq_len and n_candidates")
    labels = None
    if all(r.labels is not None for r in requests):
        labels = np.stack([r.labels for r in requests])
    return RequestBatch(
        user_ids=np.array([r.user_id for r in requests], dtype=np.int64),
        user_nonseq=np.stack([r.user_nonseq for r in requests]),
        actions=np.stack([r.actions for r in requests]),
        candidates=np.stack([r.candidates for r in requests]),
        labels=labels,
    )


def embed_nonseq_batch(
    batch: RequestBatch,
    tables: dict[str, EmbeddingTable],
    schema: FeatureSchema,
    user: bool = True,
    item: bool = True,
) -> ad.Tensor:
    """(B, K, d_ns) non-sequential concat for a stacked batch.

    user=False leaves out the user and context fields.  item=False leaves
    out the item fields, looks up no item table, and gives one row per
    request: (B, 1, d_ns_user).
    """
    b = batch.n_requests
    k = batch.n_candidates if item else 1
    parts: list[ad.Tensor] = []
    if user and schema.user_fields():
        u = ad.concat([
            tables[f.name].lookup(batch.user_nonseq[:, j])
            for j, f in enumerate(schema.user_fields())
        ], axis=-1)
        parts.append(ad.broadcast_to(u.reshape((b, 1, u.shape[-1])), (b, k, u.shape[-1])))
    if item:
        parts += [
            tables[f.name].lookup(batch.candidates[:, :, j])
            for j, f in enumerate(schema.item_fields())
        ]
    if not parts:
        return ad.Tensor(np.zeros((b, k, 0)))
    return ad.concat(parts, axis=-1)


def embed_actions_batch(
    batch: RequestBatch, tables: dict[str, EmbeddingTable], schema: FeatureSchema
) -> ad.Tensor | None:
    if batch.seq_len == 0:
        return None
    parts = [
        tables[f"action:{f.name}"].lookup(batch.actions[:, :, j])
        for j, f in enumerate(schema.action_fields)
    ]
    return ad.concat(parts, axis=-1)


# ----------------------------------------------------------------------
# File formats.  The schema is a small line-oriented text file; the
# dataset is length-prefixed little-endian binary; oracle probabilities
# ride in a CSV sidecar at full float64 precision.
# ----------------------------------------------------------------------

_MAGIC = b"MXDS"
_VERSION = 1
# version, requests, then user, action, item and task columns, has labels
_HEADER = struct.Struct("<IIHHHHB")
# user id, candidates, sequence length
_RECORD = struct.Struct("<IHH")
RECORD_MAX = 0xFFFF  # K and t are u16 in a record


def read_file(
    path: str | os.PathLike, what: str, text: bool = False, error: type = DataError
) -> bytes | str:
    """The whole of an input file, as UTF-8 text when text is set.  A file
    that cannot be read, or text that is not UTF-8, raises error (DataError
    for data files, ConfigError for settings)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        return blob.decode() if text else blob
    except OSError as exc:
        raise error(f"cannot open {what} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} file is not UTF-8 text") from exc


def write_atomic(path: str | os.PathLike, content: bytes | Callable[[BinaryIO], None]) -> None:
    """Write a whole file: content is its bytes or a function that writes
    them to a binary handle.  The file is written and synced beside path,
    then renamed over it, so a write that fails midway leaves the previous
    file whole and no temporary file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_schema(path: str, schema: FeatureSchema) -> None:
    lines = [f"maxseqlen {schema.max_seq_len}"]
    for f in schema.nonseq_fields:
        lines.append(f"nonseq {f.name} {f.side} {f.vocab_size} {f.dim}")
    for f in schema.action_fields:
        lines.append(f"action {f.name} {f.vocab_size} {f.dim}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_schema(path: str) -> FeatureSchema:
    nonseq: list[FeatureField] = []
    actions: list[ActionField] = []
    max_seq_len = None
    for lineno, raw in enumerate(read_file(path, "schema", text=True).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "maxseqlen":
                max_seq_len = int(parts[1])
            elif parts[0] == "nonseq":
                nonseq.append(
                    FeatureField(parts[1], parts[2], int(parts[3]), int(parts[4]))
                )
            elif parts[0] == "action":
                actions.append(ActionField(parts[1], int(parts[2]), int(parts[3])))
            else:
                raise DataError(f"{path}:{lineno}: unknown record '{parts[0]}'")
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed schema line") from exc
    if max_seq_len is None:
        raise DataError(f"{path}: missing maxseqlen")
    return FeatureSchema(tuple(nonseq), tuple(actions), max_seq_len)


def _label_tasks(r: Request) -> int | None:
    return None if r.labels is None else r.labels.shape[1]


def write_dataset(path: str, dataset: Dataset) -> None:
    """Write the requests as a dataset file.

    Before any byte is written, every request is validated against the
    schema and must have the first request's label task count (None when
    unlabelled), since the file holds one count for all: an id the file
    cannot encode or past its field's vocabulary raises VocabError, other
    bad input DataError, and no file is left at path.
    """
    schema = dataset.schema
    n_user = len(schema.user_fields())
    n_item = len(schema.item_fields())
    n_act = len(schema.action_fields)
    tasks = _label_tasks(dataset.requests[0]) if dataset.requests else None
    for i, r in enumerate(dataset.requests):
        r.validate(schema)
        if _label_tasks(r) != tasks:
            raise DataError(
                f"{path}: request {i} has label tasks {_label_tasks(r)}, request 0 has {tasks}"
            )
    has_labels = all(r.labels is not None for r in dataset.requests)
    n_tasks = tasks or 0

    def write(fh: BinaryIO) -> None:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(
            _VERSION, len(dataset.requests), n_user, n_act, n_item, n_tasks, has_labels
        ))
        for r in dataset.requests:
            fh.write(_RECORD.pack(r.user_id, r.n_candidates, r.seq_len))
            fh.write(r.user_nonseq.astype("<u4").tobytes())
            fh.write(r.actions.astype("<u4").tobytes())
            fh.write(r.candidates.astype("<u4").tobytes())
            if has_labels:
                fh.write(r.labels.astype("<u1").tobytes())

    try:
        write_atomic(path, write)
    except struct.error as exc:
        raise DataError(f"{path}: the dataset format cannot encode this corpus ({exc})") from exc


def read_dataset(path: str, schema: FeatureSchema) -> Dataset:
    """The requests of a dataset file, each validated against schema.

    Ids are narrowed from the file's <u4 to a Request's int32 and labels
    kept at the file's <u1, the widths Request holds, in arrays of their
    own rather than views of the file's bytes.  A stored id that int32
    cannot hold, or one past its field's vocabulary, raises VocabError; a
    label byte other than 0 or 1 raises DataError.
    """
    blob = read_file(path, "dataset")
    if blob[:4] != _MAGIC:
        raise DataError(f"{path}: not a dataset file")
    header_end = 4 + _HEADER.size
    try:
        version, n_requests, n_user, n_act, n_item, n_tasks, has_labels = _HEADER.unpack(
            blob[4:header_end]
        )
    except struct.error as exc:
        raise DataError(f"{path}: truncated header") from exc
    if version != _VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if (
        n_user != len(schema.user_fields())
        or n_act != len(schema.action_fields)
        or n_item != len(schema.item_fields())
    ):
        raise DataError(f"{path}: field counts do not match schema")
    off = header_end
    requests: list[Request] = []
    for _ in range(n_requests):
        try:
            user_id, k, t = _RECORD.unpack_from(blob, off)
        except struct.error as exc:
            raise DataError(f"{path}: truncated record") from exc
        off += _RECORD.size
        need = 4 * (n_user + t * n_act + k * n_item) + (k * n_tasks if has_labels else 0)
        if off + need > len(blob):
            raise DataError(f"{path}: truncated record body")
        user_ns = np.frombuffer(blob, dtype="<u4", count=n_user, offset=off)
        off += 4 * n_user
        acts = np.frombuffer(blob, dtype="<u4", count=t * n_act, offset=off)
        off += 4 * t * n_act
        cands = np.frombuffer(blob, dtype="<u4", count=k * n_item, offset=off)
        off += 4 * k * n_item
        labels = None
        if has_labels:
            labels = np.frombuffer(blob, dtype="<u1", count=k * n_tasks, offset=off)
            labels = labels.reshape(k, n_tasks).copy()  # keeps no request on the file's bytes
            off += k * n_tasks
        req = Request(
            user_id=int(user_id),
            user_nonseq=user_ns,
            actions=acts.reshape(t, n_act),
            candidates=cands.reshape(k, n_item),
            labels=labels,
        )
        req.validate(schema)
        requests.append(req)
    if off != len(blob):
        raise DataError(f"{path}: trailing bytes after last record")
    return Dataset(schema=schema, requests=requests)


def write_oracle(path: str, probs: Sequence[np.ndarray]) -> None:
    """CSV of true click probabilities: request, candidate, then one
    column per task, printed at full precision."""
    n_tasks = probs[0].shape[1] if len(probs) else 0
    row = "%d," + ",".join(["%.17g"] * n_tasks) + "\n"  # one % per row

    def write(fh: BinaryIO) -> None:
        fh.write(("request,candidate," + ",".join(f"p{t}" for t in range(n_tasks)) + "\n").encode())
        for i, mat in enumerate(probs):
            fmt = f"{i},{row}"
            cols = zip(range(len(mat)), *mat.T.tolist())
            fh.write("".join([fmt % r for r in cols]).encode())

    write_atomic(path, write)


def read_oracle(path: str) -> list[np.ndarray]:
    rows: dict[int, dict[int, list[float]]] = {}
    header, *lines = read_file(path, "oracle", text=True).splitlines() or [""]
    if not header.startswith("request,candidate"):
        raise DataError(f"{path}: not an oracle file")
    n_cols = len(header.split(","))
    for lineno, raw in enumerate(lines, 2):
        parts = raw.strip().split(",")
        if len(parts) != n_cols:
            raise DataError(f"{path}:{lineno}: {len(parts)} columns, header has {n_cols}")
        try:
            i, k = int(parts[0]), int(parts[1])
            probs = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed oracle row") from exc
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise DataError(f"{path}:{lineno}: probability outside [0, 1]")
        rows.setdefault(i, {})[k] = probs
    out: list[np.ndarray] = []
    for i in range(len(rows)):
        if i not in rows:
            raise DataError(f"{path}: missing request {i}")
        ks = rows[i]
        if any(k not in ks for k in range(len(ks))):
            raise DataError(f"{path}: request {i} has a gap in its candidate indices")
        out.append(np.array([ks[k] for k in range(len(ks))], dtype=np.float64))
    return out
