"""File persistence for catalog, inventory, audit log, and plan documents.

One directory holds one deployment: audit.log (append-only JSON lines),
blobs/ (one file per onboarded template, named by its SHA-256, which alone
holds the VF's components), inventory.yaml (hosts, tenants and links; an
older build's also holds allocations, and a tenant's use, the sum of its
allocations, is not stored), and catalog.json (design-time entities,
where a VF is the digest of its template, and no lifecycle records) where
save_catalog or an older build wrote one. catalog.json is the genesis: it
is read, in any of formats 1 to 4, and never rewritten by a command. The
audit file is the write-ahead record of the lifecycle engine and the one
store of what it makes: the lifecycle records, the allocations, and the
functions, services, slices and registered entities that ok events carry.
replay_states, defined in lifecycle and re-exported here, folds it into
them with apply_event, onto the genesis, as the engine does on open and
with each event it logs, and raises LogDiverged for an ok event that the
lifecycle table or the inventory refuses or whose entity differs from the
genesis's. checkpoint.json, where a command wrote one, is derived state:
the fold of the other three files through the log line whose event is
the last folded, read only while the SHA-256 tags it holds match them, so
deleting it changes nothing; its records are [kind, state, history] rows,
each state decoded through lifecycle.STATES. Snapshots are written
atomically (temp file, fsync, rename), so an interrupted save never
corrupts the previous file. A blob is written once, before the event or
catalog that names it, and never rewritten; reading one checks that its
SHA-256 is its name.

Every file decodes through one codec, encode/decode, driven by the
dataclasses' type hints: catalog, inventory entities, audit events, plan
documents and the sections of a slice descriptor; InventoryDocument and
PlanDocument declare the shape of the two YAML files. The codec is the one
shape check: it refuses keys that name no field, a mapping or list that is
something else, and a scalar whose type is not its hint's (text, true or
false, a whole number, a number; a boolean is never a number), naming each
field, key and index on the way down, and it names them on an enum or
constructor's refusal too. The YAML this module and the CLI read, from a
file or a bundled fixture, parses through _parse_yaml. A field an older
build stored and this one derives instead or no longer needs is dropped
unread, in any version, through one table, _RETIRED. It calls the
constructors, so every invariant check runs on load. _decode_file reports
a file that does not decode as IoFailure naming the file as corrupt; text
that is not UTF-8 is too. PyYAML loads with the first YAML file parsed or
written, so a command that opens its lab from the checkpoint loads none;
the plan documents' types live in model, so this module loads no solver.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import mmap
import operator
import os
import types
import typing
from collections.abc import Callable, Iterable, Mapping, MutableMapping
from enum import Enum
from pathlib import Path
from typing import Any, TypeVar

from .errors import IoFailure, SchemaMismatch, SequenceGap, SliceError
from .infra import Allocation, Host, Infrastructure, PhysicalLink, Tenant
from .lifecycle import (
    STATES,
    ArtifactKind,
    AuditEvent,
    Catalog,
    LifecycleRecord,
    replay_states,
)
from .model import Assignment, PlacementPlan, Sla, SliceTemplate, VendorSoftwareProduct

CATALOG_FILE = "catalog.json"
CATALOG_VERSION = 4
INVENTORY_FILE = "inventory.yaml"
AUDIT_FILE = "audit.log"

T = TypeVar("T")


# -- low-level file plumbing ------------------------------------------------


def _write_file(path: Path, data: bytes) -> None:
    """Replace path with data through a synced temp file; the new entry is
    durable once its directory is synced too."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # Mode 0o666 less the umask, as open() gives audit.log; mkstemp's 0o600
    # would survive the rename.
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _sync_dir(directory: Path) -> None:
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _atomic_write(path: Path, text: str) -> None:
    """Write text so readers see either the old file or the new, never less."""
    path = Path(path)
    try:
        _write_file(path, text.encode("utf-8"))
        # The renamed entry is durable only once its directory is synced.
        _sync_dir(path.parent)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# A read error gives its reason alone where it has one: an OSError's own
# message names the path a second time.


def _read_bytes(path: Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_text(path: Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: not UTF-8 text: {exc}") from exc


def _load_yaml(path: Path) -> object:
    return _parse_yaml(_read_text(path), path)


def _parse_yaml(text: str, source: str | Path) -> object:
    """The document in text, read from source; IoFailure names source and
    where the text stops being YAML."""
    import yaml  # on first use: see the module docstring

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        where = ""
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            where = f" at line {mark.line + 1} column {mark.column + 1}"
        raise IoFailure(f"{source}: invalid YAML{where}: {exc}") from exc


def _dump_yaml(entity: Any) -> str:
    """entity's plain-data form as a YAML document, fields in their order."""
    import yaml

    return yaml.safe_dump(encode(entity), sort_keys=False)


# -- generic codec ------------------------------------------------------------
#
# Every persisted entity is a dataclass, and its type hints say how each field
# maps to plain JSON/YAML data: an enum to its value, a frozenset to a sorted
# list, a tuple or list to a list, a mapping to a dict, a nested dataclass to
# a dict of its init fields. A converter is built once per type; None stands
# for "store the value as it is" (str, int, float, bool). On the way in, such
# a scalar must have the type its hint names, wherever it sits.

_Convert = Callable[[Any], Any] | None

# The raw types each scalar hint accepts, and their name in an error; an
# optional scalar needs its own entry. Types are compared exactly, so a bool
# is neither a number nor a whole number.
_SCALARS: dict[Any, tuple[tuple[type, ...], str]] = {
    str: ((str,), "text"),
    str | None: ((str, type(None)), "text or null"),
    bool: ((bool,), "true or false"),
    int: ((int,), "a whole number"),
    float: ((int, float), "a number"),
}


# What a constructor or a converter raises for a value it refuses.
_REFUSALS = (TypeError, ValueError, SliceError)

# Keys that older builds wrote and this one does not keep, dropped unread
# wherever they appear: a copy of what the log or other fields say (a VSP's
# VFs, a tenant's use, an event's role, its slice's id), an id this build
# no longer needs (an allocation's and its counter), or what nothing set.
_RETIRED: dict[type, frozenset[str]] = {
    VendorSoftwareProduct: frozenset({"owned_resources"}),
    Tenant: frozenset({"used"}),
    Allocation: frozenset({"id"}),
    AuditEvent: frozenset({"actor_id"}),
    SliceTemplate: frozenset({"slice_id", "template_refs"}),
    Sla: frozenset({"slice_id", "penalties"}),
}


def relabel(exc: Exception, label: str) -> Exception:
    """exc's class again, its message after label: "label: message", or
    "label[key]: ..." when the message starts at an item."""
    message = str(exc)
    return type(exc)(f"{label}{'' if message.startswith('[') else ': '}{message}")


def _item_type(tp: Any) -> Any:
    """Element type of a homogeneous list, frozenset or tuple hint."""
    kinds = {arg for arg in typing.get_args(tp) if arg is not Ellipsis}
    if len(kinds) != 1:
        raise TypeError(f"no codec for {tp!r}: elements of mixed types")
    return kinds.pop()


@functools.cache
def _encoder(tp: Any) -> _Convert:
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = [
            (f.name, _encoder(hints[f.name]))
            for f in dataclasses.fields(tp)
            if f.init
        ]
        # A field whose default is None is left out while it is None, so a
        # field added that way keeps the bytes of what was written before.
        optional = {n for n, _ in fields if tp.__dataclass_fields__[n].default is None}

        def encode_fields(obj):
            raw = {}
            for name, enc in fields:
                value = getattr(obj, name)
                if value is not None:
                    raw[name] = value if enc is None else enc(value)
                elif name not in optional:
                    raw[name] = None
            return raw

        return encode_fields
    if isinstance(tp, type) and issubclass(tp, Enum):
        return lambda member: member.value
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        members = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        if len(members) == 1:  # X | None: a value that is not None is an X
            enc = _encoder(members[0])
            if enc is None:
                return None
            return lambda value: None if value is None else enc(value)

        # Of several members, the value's own type picks: VfState, SliceState, ...
        def encode_member(value):
            enc = _encoder(type(value))
            return value if enc is None else enc(value)

        return encode_member
    if origin in (dict, Mapping):
        enc = _encoder(typing.get_args(tp)[1])
        if enc is None:
            return dict
        return lambda mapping: {key: enc(value) for key, value in mapping.items()}
    if origin in (tuple, list, frozenset):
        enc = _encoder(_item_type(tp))
        arrange = sorted if origin is frozenset else list
        return arrange if enc is None else lambda items: arrange(map(enc, items))
    return None


@functools.cache
def _decoder(tp: Any) -> _Convert:
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = {
            f.name: (_SCALARS.get(hints[f.name]), _decoder(hints[f.name]))
            for f in dataclasses.fields(tp)
            if f.init
        }
        retired = _RETIRED.get(tp, frozenset())

        def decode_fields(raw):
            # Keys absent from the file take the field default; a key that
            # names no field is refused, since a misspelt one would
            # otherwise load as that default. Scalars are checked here, not
            # through a call each, because a catalog holds many thousands.
            # The constructor runs every __post_init__ check.
            if not isinstance(raw, dict):
                raise TypeError(f"expected a mapping, got {type(raw).__name__}")
            kwargs = {}
            for name, value in raw.items():
                if name not in fields:
                    if name in retired:
                        continue
                    raise ValueError(f"{tp.__name__} has no field {name!r}")
                scalar, dec = fields[name]
                if scalar is not None:
                    if type(value) not in scalar[0]:
                        raise TypeError(
                            f"{tp.__name__} field {name} must be {scalar[1]},"
                            f" got {value!r}"
                        )
                elif dec is not None:
                    try:
                        value = dec(value)
                    except _REFUSALS as exc:
                        raise relabel(exc, f"{tp.__name__} field {name}") from exc
                kwargs[name] = value
            return tp(**kwargs)

        return decode_fields
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        members = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        if len(members) > 1:
            raise TypeError(f"no codec for {tp!r}: a union of several types")
        dec = _decoder(members[0])
        if dec is None:
            return None
        return lambda raw: None if raw is None else dec(raw)
    if origin in (dict, Mapping, tuple, list, frozenset):
        mapping = origin in (dict, Mapping)
        item_tp = typing.get_args(tp)[1] if mapping else _item_type(tp)
        scalar, dec = _SCALARS.get(item_tp), _decoder(item_tp)

        def decode_item(raw):
            if scalar is not None and type(raw) not in scalar[0]:
                raise TypeError(f"must be {scalar[1]}, got {raw!r}")
            return raw if dec is None else dec(raw)

        def decode_items(raw):
            # A string would iterate, and decode as its characters. A
            # mapping's values decode as a list would; its keys stay.
            if not isinstance(raw, dict if mapping else list):
                wanted = "a mapping" if mapping else "a list"
                raise TypeError(f"expected {wanted}, got {type(raw).__name__}")
            items = list(raw.values()) if mapping else raw
            try:
                if scalar is not None:
                    for item in items:
                        if type(item) not in scalar[0]:
                            raise TypeError  # named below
                values = items if dec is None else list(map(dec, items))
            except _REFUSALS as exc:
                # Only a failed decode walks the items again, so a good file
                # pays nothing to have the failing one named by key or index.
                for key, item in raw.items() if mapping else enumerate(raw):
                    try:
                        decode_item(item)
                    except _REFUSALS as inner:
                        raise relabel(inner, f"[{key!r}]") from exc
                raise
            return dict(zip(raw, values)) if mapping else origin(values)

        return decode_items
    return None


def encode(entity: Any) -> dict:
    """Plain-data form of a dataclass instance, as stored on disk."""
    return _encoder(type(entity))(entity)


def decode(cls: type[T], raw: Any) -> T:
    """Rebuild a cls instance from its plain-data form."""
    return _decoder(cls)(raw)


def _decode_file(cls: type[T], raw: Any, where: str) -> T:
    """decode, reporting a refusal as IoFailure after where."""
    try:
        return decode(cls, raw)
    except (KeyError, TypeError, ValueError, SliceError) as exc:
        raise IoFailure(f"{where}: {exc}") from exc


# -- catalog ------------------------------------------------------------------

BLOBS_DIR = "blobs"


def _check_blob(where: Path, digest: str, data: bytes) -> None:
    if hashlib.sha256(data).hexdigest() != digest:
        raise IoFailure(
            f"{where}: template blob {digest[:12]} does not match its content hash"
        )


def _read_blob(directory: Path, digest: str) -> str:
    """The template text in directory/digest, refused unless the file's
    SHA-256 is its name."""
    path = directory / digest
    data = _read_bytes(path)
    _check_blob(path, digest, data)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: template blob is not UTF-8 text: {exc}") from exc


def _write_blobs(directory: Path, texts: Mapping[str, str]) -> None:
    """Write each text not yet in directory to directory/<its digest>
    through its own synced temp file, then sync directory once, and its
    parent too when directory is new, so each is durable before anything
    that names it. A blob file already there is neither read nor
    rewritten."""
    try:
        created = not directory.is_dir()
        new = [d for d in texts if created or not (directory / d).exists()]
        for digest in new:
            _write_file(directory / digest, texts[digest].encode("utf-8"))
        if new:
            _sync_dir(directory)
            if created:
                _sync_dir(directory.parent)
    except OSError as exc:
        raise IoFailure(f"cannot write {directory}: {exc}") from exc


class TemplateBlobs(MutableMapping[str, str]):
    """A lab's template texts by SHA-256, one file each in directory. A
    text is read from its file at each access, so the check runs on every
    read and no text stays in memory; setting one writes and syncs its file
    at once, before the event that names it is logged."""

    def __init__(self, directory: Path, stored: Iterable[str]):
        self.directory = directory
        self._stored = set(stored)

    def __getitem__(self, digest: str) -> str:
        if digest in self._stored:
            return _read_blob(self.directory, digest)
        raise KeyError(digest)

    def __contains__(self, digest: object) -> bool:
        return digest in self._stored

    def __setitem__(self, digest: str, text: str) -> None:
        _write_blobs(self.directory, {digest: text})
        self._stored.add(digest)

    def __delitem__(self, digest: str) -> None:
        self._stored.remove(digest)

    def __iter__(self):
        return iter(self._stored)

    def __len__(self) -> int:
        return len(self._stored)


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write the template blobs not yet on disk, then the catalog, with
    its format's version, as one line of compact JSON with sorted keys.

    The blobs go to blobs/ beside the catalog before catalog.json is
    replaced, so a crash leaves at worst a blob no catalog refers to; a
    blob file already there is not read. `indent` would force json's
    pure-Python encoder, which took about twice as long as the C one on a
    1,000-VF catalog."""
    path = Path(path)
    _write_blobs(path.parent / BLOBS_DIR, catalog.template_blobs)
    raw = {"version": CATALOG_VERSION, **encode(catalog)}
    payload = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    _atomic_write(path, payload + "\n")


def load_catalog(path: str | Path) -> Catalog:
    """The catalog in path; its template_blobs read blobs/ beside it, and
    its records are empty until an engine folds the audit log into them,
    and the file's version, checked here, is not kept.

    Versions 1 to 3 also held the lifecycle records, a copy of the fold of
    the audit log, and versions 1 and 2 each VF's compute resources as its
    `components`, a copy of what its template says; both keys are dropped
    unread and the rest decodes as version 4. A version-1 file also holds
    its blobs inline: each is checked against its digest here and served
    from memory, and save_catalog would write them to blobs/."""
    path = Path(path)
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoFailure(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}:"
            f" {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise IoFailure(f"{path}: catalog root must be an object")
    version = raw.pop("version", None)
    # true == 1 and 2.0 == 2 in Python, so the type is checked first.
    if type(version) is not int or not 1 <= version <= CATALOG_VERSION:
        raise SchemaMismatch(
            f"{path}: catalog version {version!r}, this build reads"
            f" versions 1 to {CATALOG_VERSION}"
        )
    inline = None
    if version == 1:
        try:
            inline = decode(dict[str, str], raw.pop("template_blobs", {}))
        except _REFUSALS as exc:
            field = relabel(exc, "Catalog field template_blobs")
            raise IoFailure(f"{path}: corrupt catalog: {field}") from exc
        for digest, blob in inline.items():
            _check_blob(path, digest, blob.encode("utf-8"))
    if version != CATALOG_VERSION:
        raw.pop("records", None)
        functions = raw.get("functions") if version < 3 else None
        for function in functions.values() if isinstance(functions, dict) else ():
            if isinstance(function, dict):
                function.pop("components", None)
    catalog = _decode_file(Catalog, raw, f"{path}: corrupt catalog")
    if inline is not None:
        catalog.template_blobs = inline
    else:
        refs = {f.template_ref for f in catalog.functions.values()} - {None}
        catalog.template_blobs = TemplateBlobs(path.parent / BLOBS_DIR, refs)
    return catalog


# -- inventory ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class InventoryDocument:
    """inventory.yaml: each entity kind as a list sorted by id. Only an
    older build wrote allocations there; a checkpoint's copy holds them."""

    hosts: tuple[Host, ...] = ()
    tenants: tuple[Tenant, ...] = ()
    links: tuple[PhysicalLink, ...] = ()
    allocations: tuple[Allocation, ...] | None = None


_RETIRED[InventoryDocument] = frozenset({"next_allocation_id"})


def _inventory_document(infra: Infrastructure) -> InventoryDocument:
    """infra's hosts, tenants and links, each sorted by id."""
    entities = {
        kind: sorted(getattr(infra, kind).values(), key=operator.attrgetter("id"))
        for kind in ("hosts", "tenants", "links")
    }
    return InventoryDocument(**entities)


def save_inventory(infra: Infrastructure, path: str | Path) -> None:
    """Write infra's hosts, tenants and links, never its allocations."""
    doc = _inventory_document(infra)
    _atomic_write(Path(path), _dump_yaml(doc))


def load_inventory(path: str | Path) -> Infrastructure:
    """The infrastructure in path; Infrastructure.hold takes each
    allocation an older build stored, so use is the sum of allocations."""
    where = f"{path}: corrupt inventory"
    doc = _decode_file(InventoryDocument, _load_yaml(Path(path)), where)
    return _infrastructure(doc, where)


def _infrastructure(doc: InventoryDocument, where: str) -> Infrastructure:
    infra = Infrastructure()
    try:
        for host in doc.hosts:
            infra.add_host(host)
        for tenant in doc.tenants:
            infra.add_tenant(tenant)
        for link in doc.links:
            infra.add_link(link)
        for allocation in doc.allocations or ():
            infra.hold(allocation)
    except (ValueError, SliceError) as exc:
        raise IoFailure(f"{where}: {exc}") from exc
    return infra


# -- audit log ----------------------------------------------------------------


class FileAuditLog:
    """Append-only JSON-lines sink enforcing the sequence discipline.

    The lifecycle engine calls append before it commits any state change,
    so the append is the commit.
    An event is a line that ends in a newline. An append that fails cuts
    the file back to where it started, so a failed append commits nothing.
    A final fragment is an append that never returned, or one whose cut
    failed too: the first append, or the next after a failed one, truncates
    it.
    """

    def __init__(self, path: str | Path, *, expected_next: int | None = None):
        self.path = Path(path)
        if expected_next is None:
            events = load_audit(self.path) if self.path.exists() else []
            expected_next = events[-1].sequence_no + 1 if events else 1
        self._next = expected_next
        self._tail_checked = False

    def append(self, event: AuditEvent) -> None:
        if event.sequence_no != self._next:
            raise SequenceGap(
                f"expected sequence {self._next}, got {event.sequence_no}"
            )
        line = json.dumps(encode(event)).encode("utf-8") + b"\n"
        start = None
        try:
            with open(self.path, "a+b") as handle:
                if not self._tail_checked:
                    _drop_fragment(handle)
                    self._tail_checked = True
                start = handle.seek(0, os.SEEK_END)
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            # The handle is closed, so no buffered byte can land after the cut.
            self._tail_checked = False
            if start is not None:
                with contextlib.suppress(OSError):
                    os.truncate(self.path, start)
            raise IoFailure(f"cannot append to {self.path}: {exc}") from exc
        self._next += 1


def _events_end(handle) -> tuple[int, int]:
    """The size of handle's file and the offset just after its last
    newline; rfind reads the mapped file from its end, so a log that ends
    in one costs a page."""
    size = handle.seek(0, os.SEEK_END)
    if not size:
        return 0, 0
    with mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ) as data:
        return size, data.rfind(b"\n") + 1


def _drop_fragment(handle) -> None:
    """Truncate handle's file to just after its last newline."""
    size, keep = _events_end(handle)
    if keep != size:
        handle.truncate(keep)


def fragment_bytes(path: str | Path) -> int:
    """The size of the final fragment of the audit log in path, the bytes
    after its last newline, which the next append drops; 0 for a log that
    ends in a newline or is absent."""
    try:
        with open(path, "rb") as handle:
            size, keep = _events_end(handle)
    except FileNotFoundError:
        return 0
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc.strerror or exc}") from exc
    return size - keep


def load_audit(path: str | Path) -> list[AuditEvent]:
    """Load and validate the audit log: contiguous sequence from 1. A
    final fragment without a newline is not an event and is left out,
    whatever its bytes; each line is decoded as UTF-8 on its own."""
    return _decode_log(path, _read_bytes(path))


def _decode_log(
    path: str | Path, data: bytes, offset: int = 0, first: int = 1
) -> list[AuditEvent]:
    """The events of log data from byte offset on, which is 0 or just after
    a newline, numbered from first; errors name the lines as load_audit
    names them."""
    events: list[AuditEvent] = []
    start = data.count(b"\n", 0, offset) + 1
    for lineno, line in enumerate(data[offset:].split(b"\n")[:-1], start=start):
        if not line.strip():
            continue
        where = f"{path}:{lineno}: corrupt audit record"
        try:
            raw = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise IoFailure(f"{where}: {exc}") from exc
        events.append(_decode_file(AuditEvent, raw, where))
    for position, event in enumerate(events, start=first):
        if event.sequence_no != position:
            raise SequenceGap(
                f"{path}: expected sequence {position}, found"
                f" {event.sequence_no}"
            )
    return events


# -- checkpoint ---------------------------------------------------------------
#
# checkpoint.json is derived state, never the commit: the fold of a lab's
# genesis, inventory and audit log through a byte offset of the log that
# ends a line, tagged with its format and the SHA-256 of each of the three
# files as that fold read them. The line that ends there holds the last
# event folded, so the log alone says where the fold ends. It is used only
# while every tag matches, so a file that is missing, torn, stale or
# garbage reads as no checkpoint, and deleting it changes nothing. A writer
# rewrites it once the log after it holds at least as many bytes as it does.

CHECKPOINT_FILE = "checkpoint.json"


def _digest(path: Path) -> str:
    return hashlib.sha256(_read_bytes(path)).hexdigest() if path.exists() else "none"


def _tags(root: Path, log: memoryview) -> dict:
    """What a checkpoint of root's files through the log bytes log is
    tagged with."""
    return {
        # Format 1, untagged, kept the allocations beside the inventory, and
        # format 2 a copy of the last event's number and instant in the fold.
        "format": 3,
        "log_bytes": len(log),
        "log_sha256": hashlib.sha256(log).hexdigest(),
        "catalog_sha256": _digest(root / CATALOG_FILE),
        "inventory_sha256": _digest(root / INVENTORY_FILE),
    }


def checkpoint_fold(catalog: Catalog, infra: Infrastructure | None) -> dict:
    """The plain-data form of a fold, as a checkpoint holds it: catalog's
    entities and records, and infra's topology with its allocations."""
    inventory = None
    if infra is not None:
        held = sorted(infra.allocations.values(), key=operator.attrgetter("service"))
        doc = dataclasses.replace(_inventory_document(infra), allocations=tuple(held))
        inventory = encode(doc)
    return {
        "catalog": encode(catalog),
        # Rows, not encode(record): through the codec this took 2.3 ms, not
        # 1.2, on bench/wl_cli.seed_catalog's lab; load_checkpoint says more.
        "records": {
            subject: [r.kind.value, r.state.value, r.history]
            for subject, r in catalog.records.items()
        },
        "inventory": inventory,
    }


def save_checkpoint(root: Path, fold: dict) -> None:
    """Write fold, the fold of root's files as they are now, as root's
    checkpoint: it covers the audit log through its last newline, so never
    a final fragment."""
    log = _read_bytes(root / AUDIT_FILE)
    covered = memoryview(log)[: log.rfind(b"\n") + 1]
    payload = {"tags": _tags(root, covered), "fold": fold}
    _atomic_write(root / CHECKPOINT_FILE, json.dumps(payload, separators=(",", ":")))


def read_checkpoint(root: Path) -> tuple[dict, AuditEvent, bytes, int, int] | None:
    """root's checkpoint as plain data, the last event it covers, read from
    the log, the log's bytes with the offset in them that it covers, and its
    size in bytes. None where the file is absent or does not parse, where a
    tag does not match root's files, or where the offset does not end a
    line that holds an event."""
    try:
        data = _read_bytes(root / CHECKPOINT_FILE)
        raw = json.loads(data)
        fold, tags = raw["fold"], raw["tags"]
        offset = tags["log_bytes"]
        audit = root / AUDIT_FILE
        log = _read_bytes(audit) if audit.exists() else b""
        if type(offset) is not int or _tags(root, memoryview(log)[:offset]) != tags:
            return None
        if not log.endswith(b"\n", 0, offset):
            return None
        # The covered log's last line, found and copied alone; a blank one
        # holds no event, so it reads as none.
        line = log[log.rfind(b"\n", 0, offset - 1) + 1 : offset]
        last = decode(AuditEvent, json.loads(line.decode("utf-8")))
    except (SliceError, ValueError, LookupError, TypeError):
        return None
    return fold, last, log, offset, len(data)


def load_checkpoint(
    root: Path,
) -> tuple[Catalog, Infrastructure | None, list[AuditEvent], AuditEvent, bool] | None:
    """root's lab opened from its checkpoint: the fold it holds, the events
    of the audit log after it, the last event it covers, and whether the log
    after it holds at least its size in bytes, so a writer is due to rewrite
    it. None where read_checkpoint finds none, or where the fold does not
    decode. The events after it decode and are checked as load_audit's are,
    numbered from the one after the last it covers, and raise as they would."""
    found = read_checkpoint(root)
    if found is None:
        return None
    fold, last, log, offset, size = found
    try:
        catalog = decode(Catalog, fold["catalog"])
        # Rows, not the codec's record mappings: with those this took about
        # 1.1 ms (15 %) longer on bench/wl_cli.seed_catalog's 1,000-VF lab, a
        # median minimum of 8.6 ms against 7.5 (6 alternating in-process runs
        # on a shared 2-core machine), so records stay hand-encoded rows.
        for subject, (kind, state, history) in fold["records"].items():
            kind = ArtifactKind(kind)
            history = decode(list[int], history)
            record = LifecycleRecord(subject, kind, STATES[kind](state), history)
            catalog.records[subject] = record
        infra = None
        if fold["inventory"] is not None:
            doc = decode(InventoryDocument, fold["inventory"])
            infra = _infrastructure(doc, f"{root / CHECKPOINT_FILE}: corrupt checkpoint")
    except (AttributeError, LookupError, TypeError, ValueError, SliceError):
        return None
    events = _decode_log(root / AUDIT_FILE, log, offset, last.sequence_no + 1)
    return catalog, infra, events, last, len(log) - offset >= size


# -- plan documents -----------------------------------------------------------


@dataclasses.dataclass(frozen=True, kw_only=True)
class PlanDocument:
    """A plan file as operators write it: the tenant of each service."""

    slice: str
    e2e_latency: float = 0.0
    assignments: tuple[Assignment, ...]

    def __post_init__(self):
        if not self.slice:
            raise ValueError("plan document needs a 'slice' id")


def save_plan(plan: PlacementPlan, path: str | Path) -> None:
    doc = PlanDocument(
        slice=plan.slice_id, e2e_latency=plan.e2e_latency, assignments=plan.assignments
    )
    _atomic_write(Path(path), _dump_yaml(doc))


def load_plan(path: str | Path) -> PlacementPlan:
    doc = _decode_file(PlanDocument, _load_yaml(Path(path)), f"{path}: corrupt plan")
    # One service on two tenants, and the like, loads for verify_plan to report.
    return PlacementPlan(doc.slice, doc.assignments, float(doc.e2e_latency), True)
