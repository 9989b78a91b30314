"""Freezing a linked class set into a deterministic binary image.

The image is little-endian, magic "JRMZ", with classes sorted by name and
every cross-class reference expressed as an index into the image's own
class table.  Loading an image reconstructs ready-to-run class structures
without touching any .class file.  The module also produces the per-stage
footprint reports.
"""

import bisect
import json
import struct
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from types import SimpleNamespace

from . import constpool as cp
from . import lifecycle as lc
from . import linker as lk
from .errors import (BadImageMagic, Corrupt, IncompleteClosure, NamesDropped,
                     NotLinked, StageNotReached, VersionMismatch)
from .schema import (U8, U16, U32, U64, Array, Blob, Expect, Field, Option,
                     Record, Schema, Union)

IMAGE_MAGIC = b"JRMZ"
IMAGE_VERSION = 5

FLAG_INTROSPECTION = 1
FLAG_PRIVATE_OPT = 2
FLAG_CLOSED_WORLD = 4

_A_KIND_CODE = {cp.A_UTF8: 0, cp.A_STRING: 1, cp.A_CLASS: 2,
                cp.A_FIELD: 3, cp.A_METHOD: 4}
# a linked pool's cells are immediates: no linked instruction names a
# cell that holds atable indexes, so the pack keeps none
_V_KIND_CODE = {cp.V_INT: 0, cp.V_FLOAT: 1, cp.V_LONG_HI: 2, cp.V_LONG_LO: 3,
                cp.V_DBL_HI: 4, cp.V_DBL_LO: 5}

# sizing model shared by reports: text entries cost their bytes plus a
# 2-byte length, handles and 32-bit cells cost 4 bytes each; class bytes
# add bytecode, 8 bytes per exception entry, retained stack maps and an
# 8-byte record per member
SIZING_MODEL = (
    "pool bytes: utf8/string = 2 + byte length; handle = 4; vtable cell = 4",
    "class bytes: pool + bytecode + 8*exception entries + stack maps"
    " + 8 per field/method record",
)


@dataclass
class StageStats:
    entries: int
    pool_bytes: int
    class_bytes: int


def snapshot_stats(cls, stage):
    """Entries, modeled pool bytes and modeled class bytes at a stage: the
    class file's and the loaded class's as recorded at load, the linked
    class's from its packed pool and linked code."""
    if stage == lc.LINKED:
        if cls.state != lc.LINKED:
            raise StageNotReached("%s is %s" % (cls.name, cls.state))
        return StageStats(*lc.footprint(cls, stage))
    recorded = {lc.UNLOADED: cls.raw_stats,
                lc.LOADED: cls.loaded_stats}.get(stage)
    if recorded is None:
        raise StageNotReached("%s has no %r stage stats" % (cls.name, stage))
    return StageStats(*recorded)


# --- the image schema: a header, the string section, the closed packages
# and one record per class, in name order.  A walk's cursor holds its
# place, and the string section and class table that its string ids and
# class indexes name.

_IMAGE = Schema("<", lambda what, at: Corrupt("truncated " + what, at),
                "strings, class_count = cur.strings, cur.class_count",
                "string_ids, class_index, missing = cur.string_ids,"
                " cur.class_index, cur.missing")

# a string id is a u16 while the string section holds at most this many
# strings, and a u32 beyond; the width follows from the string count alone
U16_ID_STRINGS = 1 << 16


def _id_format(string_count):
    return "H" if string_count <= U16_ID_STRINGS else "I"


class StringId(Field):
    """A string, as its index in the string section."""
    check = ("try:", "    {v} = strings[{v}]", "except IndexError:",
             "    raise Corrupt('bad %s string id %d' % ({f}.what, {v}),"
             " {at}) from None")
    dump = ("{v} = string_ids.setdefault({v}, len(string_ids))",)


class ZoneString(StringId):
    """A static zone slot holding an interned string, ("str", text)."""
    check = StringId.check + ("{v} = 'str', {v}",)
    dump = ("{v} = string_ids.setdefault({v}[1], len(string_ids))",)


class ClassIndex(Field):
    """A class of the image, as its index in the name-sorted class table."""
    check = ("if {v} >= class_count:",
             "    raise Corrupt('%s %d out of range' % ({f}.label, {v}),"
             " {at})")
    dump = ("if {v}.name in class_index:", "    {v} = class_index[{v}.name]",
            "else:", "    missing.add({v}.name)", "    {v} = 0")

    def __init__(self, what, label):
        super().__init__("H", what)
        self.label = label


class Code(Field):
    """A kind, as its one-byte code."""
    check = ("try:", "    {v} = {f}.kinds[{v}]", "except KeyError:",
             "    raise Corrupt('bad %s %d' % ({f}.label, {v}), {at})"
             " from None")
    dump = ("{v} = {f}.codes[{v}]",)

    def __init__(self, codes, what, label=None):
        super().__init__("B", what)
        self.codes, self.label = codes, label or what
        self.kinds = {code: kind for kind, code in codes.items()}


class Catch(Field):
    """A catch type: an atable index, or 0xFFFF (None) for any exception."""
    check = ("if {v} == 0xFFFF:", "    {v} = None")
    dump = ("if {v} is None:", "    {v} = 0xFFFF")


_HEADER = Record(
    Expect("4s", "magic", IMAGE_MAGIC,
           lambda _: BadImageMagic("not a romized image")),
    Expect("H", "version", IMAGE_VERSION,
           lambda v: VersionMismatch("image format %d, expected %d"
                                     % (v, IMAGE_VERSION))),
    U16("flags"), U32("class count"), schema=_IMAGE)

_STRINGS = Record(Array(U32("string count"),
                        Blob(U16("string length"), "string data", str)),
                  schema=_IMAGE)

_MEMBER = Record(ClassIndex("owner", "member owner"), U16("member"))

# the values of a class record, in order
_ClassValues = namedtuple("_ClassValues", "name access_flags ready superclass"
                          " interfaces atable vtable fields methods a_zone"
                          " v_zone zones_initial")


def _field_names_kept(flags):
    """Whether an image of these flags names its fields.  In a closed world
    without introspection nothing reads a field's name: no class loads
    later, none is reflected on, and a field handle names its field by
    position."""
    return flags.introspection or not flags.closed_world


def _nameless(descriptor, flags, constant):
    """A field record's value where the image has no field names."""
    return None, descriptor, flags, constant


@cache
def _id_records(id_format, field_names):
    """The closed-package list and the class record whose string ids have
    struct format ``id_format``, and whose fields are named if
    ``field_names``: built, and compiled, at first use."""
    def string(what):
        return StringId(id_format, what)

    def class_ref(what):
        """A class: its index in the image, the name of a synthetic (array
        or primitive) class, or none."""
        return Union(Code({"index": 0, "synthetic": 1, None: 2}, what,
                          "class reference tag"),
                     {"index": ClassIndex(what, "class index"),
                      "synthetic": string(what), None: None})

    zones = (Array(U16("a zone size"),
                   Option(U8("a slot tag"), ZoneString(id_format, "a slot"))),
             Array(U16("v zone size"), U32("v slot")))
    packages = Record(Array(U16("closed package count"),
                            string("closed package")), schema=_IMAGE)
    record = Record(
        string("class name"), U16("access flags"), U8("ready flag"),
        class_ref("superclass"), Array(U16("ifaces"), class_ref("interface")),
        # the pool's tables, as (kinds, payloads) and (kinds, cells)
        Array(U16("atable size"), Union(Code(_A_KIND_CODE, "atable kind"), {
            cp.A_UTF8: string("text"), cp.A_STRING: string("text"),
            cp.A_CLASS: class_ref("class handle"),
            cp.A_FIELD: _MEMBER, cp.A_METHOD: _MEMBER}), columns=True),
        Array(U16("vtable size"),
              Record(Code(_V_KIND_CODE, "vtable kind"), U32("cell")),
              columns=True),
        # a ConstantValue only where the record has no initial zones,
        # which hold its value otherwise
        Array(U16("field count"), Record(
            *([string("field name")] if field_names else []),
            string("field descriptor"),
            U16("field flags"), Option(U8("constant value flag"), Union(
                Code({kind: ord(kind) for kind in "ijfds"},
                     "constant value kind"),
                {"i": Field("i", "constant value"),
                 "j": Field("q", "constant value"),
                 "f": U32("constant value"), "d": U64("constant value"),
                 "s": string("constant value")})),
            into=None if field_names else _nameless)),
        Array(U16("method count"), Record(
            string("method name"), string("method descriptor"),
            U16("method flags"), Option(U8("code flag"), Record(
                U16("max stack"), U16("max locals"),
                Blob(U16("code length"), "bytecode", bytearray),
                Array(U16("exception count"), Record(
                    U16("start"), U16("end"), U16("handler"),
                    Catch("H", "catch")), frozen=True),
                Option(U8("stack map flag"),
                       Blob(U32("stack map length"), "stack maps")),
                into=(lc.MethodCode, "max_stack max_locals bytecode"
                                     " exception_table stack_maps"))))),
        # the initial zones: none, the live zones' values, or their own
        *zones, Union(Code({None: 0, "same": 1, "own": 2}, "initial zones",
                           "initial zones tag"),
                      {None: None, "same": None, "own": Record(*zones)}),
        into=_ClassValues, schema=_IMAGE)
    return packages, record


# --- image writing ---

def _ref(cls):
    if cls is None:
        return None, None
    return ("synthetic", cls.name) if cls.synthetic else ("index", cls)


def _position(member, members):
    """The index of ``member`` in its owner's ``members``, found by
    identity: two members of a class can compare equal."""
    return next(i for i, m in enumerate(members) if m is member)


def _payload(kind, payload):
    if kind == cp.A_CLASS:
        return _ref(payload)
    if kind in (cp.A_FIELD, cp.A_METHOD):
        member = payload.resolved
        owner = member.owner
        members = owner.fields if kind == cp.A_FIELD else owner.methods
        return owner, _position(member, members)
    return payload


def _initial(cls):
    """The initial zones as their tag and, for their own, the zones."""
    live = cls.a_static_zone, cls.v_static_zone
    if cls.zones_initial is None:
        return None, None
    if cls.zones_initial == live:
        return "same", None
    return "own", cls.zones_initial


def _write_records(ordered, packages, id_format, field_names):
    """A cursor holding the closed-package list and the class records,
    written with string ids of ``id_format`` and, if ``field_names``, field
    names, and the ids: each string gets the next one the first time it is
    written.  None if an id does not fit the format."""
    packages_record, class_record = _id_records(id_format, field_names)
    skip = 0 if field_names else 1
    cur = SimpleNamespace(
        data=bytearray(), pos=0, string_ids={},
        class_index={c.name: i for i, c in enumerate(ordered)}, missing=set())
    try:
        packages_record.write(cur, packages)
        for cls in ordered:
            pool = cls.pool
            initial = _initial(cls)
            constants = initial[0] is None
            class_record.write(cur, _ClassValues(
                cls.name, cls.access_flags, int(cls.ready),
                _ref(cls.super_cls), [_ref(c) for c in cls.interfaces],
                (pool.a_kind, [_payload(k, p)
                               for k, p in zip(pool.a_kind, pool.a_payload)]),
                (pool.v_kind, pool.v_value),
                [(f.name, f.descriptor, f.access_flags,
                  f.constant_value if constants else None)[skip:]
                 for f in cls.fields],
                [(m.name, m.descriptor, m.access_flags, m.code)
                 for m in cls.methods],
                cls.a_static_zone, cls.v_static_zone, initial))
    except struct.error:
        if _id_format(len(cur.string_ids)) == id_format:
            raise       # not an id past the format: a count or value is
        return None
    return cur


def emit_image(classes, flags):
    """Serialize a linked, closed class set; byte-identical per input set.

    The closed packages and class records are written first, with u16
    string ids, and again with u32 ids if the strings they name turn out
    too many.  The header and string section then go in front of them."""
    ordered = sorted(classes, key=lambda c: c.name)
    for cls in ordered:
        if cls.state != lc.LINKED:
            raise NotLinked(cls.name)
    packages = sorted(flags.closed_packages)
    names = _field_names_kept(flags)
    cur = _write_records(ordered, packages, "H", names)
    if cur is None or _id_format(len(cur.string_ids)) != "H":
        cur = _write_records(ordered, packages, "I", names)
    if cur.missing:
        raise IncompleteClosure(cur.missing)
    if None in cur.string_ids:      # a field reloaded from a nameless image
        raise NamesDropped("the classes have no field names to write")
    records, cur.data = cur.data, bytearray()
    _HEADER.write(cur, (
        IMAGE_MAGIC, IMAGE_VERSION,
        (FLAG_INTROSPECTION if flags.introspection else 0)
        | (FLAG_PRIVATE_OPT if flags.private_field_opt else 0)
        | (FLAG_CLOSED_WORLD if flags.closed_world else 0),
        len(ordered)))
    _STRINGS.write(cur, list(cur.string_ids))
    return bytes(cur.data + records)


# --- image reading ---

_Read = namedtuple("_Read", "registry classes records string_count"
                   " strings_start strings_end records_start")


def _read_image(data):
    """Read an image's header, string section, closed packages and class
    records in order: a registry holding its flags in ``image_flags`` and
    a class per record, unloaded, the records and where the sections
    start and end."""
    cur = SimpleNamespace(data=data, pos=0, strings=[], class_count=0)
    _, _, flag_bits, cur.class_count = _HEADER.read(cur)
    strings_start = cur.pos
    cur.strings = _STRINGS.read(cur)
    strings_end = cur.pos
    registry = lc.Registry()
    flags = registry.image_flags = lk.LinkContext(
        registry, introspection=bool(flag_bits & FLAG_INTROSPECTION),
        private_field_opt=bool(flag_bits & FLAG_PRIVATE_OPT),
        closed_world=bool(flag_bits & FLAG_CLOSED_WORLD))
    packages_record, class_record = _id_records(
        _id_format(len(cur.strings)), _field_names_kept(flags))
    flags.closed_packages = set(packages_record.read(cur))
    records_start = cur.pos
    records, classes = [], []
    for _ in range(cur.class_count):
        start = cur.pos
        rec = class_record.read(cur)
        name = rec.name
        # class indexes count in name order, and a synthetic (array or
        # primitive) class belongs to the registry, not to one record
        if name.startswith("[") or name in lc.Registry.PRIMITIVES:
            raise Corrupt("class record names synthetic class %s" % name,
                          start)
        if records and name <= records[-1].name:
            raise Corrupt("class %s is not after %s in name order"
                          % (name, records[-1].name), start)
        records.append(rec)
        classes.append(registry.new_unloaded(name))
    if cur.pos != len(data):
        raise Corrupt("trailing bytes after last class record", cur.pos)
    return _Read(registry, classes, records, len(cur.strings),
                 strings_start, strings_end, records_start)


def load_image(data):
    """Reconstruct a registry of linked (and ready) classes from an image;
    its ``image_flags`` hold the header's flags and closed packages."""
    registry, classes, records = _read_image(data)[:3]
    end = len(data)

    def deref(ref):
        kind, value = ref
        if kind == "index":
            return classes[value]
        return None if kind is None else registry.new_unloaded(value)

    for cls, rec in zip(classes, records):
        cls.access_flags = rec.access_flags
        cls.super_cls = deref(rec.superclass)
        cls.interfaces = [deref(ref) for ref in rec.interfaces]

    # layout wants superclasses done first
    record_of = dict(zip(classes, records))
    done = set()
    for cls in classes:
        chain, c = [], cls      # cls and the superclasses it waits for
        while c not in done:
            if c in chain:
                raise Corrupt("superclass cycle through %s" % c.name, end)
            chain.append(c)
            sup = c.super_cls
            if sup is None or sup.synthetic:
                break
            if sup not in record_of:
                raise Corrupt("superclass %s of %s is not in the image"
                              % (sup.name, c.name), end)
            c = sup
        for c in reversed(chain):
            rec = record_of[c]
            lc.lay_out_class(c, rec.fields, rec.methods)
            sizes = len(c.a_static_zone), len(c.v_static_zone)
            tag, initial = rec.zones_initial
            if tag == "same":
                initial = list(rec.a_zone), list(rec.v_zone)
            for zones in (rec.a_zone, rec.v_zone), initial:
                if zones and tuple(map(len, zones)) != sizes:
                    raise Corrupt("static zones of %s do not fit its layout"
                                  % c.name, end)
            c.a_static_zone, c.v_static_zone = rec.a_zone, rec.v_zone
            c.zones_initial = initial
            done.add(c)

    # pools last: member handles point at finished FieldRep/MethodRep
    for cls, rec in zip(classes, records):
        a_kind, a_payload = rec.atable
        for i, kind in enumerate(a_kind):
            if kind == cp.A_CLASS:
                a_payload[i] = deref(a_payload[i])
            elif kind in (cp.A_FIELD, cp.A_METHOD):
                owner_idx, member_idx = a_payload[i]
                owner = classes[owner_idx]
                members = owner.fields if kind == cp.A_FIELD else owner.methods
                if member_idx >= len(members):
                    raise Corrupt("member index %d out of range" % member_idx,
                                  end)
                member = members[member_idx]
                a_payload[i] = cp.MemberHandle(
                    owner, member.name, member.descriptor,
                    is_field=(kind == cp.A_FIELD), resolved=member)
        cls.pool = cp.packed_pool(a_kind, a_payload, *rec.vtable)
        for m in cls.methods:
            for _, _, _, catch in m.code.exception_table if m.code else ():
                if catch is not None and not cp.holds(cls.pool, cp.ATABLE,
                                                      catch, cp.A_CLASS):
                    raise Corrupt("catch type %d of %s is not a class entry"
                                  % (catch, m), end)

        cls.state = lc.LINKED
        cls.ready = bool(rec.ready)

    return registry


def inspect_image(data):
    """The header, flags and closed packages of an image, the bytes of its
    parts, read as load_image reads them, whether its fields are named, the
    ConstantValues its class records hold, and the atable entries and
    vtable cells of each kind over all classes, as ``name: value`` lines.
    The header counts the closed-package list, which follows the string
    section because its ids take the width the string count gives."""
    read = _read_image(data)
    flags = read.registry.image_flags
    packages = read.records_start - read.strings_end
    lines = [
        ("format", IMAGE_VERSION), ("bytes", len(data)),
        ("flags", " ".join(name for name, on in (
            ("introspection", flags.introspection),
            ("private-field-opt", flags.private_field_opt),
            ("closed-world", flags.closed_world)) if on) or "none"),
        ("closed packages", " ".join(sorted(flags.closed_packages))
         or "none"),
        ("header bytes", read.strings_start + packages),
        ("string id bytes", struct.calcsize(_id_format(read.string_count))),
        ("strings", read.string_count),
        ("string bytes", read.strings_end - read.strings_start),
        ("classes", len(read.records)),
        ("class record bytes", len(data) - read.records_start),
        ("field names", "kept" if _field_names_kept(flags) else "dropped"),
        ("constant values", sum(field[3] is not None for rec in read.records
                                for field in rec.fields))]
    for table, codes in ("atable", _A_KIND_CODE), ("vtable", _V_KIND_CODE):
        counts = Counter(kind for rec in read.records
                         for kind in getattr(rec, table)[0])
        lines += [("%s %s" % (table, kind), counts[kind]) for kind in codes]
    return "".join("%s: %s\n" % line for line in lines)


def emit_c_array(image, symbol):
    """Render image bytes as a C unsigned-char array definition."""
    lines = ["const unsigned char %s[%d] = {" % (symbol, len(image))]
    for i in range(0, len(image), 12):
        chunk = ", ".join("0x%02x" % b for b in image[i:i + 12])
        lines.append("    %s," % chunk)
    lines.append("};")
    lines.append("const unsigned long %s_len = %dUL;" % (symbol, len(image)))
    return "\n".join(lines) + "\n"


# --- footprint report ---

@dataclass
class ClassReport:
    name: str
    stages: dict            # stage name -> StageStats or None
    error: str = None


class FootprintReport:
    STAGES = ("unloaded", lc.LOADED, lc.LINKED)

    def __init__(self, flags_desc):
        self.flags_desc = flags_desc
        self.classes = []

    def add_class(self, cls, error=None):
        stages = {}
        for stage in self.STAGES:
            try:
                stages[stage] = snapshot_stats(cls, stage)
            except StageNotReached:
                stages[stage] = None
        # after any equal name, as a stable sort would place it
        bisect.insort(self.classes, ClassReport(cls.name, stages, error),
                      key=attrgetter("name"))

    def aggregate(self, stage):
        stats = [c.stages[stage] for c in self.classes
                 if c.stages.get(stage) is not None]
        return StageStats(sum(s.entries for s in stats),
                          sum(s.pool_bytes for s in stats),
                          sum(s.class_bytes for s in stats))

    def to_table(self):
        out = []
        out.append("memory footprint by lifecycle stage")
        out.append("flags: %s" % self.flags_desc)
        for line in SIZING_MODEL:
            out.append("model: %s" % line)
        header = "%-32s" % "class"
        for stage in self.STAGES:
            header += " | %8s %9s %9s" % ("entries", "pool B", "class B")
        out.append(header)
        out.append("stage:".ljust(32)
                   + "".join(" | %28s" % s for s in self.STAGES))
        out.append("-" * len(header))
        for c in self.classes:
            row = "%-32s" % c.name
            for stage in self.STAGES:
                s = c.stages.get(stage)
                if s is None:
                    row += " | %8s %9s %9s" % ("-", "-", "-")
                else:
                    row += " | %8d %9d %9d" % (s.entries, s.pool_bytes,
                                               s.class_bytes)
            if c.error:
                row += "  !%s" % c.error
            out.append(row)
        out.append("-" * len(header))
        agg_row = "%-32s" % "TOTAL"
        pct_row = "%-32s" % "% of unloaded"
        base = self.aggregate("unloaded")
        for stage in self.STAGES:
            agg = self.aggregate(stage)
            agg_row += " | %8d %9d %9d" % (agg.entries, agg.pool_bytes,
                                           agg.class_bytes)
            if base.entries and base.pool_bytes and base.class_bytes:
                pct_row += " | %7.2f%% %8.2f%% %8.2f%%" % (
                    100.0 * agg.entries / base.entries,
                    100.0 * agg.pool_bytes / base.pool_bytes,
                    100.0 * agg.class_bytes / base.class_bytes)
        out.append(agg_row)
        if base.entries:
            out.append(pct_row)
        return "\n".join(out) + "\n"

    def to_records(self):
        out = [json.dumps({"flags": self.flags_desc,
                           "model": list(SIZING_MODEL)}, sort_keys=True)]
        for c in self.classes:
            for stage in self.STAGES:
                s = c.stages.get(stage)
                if s is None:
                    continue
                out.append(json.dumps(
                    {"class": c.name, "stage": stage, "entries": s.entries,
                     "pool_bytes": s.pool_bytes, "class_bytes": s.class_bytes},
                    sort_keys=True))
            if c.error:
                out.append(json.dumps({"class": c.name, "error": c.error},
                                      sort_keys=True))
        for stage in self.STAGES:
            agg = self.aggregate(stage)
            out.append(json.dumps(
                {"aggregate": stage, "entries": agg.entries,
                 "pool_bytes": agg.pool_bytes, "class_bytes": agg.class_bytes},
                sort_keys=True))
        return "\n".join(out) + "\n"
