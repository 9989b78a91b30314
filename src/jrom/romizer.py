"""Freezing a linked class set into a deterministic binary image.

The image is little-endian, magic "JRMZ", with classes sorted by name and
every cross-class reference expressed as an index into the image's own
class table.  Loading an image reconstructs ready-to-run class structures
without touching any .class file.  The module also produces the per-stage
footprint reports.
"""

import bisect
import json
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
                     Record, Schema, Union, Widen)

IMAGE_MAGIC = b"JRMZ"
IMAGE_VERSION = 6

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

# the fields whose width an image chooses, in the order of their bits in the
# header's widths word: a field whose bit is set is a u16, and one whose bit
# is clear a u8, which emit widens only for a value that does not fit
WIDTHS = ("string length", "closed package count", "ifaces", "atable size",
          "vtable size", "member", "field count", "field flags",
          "method count", "max stack", "max locals", "code length",
          "exception count", "start", "end", "handler", "catch",
          "a zone size", "v zone size")

_FORMATS = {1: "B", 2: "H", 4: "I"}


def _count_size(count):
    """The bytes of an index into a table of ``count`` entries: a class
    index takes the width the class count needs, and a string id the width
    the string count needs, so no header field states either."""
    return 1 if count <= 1 << 8 else 2 if count <= 1 << 16 else 4


def _fits(size, signal="{f}.what"):
    """Dump lines that raise Widen, naming ``signal``, for a value too large
    for ``size`` bytes."""
    return ("if {v} > %d:" % ((1 << 8 * size) - 1),
            "    raise Widen(%s)" % signal)


class Sized(Field):
    """A count, size, pc or index: a u16 if its bit in the widths word
    ``wide`` is set, else a u8, whose writer raises Widen naming the field
    for a value past 255.  Nothing is wider than a u16: a larger value
    fails the write."""

    def __init__(self, what, wide):
        super().__init__("H" if wide >> WIDTHS.index(what) & 1 else "B", what)
        if self.size == 1:
            self.dump = _fits(1)


class StringId(Field):
    """A string, as its index in the string section."""
    check = ("try:", "    {v} = strings[{v}]", "except IndexError:",
             "    raise Corrupt('bad %s string id %d' % ({f}.what, {v}),"
             " {at}) from None")
    dump = ("{v} = string_ids.setdefault({v}, len(string_ids))",)

    def __init__(self, size, what):
        super().__init__(_FORMATS[size], what)
        if size < 4:
            self.dump += _fits(size, "'string id'")


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

    def __init__(self, size, what, label):
        super().__init__(_FORMATS[size], what)
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


class CodeKind(Code):
    """What a method's code, a MethodCode or None, holds: no code, code, or
    code with stack maps."""
    kind_of = ("if {v} is not None:",
               "    {v} = 'code' if {v}.stack_maps is None else 'maps'")

    def __init__(self):
        super().__init__({None: 0, "code": 1, "maps": 2}, "code kind")


class Catch(Sized):
    """A catch type: an atable index, or None for any exception, held as the
    all-ones value of the field's width, which no index may then take."""

    def __init__(self, wide):
        super().__init__("catch", wide)
        anything = (1 << 8 * self.size) - 1
        self.check = ("if {v} == %d:" % anything, "    {v} = None")
        self.dump = ("if {v} is None:", "    {v} = %d" % anything)
        if self.size == 1:
            self.dump += ("elif {v} >= %d:" % anything,
                          "    raise Widen({f}.what)")


class Bits(Field):
    """A word of flag bits, of which only those in ``defined`` may be set."""
    check = ("if {v} & ~{f}.defined:",
             "    raise Corrupt('undefined %s bits %#x'"
             " % ({f}.what, {v} & ~{f}.defined), {at})")

    def __init__(self, fmt, what, defined):
        super().__init__(fmt, what)
        self.defined = defined


_HEADER = Record(
    Expect("4s", "magic", IMAGE_MAGIC,
           lambda _: BadImageMagic("not a romized image")),
    Expect("H", "version", IMAGE_VERSION,
           lambda v: VersionMismatch("image format %d, expected %d"
                                     % (v, IMAGE_VERSION))),
    Bits("H", "flags", FLAG_INTROSPECTION | FLAG_PRIVATE_OPT
         | FLAG_CLOSED_WORLD),
    U32("class count"), Bits("I", "widths", (1 << len(WIDTHS)) - 1),
    schema=_IMAGE)

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
def _string_section(wide):
    """The string section of an image whose widths word is ``wide``."""
    return Record(Array(U32("string count"), Blob(
        Sized("string length", wide), "string data", str)), schema=_IMAGE)


@cache
def _id_records(wide, id_size, index_size, field_names):
    """The closed-package list and the class record of an image whose
    widths word is ``wide``, whose string ids take ``id_size`` bytes and
    class indexes ``index_size``, and whose fields are named if
    ``field_names``: built, and compiled, at first use."""
    def sized(what):
        return Sized(what, wide)

    def string(what):
        return StringId(id_size, what)

    def class_ref(what):
        """A class: its index in the image, the name of a synthetic (array
        or primitive) class, or none."""
        return Union(Code({"index": 0, "synthetic": 1, None: 2}, what,
                          "class reference tag"),
                     {"index": ClassIndex(index_size, what, "class index"),
                      "synthetic": string(what), None: None})

    def code(*stack_maps):
        """A method's code, then ``stack_maps`` if it keeps them."""
        return Record(
            sized("max stack"), sized("max locals"),
            Blob(sized("code length"), "bytecode", bytearray),
            Array(sized("exception count"), Record(
                sized("start"), sized("end"), sized("handler"), Catch(wide)),
                frozen=True), *stack_maps,
            into=(lc.MethodCode, "max_stack max_locals bytecode"
                  " exception_table" + " stack_maps" * len(stack_maps)))

    member = Record(ClassIndex(index_size, "owner", "member owner"),
                    sized("member"))
    zones = (Array(sized("a zone size"),
                   Option(U8("a slot tag"), ZoneString(id_size, "a slot"))),
             Array(sized("v zone size"), U32("v slot")))
    packages = Record(Array(sized("closed package count"),
                            string("closed package")), schema=_IMAGE)
    record = Record(
        string("class name"), U16("access flags"), U8("ready flag"),
        class_ref("superclass"),
        Array(sized("ifaces"), class_ref("interface")),
        # the pool's tables, as (kinds, payloads) and (kinds, cells)
        Array(sized("atable size"), Union(Code(_A_KIND_CODE, "atable kind"), {
            cp.A_UTF8: string("text"), cp.A_STRING: string("text"),
            cp.A_CLASS: class_ref("class handle"),
            cp.A_FIELD: member, cp.A_METHOD: member}), columns=True),
        Array(sized("vtable size"),
              Record(Code(_V_KIND_CODE, "vtable kind"), U32("cell")),
              columns=True),
        # a ConstantValue only where the record has no initial zones,
        # which hold its value otherwise
        Array(sized("field count"), Record(
            *([string("field name")] if field_names else []),
            string("field descriptor"),
            sized("field flags"), Option(U8("constant value flag"), Union(
                Code({kind: ord(kind) for kind in "ijfds"},
                     "constant value kind"),
                {"i": Field("i", "constant value"),
                 "j": Field("q", "constant value"),
                 "f": U32("constant value"), "d": U64("constant value"),
                 "s": string("constant value")})),
            into=None if field_names else _nameless)),
        Array(sized("method count"), Record(
            string("method name"), string("method descriptor"),
            U16("method flags"), Union(CodeKind(), {
                None: None, "code": code(),
                "maps": code(Blob(U32("stack map length"), "stack maps"))},
                bare=True))),
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


def _write_image(ordered, class_index, flags, wide, id_size):
    """The image of the classes ``ordered`` by name, at the class indexes
    ``class_index`` gives their names, with the widths word ``wide`` and
    string ids of ``id_size`` bytes.  The closed packages and class records
    are written first, each string getting the next id the first time it
    is written, then the header and string section go in front of them.  A
    value too large for its field raises Widen, naming the field."""
    names = _field_names_kept(flags)
    packages_record, class_record = _id_records(
        wide, id_size, _count_size(len(ordered)), names)
    skip = 0 if names else 1
    cur = SimpleNamespace(data=bytearray(), pos=0, string_ids={},
                          class_index=class_index, missing=set())
    packages_record.write(cur, sorted(flags.closed_packages))
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
        len(ordered), wide))
    _string_section(wide).write(cur, list(cur.string_ids))
    return bytes(cur.data + records)


def emit_image(classes, flags):
    """Serialize a linked, closed class set; byte-identical per input set.

    Every width field is first written narrow, and string ids as wide as
    the class count needs, since every class name is a string.  A value
    that does not fit stops the write, and emit writes again with its
    field, or the string ids, one step wider."""
    ordered = sorted(classes, key=lambda c: c.name)
    for cls in ordered:
        if cls.state != lc.LINKED:
            raise NotLinked(cls.name)
    class_index = {c.name: i for i, c in enumerate(ordered)}
    wide, id_size = 0, _count_size(len(class_index))
    while True:
        try:
            return _write_image(ordered, class_index, flags, wide, id_size)
        except Widen as signal:
            field, = signal.args
            if field == "string id":
                id_size *= 2
            else:
                wide |= 1 << WIDTHS.index(field)


# --- image reading ---

_Read = namedtuple("_Read", "registry classes records string_count wide"
                   " strings_start strings_end records_start")


def _read_image(data):
    """Read an image's header, string section, closed packages and class
    records in order: a registry holding its flags in ``image_flags`` and
    a class per record, unloaded, the records and where the sections
    start and end."""
    cur = SimpleNamespace(data=data, pos=0, strings=[], class_count=0)
    _, _, flag_bits, cur.class_count, wide = _HEADER.read(cur)
    strings_start = cur.pos
    cur.strings = _string_section(wide).read(cur)
    strings_end = cur.pos
    registry = lc.Registry()
    flags = registry.image_flags = lk.LinkContext(
        registry, introspection=bool(flag_bits & FLAG_INTROSPECTION),
        private_field_opt=bool(flag_bits & FLAG_PRIVATE_OPT),
        closed_world=bool(flag_bits & FLAG_CLOSED_WORLD))
    packages_record, class_record = _id_records(
        wide, _count_size(len(cur.strings)), _count_size(cur.class_count),
        _field_names_kept(flags))
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
    return _Read(registry, classes, records, len(cur.strings), wide,
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
        cls.pool = cp.RuntimePool(a_kind, a_payload, *rec.vtable)
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
    """The header, flags and closed packages of an image, the width fields
    it writes as u16s, the bytes of its string ids and class indexes and of
    its parts, read as load_image reads them, whether its fields are named,
    the ConstantValues its class records hold, and the atable entries and
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
        ("wide fields", ", ".join(what for i, what in enumerate(WIDTHS)
                                  if read.wide >> i & 1) or "none"),
        ("string id bytes", _count_size(read.string_count)),
        ("class index bytes", _count_size(len(read.records))),
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
