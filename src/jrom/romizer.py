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
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from . import constpool as cp
from . import lifecycle as lc
from . import linker as lk
from .errors import (BadImageMagic, Corrupt, IncompleteClosure, NotLinked,
                     StageNotReached, VersionMismatch)

IMAGE_MAGIC = b"JRMZ"
IMAGE_VERSION = 1

FLAG_INTROSPECTION = 1
FLAG_PRIVATE_OPT = 2
FLAG_CLOSED_WORLD = 4

_A_KIND_CODE = {cp.A_UTF8: 0, cp.A_STRING: 1, cp.A_CLASS: 2,
                cp.A_FIELD: 3, cp.A_METHOD: 4}
_V_KIND_CODE = {cp.V_INT: 0, cp.V_FLOAT: 1, cp.V_LONG_HI: 2, cp.V_LONG_LO: 3,
                cp.V_DBL_HI: 4, cp.V_DBL_LO: 5, cp.V_STRING: 6, cp.V_NAT: 7,
                cp.V_FIELDREF: 8, cp.V_METHODREF: 9, cp.V_IFACEREF: 10}

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


def _code_bytes(code):
    return (len(code.bytecode) + 8 * len(code.exception_table)
            + len(code.stack_maps or b""))


def snapshot_stats(cls, stage):
    """Entries, modeled pool bytes and modeled class bytes at a stage."""
    if stage == "unloaded":
        if cls.raw_stats is None:
            raise StageNotReached("%s never parsed" % cls.name)
        return StageStats(cls.raw_stats["entries"], cls.raw_stats["pool_bytes"],
                          cls.raw_stats["file_bytes"])
    if stage == lc.LOADED:
        if cls.loaded_pool is None:
            raise StageNotReached("%s has no loaded snapshot" % cls.name)
        pool = cls.loaded_pool
    elif stage == lc.LINKED:
        if cls.state != lc.LINKED:
            raise StageNotReached("%s is %s" % (cls.name, cls.state))
        pool = cls.pool
    else:
        raise StageNotReached("unknown stage %r" % stage)
    pool_bytes = pool.byte_size()
    total = pool_bytes
    for m in cls.methods:
        code = m.code_at(stage)
        if code is not None:
            total += _code_bytes(code)
    total += 8 * (len(cls.fields) + len(cls.methods))
    return StageStats(pool.entry_count(), pool_bytes, total)


# --- the image schema ---
#
# The image is a header, the string section and one record per class, in
# name order.  Each is described once, below, and emit_image and load_image
# both walk that description.  A record is fields and parts in order.  A
# field is one fixed-size value; its type packs it and reads it back with
# its range check, which raises Corrupt at the offset just past the value.
# A part (array, option, union, blob) is a fixed-size head, a count, flag,
# kind code or length, then a rest whose size the head decides.  A run of
# fields, with the head of the part that ends it, is one struct, and an
# array of fixed-size records is one iter_unpack.

class _Cursor:
    """A walk's place in one image, and the string section and class table
    that its string ids and class indexes name."""

    def __init__(self, data, string_ids=None, class_index=None):
        self.data, self.pos, self.strings, self.class_count = data, 0, [], 0
        self.string_ids, self.class_index = string_ids, class_index
        self.missing = set()        # classes referenced but not written


class Field:
    """A fixed-size value: its struct code and the name a short image
    reports.  A subclass converts the value as it is written (dump), and
    checks and converts it as it is read (load)."""
    dump = load = None

    def __init__(self, fmt, what):
        self.fmt, self.what, self.head = fmt, what, self
        self.layout = struct.Struct("<" + fmt)


U8, U16, U32, U64 = (partial(Field, fmt) for fmt in "BHIQ")


class Expect(Field):
    """A value the image must hold, or ``error(value)`` is raised."""

    def __init__(self, fmt, what, value, error):
        super().__init__(fmt, what)
        self.value, self.error = value, error

    def load(self, cur, value, at):
        if value != self.value:
            raise self.error(value)
        return value


class StringId(Field):
    """A string, as its index in the string section."""

    def __init__(self, what, fmt="I"):
        super().__init__(fmt, what)

    def dump(self, cur, text):
        return cur.string_ids[text]

    def load(self, cur, sid, at):
        try:
            return cur.strings[sid]
        except IndexError:
            raise Corrupt("bad %s string id %d" % (self.what, sid),
                          at) from None


class ZoneString(StringId):
    """A static zone slot holding an interned string, ("str", text)."""

    def dump(self, cur, slot):
        return cur.string_ids[slot[1]]

    def load(self, cur, sid, at):
        return "str", super().load(cur, sid, at)


class ClassIndex(Field):
    """A class of the image, as its index in the name-sorted class table."""

    def __init__(self, what, label):
        super().__init__("H", what)
        self.label = label

    def dump(self, cur, cls):
        if cls.name not in cur.class_index:
            cur.missing.add(cls.name)
        return cur.class_index.get(cls.name, 0)

    def load(self, cur, idx, at):
        if idx >= cur.class_count:
            raise Corrupt("%s %d out of range" % (self.label, idx), at)
        return idx


class Code(Field):
    """A kind, as its one-byte code."""

    def __init__(self, codes, what, label=None):
        super().__init__("B", what)
        self.codes, self.label = codes, label or what
        self.kinds = {code: kind for kind, code in codes.items()}

    def dump(self, cur, kind):
        return self.codes[kind]

    def load(self, cur, code, at):
        if code not in self.kinds:
            raise Corrupt("bad %s %d" % (self.label, code), at)
        return self.kinds[code]


class Catch(Field):
    """A catch type: an atable index, or 0xFFFF (None) for any exception."""

    def dump(self, cur, catch):
        return 0xFFFF if catch is None else catch

    def load(self, cur, value, at):
        return None if value == 0xFFFF else value


class Int32(Field):
    """An int, sign-extended to 64 bits; read back from the low 32."""

    def load(self, cur, value, at):
        value &= 0xFFFFFFFF
        return value - (1 << 32) if value >= 1 << 31 else value


class Record:
    """Fields and parts in order.  Its value is the list of theirs, or for a
    record of one member, that member's value."""

    def __init__(self, *members):
        self.runs, run = [], []     # (layout, members, part or None)
        for i, m in enumerate(members):
            run.append(m)
            if m.head is not m or i == len(members) - 1:
                self.runs.append((
                    struct.Struct("<" + "".join(r.head.fmt for r in run)),
                    run, m if m.head is not m else None))
                run = []
        layout, run, part = self.runs[0]
        self.single = len(members) == 1
        # a fixed-size record: its layout, and its loads by index from the end
        self.flat = None if part or len(self.runs) > 1 else (
            layout, [(k - len(run), m.load)
                     for k, m in enumerate(run) if m.load])
        self.read, self.write = self._generate()

    def _generate(self):
        """The record's read and write, generated once as straight-line
        code: each run is one unpack into locals or one pack from them, with
        its loads or dumps and the rest of its part.  Read by a loop over
        the runs, a method record took a third longer."""
        env, names, read, write = {"short": _short}, [], [], []
        for i, (layout, members, part) in enumerate(self.runs):
            run = ["v%d" % k for k in range(len(names),
                                            len(names) + len(members))]
            names += run
            env["layout%d" % i] = layout
            env["fields%d" % i] = [m.head for m in members]
            read += ["    pos = cur.pos",
                     "    cur.pos = end = pos + %d" % layout.size,
                     "    if end > limit:",
                     "        short(cur, pos, fields%d)" % i,
                     "    %s, = layout%d.unpack_from(data, pos)"
                     % (", ".join(run), i)]
            packed, end = [], 0
            for name, m in zip(run, members):
                end += m.head.layout.size
                if m.head.load:
                    env["load_" + name] = m.head.load
                    read.append("    %s = load_%s(cur, %s, pos + %d)"
                                % (name, name, name, end))
                if m.dump:
                    env["dump_" + name] = m.dump
                    name = "dump_%s(cur, %s)" % (name, name)
                packed.append(name)
            write.append("    cur.data += layout%d.pack(%s)"
                         % (i, ", ".join(packed)))
            if part:
                last = run[-1]
                env["rest_" + last] = part.rest
                env["write_" + last] = part.write_rest
                rest = "rest_%s(cur, %s)" % (last, last)
                if part.empty:      # after a zero head nothing follows
                    rest += " if %s else %s" % (last, part.empty)
                read.append("    %s = %s" % (last, rest))
                write.append("    write_%s(cur, %s)" % (last, last))
        values = ", ".join(names) if self.single else "[%s]" % ", ".join(names)
        src = "\n".join(["def read(cur):", "    data = cur.data",
                         "    limit = len(data)"] + read
                        + ["    return " + values,
                           "def write(cur, value):",
                           "    %s = value" % values] + write)
        exec(compile(src, "<image record>", "exec"), env)
        return env["read"], env["write"]


def _short(cur, pos, fields):
    """Raise for a run the image ends inside, as reading its fields one by
    one would: check those that fit, then name the first that does not."""
    for f in fields:
        end = pos + f.layout.size
        if end > len(cur.data):
            raise Corrupt("truncated %s" % f.what, pos)
        if f.load:
            f.load(cur, f.layout.unpack_from(cur.data, pos)[0], end)
        pos = end


def _record(node):
    return node if isinstance(node, Record) else Record(node)


class Array:
    """A count, then that many elements."""
    empty = "[]"

    def __init__(self, count, elem):
        self.head, self.elem = count, _record(elem)

    def dump(self, cur, items):
        return len(items)

    def rest(self, cur, n):
        pos, flat, read = cur.pos, self.elem.flat, self.elem.read
        end = pos + n * flat[0].size if flat else 0
        if not flat or end > len(cur.data):
            return [read(cur) for _ in range(n)]
        rows = [list(row) for row in flat[0].iter_unpack(cur.data[pos:end])]
        try:
            for row in rows:
                for k, load in flat[1]:
                    row[k] = load(cur, row[k], end)
        except Corrupt:         # read one by one, to raise at its offset
            return [read(cur) for _ in range(n)]
        cur.pos = end
        return [row[0] for row in rows] if self.elem.single else rows

    def write_rest(self, cur, items):
        write = self.elem.write
        for item in items:
            write(cur, item)


class Option:
    """A flag, then the body if the flag is set; None stands for no body."""
    empty = "None"

    def __init__(self, flag, body):
        self.head, self.body = flag, _record(body)

    def dump(self, cur, value):
        return value is not None

    def rest(self, cur, flag):
        return self.body.read(cur) if flag else None

    def write_rest(self, cur, value):
        if value is not None:
            self.body.write(cur, value)


class Union:
    """A kind code, then the body of that kind; the value is (kind, the
    body's value), with None for a kind that has no body."""
    empty = None

    def __init__(self, code, bodies):
        self.head = code
        self.bodies = {kind: body and _record(body)
                       for kind, body in bodies.items()}

    def dump(self, cur, value):
        return self.head.dump(cur, value[0])

    def rest(self, cur, kind):
        body = self.bodies[kind]
        return kind, body and body.read(cur)

    def write_rest(self, cur, value):
        if self.bodies[value[0]]:
            self.bodies[value[0]].write(cur, value[1])


class Blob:
    """A byte length, then the bytes, or a string's UTF-8 if ``text``."""

    def __init__(self, length, what, text=False):
        self.head, self.what, self.text = length, what, text
        self.empty = "''" if text else "b''"

    def dump(self, cur, data):
        return len(self._bytes(data))

    def rest(self, cur, n):
        pos = cur.pos
        if pos + n > len(cur.data):
            raise Corrupt("truncated %s" % self.what, pos)
        cur.pos = pos + n
        if not self.text:
            return cur.data[pos:pos + n]
        try:
            return cur.data[pos:pos + n].decode("utf-8", "surrogatepass")
        except UnicodeDecodeError:
            raise Corrupt("undecodable string table entry", cur.pos) from None

    def write_rest(self, cur, data):
        cur.data += self._bytes(data)

    def _bytes(self, data):
        return data.encode("utf-8", "surrogatepass") if self.text else data


def _class_ref(what):
    """A class: its index in the image, the name of a synthetic (array or
    primitive) class, or none."""
    return Union(Code({"index": 0, "synthetic": 1, None: 2}, what,
                      "class reference tag"),
                 {"index": ClassIndex(what, "class index"),
                  "synthetic": StringId(what), None: None})


_ZONES = (Array(U16("a zone size"),
                Option(U8("a slot tag"), ZoneString("a slot"))),
          Array(U16("v zone size"), U32("v slot")))


_HEADER = Record(
    Expect("4s", "magic", IMAGE_MAGIC,
           lambda _: BadImageMagic("not a romized image")),
    Expect("H", "version", IMAGE_VERSION,
           lambda v: VersionMismatch("image format %d, expected %d"
                                     % (v, IMAGE_VERSION))),
    U16("flags"), U32("class count"),
    # string ids, resolved once the string section after them is read
    Array(U16("closed package count"), U32("closed package")))
_CLOSED_PACKAGE = StringId("closed package")

_STRINGS = Record(Array(U32("string count"),
                        Blob(U16("string length"), "string data", text=True)))

_MEMBER = Record(ClassIndex("owner", "member owner"), U16("member"))

_CLASS = Record(
    StringId("class name"), U16("access flags"), U8("ready flag"),
    _class_ref("superclass"), Array(U16("ifaces"), _class_ref("interface")),
    U32("raw entries"), U32("raw pool bytes"), U32("raw file bytes"),
    Array(U16("atable size"), Union(Code(_A_KIND_CODE, "atable kind"), {
        cp.A_UTF8: StringId("text"), cp.A_STRING: StringId("text"),
        cp.A_CLASS: _class_ref("class handle"),
        cp.A_FIELD: _MEMBER, cp.A_METHOD: _MEMBER})),
    Array(U16("vtable size"),
          Record(Code(_V_KIND_CODE, "vtable kind"), U32("cell"))),
    Array(U16("field count"), Record(
        StringId("field name"), StringId("field descriptor"),
        U16("field flags"), Option(U8("constant value flag"), Union(
            Code({kind: ord(kind) for kind in "ijfds"},
                 "constant value kind"),
            {"i": Int32("q", "constant value"),
             "j": Field("q", "constant value"),
             "f": U64("constant value"), "d": U64("constant value"),
             "s": StringId("constant value", "Q")})))),
    Array(U16("method count"), Record(
        StringId("method name"), StringId("method descriptor"),
        U16("method flags"), Option(U8("code flag"), Record(
            U16("max stack"), U16("max locals"),
            Blob(U32("code length"), "bytecode"),
            Array(U16("exception count"), Record(
                U16("start"), U16("end"), U16("handler"),
                Catch("H", "catch"))),
            Option(U8("stack map flag"),
                   Blob(U32("stack map length"), "stack maps")))))),
    Array(U16("dispatch size"), Record(
        ClassIndex("table owner", "dispatch owner"), U16("table method"))),
    *_ZONES, Option(U8("initial zones flag"), Record(*_ZONES)))
# the values of a class record, in order
_ClassValues = namedtuple("_ClassValues", (
    "name access_flags ready superclass interfaces raw_entries raw_pool_bytes"
    " raw_file_bytes atable vtable fields methods dispatch a_zone v_zone"
    " zones_initial"))


# --- image writing ---

def _collect_strings(classes, flags):
    """The string section as text -> id, in first-use order; it sits ahead
    of the class records, so every string is collected first."""
    texts = sorted(flags.closed_packages)
    for cls in classes:
        pool = cls.pool
        texts.append(cls.name)
        texts += [payload for kind, payload in zip(pool.a_kind, pool.a_payload)
                  if kind in (cp.A_UTF8, cp.A_STRING)]
        for f in cls.fields:
            texts += (f.name, f.descriptor)
            if f.constant_value is not None and f.constant_value[0] == "s":
                texts.append(f.constant_value[1])
        for m in cls.methods:
            texts += (m.name, m.descriptor)
        for zone in (cls.a_static_zone, (cls.zones_initial or ((),))[0]):
            texts += [slot[1] for slot in zone if isinstance(slot, tuple)]
        texts += [payload.name for kind, payload
                  in zip(pool.a_kind, pool.a_payload)
                  if kind == cp.A_CLASS and payload.synthetic]
    for cls in classes:
        texts += [sup.name for sup in [cls.super_cls] + cls.interfaces
                  if sup is not None and sup.synthetic]
    return {text: i for i, text in enumerate(dict.fromkeys(texts))}


def _ref(cls):
    if cls is None:
        return None, None
    return ("synthetic", cls.name) if cls.synthetic else ("index", cls)


def _position(member, members):
    """The index of ``member`` in its owner's ``members``, found by
    identity: two members of a class can compare equal."""
    return next(i for i, m in enumerate(members) if m is member)


def _entry(kind, payload):
    if kind == cp.A_CLASS:
        return kind, _ref(payload)
    if kind in (cp.A_FIELD, cp.A_METHOD):
        member = payload.resolved
        owner = member.owner
        members = owner.fields if kind == cp.A_FIELD else owner.methods
        return kind, (owner, _position(member, members))
    return kind, payload


def emit_image(classes, flags):
    """Serialize a linked, closed class set; byte-identical per input set."""
    ordered = sorted(classes, key=lambda c: c.name)
    for cls in ordered:
        if cls.state != lc.LINKED:
            raise NotLinked(cls.name)
    cur = _Cursor(bytearray(), _collect_strings(ordered, flags),
                  {c.name: i for i, c in enumerate(ordered)})
    _HEADER.write(cur, (
        IMAGE_MAGIC, IMAGE_VERSION,
        (FLAG_INTROSPECTION if flags.introspection else 0)
        | (FLAG_PRIVATE_OPT if flags.private_field_opt else 0)
        | (FLAG_CLOSED_WORLD if flags.closed_world else 0),
        len(ordered),
        [cur.string_ids[pkg] for pkg in sorted(flags.closed_packages)]))
    _STRINGS.write(cur, list(cur.string_ids))
    for cls in ordered:
        pool, raw = cls.pool, cls.raw_stats or {}
        _CLASS.write(cur, _ClassValues(
            cls.name, cls.access_flags, int(cls.ready), _ref(cls.super_cls),
            [_ref(c) for c in cls.interfaces], raw.get("entries", 0),
            raw.get("pool_bytes", 0), raw.get("file_bytes", 0),
            [_entry(k, p) for k, p in zip(pool.a_kind, pool.a_payload)],
            list(zip(pool.v_kind, pool.v_value)),
            [(f.name, f.descriptor, f.access_flags, f.constant_value)
             for f in cls.fields],
            [(m.name, m.descriptor, m.access_flags, m.code and (
                m.code.max_stack, m.code.max_locals, m.code.bytecode,
                m.code.exception_table, m.code.stack_maps))
             for m in cls.methods],
            [(m.owner, _position(m, m.owner.methods))
             for m in cls.dispatch_table],
            cls.a_static_zone, cls.v_static_zone, cls.zones_initial))
    if cur.missing:
        raise IncompleteClosure(cur.missing)
    return bytes(cur.data)


# --- image reading ---

def load_image(data):
    """Reconstruct a registry of linked (and ready) classes from an image;
    its ``image_flags`` hold the header's flags and closed packages."""
    cur = _Cursor(data)
    _, _, flag_bits, cur.class_count, package_ids = _HEADER.read(cur)
    cur.strings = _STRINGS.read(cur)
    registry = lc.Registry()
    registry.image_flags = lk.LinkContext(
        registry, introspection=bool(flag_bits & FLAG_INTROSPECTION),
        private_field_opt=bool(flag_bits & FLAG_PRIVATE_OPT),
        closed_world=bool(flag_bits & FLAG_CLOSED_WORLD),
        closed_packages={_CLOSED_PACKAGE.load(cur, sid, cur.pos)
                         for sid in package_ids})
    records, classes = [], []
    for _ in range(cur.class_count):
        rec = _ClassValues._make(_CLASS.read(cur))
        for method in rec.methods:
            code = method[3]
            if code is not None:
                method[3] = lc.MethodCode(bytearray(code[2]), code[0],
                                          code[1], code[3], code[4])
        records.append(rec)
        classes.append(registry.new_unloaded(rec.name))
    end = len(data)
    if cur.pos != end:
        raise Corrupt("trailing bytes after last class record", cur.pos)

    def deref(ref):
        kind, value = ref
        if kind == "index":
            return classes[value]
        return None if kind is None else registry.new_unloaded(value)

    for cls, rec in zip(classes, records):
        cls.access_flags = rec.access_flags
        cls.super_cls = deref(rec.superclass)
        cls.interfaces = [deref(ref) for ref in rec.interfaces]
        cls.raw_stats = {"entries": rec.raw_entries,
                         "pool_bytes": rec.raw_pool_bytes,
                         "file_bytes": rec.raw_file_bytes}

    # layout wants superclasses done first
    record_of = {}
    for rec in records:
        record_of.setdefault(rec.name, rec)
    done = set()
    in_progress = set()

    def finish(cls, rec):
        if cls.name in done:
            return
        if cls.name in in_progress:
            raise Corrupt("superclass cycle through %s" % cls.name, end)
        in_progress.add(cls.name)
        sup = cls.super_cls
        if sup is not None and not sup.synthetic:
            if sup.name not in record_of:
                raise Corrupt("superclass %s of %s is not in the image"
                              % (sup.name, cls.name), end)
            finish(sup, record_of[sup.name])
        in_progress.discard(cls.name)
        done.add(cls.name)
        lc.lay_out_class(cls, rec.fields, rec.methods)
        cls.a_static_zone, cls.v_static_zone = rec.a_zone, rec.v_zone
        cls.zones_initial = rec.zones_initial and tuple(rec.zones_initial)

    for cls, rec in zip(classes, records):
        finish(cls, rec)

    # pools last: member handles point at finished FieldRep/MethodRep
    for cls, rec in zip(classes, records):
        a_kind, a_payload = [], []
        for kind, value in rec.atable:
            if kind == cp.A_CLASS:
                value = deref(value)
            elif kind in (cp.A_FIELD, cp.A_METHOD):
                owner = classes[value[0]]
                members = owner.fields if kind == cp.A_FIELD else owner.methods
                if value[1] >= len(members):
                    raise Corrupt("member index %d out of range" % value[1],
                                  end)
                member = members[value[1]]
                value = cp.MemberHandle(
                    owner, member.name, member.descriptor,
                    is_field=(kind == cp.A_FIELD), resolved=member)
            a_kind.append(kind)
            a_payload.append(value)
        cls.pool = cp.packed_pool(a_kind, a_payload,
                                  [kind for kind, _ in rec.vtable],
                                  [cell for _, cell in rec.vtable])
        for m in cls.methods:
            for _, _, _, catch in m.code.exception_table if m.code else ():
                if catch is not None and not cp.holds(cls.pool, cp.ATABLE,
                                                      catch, cp.A_CLASS):
                    raise Corrupt("catch type %d of %s is not a class entry"
                                  % (catch, m), end)

        table = []
        for owner_idx, method_idx in rec.dispatch:
            owner = classes[owner_idx]
            if method_idx >= len(owner.methods):
                raise Corrupt("dispatch method index out of range", end)
            table.append(owner.methods[method_idx])
        cls.dispatch_table = table

        cls.state = lc.LINKED
        cls.ready = bool(rec.ready)

    return registry


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
        totals = StageStats(0, 0, 0)
        for c in self.classes:
            s = c.stages.get(stage)
            if s is None:
                continue
            totals.entries += s.entries
            totals.pool_bytes += s.pool_bytes
            totals.class_bytes += s.class_bytes
        return totals

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
