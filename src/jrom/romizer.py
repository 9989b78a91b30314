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
IMAGE_VERSION = 2

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


# --- the image schema ---
#
# The image is a header, the string section and one record per class, in
# name order.  Each is declared once, below, as a Record of fields and parts
# in order, and emit_image and load_image both run code compiled from that
# declaration.  A field is one fixed-size value; its type gives the lines
# that check and convert it as it is read, raising Corrupt at the offset
# just past it, and the lines that convert it as it is written.  A part
# (array, option, union, blob) is a fixed-size head, a count, flag, kind
# code or length, then what the head says follows; its read_after,
# write_head and write_after give the code that reads or writes it.
#
# The first read of a top-level record compiles its reader, and the first
# write its writer: each one straight-line function, with every nested part
# inlined.  An array is a for loop, an option an if, a union an if/elif on
# its kind and a blob one slice.  The fields between two parts, with the
# head of the second, are one struct.  The position is a local, stored
# back into the cursor once per record.

class _Cursor:
    """A walk's place in one image, and the string section and class table
    that its string ids and class indexes name."""

    def __init__(self, data, string_ids=None, class_index=None):
        self.data, self.pos, self.strings, self.class_count = data, 0, [], 0
        self.string_ids, self.class_index = string_ids, class_index
        self.missing = set()        # classes referenced but not written


class _Source:
    """The lines of generated functions, and the objects their code names."""

    def __init__(self):
        self.lines, self.count = [], 0
        self.env, self.names = {"Corrupt": Corrupt, "short": _short}, {}

    def name(self, obj):
        """A global of the generated code that holds ``obj``."""
        if id(obj) not in self.names:
            self.names[id(obj)] = "k%d" % len(self.names)
            self.env[self.names[id(obj)]] = obj
        return self.names[id(obj)]

    def var(self):
        """A fresh local."""
        self.count += 1
        return "v%d" % self.count

    def add(self, depth, *lines):
        self.lines += ["    " * depth + line for line in lines]

    def compile(self):
        exec(compile("\n".join(self.lines), "<image record>", "exec"),
             self.env)
        return self.env


class Field:
    """A fixed-size value: its struct code and the name a short image
    reports.  ``check`` holds the lines that check and convert the value
    as it is read, ``dump`` those that convert it as it is written; in
    them {v} is the local that holds the value, {at} the offset just past
    it and {f} the field."""
    check = dump = ()

    def __init__(self, fmt, what):
        self.fmt, self.what, self.head = fmt, what, self
        self.size = struct.calcsize("<" + fmt)

    def expand(self, src, lines, v, at=None):
        """``check`` or ``dump`` as source lines for the value in ``v``."""
        return [line.format(v=v, at=at, f=src.name(self)) for line in lines]

    def load(self, cur, value, at):
        """``check`` as a function, compiled at its first call: for a run
        the image ends inside, and for ids read ahead of their strings."""
        src = _Source()
        src.add(0, "def load(cur, v, at):")
        src.add(1, "strings, class_count = cur.strings, cur.class_count",
                *self.expand(src, self.check, "v", "at"), "return v")
        self.load = src.compile()["load"]
        return self.load(cur, value, at)


U8, U16, U32, U64 = (partial(Field, fmt) for fmt in "BHIQ")


class Expect(Field):
    """A value the image must hold, or ``error(value)`` is raised."""
    check = ("if {v} != {f}.value:", "    raise {f}.error({v})")

    def __init__(self, fmt, what, value, error):
        super().__init__(fmt, what)
        self.value, self.error = value, error


class StringId(Field):
    """A string, as its index in the string section."""
    check = ("try:", "    {v} = strings[{v}]", "except IndexError:",
             "    raise Corrupt('bad %s string id %d' % ({f}.what, {v}),"
             " {at}) from None")
    dump = ("{v} = string_ids.setdefault({v}, len(string_ids))",)

    def __init__(self, what, fmt="I"):
        super().__init__(fmt, what)


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


class Int32(Field):
    """An int, sign-extended to 64 bits; read back from the low 32."""
    check = ("{v} &= 0xFFFFFFFF", "if {v} >= 0x80000000:",
             "    {v} -= 0x100000000")


class Record:
    """Fields and parts in order.  Its value is the tuple of theirs, the
    one member's value for a record of one member, or, with ``into`` a
    type and its attribute names in member order, an instance of that type
    built from them by keyword; writing then reads those attributes."""

    def __init__(self, *members, into=None):
        self.runs, run = [], []     # (fields, the part they end with or None)
        for m in members:
            run.append(m.head)
            if m.head is not m:
                self.runs.append((run, m))
                run = []
        if run:
            self.runs.append((run, None))
        self.size = len(members)
        self.into = into and (into[0], into[1].split())

    def read(self, cur):
        """The record's value at ``cur.pos``; compiled at the first call."""
        src = _Source()
        src.add(0, "def read(cur):")
        src.add(1, "data, pos = cur.data, cur.pos", "limit = len(data)",
                "strings, class_count = cur.strings, cur.class_count")
        src.add(1, "value = " + _value(src, self, _read(src, self, 1)),
                "cur.pos = pos", "return value")
        self.read = src.compile()["read"]
        return self.read(cur)

    def write(self, cur, value):
        """Append ``value`` to ``cur.data``; compiled at the first call."""
        src = _Source()
        src.add(0, "def write(cur, value):")
        src.add(1, "out, string_ids = cur.data, cur.string_ids",
                "class_index, missing = cur.class_index, cur.missing")
        _write(src, self, "value", 1)
        self.write = src.compile()["write"]
        self.write(cur, value)


def _layout(fields):
    return struct.Struct("<" + "".join(f.fmt for f in fields))


def _read(src, record, depth):
    """Add the lines reading ``record``; return the expressions of its
    members' values, a union's as its (kind, body) pair.  A run that the
    image ends inside goes to _short."""
    values = []
    for fields, part in record.runs:
        run = [src.var() for _ in fields]
        src.add(depth, "end = pos + %d" % sum(f.size for f in fields),
                "if end > limit:",
                "    short(cur, pos, %s)" % src.name(fields),
                "%s = data[pos]" % run[0] if [f.fmt for f in fields] == ["B"]
                else "%s, = %s.unpack_from(data, pos)"
                % (", ".join(run), src.name(_layout(fields))))
        at = 0
        for f, v in zip(fields, run):
            at += f.size
            src.add(depth, *f.expand(src, f.check, v, "pos + %d" % at))
        src.add(depth, "pos = end")
        if part:
            run[-1] = part.read_after(src, run[-1], depth)
        values += run
    return values


def _value(src, record, values):
    """The expression of a record's value, from those of its members."""
    values = [v if isinstance(v, str) else "(%s, %s)" % v for v in values]
    if record.into:
        kind, names = record.into
        return "%s(%s)" % (src.name(kind), ", ".join(
            "%s=%s" % pair for pair in zip(names, values)))
    return values[0] if record.size == 1 else "(%s,)" % ", ".join(values)


def _write(src, record, value, depth):
    """Add the lines appending local ``value`` as ``record``."""
    values = [src.var() for _ in range(record.size)]
    if record.into:
        src.add(depth, "%s = %s" % (", ".join(values), ", ".join(
            "%s.%s" % (value, name) for name in record.into[1])))
    elif record.size == 1:
        values = [value]
    else:
        src.add(depth, "%s, = %s" % (", ".join(values), value))
    for fields, part in record.runs:
        run, values = values[:len(fields)], values[len(fields):]
        packed = list(run)
        for f, v in zip(fields[:-1] if part else fields, run):
            src.add(depth, *f.expand(src, f.dump, v))
        if part:
            packed[-1] = part.write_head(src, run[-1], depth)
        src.add(depth, "out += %s.pack(%s)"
                % (src.name(_layout(fields)), ", ".join(packed)))
        if part:
            part.write_after(src, run[-1], depth)


def _short(cur, pos, fields):
    """Raise for a run the image ends inside, as reading its fields one by
    one would: check those that fit, then name the first that does not."""
    for f in fields:
        end = pos + f.size
        if end > len(cur.data):
            raise Corrupt("truncated %s" % f.what, pos)
        f.load(cur, struct.unpack_from("<" + f.fmt, cur.data, pos)[0], end)
        pos = end


def _record(node):
    return node if isinstance(node, Record) else Record(node)


class Array:
    """A count, then that many elements.  With ``columns``, the elements'
    members, or a union element's kinds and bodies, are read into one list
    each, and the value is the tuple of those lists.  With ``frozen``, the
    value is a tuple, so an empty array reads as the shared ()."""

    def __init__(self, count, elem, columns=False, frozen=False):
        self.head, self.elem, self.columns = count, _record(elem), columns
        self.frozen = frozen

    def read_after(self, src, n, depth):
        start = len(src.lines)  # the lists are made here, once they are known
        src.add(depth, "for _ in range(%s):" % n)
        values = _read(src, self.elem, depth + 1)
        if not self.columns:
            values = [_value(src, self.elem, values)]
        elif len(values) == 1:  # a union element: kinds, then bodies
            values = values[0]
        lists = [src.var() for _ in values]
        src.lines.insert(start, "    " * depth + "%s = %s" % (
            ", ".join(lists), ", ".join("[]" for _ in lists)))
        src.add(depth + 1, *("%s.append(%s)" % pair
                             for pair in zip(lists, values)))
        if self.columns:
            return "(%s,)" % ", ".join(lists)
        return "tuple(%s)" % lists[0] if self.frozen else lists[0]

    def write_head(self, src, items, depth):
        return "len(%s%s)" % (items, "[0]" if self.columns else "")

    def write_after(self, src, items, depth):
        elem = src.var()
        src.add(depth, "for %s in %s:" % (
            elem, "zip(*%s)" % items if self.columns else items))
        _write(src, self.elem, elem, depth + 1)


class Option:
    """A flag, then the body if the flag is set; None stands for no body."""

    def __init__(self, flag, body):
        self.head, self.body = flag, _record(body)

    def read_after(self, src, flag, depth):
        src.add(depth, "if %s:" % flag)
        src.add(depth + 1, "%s = %s" % (flag, _value(
            src, self.body, _read(src, self.body, depth + 1))))
        src.add(depth, "else:", "    %s = None" % flag)
        return flag

    def write_head(self, src, value, depth):
        return "%s is not None" % value

    def write_after(self, src, value, depth):
        src.add(depth, "if %s is not None:" % value)
        _write(src, self.body, value, depth + 1)


class Union:
    """A kind code, then the body of that kind; the value is (kind, the
    body's value), with None for a kind that has no body.  ``bodies`` has
    one entry per kind of the code, and the kinds are str or None."""

    def __init__(self, code, bodies):
        self.head = code
        self.bodies = {kind: body and _record(body)
                       for kind, body in bodies.items()}

    def _branches(self, src, kind, depth):
        """The body of each kind, after adding its if, elif or else."""
        last = len(self.bodies) - 1
        for i, (k, body) in enumerate(self.bodies.items()):
            src.add(depth, "else:" if i == last else "%s %s == %r:"
                    % ("elif" if i else "if", kind, k))
            yield body

    def read_after(self, src, kind, depth):
        value = src.var()
        for body in self._branches(src, kind, depth):
            src.add(depth + 1, "%s = %s" % (value, _value(
                src, body, _read(src, body, depth + 1)) if body else "None"))
        return kind, value

    def write_head(self, src, value, depth):
        src.add(depth, "{0}k, {0}b = {0}".format(value),
                "{0}c = {0}k".format(value),
                *self.head.expand(src, self.head.dump, value + "c"))
        return value + "c"

    def write_after(self, src, value, depth):
        for body in self._branches(src, value + "k", depth):
            if body:
                _write(src, body, value + "b", depth + 1)
            else:
                src.add(depth + 1, "pass")


class Blob:
    """A byte length, then the bytes: as ``kind``, bytes, bytearray, or
    str for a string's UTF-8."""

    def __init__(self, length, what, kind=bytes):
        self.head, self.what, self.kind = length, what, kind

    def read_after(self, src, n, depth):
        src.add(depth, "end = pos + %s" % n, "if end > limit:",
                "    raise Corrupt(%r, pos)" % ("truncated " + self.what))
        if self.kind is str:
            src.add(depth, "try:", "    %s = data[pos:end].decode("
                    "'utf-8', 'surrogatepass')" % n,
                    "except UnicodeDecodeError:",
                    "    raise Corrupt('undecodable string table entry',"
                    " end) from None")
        else:
            src.add(depth, "%s = %s(data[pos:end])" % (n, src.name(self.kind)))
        src.add(depth, "pos = end")
        return n

    def write_head(self, src, data, depth):
        if self.kind is str:
            src.add(depth, "{0}b = {0}.encode('utf-8', 'surrogatepass')"
                    .format(data))
            return "len(%sb)" % data
        return "len(%s)" % data

    def write_after(self, src, data, depth):
        src.add(depth, "out += %s%s" % (data, "b" if self.kind is str else ""))


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
                        Blob(U16("string length"), "string data", str)))

_MEMBER = Record(ClassIndex("owner", "member owner"), U16("member"))

# the values of a class record, in order
_CLASS_VALUES = (
    "name access_flags ready superclass interfaces atable vtable fields"
    " methods a_zone v_zone zones_initial")
_ClassValues = namedtuple("_ClassValues", _CLASS_VALUES)

_CLASS = Record(
    StringId("class name"), U16("access flags"), U8("ready flag"),
    _class_ref("superclass"), Array(U16("ifaces"), _class_ref("interface")),
    # the pool's tables, as (kinds, payloads) and (kinds, cells)
    Array(U16("atable size"), Union(Code(_A_KIND_CODE, "atable kind"), {
        cp.A_UTF8: StringId("text"), cp.A_STRING: StringId("text"),
        cp.A_CLASS: _class_ref("class handle"),
        cp.A_FIELD: _MEMBER, cp.A_METHOD: _MEMBER}), columns=True),
    Array(U16("vtable size"),
          Record(Code(_V_KIND_CODE, "vtable kind"), U32("cell")),
          columns=True),
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
            Blob(U32("code length"), "bytecode", bytearray),
            Array(U16("exception count"), Record(
                U16("start"), U16("end"), U16("handler"),
                Catch("H", "catch")), frozen=True),
            Option(U8("stack map flag"),
                   Blob(U32("stack map length"), "stack maps")),
            into=(lc.MethodCode, "max_stack max_locals bytecode"
                                 " exception_table stack_maps"))))),
    *_ZONES, Option(U8("initial zones flag"), Record(*_ZONES)),
    into=(_ClassValues, _CLASS_VALUES))


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


def emit_image(classes, flags):
    """Serialize a linked, closed class set; byte-identical per input set.

    The class records are written first: each string gets its id the first
    time a record writes it, after the closed packages, which come first.
    The header and string section then go in front of them."""
    ordered = sorted(classes, key=lambda c: c.name)
    for cls in ordered:
        if cls.state != lc.LINKED:
            raise NotLinked(cls.name)
    packages = sorted(flags.closed_packages)
    cur = _Cursor(bytearray(), {pkg: i for i, pkg in enumerate(packages)},
                  {c.name: i for i, c in enumerate(ordered)})
    for cls in ordered:
        pool = cls.pool
        _CLASS.write(cur, _ClassValues(
            cls.name, cls.access_flags, int(cls.ready), _ref(cls.super_cls),
            [_ref(c) for c in cls.interfaces],
            (pool.a_kind, [_payload(k, p)
                           for k, p in zip(pool.a_kind, pool.a_payload)]),
            (pool.v_kind, pool.v_value),
            [(f.name, f.descriptor, f.access_flags, f.constant_value)
             for f in cls.fields],
            [(m.name, m.descriptor, m.access_flags, m.code)
             for m in cls.methods],
            cls.a_static_zone, cls.v_static_zone, cls.zones_initial))
    if cur.missing:
        raise IncompleteClosure(cur.missing)
    records, cur.data = cur.data, bytearray()
    _HEADER.write(cur, (
        IMAGE_MAGIC, IMAGE_VERSION,
        (FLAG_INTROSPECTION if flags.introspection else 0)
        | (FLAG_PRIVATE_OPT if flags.private_field_opt else 0)
        | (FLAG_CLOSED_WORLD if flags.closed_world else 0),
        len(ordered), list(range(len(packages)))))
    _STRINGS.write(cur, list(cur.string_ids))
    return bytes(cur.data + records)


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
        start = cur.pos
        rec = _CLASS.read(cur)
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
            for zones in (rec.a_zone, rec.v_zone), rec.zones_initial:
                if zones and tuple(map(len, zones)) != sizes:
                    raise Corrupt("static zones of %s do not fit its layout"
                                  % c.name, end)
            c.a_static_zone, c.v_static_zone = rec.a_zone, rec.v_zone
            c.zones_initial = rec.zones_initial
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
