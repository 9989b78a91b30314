"""The interpretive image reader that the compiled one replaced, kept as an
oracle for it.

Each part reads its rest through a call per element, and a record's read is
generated per run; ``load_image`` is the loader that went with it, moved to
image format 6.  It declares the format on its own: the header's widths
word makes each count, size, pc and index field it names one byte wide or
two, string ids and class indexes are 1, 2 or 4 bytes as the string and
class counts need, a method's kind byte says whether code and stack maps
follow, and fields have no names in a closed world without introspection.
It has no check of class record names or static zone sizes: a record out
of name order, naming a synthetic class, or holding zones of another size
than its layout gives loads here and fails in jrom.romizer.load_image.
"""

import struct
from collections import namedtuple
from functools import cache, partial

from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import linker as lk
from jrom.errors import BadImageMagic, Corrupt, VersionMismatch
from jrom.romizer import (_A_KIND_CODE, _V_KIND_CODE, FLAG_CLOSED_WORLD,
                          FLAG_INTROSPECTION, FLAG_PRIVATE_OPT, IMAGE_MAGIC,
                          IMAGE_VERSION)


class _Cursor:
    def __init__(self, data):
        self.data, self.pos, self.strings, self.class_count = data, 0, [], 0


class Field:
    load = None

    def __init__(self, fmt, what):
        self.fmt, self.what, self.head = fmt, what, self
        self.layout = struct.Struct("<" + fmt)


U8, U16, U32, U64 = (partial(Field, fmt) for fmt in "BHIQ")


class Expect(Field):
    def __init__(self, fmt, what, value, error):
        super().__init__(fmt, what)
        self.value, self.error = value, error

    def load(self, cur, value, at):
        if value != self.value:
            raise self.error(value)
        return value


class StringId(Field):
    def load(self, cur, sid, at):
        try:
            return cur.strings[sid]
        except IndexError:
            raise Corrupt("bad %s string id %d" % (self.what, sid),
                          at) from None


class ZoneString(StringId):
    def load(self, cur, sid, at):
        return "str", super().load(cur, sid, at)


class ClassIndex(Field):
    def __init__(self, fmt, what, label):
        super().__init__(fmt, what)
        self.label = label

    def load(self, cur, idx, at):
        if idx >= cur.class_count:
            raise Corrupt("%s %d out of range" % (self.label, idx), at)
        return idx


class Code(Field):
    def __init__(self, codes, what, label=None):
        super().__init__("B", what)
        self.label = label or what
        self.kinds = {code: kind for kind, code in codes.items()}

    def load(self, cur, code, at):
        if code not in self.kinds:
            raise Corrupt("bad %s %d" % (self.label, code), at)
        return self.kinds[code]


class Catch(Field):
    def load(self, cur, value, at):
        return None if value == (1 << 8 * self.layout.size) - 1 else value


class Bits(Field):
    def __init__(self, fmt, what, defined):
        super().__init__(fmt, what)
        self.defined = defined

    def load(self, cur, value, at):
        if value & ~self.defined:
            raise Corrupt("undefined %s bits %#x"
                          % (self.what, value & ~self.defined), at)
        return value


class Record:
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
        self.flat = None if part or len(self.runs) > 1 else (
            layout, [(k - len(run), m.load)
                     for k, m in enumerate(run) if m.load])
        self.read = self._generate()

    def _generate(self):
        env, names, read = {"short": _short}, [], []
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
            end = 0
            for name, m in zip(run, members):
                end += m.head.layout.size
                if m.head.load:
                    env["load_" + name] = m.head.load
                    read.append("    %s = load_%s(cur, %s, pos + %d)"
                                % (name, name, name, end))
            if part:
                last = run[-1]
                env["rest_" + last] = part.rest
                rest = "rest_%s(cur, %s)" % (last, last)
                if part.empty:
                    rest += " if %s else %s" % (last, part.empty)
                read.append("    %s = %s" % (last, rest))
        values = ", ".join(names) if self.single else "[%s]" % ", ".join(names)
        src = "\n".join(["def read(cur):", "    data = cur.data",
                         "    limit = len(data)"] + read
                        + ["    return " + values])
        exec(compile(src, "<oracle record>", "exec"), env)
        return env["read"]


def _short(cur, pos, fields):
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
    empty = "[]"

    def __init__(self, count, elem):
        self.head, self.elem = count, _record(elem)

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
        except Corrupt:
            return [read(cur) for _ in range(n)]
        cur.pos = end
        return [row[0] for row in rows] if self.elem.single else rows


class Option:
    empty = "None"

    def __init__(self, flag, body):
        self.head, self.body = flag, _record(body)

    def rest(self, cur, flag):
        return self.body.read(cur) if flag else None


class Union:
    empty = None

    def __init__(self, code, bodies):
        self.head = code
        self.bodies = {kind: body and _record(body)
                       for kind, body in bodies.items()}

    def rest(self, cur, kind):
        body = self.bodies[kind]
        return kind, body and body.read(cur)


class Blob:
    def __init__(self, length, what, text=False):
        self.head, self.what, self.text = length, what, text
        self.empty = "''" if text else "b''"

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


# the fields the widths word sizes, in the order of its bits from bit 0
_SIZED = ("string length", "closed package count", "ifaces", "atable size",
          "vtable size", "member", "field count", "field flags",
          "method count", "max stack", "max locals", "code length",
          "exception count", "start", "end", "handler", "catch",
          "a zone size", "v zone size")

_HEADER = Record(
    Expect("4s", "magic", IMAGE_MAGIC,
           lambda _: BadImageMagic("not a romized image")),
    Expect("H", "version", IMAGE_VERSION,
           lambda v: VersionMismatch("image format %d, expected %d"
                                     % (v, IMAGE_VERSION))),
    Bits("H", "flags", FLAG_INTROSPECTION | FLAG_PRIVATE_OPT
         | FLAG_CLOSED_WORLD),
    U32("class count"), Bits("I", "widths", (1 << len(_SIZED)) - 1))


def _width(count):
    """The struct format of an index into a table of ``count`` entries."""
    return "B" if count <= 256 else "H" if count <= 65536 else "I"


def _sized(widths, what, kind=Field):
    return kind("H" if widths & 1 << _SIZED.index(what) else "B", what)


@cache
def _strings(widths):
    return Record(Array(U32("string count"), Blob(
        _sized(widths, "string length"), "string data", text=True)))


@cache
def _records(widths, fmt, index, named):
    """The closed-package list and the class record of the widths word
    ``widths``, with string ids of struct format ``fmt``, class indexes of
    ``index`` and, if ``named``, field names."""
    def n(what):
        return _sized(widths, what)

    def class_ref(what):
        return Union(Code({"index": 0, "synthetic": 1, None: 2}, what,
                          "class reference tag"),
                     {"index": ClassIndex(index, what, "class index"),
                      "synthetic": StringId(fmt, what), None: None})

    def code(*maps):
        return Record(
            n("max stack"), n("max locals"),
            Blob(n("code length"), "bytecode"),
            Array(n("exception count"), Record(
                n("start"), n("end"), n("handler"),
                _sized(widths, "catch", Catch))), *maps)

    member = Record(ClassIndex(index, "owner", "member owner"), n("member"))
    zones = (Array(n("a zone size"),
                   Option(U8("a slot tag"), ZoneString(fmt, "a slot"))),
             Array(n("v zone size"), U32("v slot")))
    packages = Record(Array(n("closed package count"),
                            StringId(fmt, "closed package")))
    record = Record(
        StringId(fmt, "class name"), U16("access flags"), U8("ready flag"),
        class_ref("superclass"), Array(n("ifaces"), class_ref("interface")),
        Array(n("atable size"), Union(Code(_A_KIND_CODE, "atable kind"), {
            cp.A_UTF8: StringId(fmt, "text"),
            cp.A_STRING: StringId(fmt, "text"),
            cp.A_CLASS: class_ref("class handle"),
            cp.A_FIELD: member, cp.A_METHOD: member})),
        Array(n("vtable size"),
              Record(Code(_V_KIND_CODE, "vtable kind"), U32("cell"))),
        Array(n("field count"), Record(
            *([StringId(fmt, "field name")] if named else []),
            StringId(fmt, "field descriptor"),
            n("field flags"), Option(U8("constant value flag"), Union(
                Code({kind: ord(kind) for kind in "ijfds"},
                     "constant value kind"),
                {"i": Field("i", "constant value"),
                 "j": Field("q", "constant value"),
                 "f": U32("constant value"), "d": U64("constant value"),
                 "s": StringId(fmt, "constant value")})))),
        Array(n("method count"), Record(
            StringId(fmt, "method name"), StringId(fmt, "method descriptor"),
            U16("method flags"), Union(
                Code({None: 0, "code": 1, "maps": 2}, "code kind"),
                {None: None, "code": code(), "maps": code(
                    Blob(U32("stack map length"), "stack maps"))}))),
        *zones, Union(Code({None: 0, "same": 1, "own": 2}, "initial zones",
                           "initial zones tag"),
                      {None: None, "same": None, "own": Record(*zones)}))
    return packages, record


_ClassValues = namedtuple("_ClassValues", (
    "name access_flags ready superclass interfaces atable vtable fields"
    " methods a_zone v_zone zones_initial"))


def load_strings(data):
    """The string section of an image."""
    cur = _Cursor(data)
    return _strings(_HEADER.read(cur)[4]).read(cur)


def load_image(data):
    """A registry of the image's classes, or the error reading it raises."""
    cur = _Cursor(data)
    _, _, flag_bits, cur.class_count, widths = _HEADER.read(cur)
    cur.strings = _strings(widths).read(cur)
    named = bool(flag_bits & FLAG_INTROSPECTION
                 or not flag_bits & FLAG_CLOSED_WORLD)
    packages, record = _records(widths, _width(len(cur.strings)),
                                _width(cur.class_count), named)
    registry = lc.Registry()
    registry.image_flags = lk.LinkContext(
        registry, introspection=bool(flag_bits & FLAG_INTROSPECTION),
        private_field_opt=bool(flag_bits & FLAG_PRIVATE_OPT),
        closed_world=bool(flag_bits & FLAG_CLOSED_WORLD),
        closed_packages=set(packages.read(cur)))
    records, classes = [], []
    for _ in range(cur.class_count):
        rec = _ClassValues._make(record.read(cur))
        if not named:
            for field in rec.fields:
                field.insert(0, None)
        for method in rec.methods:
            kind, code = method[3]
            method[3] = code and lc.MethodCode(
                bytearray(code[2]), code[0], code[1], code[3],
                code[4] if kind == "maps" else None)
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
        tag, zones = rec.zones_initial
        cls.zones_initial = ((list(rec.a_zone), list(rec.v_zone))
                             if tag == "same" else zones and tuple(zones))

    for cls, rec in zip(classes, records):
        finish(cls, rec)

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
        cls.pool = cp.RuntimePool(a_kind, a_payload,
                                  [kind for kind, _ in rec.vtable],
                                  [cell for _, cell in rec.vtable])
        for m in cls.methods:
            for _, _, _, catch in m.code.exception_table if m.code else ():
                if catch is not None and not cp.holds(cls.pool, cp.ATABLE,
                                                      catch, cp.A_CLASS):
                    raise Corrupt("catch type %d of %s is not a class entry"
                                  % (catch, m), end)

        cls.state = lc.LINKED
        cls.ready = bool(rec.ready)

    return registry
