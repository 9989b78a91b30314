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
from dataclasses import dataclass
from operator import attrgetter

from . import classfile as cf
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
_A_CODE_KIND = {v: k for k, v in _A_KIND_CODE.items()}
_V_KIND_CODE = {cp.V_INT: 0, cp.V_FLOAT: 1, cp.V_LONG_HI: 2, cp.V_LONG_LO: 3,
                cp.V_DBL_HI: 4, cp.V_DBL_LO: 5, cp.V_STRING: 6, cp.V_NAT: 7,
                cp.V_FIELDREF: 8, cp.V_METHODREF: 9, cp.V_IFACEREF: 10}
_V_CODE_KIND = {v: k for k, v in _V_KIND_CODE.items()}

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
        if cls.loaded_view is None:
            raise StageNotReached("%s has no loaded snapshot" % cls.name)
        view = cls.loaded_view
    elif stage == lc.LINKED:
        if cls.state != lc.LINKED:
            raise StageNotReached("%s is %s" % (cls.name, cls.state))
        view = cls.view(lc.LINKED)
    else:
        raise StageNotReached("unknown stage %r" % stage)
    pool_bytes = view.pool.byte_size()
    total = pool_bytes
    for m in cls.methods:
        code = m.code_at(stage)
        if code is not None:
            total += _code_bytes(code)
    total += 8 * (len(cls.fields) + len(cls.methods))
    return StageStats(view.pool.entry_count(), pool_bytes, total)


# --- image writing ---

# the image's integer layouts, for writing and reading
_U16, _U32, _U64 = (struct.Struct(f) for f in ("<H", "<I", "<Q"))


class _Writer:
    def __init__(self):
        self.out = bytearray()
        self.strings = []
        self._string_ids = {}

    def string_id(self, text):
        sid = self._string_ids.get(text)
        if sid is None:
            sid = len(self.strings)
            self.strings.append(text)
            self._string_ids[text] = sid
        return sid

    def u8(self, v):
        self.out.append(v)

    def u16(self, v):
        self.out += _U16.pack(v)

    def u32(self, v):
        self.out += _U32.pack(v)

    def u64(self, v):
        self.out += _U64.pack(v)

    def raw(self, data):
        self.out += data

    def blob(self, data):
        self.u32(len(data))
        self.raw(data)


def _collect_strings(w, classes, flag_obj):
    """First pass so the string section can sit ahead of the class records."""
    for pkg in sorted(getattr(flag_obj, "closed_packages", ()) or ()):
        w.string_id(pkg)
    for cls in classes:
        w.string_id(cls.name)
        pool = cls.pool
        for kind, payload in zip(pool.a_kind, pool.a_payload):
            if kind in (cp.A_UTF8, cp.A_STRING):
                w.string_id(payload)
        for f in cls.fields:
            w.string_id(f.name)
            w.string_id(f.descriptor)
            if f.constant_value is not None and f.constant_value[0] == "s":
                w.string_id(f.constant_value[1])
        for m in cls.methods:
            w.string_id(m.name)
            w.string_id(m.descriptor)
        for zone in (cls.a_static_zone,
                     (cls.zones_initial or ((), ()))[0]):
            for slot in zone:
                if isinstance(slot, tuple):
                    w.string_id(slot[1])
        for kind, payload in zip(pool.a_kind, pool.a_payload):
            if kind == cp.A_CLASS and payload.synthetic:
                w.string_id(payload.name)


def emit_image(classes, flags=None):
    """Serialize a linked, closed class set; byte-identical per input set."""
    ordered = sorted(classes, key=lambda c: c.name)
    index = {c.name: i for i, c in enumerate(ordered)}
    for cls in ordered:
        if cls.state != lc.LINKED:
            raise NotLinked(cls.name)

    missing = set()
    for cls in ordered:
        for dep in [cls.super_cls] + cls.interfaces:
            if dep is not None and not dep.synthetic and dep.name not in index:
                missing.add(dep.name)
        for kind, payload in zip(cls.pool.a_kind, cls.pool.a_payload):
            if kind == cp.A_CLASS and not payload.synthetic \
                    and payload.name not in index:
                missing.add(payload.name)
            elif kind in (cp.A_FIELD, cp.A_METHOD):
                owner = payload.resolved.owner
                if not owner.synthetic and owner.name not in index:
                    missing.add(owner.name)
    if missing:
        raise IncompleteClosure(missing)

    w = _Writer()
    _collect_strings(w, ordered, flags)

    flag_bits = 0
    closed_pkgs = sorted(getattr(flags, "closed_packages", ()) or ())
    if flags is None or getattr(flags, "introspection", True):
        flag_bits |= FLAG_INTROSPECTION
    if flags is not None and getattr(flags, "private_field_opt", False):
        flag_bits |= FLAG_PRIVATE_OPT
    if flags is not None and getattr(flags, "closed_world", False):
        flag_bits |= FLAG_CLOSED_WORLD

    w.raw(IMAGE_MAGIC)
    w.u16(IMAGE_VERSION)
    w.u16(flag_bits)
    w.u32(len(ordered))
    w.u16(len(closed_pkgs))
    for pkg in closed_pkgs:
        w.u32(w.string_id(pkg))

    w.u32(len(w.strings))
    for text in w.strings:
        data = text.encode("utf-8", "surrogatepass")
        w.u16(len(data))
        w.raw(data)

    def classref(c):
        if c is None:
            w.u8(2)
        elif c.synthetic:
            w.u8(1)
            w.u32(w.string_id(c.name))
        else:
            w.u8(0)
            w.u16(index[c.name])

    for cls in ordered:
        w.u32(w.string_id(cls.name))
        w.u16(cls.access_flags)
        w.u8(1 if cls.ready else 0)
        classref(cls.super_cls)
        w.u16(len(cls.interfaces))
        for iface in cls.interfaces:
            classref(iface)
        w.u32(cls.raw_stats["entries"] if cls.raw_stats else 0)
        w.u32(cls.raw_stats["pool_bytes"] if cls.raw_stats else 0)
        w.u32(cls.raw_stats["file_bytes"] if cls.raw_stats else 0)

        pool = cls.pool
        w.u16(len(pool.a_kind))
        for kind, payload in zip(pool.a_kind, pool.a_payload):
            w.u8(_A_KIND_CODE[kind])
            if kind in (cp.A_UTF8, cp.A_STRING):
                w.u32(w.string_id(payload))
            elif kind == cp.A_CLASS:
                classref(payload)
            else:
                member = payload.resolved
                owner = member.owner
                w.u16(index[owner.name])
                members = owner.fields if kind == cp.A_FIELD else owner.methods
                w.u16(members.index(member))
        w.u16(len(pool.v_kind))
        for kind, value in zip(pool.v_kind, pool.v_value):
            w.u8(_V_KIND_CODE[kind])
            w.u32(value)

        w.u16(len(cls.fields))
        for f in cls.fields:
            w.u32(w.string_id(f.name))
            w.u32(w.string_id(f.descriptor))
            w.u16(f.access_flags)
            if f.constant_value is None:
                w.u8(0)
            else:
                kind, value = f.constant_value
                w.u8(1)
                w.raw(kind.encode())
                if kind == "s":
                    w.u64(w.string_id(value))
                else:
                    w.u64(value & 0xFFFFFFFFFFFFFFFF)

        w.u16(len(cls.methods))
        for m in cls.methods:
            w.u32(w.string_id(m.name))
            w.u32(w.string_id(m.descriptor))
            w.u16(m.access_flags)
            if m.code is None:
                w.u8(0)
                continue
            w.u8(1)
            w.u16(m.code.max_stack)
            w.u16(m.code.max_locals)
            w.blob(m.code.bytecode)
            w.u16(len(m.code.exception_table))
            for s, e, h, catch in m.code.exception_table:
                w.u16(s)
                w.u16(e)
                w.u16(h)
                w.u16(0xFFFF if catch is None else catch)
            if m.code.stack_maps is None:
                w.u8(0)
            else:
                w.u8(1)
                w.blob(m.code.stack_maps)

        w.u16(len(cls.dispatch_table))
        for m in cls.dispatch_table:
            w.u16(index[m.owner.name])
            w.u16(m.owner.methods.index(m))

        def zones_out(a_zone, v_zone):
            w.u16(len(a_zone))
            for slot in a_zone:
                if slot is None:
                    w.u8(0)
                else:
                    w.u8(1)
                    w.u32(w.string_id(slot[1]))
            w.u16(len(v_zone))
            for cell in v_zone:
                w.u32(cell)

        zones_out(cls.a_static_zone, cls.v_static_zone)
        if cls.zones_initial is None:
            w.u8(0)
        else:
            w.u8(1)
            zones_out(*cls.zones_initial)

    return bytes(w.out)


# --- image reading ---

class _ImageReader(cf.ByteReader):
    """Little-endian reads; a short image raises Corrupt at the read's offset."""
    u8 = cf.ByteReader.u1
    u16 = cf.read_one(_U16)
    u32 = cf.read_one(_U32)
    u64 = cf.read_one(_U64)

    def truncated(self, what):
        return Corrupt("truncated %s" % what, self.pos)


def load_image(data):
    """Reconstruct a registry of linked (and ready) classes from an image;
    its ``image_flags`` hold the header's flags and closed packages."""
    r = _ImageReader(data)
    if r.take(4, "magic") != IMAGE_MAGIC:
        raise BadImageMagic("not a romized image")
    version = r.u16("version")
    if version != IMAGE_VERSION:
        raise VersionMismatch("image format %d, expected %d"
                              % (version, IMAGE_VERSION))
    flag_bits = r.u16("flags")
    class_count = r.u32("class count")
    pkg_ids = [r.u32("closed package")
               for _ in range(r.u16("closed package count"))]

    string_count = r.u32("string count")
    strings = []
    for _ in range(string_count):
        n = r.u16("string length")
        raw = r.take(n, "string data")
        try:
            strings.append(raw.decode("utf-8", "surrogatepass"))
        except UnicodeDecodeError:
            raise Corrupt("undecodable string table entry", r.pos) from None

    def string_at(sid, what):
        if sid >= len(strings):
            raise Corrupt("bad %s string id %d" % (what, sid), r.pos)
        return strings[sid]

    registry = lc.Registry()
    registry.image_flags = lk.LinkContext(
        registry, introspection=bool(flag_bits & FLAG_INTROSPECTION),
        private_field_opt=bool(flag_bits & FLAG_PRIVATE_OPT),
        closed_world=bool(flag_bits & FLAG_CLOSED_WORLD),
        closed_packages={string_at(sid, "closed package") for sid in pkg_ids})
    # first create every class so cross references can be wired directly
    records = []
    classes = []

    class _Rec:
        pass

    # class names appear inside the records, so parse in two passes over
    # the same byte range is impossible; instead read fully into records
    for ci in range(class_count):
        rec = _Rec()
        rec.name = string_at(r.u32("class name"), "class name")
        rec.access_flags = r.u16("access flags")
        rec.ready = r.u8("ready flag")

        def classref(what):
            tag = r.u8(what)
            if tag == 2:
                return None
            if tag == 1:
                return ("synthetic", string_at(r.u32(what), what))
            if tag != 0:
                raise Corrupt("bad class reference tag %d" % tag, r.pos)
            idx = r.u16(what)
            if idx >= class_count:
                raise Corrupt("class index %d out of range" % idx, r.pos)
            return ("index", idx)

        rec.super_ref = classref("superclass")
        rec.interfaces = [classref("interface") for _ in range(r.u16("ifaces"))]
        rec.raw_stats = {"entries": r.u32("raw entries"),
                         "pool_bytes": r.u32("raw pool bytes"),
                         "file_bytes": r.u32("raw file bytes")}
        rec.a_kind, rec.a_payload = [], []
        for _ in range(r.u16("atable size")):
            code = r.u8("atable kind")
            kind = _A_CODE_KIND.get(code)
            if kind is None:
                raise Corrupt("bad atable kind %d" % code, r.pos)
            rec.a_kind.append(kind)
            if kind in (cp.A_UTF8, cp.A_STRING):
                rec.a_payload.append(string_at(r.u32("text"), "text"))
            elif kind == cp.A_CLASS:
                rec.a_payload.append(classref("class handle"))
            else:
                owner_idx = r.u16("owner")
                if owner_idx >= class_count:
                    raise Corrupt("member owner %d out of range" % owner_idx,
                                  r.pos)
                rec.a_payload.append((owner_idx, r.u16("member")))
        rec.v_kind, rec.v_value = [], []
        for _ in range(r.u16("vtable size")):
            code = r.u8("vtable kind")
            kind = _V_CODE_KIND.get(code)
            if kind is None:
                raise Corrupt("bad vtable kind %d" % code, r.pos)
            rec.v_kind.append(kind)
            rec.v_value.append(r.u32("cell"))

        rec.fields = []
        for _ in range(r.u16("field count")):
            fname = string_at(r.u32("field name"), "field name")
            fdesc = string_at(r.u32("field descriptor"), "field descriptor")
            fflags = r.u16("field flags")
            cv = None
            if r.u8("constant value flag"):
                kind_byte = r.u8("constant value kind")
                kind = chr(kind_byte)
                if kind not in ("i", "j", "f", "d", "s"):
                    raise Corrupt("bad constant value kind %d" % kind_byte,
                                  r.pos)
                raw = r.u64("constant value")
                if kind == "s":
                    cv = ("s", string_at(raw, "constant value"))
                elif kind in ("i", "j"):
                    width = 32 if kind == "i" else 64
                    v = raw & ((1 << width) - 1)
                    if v >= 1 << (width - 1):
                        v -= 1 << width
                    cv = (kind, v)
                else:
                    cv = (kind, raw)
            rec.fields.append((fname, fdesc, fflags, cv))

        rec.methods = []
        for _ in range(r.u16("method count")):
            mname = string_at(r.u32("method name"), "method name")
            mdesc = string_at(r.u32("method descriptor"), "method descriptor")
            mflags = r.u16("method flags")
            code = None
            if r.u8("code flag"):
                max_stack = r.u16("max stack")
                max_locals = r.u16("max locals")
                bc = bytearray(r.take(r.u32("code length"), "bytecode"))
                exc = []
                for _ in range(r.u16("exception count")):
                    s = r.u16("start")
                    e = r.u16("end")
                    h = r.u16("handler")
                    c = r.u16("catch")
                    exc.append((s, e, h, None if c == 0xFFFF else c))
                maps = None
                if r.u8("stack map flag"):
                    maps = bytes(r.take(r.u32("stack map length"), "stack maps"))
                code = lc.MethodCode(bc, max_stack, max_locals, exc, maps)
            rec.methods.append((mname, mdesc, mflags, code))

        rec.dispatch = []
        for _ in range(r.u16("dispatch size")):
            owner_idx = r.u16("table owner")
            if owner_idx >= class_count:
                raise Corrupt("dispatch owner %d out of range" % owner_idx,
                              r.pos)
            rec.dispatch.append((owner_idx, r.u16("table method")))

        def zones_in():
            a_zone = []
            for _ in range(r.u16("a zone size")):
                if r.u8("a slot tag"):
                    a_zone.append(("str", string_at(r.u32("a slot"), "a slot")))
                else:
                    a_zone.append(None)
            v_zone = [r.u32("v slot") for _ in range(r.u16("v zone size"))]
            return a_zone, v_zone

        rec.zones = zones_in()
        rec.zones_initial = zones_in() if r.u8("initial zones flag") else None
        records.append(rec)
        classes.append(registry.new_unloaded(rec.name))

    if r.pos != len(data):
        raise Corrupt("trailing bytes after last class record", r.pos)

    def deref(ref):
        if ref is None:
            return None
        if ref[0] == "synthetic":
            return registry.new_unloaded(ref[1])
        return classes[ref[1]]

    for cls, rec in zip(classes, records):
        cls.access_flags = rec.access_flags
        cls.super_cls = deref(rec.super_ref)
        cls.interfaces = [deref(x) for x in rec.interfaces]
        cls.raw_stats = rec.raw_stats

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
            raise Corrupt("superclass cycle through %s" % cls.name, r.pos)
        in_progress.add(cls.name)
        sup = cls.super_cls
        if sup is not None and not sup.synthetic:
            if sup.name not in record_of:
                raise Corrupt("superclass %s of %s is not in the image"
                              % (sup.name, cls.name), r.pos)
            finish(sup, record_of[sup.name])
        in_progress.discard(cls.name)
        done.add(cls.name)
        lc.lay_out_class(cls, rec.fields, rec.methods)
        cls.a_static_zone, cls.v_static_zone = rec.zones
        cls.zones_initial = rec.zones_initial

    for cls, rec in zip(classes, records):
        finish(cls, rec)

    # pools last: member handles point at finished FieldRep/MethodRep
    for cls, rec in zip(classes, records):
        a_payload = []
        for kind, payload in zip(rec.a_kind, rec.a_payload):
            if kind in (cp.A_UTF8, cp.A_STRING):
                a_payload.append(payload)
            elif kind == cp.A_CLASS:
                a_payload.append(deref(payload))
            else:
                owner_idx, member_idx = payload
                owner = classes[owner_idx]
                members = owner.fields if kind == cp.A_FIELD else owner.methods
                if member_idx >= len(members):
                    raise Corrupt("member index %d out of range" % member_idx,
                                  r.pos)
                member = members[member_idx]
                a_payload.append(cp.MemberHandle(
                    owner, member.name, member.descriptor,
                    is_field=(kind == cp.A_FIELD), resolved=member))
        cls.pool = cp.packed_pool(rec.a_kind, a_payload, rec.v_kind,
                                  rec.v_value)
        for m in cls.methods:
            if m.code is None:
                continue
            for _, _, _, catch in m.code.exception_table:
                if catch is not None and not cp.holds(cls.pool, cp.ATABLE,
                                                      catch, cp.A_CLASS):
                    raise Corrupt("catch type %d of %s is not a class entry"
                                  % (catch, m), r.pos)

        table = []
        for owner_idx, method_idx in rec.dispatch:
            owner = classes[owner_idx]
            if method_idx >= len(owner.methods):
                raise Corrupt("dispatch method index out of range", r.pos)
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
