"""Parsing of .class files into a faithful raw representation.

Only the pre-Java-5 format (major version <= 49) is accepted.  The
constant pool is read into parallel tag and value arrays, with no object
per constant.  Attributes that play no part in execution (debug tables,
source names, and so on) are dropped at parse time; their byte lengths are
kept so footprint reports can say how much was discarded.
"""

import struct
from dataclasses import dataclass
from itertools import compress
from sys import intern
from types import SimpleNamespace

from .errors import (BadIndex, BadMagic, BadTag, BadUtf8, Truncated,
                     UnsupportedVersion)
from .schema import U16, U32, Array, Blob, Field, Record, Schema, Union, \
    read_value

MAGIC = 0xCAFEBABE
MAX_MAJOR = 49

TAG_PLACEHOLDER = 0
TAG_UTF8 = 1
TAG_INTEGER = 3
TAG_FLOAT = 4
TAG_LONG = 5
TAG_DOUBLE = 6
TAG_CLASS = 7
TAG_STRING = 8
TAG_FIELDREF = 9
TAG_METHODREF = 10
TAG_IFACEMETHODREF = 11
TAG_NAMEANDTYPE = 12

TAG_NAMES = {
    TAG_UTF8: "Utf8", TAG_INTEGER: "Integer", TAG_FLOAT: "Float",
    TAG_LONG: "Long", TAG_DOUBLE: "Double", TAG_CLASS: "Class",
    TAG_STRING: "String", TAG_FIELDREF: "Fieldref", TAG_METHODREF: "Methodref",
    TAG_IFACEMETHODREF: "InterfaceMethodref", TAG_NAMEANDTYPE: "NameAndType",
}

ACC_PUBLIC = 0x0001
ACC_PRIVATE = 0x0002
ACC_STATIC = 0x0008
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400

# tag of a ConstantValue constant -> the type char constant_value_of gives it
CONSTANT_VALUE_KINDS = {TAG_INTEGER: "i", TAG_FLOAT: "f", TAG_LONG: "j",
                        TAG_DOUBLE: "d", TAG_STRING: "s"}
# the pool tags of a static field's ConstantValue, by the field's type
_FIELD_CONSTANT_TAGS = dict.fromkeys("ISCBZ", TAG_INTEGER) | {
    "J": TAG_LONG, "F": TAG_FLOAT, "D": TAG_DOUBLE,
    "Ljava/lang/String;": TAG_STRING}
# a byte per tag, 1 for the tags of the constants that refer to others
_REFERS = bytes(TAG_CLASS <= tag <= TAG_NAMEANDTYPE for tag in range(256))


def decode_mutf8(data):
    """Decode JVM modified UTF-8; a surrogate pair becomes the character it
    encodes, lone surrogates are kept as-is."""
    out, i, n = [], 0, len(data)
    while i < n:
        b0 = data[i]
        if b0 == 0 or b0 >= 0xF0:
            raise BadUtf8("bad modified-UTF-8 byte 0x%02x at %d" % (b0, i))
        if b0 < 0x80:
            out.append(chr(b0))
            i += 1
        elif b0 & 0xE0 == 0xC0:
            if i + 1 >= n or data[i + 1] & 0xC0 != 0x80:
                raise BadUtf8("truncated 2-byte sequence at %d" % i)
            out.append(chr(((b0 & 0x1F) << 6) | (data[i + 1] & 0x3F)))
            i += 2
        elif b0 & 0xF0 == 0xE0:
            if i + 2 >= n or data[i + 1] & 0xC0 != 0x80 or data[i + 2] & 0xC0 != 0x80:
                raise BadUtf8("truncated 3-byte sequence at %d" % i)
            out.append(chr(((b0 & 0x0F) << 12) | ((data[i + 1] & 0x3F) << 6)
                           | (data[i + 2] & 0x3F)))
            i += 3
        else:
            raise BadUtf8("bad modified-UTF-8 byte 0x%02x at %d" % (b0, i))
    return "".join(out).encode("utf-16-le", "surrogatepass").decode(
        "utf-16-le", "surrogatepass")


def encode_mutf8(text):
    """Inverse of decode_mutf8 (used to size pool text, and by tests)."""
    if text.isascii() and "\0" not in text:
        return text.encode("ascii")
    out = bytearray()
    for ch in text:
        cp = ord(ch)
        if 1 <= cp <= 0x7F:
            out.append(cp)
        elif cp <= 0x7FF:
            out.append(0xC0 | (cp >> 6))
            out.append(0x80 | (cp & 0x3F))
        elif cp <= 0xFFFF:
            out.append(0xE0 | (cp >> 12))
            out.append(0x80 | ((cp >> 6) & 0x3F))
            out.append(0x80 | (cp & 0x3F))
        else:
            cp -= 0x10000
            for half in (0xD800 + (cp >> 10), 0xDC00 + (cp & 0x3FF)):
                out.append(0xE0 | (half >> 12))
                out.append(0x80 | ((half >> 6) & 0x3F))
                out.append(0x80 | (half & 0x3F))
    return bytes(out)


@dataclass(slots=True)
class RawAttribute:
    name: str
    payload: bytes          # empty when not retained
    retained: bool
    orig_len: int           # on-disk payload length
    code: "RawCode" = None  # parsed form, Code attribute only


@dataclass(slots=True)
class RawCode:
    max_stack: int
    max_locals: int
    code: bytes
    exception_table: list   # (start_pc, end_pc, handler_pc, catch_type_index)
    attributes: list        # inner RawAttributes (stack maps retained)
    code_offset: int        # absolute offset of the code array in the file


@dataclass(slots=True)
class RawMember:
    access_flags: int
    name_index: int
    descriptor_index: int
    attributes: list
    name: str = None
    descriptor: str = None

    def attr(self, name):
        for a in self.attributes:
            if a.name == name:
                return a
        return None


@dataclass(slots=True)
class RawClassFile:
    minor_version: int
    major_version: int
    pool_tags: bytearray    # tag per pool slot; slot 0 and the slot after a
    pool_values: list       # Long/Double hold TAG_PLACEHOLDER; see _read_pool
    access_flags: int
    this_class: int
    super_class: int
    interfaces: list
    fields: list
    methods: list
    attributes: list
    pool_entries_start: int = 0   # offset just past the pool count field
    pool_end: int = 0
    name: str = None
    super_name: str = None

    def constant(self, index, tag=None):
        """The value in slot ``index``, which must hold a ``tag`` constant."""
        if not 1 <= index < len(self.pool_tags):
            raise BadIndex("pool index %d out of range" % index)
        found = self.pool_tags[index]
        if found == TAG_PLACEHOLDER:
            raise BadIndex("pool index %d is a placeholder slot" % index)
        if tag is not None and found != tag:
            raise BadIndex("pool index %d holds %s, expected %s"
                           % (index, TAG_NAMES.get(found, found),
                              TAG_NAMES.get(tag, tag)))
        return self.pool_values[index]

    def utf8(self, index):
        return self.constant(index, TAG_UTF8)

    def class_name(self, index):
        return self.utf8(self.constant(index, TAG_CLASS))


_U2 = struct.Struct(">H")
_REF = struct.Struct(">HH")
# tag -> (layout, what a truncation names) of the fixed-size pool entries
_POOL_ENTRIES = {
    TAG_INTEGER: (struct.Struct(">i"), "Integer"),
    TAG_FLOAT: (struct.Struct(">I"), "Float"),
    TAG_LONG: (struct.Struct(">q"), "Long"),
    TAG_DOUBLE: (struct.Struct(">Q"), "Double"),
    TAG_CLASS: (_U2, "index"),
    TAG_STRING: (_U2, "index"),
    TAG_FIELDREF: (_REF, "index"),
    TAG_METHODREF: (_REF, "index"),
    TAG_IFACEMETHODREF: (_REF, "index"),
    TAG_NAMEANDTYPE: (_REF, "index"),
}


def _read_pool(data, pos):
    """The pool whose count is at ``pos`` as (tags, values, end offset):
    one tag (a bytearray) and one value per slot.  Slot 0 and the slot
    after a Long or Double hold TAG_PLACEHOLDER and None; a Utf8 value is
    its text, interned, so equal names and descriptors across classes are
    one str, a reference's its pair of indices, any other its number."""
    end = len(data)
    if pos + 2 > end:
        raise Truncated("input ends inside constant pool count")
    count = (data[pos] << 8) | data[pos + 1]
    if count == 0:
        raise BadIndex("constant pool count is 0, but it counts slot 0 too")
    pos += 2
    tags = bytearray(count)
    values = [None] * count
    entries = _POOL_ENTRIES
    i = 1
    while i < count:
        if pos >= end:
            raise Truncated("input ends inside constant tag")
        tag = data[pos]
        if tag == TAG_UTF8:
            start = pos + 3
            if start > end:
                raise Truncated("input ends inside Utf8 length")
            pos = start + ((data[pos + 1] << 8) | data[pos + 2])
            if pos > end:
                raise Truncated("input ends inside Utf8 bytes")
            text = data[start:pos]
            values[i] = intern(text.decode() if text.isascii() and 0 not in text
                               else decode_mutf8(text))
        else:
            entry = entries.get(tag)
            if entry is None:
                raise BadTag("unknown constant pool tag %d" % tag)
            layout, what = entry
            if pos + 1 + layout.size > end:
                raise Truncated("input ends inside %s" % what)
            value = layout.unpack_from(data, pos + 1)
            pos += 1 + layout.size
            values[i] = value if len(value) == 2 else value[0]
        tags[i] = tag
        # a Long or Double takes two slots; the second stays a placeholder
        i += 2 if tag == TAG_LONG or tag == TAG_DOUBLE else 1
    if i != count:
        # a Long/Double in the last slot pushed us past the declared count
        raise BadIndex("8-byte constant overflows the pool count")
    return tags, values, pos


# --- the schema of what follows the constant pool ---

class _Name(Field):
    """A name, as the index of a Utf8 slot of the pool."""
    check = ("if {v} >= len(tags) or tags[{v}] != %d:" % TAG_UTF8,
             "    raise BadIndex('%s %d is not a Utf8 slot' % ({f}.what, {v}))",
             "{v} = values[{v}]")


class _CodeLength(Field):
    """A code length: 1 to 65,535 bytes (JVMS 4.7.3)."""
    check = ("if not {v}:", "    raise ClassFileError("
             "'Code attribute with empty code array')", "if {v} > 0xFFFF:",
             "    raise ClassFileError('code length %d is over 65535' % {v})")


class _Payload:
    """An attribute's length, then its payload: kept as bytes, skipped, or
    read as ``code``, a record that must end where the length says.  The
    value is the RawAttribute, named by the union it is a body of."""

    def __init__(self, kept, code=None):
        self.head, self.kept, self.code = U32("attribute length"), kept, code

    def read_after(self, src, n, depth):
        if self.code:
            start = src.var()
            src.add(depth, "%s = pos" % start)
            # the bytecode follows max_stack, max_locals and the code length
            code = read_value(src, self.code, depth, start + " + 8")
            src.add(depth, "if pos - %s != %s:" % (start, n),
                    "    raise Truncated('Code attribute length disagrees"
                    " with content')", "end = pos")
            args = "'Code', b'', True, %s, %s" % (n, code)
        else:
            src.add(depth, "end = pos + %s" % n, "if end > limit:",
                    "    raise truncated('attribute ' + %s, pos)" % src.kind)
            args = "%s, %s, %s, %s" % (
                src.kind, "data[pos:end]" if self.kept else "b''", self.kept, n)
        src.add(depth, "%s = %s(%s)" % (n, src.name(RawAttribute), args),
                "pos = end")
        return n


def _attributes(count, kept):
    """A count, then that many attributes, read as ``kept`` says or skipped."""
    return Array(U16(count), Union(_Name("H", "attribute name index"),
                                   {**kept, None: _Payload(False)}, bare=True))


# stack maps, in either spelling, are the only attributes a Code keeps
_CODE = Record(
    U16("max_stack"), U16("max_locals"),
    Blob(_CodeLength("I", "code length"), "bytecode"),
    Array(U16("exception table count"),
          Record(*(U16("exception table entry") for _ in range(4)))),
    _attributes("code attribute count", {"StackMapTable": _Payload(True),
                                         "StackMap": _Payload(True)}),
    into=RawCode)

# a member or the class keeps its Code and ConstantValue
_KEPT = {"Code": _Payload(True, _CODE), "ConstantValue": _Payload(True)}

_MEMBER = Record(
    U16("member access flags"), U16("member name index"),
    U16("member descriptor index"),
    _attributes("member attribute count", _KEPT),
    into=RawMember)

_CLASS = Record(
    U16("access flags"), U16("this class"), U16("super class"),
    Array(U16("interface count"), U16("interface index")),
    Array(U16("member count"), _MEMBER), Array(U16("member count"), _MEMBER),
    _attributes("class attribute count", _KEPT),
    schema=Schema(">", lambda what, at: Truncated("input ends inside " + what),
                  "tags, values = cur.tags, cur.values"))


def parse_class(data):
    """Parse .class bytes; raises a ClassFileError subclass on bad input."""
    if len(data) < 4:
        raise Truncated("input shorter than the magic number")
    magic = int.from_bytes(data[:4], "big")
    if magic != MAGIC:
        raise BadMagic("bad magic 0x%08x" % magic)
    if len(data) < 8:
        raise Truncated("input ends inside %s version"
                        % ("minor" if len(data) < 6 else "major"))
    minor, major = _REF.unpack_from(data, 4)
    if major > MAX_MAJOR:
        raise UnsupportedVersion("class file major version %d > %d"
                                 % (major, MAX_MAJOR))
    tags, values, pool_end = _read_pool(data, 8)
    cur = SimpleNamespace(data=data, pos=pool_end, tags=tags, values=values)
    raw = RawClassFile(minor, major, tags, values, *_CLASS.read(cur),
                       pool_entries_start=10, pool_end=pool_end)
    if cur.pos != len(data):
        raise Truncated("trailing bytes after class structure")
    _validate(raw)
    return raw


def _validate(raw):
    # each index is checked inline; only a bad one goes to the RawClassFile
    # method that raises the error naming it
    tags, values = raw.pool_tags, raw.pool_values
    n = len(tags)
    for tag, value in compress(zip(tags, values), tags.translate(_REFERS)):
        if tag == TAG_CLASS or tag == TAG_STRING:
            if value >= n or tags[value] != TAG_UTF8:
                raw.utf8(value)
        elif tag == TAG_NAMEANDTYPE:
            for index in value:
                if index >= n or tags[index] != TAG_UTF8:
                    raw.utf8(index)
        else:
            owner, nat = value
            if owner >= n or tags[owner] != TAG_CLASS:
                raw.constant(owner, TAG_CLASS)
            if nat >= n or tags[nat] != TAG_NAMEANDTYPE:
                raw.constant(nat, TAG_NAMEANDTYPE)

    raw.name = raw.class_name(raw.this_class)
    if raw.super_class == 0:
        if raw.name != "java/lang/Object":
            raise BadIndex("super_class 0 is only legal for java/lang/Object")
    else:
        raw.super_name = raw.class_name(raw.super_class)
    for idx in raw.interfaces:
        raw.class_name(idx)

    for m in raw.fields + raw.methods:
        i, j = m.name_index, m.descriptor_index
        m.name = values[i] if i < n and tags[i] == TAG_UTF8 else raw.utf8(i)
        m.descriptor = values[j] if j < n and tags[j] == TAG_UTF8 else raw.utf8(j)
    for m in raw.fields:
        cv = m.attr("ConstantValue")
        if cv is not None:
            if cv.orig_len != 2:
                raise BadIndex("ConstantValue payload must be 2 bytes")
            idx = _U2.unpack(cv.payload)[0]
            raw.constant(idx)
            if tags[idx] not in CONSTANT_VALUE_KINDS:
                raise BadIndex("ConstantValue index %d has a non-value tag" % idx)
            if m.access_flags & ACC_STATIC and \
                    tags[idx] != _FIELD_CONSTANT_TAGS.get(m.descriptor):
                raise BadIndex("static field %s %s has a %s ConstantValue"
                               % (m.name, m.descriptor, TAG_NAMES[tags[idx]]))
    for m in raw.methods:
        code_attr = m.attr("Code")
        if code_attr is not None:
            for entry in code_attr.code.exception_table:
                if entry[3] != 0:
                    raw.constant(entry[3], TAG_CLASS)


def pool_entry_count(raw):
    """Number of real constants (slot 0 and placeholders excluded)."""
    return len(raw.pool_tags) - raw.pool_tags.count(TAG_PLACEHOLDER)


def constant_value_of(raw, member):
    """Decoded ConstantValue of a field, or None.

    Returns (type_char, value) where value is an int (bit pattern for
    Float/Double), a Python int for Integer/Long, or a str for String.
    """
    cv = member.attr("ConstantValue")
    if cv is None:
        return None
    idx = _U2.unpack(cv.payload)[0]     # checked by _validate
    kind = CONSTANT_VALUE_KINDS[raw.pool_tags[idx]]
    value = raw.pool_values[idx]
    return (kind, raw.utf8(value) if kind == "s" else value)
