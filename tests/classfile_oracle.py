"""The hand-written class-file reader that the compiled one replaced, kept
as an oracle for it.

Each field is one call of a bounds-checked reader, and each attribute one
recursive call; ``parse_class`` is the parser that went with it.  The
constant pool reader and the checks after reading are jrom.classfile's own.
"""

import struct

from jrom import classfile as cf
from jrom.errors import BadIndex, BadMagic, ClassFileError, Truncated, \
    UnsupportedVersion

_U2 = struct.Struct(">H")
_U4 = struct.Struct(">I")
_EXCEPTION_ENTRY = _MEMBER_HEADER = struct.Struct(">HHHH")
_MEMBER_FIELDS = ("member access flags", "member name index",
                  "member descriptor index", "member attribute count")
# member-level attributes kept after parsing; everything else is discarded
RETAINED_ATTRS = frozenset({"Code", "ConstantValue"})
# attributes kept inside a Code attribute (stack maps in either spelling)
CODE_RETAINED_ATTRS = frozenset({"StackMapTable", "StackMap"})


class ByteReader:
    """Bounds-checked big-endian reads at a moving offset; a short input
    raises Truncated."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise Truncated("input ends inside %s" % what)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, layout, what):
        pos = self.pos
        if pos + layout.size > len(self.data):
            raise Truncated("input ends inside %s" % what)
        self.pos = pos + layout.size
        return layout.unpack_from(self.data, pos)

    def u2(self, what):
        return self.unpack(_U2, what)[0]

    def u4(self, what):
        return self.unpack(_U4, what)[0]


def _read_attribute(r, pool, inside_code):
    tags, values = pool
    name_index = r.u2("attribute name index")
    if name_index >= len(tags) or tags[name_index] != cf.TAG_UTF8:
        raise BadIndex("attribute name index %d is not a Utf8 slot" % name_index)
    name = values[name_index]
    length = r.u4("attribute length")
    whitelist = CODE_RETAINED_ATTRS if inside_code else RETAINED_ATTRS
    if name in whitelist:
        if name == "Code":
            return cf.RawAttribute(name, b"", True, length,
                                   code=_read_code(r, pool, length))
        payload = r.take(length, "attribute %s" % name)
        return cf.RawAttribute(name, payload, True, length)
    r.take(length, "attribute %s" % name)
    return cf.RawAttribute(name, b"", False, length)


def _read_code(r, pool, declared_len):
    start = r.pos
    max_stack = r.u2("max_stack")
    max_locals = r.u2("max_locals")
    code_length = r.u4("code length")
    if code_length == 0:
        raise ClassFileError("Code attribute with empty code array")
    if code_length > 0xFFFF:
        raise ClassFileError("code length %d is over 65535" % code_length)
    code_offset = r.pos
    code = r.take(code_length, "bytecode")
    exc_count = r.u2("exception table count")
    table = []
    for _ in range(exc_count):
        table.append(r.unpack(_EXCEPTION_ENTRY, "exception table entry"))
    attr_count = r.u2("code attribute count")
    attrs = [_read_attribute(r, pool, inside_code=True)
             for _ in range(attr_count)]
    if r.pos - start != declared_len:
        raise Truncated("Code attribute length disagrees with content")
    return cf.RawCode(max_stack, max_locals, code, table, attrs, code_offset)


def _read_members(r, pool):
    count = r.u2("member count")
    members = []
    for _ in range(count):
        left = len(r.data) - r.pos
        if left < _MEMBER_HEADER.size:
            # name the first field that does not fit, each one a u2
            raise Truncated("input ends inside %s"
                            % _MEMBER_FIELDS[left // 2])
        flags, name_index, desc_index, attr_count = \
            _MEMBER_HEADER.unpack_from(r.data, r.pos)
        r.pos += _MEMBER_HEADER.size
        attrs = [_read_attribute(r, pool, inside_code=False)
                 for _ in range(attr_count)]
        members.append(cf.RawMember(flags, name_index, desc_index, attrs))
    return members


def parse_class(data):
    """Parse .class bytes; raises a ClassFileError subclass on bad input."""
    r = ByteReader(data)
    if len(data) < 4:
        raise Truncated("input shorter than the magic number")
    magic = r.u4("magic")
    if magic != cf.MAGIC:
        raise BadMagic("bad magic 0x%08x" % magic)
    minor = r.u2("minor version")
    major = r.u2("major version")
    if major > cf.MAX_MAJOR:
        raise UnsupportedVersion("class file major version %d > %d"
                                 % (major, cf.MAX_MAJOR))
    pool_entries_start = r.pos + 2
    tags, values, r.pos = cf._read_pool(data, r.pos)
    pool = (tags, values)
    pool_end = r.pos

    access_flags = r.u2("access flags")
    this_class = r.u2("this class")
    super_class = r.u2("super class")
    iface_count = r.u2("interface count")
    interfaces = [r.u2("interface index") for _ in range(iface_count)]
    fields = _read_members(r, pool)
    methods = _read_members(r, pool)
    attr_count = r.u2("class attribute count")
    attributes = [_read_attribute(r, pool, inside_code=False)
                  for _ in range(attr_count)]
    if r.pos != len(data):
        raise Truncated("trailing bytes after class structure")

    raw = cf.RawClassFile(minor, major, tags, values, access_flags,
                          this_class, super_class, interfaces, fields,
                          methods, attributes,
                          pool_entries_start=pool_entries_start,
                          pool_end=pool_end)
    cf._validate(raw)
    return raw
