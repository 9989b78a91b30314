"""Two-table runtime constant pool with prelinking, marking and packing.

A parsed pool is split into an atable of reference entries (text, class
handles, member handles) and a vtable of 32-bit cells (immediates and packed
index pairs).  Each table is stored flat, as parallel lists:
``a_kind``/``a_payload`` for the atable and ``v_kind``/``v_value`` for the
vtable, with the dead flags of every entry in ``bytearray``s, so a pool is a
handful of containers however many entries it has.  Prelinking resolves the
symbolic constants into direct handles, which strips most Utf8 text out of
the live set; nothing changes the pool after that, so it is the loaded
snapshot.  Linking marks the entries its final code uses into flags of its
own (new_marks), and pack() copies them into a new pool, rewriting the
atable indexes that surviving cells hold, and returns the remaps that the
bytecode rewriter applies.
"""

from dataclasses import dataclass
from itertools import compress

from . import classfile as cf
from .classfile import encode_mutf8
from .errors import DanglingIndex, IndexOutOfRange, InternalError, PoolOverflow

ATABLE = "a"
VTABLE = "v"

# atable entry kinds
A_UTF8 = "utf8"
A_STRING = "string"
A_CLASS = "class"
A_FIELD = "field"
A_METHOD = "method"

# vtable cell kinds
V_INT = "int"
V_FLOAT = "float"
V_LONG_HI = "long_hi"
V_LONG_LO = "long_lo"
V_DBL_HI = "dbl_hi"
V_DBL_LO = "dbl_lo"
V_STRING = "string"
V_NAT = "nat"
V_FIELDREF = "fieldref"
V_METHODREF = "methodref"
V_IFACEREF = "ifaceref"

_PAIR_HI = {V_LONG_HI, V_DBL_HI}
_PAIR_LO = {V_LONG_LO, V_DBL_LO}
_REFS = {V_FIELDREF, V_METHODREF, V_IFACEREF}
_REF_KIND = {
    cf.TAG_FIELDREF: V_FIELDREF,
    cf.TAG_METHODREF: V_METHODREF,
    cf.TAG_IFACEMETHODREF: V_IFACEREF,
}
# member-ref cell kind -> kind of the handle its low 16 bits name
_HANDLE_KIND = {V_FIELDREF: A_FIELD, V_METHODREF: A_METHOD,
                V_IFACEREF: A_METHOD}


@dataclass
class MemberHandle:
    """Field or Method entry in the atable.

    Created symbolically during prelinking; ``resolved`` is filled in with
    the real FieldRep/MethodRep when the owning class gets linked.
    """
    owner: object           # ClassRep, possibly still unloaded
    name: str
    descriptor: str
    is_field: bool
    resolved: object = None


def _pack16(hi, lo):
    if hi > 0xFFFF or lo > 0xFFFF:
        raise PoolOverflow("atable index does not fit 16 bits")
    return (hi << 16) | lo


def _unpack16(value):
    return value >> 16, value & 0xFFFF


class RuntimePool:
    """Atable entry i is (a_kind[i], a_payload[i]): a str for text, a
    ClassRep or a MemberHandle.  Vtable cell i is (v_kind[i], v_value[i]),
    the value an unsigned 32-bit bit pattern."""

    def __init__(self):
        self.a_kind = []
        self.a_payload = []
        self.v_kind = []
        self.v_value = []
        self.a_dead = bytearray()   # resolved-away at load; excluded from stats
        self.v_dead = bytearray()
        self.origin = {}        # raw pool index -> (space, table index)
        self._utf8_index = {}   # text -> atable index of the Utf8 entry
        self._string_index = {} # text -> atable index of the interned literal
        self._member_index = {} # (class aidx, name, desc, kind) -> aidx
        self._pending = 0       # raw constants not yet placed by prelinking

    # --- construction helpers ---

    def add_a(self, kind, payload):
        self.a_kind.append(kind)
        self.a_payload.append(payload)
        self.a_dead.append(False)
        return len(self.a_kind) - 1

    def add_v(self, kind, value):
        self.v_kind.append(kind)
        self.v_value.append(value)
        self.v_dead.append(False)
        return len(self.v_kind) - 1

    def intern_string(self, text):
        idx = self._string_index.get(text)
        if idx is None:
            idx = self.add_a(A_STRING, text)
            self._string_index[text] = idx
        return idx

    def utf8_aindex(self, text):
        return self._utf8_index.get(text)

    def kinds(self, space):
        """The kind list of the atable or the vtable."""
        return self.v_kind if space == VTABLE else self.a_kind

    # --- stats ---

    def entry_count(self):
        """Live entries: pair cells count once, dead entries not at all."""
        return (self._pending + self.a_dead.count(0)
                + sum(1 for kind, dead in zip(self.v_kind, self.v_dead)
                      if not dead and kind not in _PAIR_LO))

    def byte_size(self):
        """Modeled footprint: text = 2+len, handles = 4, each 32-bit cell = 4."""
        total = 4 * (self.a_dead.count(0) + self.v_dead.count(0))
        for kind, payload, dead in zip(self.a_kind, self.a_payload, self.a_dead):
            if not dead and kind in (A_UTF8, A_STRING):
                total += len(encode_mutf8(payload)) - 2   # in place of 4
        return total


def packed_pool(a_kind, a_payload, v_kind, v_value):
    """A pool of these tables, every entry live, as pack() builds it.  Only
    code that reads a loaded pool uses the origin map and the text and
    member indexes, so a packed pool has empty ones."""
    pool = RuntimePool()
    pool.a_kind, pool.a_payload = a_kind, a_payload
    pool.v_kind, pool.v_value = v_kind, v_value
    pool.a_dead = bytearray(len(a_kind))
    pool.v_dead = bytearray(len(v_kind))
    return pool


def build_pool(raw):
    """First loading step: Utf8 to atable, immediates to vtable.

    Symbolic constants stay pending until the prelink passes place them.
    The origin map remembers where every raw index went so the bytecode
    rewriter can chase it later.
    """
    pool = RuntimePool()
    for idx, c in enumerate(raw.raw_pool):
        if c.is_placeholder:
            continue
        if c.tag == cf.TAG_UTF8:
            aidx = pool.add_a(A_UTF8, c.text)
            pool.origin[idx] = (ATABLE, aidx)
            pool._utf8_index.setdefault(c.text, aidx)
        elif c.tag == cf.TAG_INTEGER:
            pool.origin[idx] = (VTABLE, pool.add_v(V_INT, c.value & 0xFFFFFFFF))
        elif c.tag == cf.TAG_FLOAT:
            pool.origin[idx] = (VTABLE, pool.add_v(V_FLOAT, c.value))
        elif c.tag == cf.TAG_LONG:
            bits = c.value & 0xFFFFFFFFFFFFFFFF
            vidx = pool.add_v(V_LONG_HI, bits >> 32)
            pool.add_v(V_LONG_LO, bits & 0xFFFFFFFF)
            pool.origin[idx] = (VTABLE, vidx)
        elif c.tag == cf.TAG_DOUBLE:
            vidx = pool.add_v(V_DBL_HI, c.value >> 32)
            pool.add_v(V_DBL_LO, c.value & 0xFFFFFFFF)
            pool.origin[idx] = (VTABLE, vidx)
        else:
            pool._pending += 1
    return pool


def _utf8_origin(pool, raw_idx):
    placed = pool.origin.get(raw_idx)
    if placed is None or placed[0] != ATABLE \
            or pool.a_kind[placed[1]] != A_UTF8:
        raise DanglingIndex("raw index %s does not name a placed Utf8" % raw_idx)
    return placed[1]


def prelink_pass1(pool, raw, resolver):
    """Resolve Class, String and NameAndType constants.

    Class constants become class handles created through ``resolver``;
    String constants become vtable cells naming an interned literal;
    NameAndType becomes one cell packing two Utf8 atable indexes.
    """
    text = pool.a_payload
    for idx, c in enumerate(raw.raw_pool):
        if c.tag == cf.TAG_CLASS:
            cls = resolver(text[_utf8_origin(pool, c.value)])
            pool.origin[idx] = (ATABLE, pool.add_a(A_CLASS, cls))
            pool._pending -= 1
        elif c.tag == cf.TAG_STRING:
            lit = pool.intern_string(text[_utf8_origin(pool, c.value)])
            if lit > 0xFFFFFFFF:
                raise PoolOverflow("atable too large")
            pool.origin[idx] = (VTABLE, pool.add_v(V_STRING, lit))
            pool._pending -= 1
        elif c.tag == cf.TAG_NAMEANDTYPE:
            n_aidx = _utf8_origin(pool, c.value[0])
            d_aidx = _utf8_origin(pool, c.value[1])
            pool.origin[idx] = (VTABLE, pool.add_v(V_NAT, _pack16(n_aidx, d_aidx)))
            pool._pending -= 1
    _refresh_dead(pool, raw)


def prelink_pass2(pool, raw):
    """Resolve member refs into (class handle, member handle) index pairs.

    Handles are deduplicated, so two refs to the same member share one
    atable entry.  The NameAndType cells and the Utf8 text feeding them
    become dead unless something else still needs them.
    """
    payload = pool.a_payload
    for idx, c in enumerate(raw.raw_pool):
        if c.tag not in _REF_KIND:
            continue
        cls_placed = pool.origin.get(c.value[0])
        if cls_placed is None or cls_placed[0] != ATABLE \
                or pool.a_kind[cls_placed[1]] != A_CLASS:
            raise DanglingIndex("member ref %d names a missing Class constant" % idx)
        nat_placed = pool.origin.get(c.value[1])
        if nat_placed is None or nat_placed[0] != VTABLE \
                or pool.v_kind[nat_placed[1]] != V_NAT:
            raise DanglingIndex("member ref %d names a missing NameAndType" % idx)
        class_aidx = cls_placed[1]
        n_aidx, d_aidx = _unpack16(pool.v_value[nat_placed[1]])
        name = payload[n_aidx]
        desc = payload[d_aidx]
        kind = A_FIELD if c.tag == cf.TAG_FIELDREF else A_METHOD
        key = (class_aidx, name, desc, kind)
        handle_aidx = pool._member_index.get(key)
        if handle_aidx is None:
            handle = MemberHandle(payload[class_aidx], name, desc,
                                  is_field=(kind == A_FIELD))
            handle_aidx = pool.add_a(kind, handle)
            pool._member_index[key] = handle_aidx
        pool.origin[idx] = (VTABLE, pool.add_v(
            _REF_KIND[c.tag], _pack16(class_aidx, handle_aidx)))
        pool._pending -= 1
    _refresh_dead(pool, raw)


def _refresh_dead(pool, raw):
    """Flag entries that load-time resolution made unreachable.

    A Utf8 stays live while a still-pending raw constant or a live
    NameAndType cell references it, or while it spells a member name or
    descriptor of this class (those stay eligible for reflection marking).
    """
    member_texts = set()
    for m in raw.fields + raw.methods:
        member_texts.add(m.name)
        member_texts.add(m.descriptor)

    live_utf8 = set()
    live_nat = set()
    for idx, c in enumerate(raw.raw_pool):
        if idx in pool.origin or c.is_placeholder:
            continue
        if c.tag in (cf.TAG_CLASS, cf.TAG_STRING):
            placed = pool.origin.get(c.value)
            if placed and placed[0] == ATABLE:
                live_utf8.add(placed[1])
        elif c.tag == cf.TAG_NAMEANDTYPE:
            for ref in c.value:
                placed = pool.origin.get(ref)
                if placed and placed[0] == ATABLE:
                    live_utf8.add(placed[1])
        elif c.tag in _REF_KIND:
            placed = pool.origin.get(c.value[1])
            if placed and placed[0] == VTABLE:
                live_nat.add(placed[1])

    for vidx, (kind, value) in enumerate(zip(pool.v_kind, pool.v_value)):
        if kind == V_NAT:
            pool.v_dead[vidx] = vidx not in live_nat
            if vidx in live_nat:
                hi, lo = _unpack16(value)
                live_utf8.add(hi)
                live_utf8.add(lo)

    for aidx, (kind, text) in enumerate(zip(pool.a_kind, pool.a_payload)):
        if kind == A_UTF8:
            pool.a_dead[aidx] = (aidx not in live_utf8
                                 and text not in member_texts)


def new_marks(pool):
    """Fresh (atable, vtable) mark flags for one link of ``pool``, with
    only the string literals set: they are always retained, since their
    text is the runtime value."""
    return (bytearray(kind == A_STRING for kind in pool.a_kind),
            bytearray(len(pool.v_kind)))


def mark(pool, marks, table, index):
    """Mark one entry as used; index pairs propagate into the atable."""
    a_marks, v_marks = marks
    space = {"atable": ATABLE, "vtable": VTABLE}.get(table, table)
    if space == ATABLE:
        if not 0 <= index < len(pool.a_kind):
            raise IndexOutOfRange("atable index %s" % index)
        a_marks[index] = True
        return
    if space != VTABLE:
        raise IndexOutOfRange("unknown table %r" % table)
    if not 0 <= index < len(pool.v_kind):
        raise IndexOutOfRange("vtable index %s" % index)
    kind = pool.v_kind[index]
    if kind in _PAIR_LO:
        index -= 1
        kind = pool.v_kind[index]
    v_marks[index] = True
    value = pool.v_value[index]
    if kind in _PAIR_HI:
        v_marks[index + 1] = True
    elif kind == V_STRING:
        a_marks[value] = True
    elif kind == V_NAT or kind in _REFS:
        hi, lo = _unpack16(value)
        a_marks[hi] = True
        a_marks[lo] = True


def pack(pool, marks):
    """The marked entries of ``pool`` as a new pool, in their relative
    order, with the (atable, vtable) remaps from old index to new.

    The surviving vtable cells that hold atable indexes are copied with
    those indexes rewritten through the atable remap.  ``pool`` is left as
    it was.
    """
    a_marks, v_marks = marks
    a_remap = {old: new for new, old in
               enumerate(compress(range(len(a_marks)), a_marks))}
    v_remap = {old: new for new, old in
               enumerate(compress(range(len(v_marks)), v_marks))}
    v_kind = list(compress(pool.v_kind, v_marks))
    v_value = []
    try:
        for kind, value in zip(v_kind, compress(pool.v_value, v_marks)):
            if kind == V_STRING:
                value = a_remap[value]
            elif kind == V_NAT or kind in _REFS:
                value = _pack16(a_remap[value >> 16], a_remap[value & 0xFFFF])
            v_value.append(value)
    except KeyError:
        raise InternalError("surviving cell references a swept atable entry")
    packed = packed_pool(list(compress(pool.a_kind, a_marks)),
                         list(compress(pool.a_payload, a_marks)),
                         v_kind, v_value)
    return packed, a_remap, v_remap


def holds(pool, space, index, want):
    """Whether table index ``index`` names an entry of kind ``want`` (None:
    any kind) that can be read whole: the low cell of a long or double, and
    the member handle of a member-ref cell, are inside their tables too."""
    kinds = pool.kinds(space)
    if not 0 <= index < len(kinds):
        return False
    if want is None:
        return True
    if kinds[index] != want:
        return False
    if want in _PAIR_HI:
        return index + 1 < len(kinds)
    handle_kind = _HANDLE_KIND.get(want)
    if handle_kind is None:
        return True
    handle = pool.v_value[index] & 0xFFFF
    return handle < len(pool.a_kind) and pool.a_kind[handle] == handle_kind
