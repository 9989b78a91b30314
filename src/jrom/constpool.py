"""Two-table runtime constant pool with prelinking, marking and packing.

A parsed pool is split into an ``atable`` of reference entries (text, class
handles, member handles) and a ``vtable`` of 32-bit cells (immediates and
packed index pairs).  Prelinking resolves the symbolic constants into direct
handles, which strips most Utf8 text out of the live set.  Marking during
method processing selects the entries the bytecode really uses, and pack()
sweeps the rest, producing a remap that the bytecode rewriter applies.
"""

from dataclasses import dataclass

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


@dataclass
class AEntry:
    kind: str
    payload: object         # str | ClassRep | MemberHandle


@dataclass
class VCell:
    kind: str
    value: int              # unsigned 32-bit bit pattern


@dataclass
class PackStats:
    entries_before: int
    entries_after: int
    bytes_before: int
    bytes_after: int


def _pack16(hi, lo):
    if hi > 0xFFFF or lo > 0xFFFF:
        raise PoolOverflow("atable index does not fit 16 bits")
    return (hi << 16) | lo


def _unpack16(value):
    return value >> 16, value & 0xFFFF


class RuntimePool:
    def __init__(self):
        self.atable = []
        self.vtable = []
        self.a_marks = []
        self.v_marks = []
        self.a_dead = []        # resolved-away at load; excluded from stats
        self.v_dead = []
        self.origin = {}        # raw pool index -> (space, table index)
        self.remap_a = None     # populated by pack()
        self.remap_v = None
        self.packed = False
        self._utf8_index = {}   # text -> atable index of the Utf8 entry
        self._string_index = {} # text -> atable index of the interned literal
        self._member_index = {} # (class aidx, name, desc, kind) -> aidx
        self._pending = 0       # raw constants not yet placed by prelinking

    # --- construction helpers ---

    def add_a(self, entry, marked=False):
        self.atable.append(entry)
        self.a_marks.append(marked)
        self.a_dead.append(False)
        return len(self.atable) - 1

    def add_v(self, cell, marked=False):
        self.vtable.append(cell)
        self.v_marks.append(marked)
        self.v_dead.append(False)
        return len(self.vtable) - 1

    def intern_string(self, text):
        idx = self._string_index.get(text)
        if idx is None:
            # literals are always retained; their text is the runtime value
            idx = self.add_a(AEntry(A_STRING, text), marked=True)
            self._string_index[text] = idx
        return idx

    def utf8_aindex(self, text):
        return self._utf8_index.get(text)

    # --- stats ---

    def entry_count(self):
        """Live entries: pair cells count once, dead entries not at all."""
        return (self._pending + self.a_dead.count(False)
                + sum(1 for c, dead in zip(self.vtable, self.v_dead)
                      if not dead and c.kind not in _PAIR_LO))

    def byte_size(self):
        """Modeled footprint: text = 2+len, handles = 4, each 32-bit cell = 4."""
        total = 4 * (self.a_dead.count(False) + self.v_dead.count(False))
        for e, dead in zip(self.atable, self.a_dead):
            if not dead and e.kind in (A_UTF8, A_STRING):
                total += len(encode_mutf8(e.payload)) - 2   # in place of 4
        return total

    # --- cloning (for the loaded-stage snapshot) ---

    def clone(self):
        c = RuntimePool.__new__(RuntimePool)
        c.atable = list(self.atable)
        c.vtable = [VCell(x.kind, x.value) for x in self.vtable]
        c.a_marks = list(self.a_marks)
        c.v_marks = list(self.v_marks)
        c.a_dead = list(self.a_dead)
        c.v_dead = list(self.v_dead)
        c.origin = dict(self.origin)
        c.remap_a = None
        c.remap_v = None
        c.packed = False
        c._utf8_index = dict(self._utf8_index)
        c._string_index = dict(self._string_index)
        c._member_index = dict(self._member_index)
        c._pending = self._pending
        return c


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
            aidx = pool.add_a(AEntry(A_UTF8, c.text))
            pool.origin[idx] = (ATABLE, aidx)
            pool._utf8_index.setdefault(c.text, aidx)
        elif c.tag == cf.TAG_INTEGER:
            pool.origin[idx] = (VTABLE, pool.add_v(VCell(V_INT, c.value & 0xFFFFFFFF)))
        elif c.tag == cf.TAG_FLOAT:
            pool.origin[idx] = (VTABLE, pool.add_v(VCell(V_FLOAT, c.value)))
        elif c.tag == cf.TAG_LONG:
            bits = c.value & 0xFFFFFFFFFFFFFFFF
            vidx = pool.add_v(VCell(V_LONG_HI, bits >> 32))
            pool.add_v(VCell(V_LONG_LO, bits & 0xFFFFFFFF))
            pool.origin[idx] = (VTABLE, vidx)
        elif c.tag == cf.TAG_DOUBLE:
            vidx = pool.add_v(VCell(V_DBL_HI, c.value >> 32))
            pool.add_v(VCell(V_DBL_LO, c.value & 0xFFFFFFFF))
            pool.origin[idx] = (VTABLE, vidx)
        else:
            pool._pending += 1
    return pool


def _utf8_origin(pool, raw_idx):
    placed = pool.origin.get(raw_idx)
    if placed is None or placed[0] != ATABLE:
        raise DanglingIndex("raw index %s does not name a placed Utf8" % raw_idx)
    aidx = placed[1]
    if pool.atable[aidx].kind != A_UTF8:
        raise DanglingIndex("raw index %s does not name a placed Utf8" % raw_idx)
    return aidx


def prelink_pass1(pool, raw, resolver):
    """Resolve Class, String and NameAndType constants.

    Class constants become class handles created through ``resolver``;
    String constants become vtable cells naming an interned literal;
    NameAndType becomes one cell packing two Utf8 atable indexes.
    """
    for idx, c in enumerate(raw.raw_pool):
        if c.tag == cf.TAG_CLASS:
            name_aidx = _utf8_origin(pool, c.value)
            cls = resolver(pool.atable[name_aidx].payload)
            pool.origin[idx] = (ATABLE, pool.add_a(AEntry(A_CLASS, cls)))
            pool._pending -= 1
        elif c.tag == cf.TAG_STRING:
            text = pool.atable[_utf8_origin(pool, c.value)].payload
            lit = pool.intern_string(text)
            if lit > 0xFFFFFFFF:
                raise PoolOverflow("atable too large")
            pool.origin[idx] = (VTABLE, pool.add_v(VCell(V_STRING, lit)))
            pool._pending -= 1
        elif c.tag == cf.TAG_NAMEANDTYPE:
            n_aidx = _utf8_origin(pool, c.value[0])
            d_aidx = _utf8_origin(pool, c.value[1])
            pool.origin[idx] = (VTABLE, pool.add_v(VCell(V_NAT, _pack16(n_aidx, d_aidx))))
            pool._pending -= 1
    _refresh_dead(pool, raw)


def prelink_pass2(pool, raw):
    """Resolve member refs into (class handle, member handle) index pairs.

    Handles are deduplicated, so two refs to the same member share one
    atable entry.  The NameAndType cells and the Utf8 text feeding them
    become dead unless something else still needs them.
    """
    for idx, c in enumerate(raw.raw_pool):
        if c.tag not in _REF_KIND:
            continue
        cls_placed = pool.origin.get(c.value[0])
        if cls_placed is None or cls_placed[0] != ATABLE \
                or pool.atable[cls_placed[1]].kind != A_CLASS:
            raise DanglingIndex("member ref %d names a missing Class constant" % idx)
        nat_placed = pool.origin.get(c.value[1])
        if nat_placed is None or nat_placed[0] != VTABLE \
                or pool.vtable[nat_placed[1]].kind != V_NAT:
            raise DanglingIndex("member ref %d names a missing NameAndType" % idx)
        class_aidx = cls_placed[1]
        n_aidx, d_aidx = _unpack16(pool.vtable[nat_placed[1]].value)
        name = pool.atable[n_aidx].payload
        desc = pool.atable[d_aidx].payload
        kind = A_FIELD if c.tag == cf.TAG_FIELDREF else A_METHOD
        key = (class_aidx, name, desc, kind)
        handle_aidx = pool._member_index.get(key)
        if handle_aidx is None:
            handle = MemberHandle(pool.atable[class_aidx].payload, name, desc,
                                  is_field=(kind == A_FIELD))
            handle_aidx = pool.add_a(AEntry(kind, handle))
            pool._member_index[key] = handle_aidx
        cell = VCell(_REF_KIND[c.tag], _pack16(class_aidx, handle_aidx))
        pool.origin[idx] = (VTABLE, pool.add_v(cell))
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

    for vidx, cell in enumerate(pool.vtable):
        if cell.kind == V_NAT:
            pool.v_dead[vidx] = vidx not in live_nat
            if vidx in live_nat:
                hi, lo = _unpack16(cell.value)
                live_utf8.add(hi)
                live_utf8.add(lo)

    for aidx, entry in enumerate(pool.atable):
        if entry.kind == A_UTF8:
            pool.a_dead[aidx] = (aidx not in live_utf8
                                 and entry.payload not in member_texts)


def mark(pool, table, index):
    """Mark one entry as used; index pairs propagate into the atable."""
    space = {"atable": ATABLE, "vtable": VTABLE}.get(table, table)
    if space == ATABLE:
        if not 0 <= index < len(pool.atable):
            raise IndexOutOfRange("atable index %s" % index)
        pool.a_marks[index] = True
        return
    if space != VTABLE:
        raise IndexOutOfRange("unknown table %r" % table)
    if not 0 <= index < len(pool.vtable):
        raise IndexOutOfRange("vtable index %s" % index)
    cell = pool.vtable[index]
    if cell.kind in _PAIR_LO:
        index -= 1
        cell = pool.vtable[index]
    pool.v_marks[index] = True
    if cell.kind in _PAIR_HI:
        pool.v_marks[index + 1] = True
    elif cell.kind == V_STRING:
        pool.a_marks[cell.value] = True
    elif cell.kind == V_NAT or cell.kind in _REFS:
        hi, lo = _unpack16(cell.value)
        pool.a_marks[hi] = True
        pool.a_marks[lo] = True


def reset_marks(pool):
    """Clear every mark except the always-retained string literals.

    Linking calls it before marking from the final code, so a cell that a
    rewrite stopped using releases the handles marked through it too.
    """
    pool.a_marks = [e.kind == A_STRING for e in pool.atable]
    pool.v_marks = [False] * len(pool.vtable)


def pack(pool):
    """Sweep unmarked entries, keeping relative order, and build the remap.

    Surviving vtable cells that pack atable indexes are rewritten through
    the atable remap on the spot.
    """
    before_entries = pool.entry_count()
    before_bytes = pool.byte_size()

    remap_a = {}
    new_atable = []
    for idx, entry in enumerate(pool.atable):
        if pool.a_marks[idx]:
            remap_a[idx] = len(new_atable)
            new_atable.append(entry)

    remap_v = {}
    new_vtable = []
    for idx, cell in enumerate(pool.vtable):
        if pool.v_marks[idx]:
            remap_v[idx] = len(new_vtable)
            new_vtable.append(cell)

    for cell in new_vtable:
        try:
            if cell.kind == V_STRING:
                cell.value = remap_a[cell.value]
            elif cell.kind == V_NAT or cell.kind in _REFS:
                hi, lo = _unpack16(cell.value)
                cell.value = _pack16(remap_a[hi], remap_a[lo])
        except KeyError:
            raise InternalError("surviving cell references a swept atable entry")

    pool.atable = new_atable
    pool.vtable = new_vtable
    pool.a_marks = [True] * len(new_atable)
    pool.v_marks = [True] * len(new_vtable)
    pool.a_dead = [False] * len(new_atable)
    pool.v_dead = [False] * len(new_vtable)
    pool.remap_a = remap_a
    pool.remap_v = remap_v
    pool.packed = True
    pool._utf8_index = {e.payload: i for i, e in reversed(list(enumerate(new_atable)))
                        if e.kind == A_UTF8}
    pool._string_index = {e.payload: i for i, e in enumerate(new_atable)
                          if e.kind == A_STRING}
    pool._member_index = {}
    return PackStats(before_entries, pool.entry_count(),
                     before_bytes, pool.byte_size())


def resolve(pool, space, index):
    """Canonical payload of an entry, for before/after comparisons."""
    if space == ATABLE:
        e = pool.atable[index]
        if e.kind in (A_UTF8, A_STRING):
            return (e.kind, e.payload)
        if e.kind == A_CLASS:
            return (A_CLASS, e.payload.name)
        h = e.payload
        return (e.kind, h.owner.name, h.name, h.descriptor)
    cell = pool.vtable[index]
    if cell.kind == V_INT:
        return (V_INT, cell.value)
    if cell.kind == V_FLOAT:
        return (V_FLOAT, cell.value)
    if cell.kind in _PAIR_HI:
        lo = pool.vtable[index + 1]
        return (cell.kind, (cell.value << 32) | lo.value)
    if cell.kind in _PAIR_LO:
        hi = pool.vtable[index - 1]
        return (hi.kind, (hi.value << 32) | cell.value)
    if cell.kind == V_STRING:
        return (V_STRING, pool.atable[cell.value].payload)
    hi, lo = _unpack16(cell.value)
    if cell.kind == V_NAT:
        return (V_NAT, pool.atable[hi].payload, pool.atable[lo].payload)
    return (cell.kind,) + resolve(pool, ATABLE, hi)[1:] + resolve(pool, ATABLE, lo)[1:]
