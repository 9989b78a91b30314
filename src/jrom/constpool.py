"""Two-table runtime constant pool with prelinking, marking and packing.

A parsed pool is split into an atable of reference entries (text, class
handles, member handles) and a vtable of 32-bit cells (immediates and packed
index pairs).  Each table is stored flat, as parallel lists:
``a_kind``/``a_payload`` for the atable and ``v_kind``/``v_value`` for the
vtable, with the dead flags of every entry in ``bytearray``s, so a pool is a
handful of containers however many entries it has.  Prelinking resolves the
symbolic constants into direct handles; its second pass places the last of
them and then sets the dead flags once, for the whole pool.  Those strip
out of the live set every cell that names atable entries (String,
NameAndType and member-ref cells: loading rewrites each instruction that
names one to name the literal or member handle the cell names) and most
Utf8 text.  Where each raw constant went is a map that build_pool returns
and the passes extend; only loading reads it, to rewrite every pool operand
of the class's code to its table index, and nothing keeps it after the
class has loaded.  The lookup dicts that deduplicate literals and member
handles live only inside the pass that fills them, so a loaded pool keeps
just its tables and flags.  Nothing changes the pool after prelinking, so
it is the loaded snapshot.  Linking marks the entries its final code names
into flags of its own (new_marks), and pack() copies them into a new pool
and returns the remaps that the bytecode rewriter applies.  No linked cell
holds an atable index, so packing rewrites no cell.
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
# the cells that hold atable indexes: no loaded instruction names one
_NAMING = {V_STRING, V_NAT, V_FIELDREF, V_METHODREF, V_IFACEREF}
_REF_KIND = {
    cf.TAG_FIELDREF: V_FIELDREF,
    cf.TAG_METHODREF: V_METHODREF,
    cf.TAG_IFACEMETHODREF: V_IFACEREF,
}


@dataclass(slots=True)
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

    def lookup(self):
        """The owner's field or method of this name and descriptor, or None."""
        owner = self.owner
        find = owner.find_field if self.is_field else owner.find_method
        return find(self.name, self.descriptor)


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
        self.a_dead = bytearray()   # resolved-away at load, excluded from
        self.v_dead = bytearray()   # stats; set once, by prelink_pass2

    # --- construction helpers ---

    def add_a(self, kind, payload):
        self.a_kind.append(kind)
        self.a_payload.append(payload)
        return len(self.a_kind) - 1

    def add_v(self, kind, value):
        self.v_kind.append(kind)
        self.v_value.append(value)
        return len(self.v_kind) - 1

    def kinds(self, space):
        """The kind list of the atable or the vtable."""
        return self.v_kind if space == VTABLE else self.a_kind

    # --- stats ---

    def entry_count(self):
        """Live entries: pair cells count once, dead entries not at all."""
        return (self.a_dead.count(0)
                + sum(1 for kind, dead in zip(self.v_kind, self.v_dead)
                      if not dead and kind not in _PAIR_LO))

    def byte_size(self):
        """Modeled footprint: text = 2+len, handles = 4, each 32-bit cell = 4."""
        total = 4 * (self.a_dead.count(0) + self.v_dead.count(0))
        for kind, payload, dead in zip(self.a_kind, self.a_payload, self.a_dead):
            if not dead and kind in (A_UTF8, A_STRING):
                plain = payload.isascii() and "\0" not in payload   # its own mUTF-8
                total += (len(payload) if plain else len(encode_mutf8(payload))) - 2
        return total


def packed_pool(a_kind, a_payload, v_kind, v_value):
    """A pool of these tables, every entry live, as pack() and image
    loading build it."""
    pool = RuntimePool()
    pool.a_kind, pool.a_payload = a_kind, a_payload
    pool.v_kind, pool.v_value = v_kind, v_value
    pool.a_dead = bytearray(len(a_kind))
    pool.v_dead = bytearray(len(v_kind))
    return pool


# immediate tag -> its vtable cell kinds, high word first
_IMMEDIATES = {cf.TAG_INTEGER: (V_INT,), cf.TAG_FLOAT: (V_FLOAT,),
               cf.TAG_LONG: (V_LONG_HI, V_LONG_LO),
               cf.TAG_DOUBLE: (V_DBL_HI, V_DBL_LO)}


def _slots_of(*wanted):
    """A function giving the raw pool slots, in order, whose tag is one of
    ``wanted``; it scans in C, so a pass pays only for the slots it places."""
    keep = bytes(tag in wanted for tag in range(256))
    return lambda tags: compress(range(len(tags)), tags.translate(keep))


_string_slots = _slots_of(cf.TAG_STRING)
_build_slots = _slots_of(cf.TAG_UTF8, *_IMMEDIATES)
_pass1_slots = _slots_of(cf.TAG_CLASS, cf.TAG_STRING, cf.TAG_NAMEANDTYPE)
_pass2_slots = _slots_of(*_REF_KIND)


def build_pool(raw):
    """First loading step: each String's literal to the atable, then Utf8
    to the atable and immediates to the vtable.

    The literals come first, one per text in raw order, so each one's
    atable index is below its String constant's raw index: an ldc whose
    raw operand fits a byte still fits one once loading names the literal.
    Returns the pool and the map from raw index to (space, table index) of
    every constant placed so far, a String's to its literal until pass 1
    gives it its cell.  The other symbolic constants stay pending until
    the prelink passes place them into both.
    """
    pool = RuntimePool()
    a_kind, a_payload = pool.a_kind, pool.a_payload
    v_kind, v_value = pool.v_kind, pool.v_value
    placement = {}
    tags, values = raw.pool_tags, raw.pool_values
    literals = {}           # text -> atable index of its interned literal
    for idx in _string_slots(tags):
        utf8 = values[idx]
        if not 0 <= utf8 < len(tags) or tags[utf8] != cf.TAG_UTF8:
            raise DanglingIndex("raw index %s does not name a Utf8" % utf8)
        text = values[utf8]
        lit = literals.get(text)
        if lit is None:
            lit = literals[text] = pool.add_a(A_STRING, text)
        placement[idx] = (ATABLE, lit)
    for idx in _build_slots(tags):
        tag, value = tags[idx], values[idx]
        if tag == cf.TAG_UTF8:
            placement[idx] = (ATABLE, len(a_kind))
            a_kind.append(A_UTF8)
            a_payload.append(value)
            continue
        kinds = _IMMEDIATES[tag]
        placement[idx] = (VTABLE, len(v_kind))
        v_kind.extend(kinds)
        if len(kinds) == 2:
            v_value.append((value >> 32) & 0xFFFFFFFF)
        v_value.append(value & 0xFFFFFFFF)
    return pool, placement


def prelink_pass1(pool, placement, raw, resolver):
    """Resolve Class, String and NameAndType constants.

    Class constants become class handles created through ``resolver``;
    String constants become vtable cells naming the literal build_pool
    interned; NameAndType becomes one cell packing two Utf8 atable indexes.
    """
    tags, values = raw.pool_tags, raw.pool_values
    text = pool.a_payload

    def utf8_at(raw_idx):
        # build_pool placed every raw Utf8, and nothing else, as atable text
        where = placement.get(raw_idx)
        if where is None or tags[raw_idx] != cf.TAG_UTF8:
            raise DanglingIndex("raw index %s does not name a placed Utf8" % raw_idx)
        return where[1]

    for idx in _pass1_slots(tags):
        tag, value = tags[idx], values[idx]
        if tag == cf.TAG_CLASS:
            cls = resolver(text[utf8_at(value)])
            placement[idx] = (ATABLE, pool.add_a(A_CLASS, cls))
        elif tag == cf.TAG_STRING:
            placement[idx] = (VTABLE, pool.add_v(V_STRING, placement[idx][1]))
        elif tag == cf.TAG_NAMEANDTYPE:
            placement[idx] = (VTABLE, pool.add_v(
                V_NAT, _pack16(utf8_at(value[0]), utf8_at(value[1]))))


def prelink_pass2(pool, placement, raw):
    """Resolve member refs into (class handle, member handle) index pairs,
    then set the dead flags of the whole pool.

    Handles are deduplicated, so two refs to the same member share one
    atable entry.  This pass places the last raw constants, so nothing
    references a NameAndType cell or a Utf8 after it, and loading rewrites
    each String and member-ref operand to the atable entry its cell names:
    every String, NameAndType and member-ref cell is dead, and so is every
    Utf8 that does not spell a name or descriptor of this class's own
    members (those stay eligible for reflection marking).
    """
    tags, values = raw.pool_tags, raw.pool_values
    payload = pool.a_payload
    handles = {}            # (class aidx, name, descriptor, kind) -> aidx
    for idx in _pass2_slots(tags):
        tag, (class_raw, nat_raw) = tags[idx], values[idx]
        # pass 1 placed every raw Class and NameAndType, and nothing else,
        # as class handles and NameAndType cells
        class_at = placement.get(class_raw)
        if class_at is None or tags[class_raw] != cf.TAG_CLASS:
            raise DanglingIndex("member ref %d names a missing Class constant" % idx)
        nat_at = placement.get(nat_raw)
        if nat_at is None or tags[nat_raw] != cf.TAG_NAMEANDTYPE:
            raise DanglingIndex("member ref %d names a missing NameAndType" % idx)
        class_aidx = class_at[1]
        n_aidx, d_aidx = _unpack16(pool.v_value[nat_at[1]])
        name = payload[n_aidx]
        desc = payload[d_aidx]
        kind = A_FIELD if tag == cf.TAG_FIELDREF else A_METHOD
        key = (class_aidx, name, desc, kind)
        handle_aidx = handles.get(key)
        if handle_aidx is None:
            handle = MemberHandle(payload[class_aidx], name, desc,
                                  is_field=(kind == A_FIELD))
            handle_aidx = handles[key] = pool.add_a(kind, handle)
        placement[idx] = (VTABLE, pool.add_v(
            _REF_KIND[tag], _pack16(class_aidx, handle_aidx)))

    member_texts = {text for m in raw.fields + raw.methods
                    for text in (m.name, m.descriptor)}
    pool.v_dead = bytearray(kind in _NAMING for kind in pool.v_kind)
    pool.a_dead = bytearray(kind == A_UTF8 and text not in member_texts
                            for kind, text in zip(pool.a_kind, payload))


def new_marks(pool):
    """Fresh (atable, vtable) mark flags for one link of ``pool``, none
    set: a string literal survives only if an instruction loads it."""
    return bytearray(len(pool.a_kind)), bytearray(len(pool.v_kind))


def mark(pool, marks, table, index):
    """Mark one entry as used; a long or double marks both its cells.  A
    cell that holds atable indexes cannot be kept: the pack would leave
    them naming the old atable."""
    a_marks, v_marks = marks
    if table == ATABLE:
        if not 0 <= index < len(pool.a_kind):
            raise IndexOutOfRange("atable index %s" % index)
        a_marks[index] = True
        return
    if table != VTABLE:
        raise IndexOutOfRange("unknown table %r" % table)
    if not 0 <= index < len(pool.v_kind):
        raise IndexOutOfRange("vtable index %s" % index)
    kind = pool.v_kind[index]
    if kind in _NAMING:
        raise InternalError("cannot keep %s cell %d" % (kind, index))
    if kind in _PAIR_LO:
        index -= 1
        kind = pool.v_kind[index]
    v_marks[index] = True
    if kind in _PAIR_HI:
        v_marks[index + 1] = True


def pack(pool, marks):
    """The marked entries of ``pool`` as a new pool, in their relative
    order, with the (atable, vtable) remaps from old index to new.
    ``pool`` is left as it was."""
    a_marks, v_marks = marks
    a_remap = {old: new for new, old in
               enumerate(compress(range(len(a_marks)), a_marks))}
    v_remap = {old: new for new, old in
               enumerate(compress(range(len(v_marks)), v_marks))}
    packed = packed_pool(list(compress(pool.a_kind, a_marks)),
                         list(compress(pool.a_payload, a_marks)),
                         list(compress(pool.v_kind, v_marks)),
                         list(compress(pool.v_value, v_marks)))
    return packed, a_remap, v_remap


def holds(pool, space, index, want):
    """Whether table index ``index`` names an entry of kind ``want`` (None:
    any kind) that can be read whole: the low cell of a long or double is
    inside the table too."""
    kinds = pool.kinds(space)
    if not 0 <= index < len(kinds):
        return False
    if want is None:
        return True
    if kinds[index] != want:
        return False
    return want not in _PAIR_HI or index + 1 < len(kinds)
