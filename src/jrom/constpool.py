"""Two-table runtime constant pool with prelinking, marking and packing.

A parsed pool is split into an atable of reference entries (text, class
handles, member handles) and a vtable of 32-bit immediates.  Each table is
stored flat, as parallel lists: ``a_kind``/``a_payload`` for the atable and
``v_kind``/``v_value`` for the vtable, so a pool is a handful of containers
however many entries it has.  Prelinking builds only what outlives loading.
Each String constant becomes its interned literal and each member ref its
deduplicated member handle, since loading rewrites every instruction that
names one to name that entry.  A NameAndType becomes nothing: the second
pass reads its name and descriptor from the raw pool.  Of the Utf8 text,
only what spells a name or descriptor of the class's own fields and
methods goes into the atable, since that is all reflection marking can
keep.  Where each raw constant went is a list, indexed by raw index, of
table indexes that build_pool returns and the passes fill; only loading
reads it, to rewrite every pool operand of the class's code, and nothing
keeps it after the class has loaded.  The lookup dicts that deduplicate
literals and member handles live only inside the pass that fills them.
Nothing changes the pool after prelinking, so it is the loaded snapshot.
Linking marks the entries its final code names into flags of its own
(new_marks), and pack() copies them into a new pool and returns the remaps
that the bytecode rewriter applies.  No cell holds an atable index, so
packing rewrites no cell.
"""

from dataclasses import dataclass
from itertools import compress

from . import classfile as cf
from .classfile import encode_mutf8
from .errors import DanglingIndex, IndexOutOfRange

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

_PAIR_HI = {V_LONG_HI, V_DBL_HI}
_PAIR_LO = {V_LONG_LO, V_DBL_LO}


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


class RuntimePool:
    """Atable entry i is (a_kind[i], a_payload[i]): a str for text, a
    ClassRep or a MemberHandle.  Vtable cell i is (v_kind[i], v_value[i]),
    the value an unsigned 32-bit bit pattern.  Every entry is live."""

    def __init__(self, a_kind=None, a_payload=None, v_kind=None, v_value=None):
        self.a_kind = [] if a_kind is None else a_kind
        self.a_payload = [] if a_payload is None else a_payload
        self.v_kind = [] if v_kind is None else v_kind
        self.v_value = [] if v_value is None else v_value

    def kinds(self, space):
        """The kind list of the atable or the vtable."""
        return self.v_kind if space == VTABLE else self.a_kind

    # --- stats ---

    def entry_count(self):
        """Entries, a long or double counting once."""
        v_kind = self.v_kind
        return (len(self.a_kind) + len(v_kind)
                - v_kind.count(V_LONG_LO) - v_kind.count(V_DBL_LO))

    def byte_size(self):
        """Modeled footprint: text = 2+len, handles = 4, each 32-bit cell = 4."""
        total = 4 * (len(self.a_kind) + len(self.v_kind))
        for kind, payload in zip(self.a_kind, self.a_payload):
            if kind in (A_UTF8, A_STRING):
                plain = payload.isascii() and "\0" not in payload   # its own mUTF-8
                total += (len(payload) if plain else len(encode_mutf8(payload))) - 2
        return total


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
_utf8_slots = _slots_of(cf.TAG_UTF8)
_immediate_slots = _slots_of(*_IMMEDIATES)
_class_slots = _slots_of(cf.TAG_CLASS)
_ref_slots = _slots_of(cf.TAG_FIELDREF, cf.TAG_METHODREF,
                       cf.TAG_IFACEMETHODREF)


def build_pool(raw):
    """First loading step: each String's literal to the atable, then the
    Utf8 text of the class's own member names and descriptors to the
    atable, and immediates to the vtable.

    The literals come first, one per text in raw order, so each one's
    atable index is below its String constant's raw index: an ldc whose
    raw operand fits a byte still fits one once loading names the literal.
    Returns the pool and the list, by raw index, of the table index where
    each String and immediate went (None elsewhere); the prelink passes
    place the Class constants and member refs into both.
    """
    pool = RuntimePool()
    a_kind, a_payload = pool.a_kind, pool.a_payload
    v_kind, v_value = pool.v_kind, pool.v_value
    tags, values = raw.pool_tags, raw.pool_values
    n = len(tags)
    placement = [None] * n
    literals = {}           # text -> atable index of its interned literal
    for idx in _string_slots(tags):
        utf8 = values[idx]
        if not 0 <= utf8 < n or tags[utf8] != cf.TAG_UTF8:
            raise DanglingIndex("String %d names raw index %s, not a Utf8"
                                % (idx, utf8))
        text = values[utf8]
        lit = literals.get(text)
        if lit is None:
            lit = literals[text] = len(a_payload)
            a_payload.append(text)
        placement[idx] = lit
    a_kind += [A_STRING] * len(a_payload)
    member_texts = {text for m in raw.fields + raw.methods
                    for text in (m.name, m.descriptor)}
    texts = [values[idx] for idx in _utf8_slots(tags)
             if values[idx] in member_texts]
    a_kind += [A_UTF8] * len(texts)
    a_payload += texts
    for idx in _immediate_slots(tags):
        kinds, value = _IMMEDIATES[tags[idx]], values[idx]
        placement[idx] = len(v_kind)
        v_kind += kinds
        if len(kinds) == 2:
            v_value.append((value >> 32) & 0xFFFFFFFF)
        v_value.append(value & 0xFFFFFFFF)
    return pool, placement


def prelink_pass1(pool, placement, raw, resolver):
    """Resolve each Class constant into a class handle created through
    ``resolver``."""
    tags, values = raw.pool_tags, raw.pool_values
    n = len(tags)
    a_payload = pool.a_payload
    start = len(a_payload)
    for idx in _class_slots(tags):
        utf8 = values[idx]
        if not 0 <= utf8 < n or tags[utf8] != cf.TAG_UTF8:
            raise DanglingIndex("Class %d names raw index %s, not a Utf8"
                                % (idx, utf8))
        placement[idx] = len(a_payload)
        a_payload.append(resolver(values[utf8]))
    pool.a_kind += [A_CLASS] * (len(a_payload) - start)


def prelink_pass2(pool, placement, raw):
    """Resolve each member ref into a member handle of the class handle its
    Class constant became and the name and descriptor its NameAndType
    spells.

    Handles are deduplicated, so two refs to the same member share one
    atable entry.  This pass places the last raw constants.
    """
    tags, values = raw.pool_tags, raw.pool_values
    n = len(tags)
    a_kind, a_payload = pool.a_kind, pool.a_payload
    handles = {}            # (class aidx, name, descriptor, is field) -> aidx
    for idx in _ref_slots(tags):
        class_raw, nat_raw = values[idx]
        if not 0 <= class_raw < n or tags[class_raw] != cf.TAG_CLASS:
            raise DanglingIndex("member ref %d names a missing Class constant"
                                % idx)
        if not 0 <= nat_raw < n or tags[nat_raw] != cf.TAG_NAMEANDTYPE:
            raise DanglingIndex("member ref %d names a missing NameAndType"
                                % idx)
        name_raw, desc_raw = values[nat_raw]
        if not (0 <= name_raw < n and 0 <= desc_raw < n
                and tags[name_raw] == tags[desc_raw] == cf.TAG_UTF8):
            raise DanglingIndex("NameAndType %d does not name two Utf8s"
                                % nat_raw)
        name, desc = values[name_raw], values[desc_raw]
        class_aidx = placement[class_raw]
        is_field = tags[idx] == cf.TAG_FIELDREF
        key = (class_aidx, name, desc, is_field)
        handle_aidx = handles.get(key)
        if handle_aidx is None:
            handle_aidx = handles[key] = len(a_kind)
            a_kind.append(A_FIELD if is_field else A_METHOD)
            a_payload.append(MemberHandle(a_payload[class_aidx], name, desc,
                                          is_field))
        placement[idx] = handle_aidx


def new_marks(pool):
    """Fresh (atable, vtable) mark flags for one link of ``pool``, none
    set: a string literal survives only if an instruction loads it."""
    return bytearray(len(pool.a_kind)), bytearray(len(pool.v_kind))


def mark(pool, marks, table, index):
    """Mark one entry as used; a long or double marks both its cells."""
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
    packed = RuntimePool(list(compress(pool.a_kind, a_marks)),
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
