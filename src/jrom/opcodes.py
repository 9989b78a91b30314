"""Opcode tables, the operand and effect tables, and instruction stream
walking.

Covers the pre-Java-5 instruction set plus the quick forms introduced by the
load/link rewriters.  Quick opcodes live in the unassigned range starting at
203; the ``*_w`` variants exist because a quick replacement must keep the
exact byte length of the instruction it replaces, and ``ldc``/``ldc_w``
differ in operand width.  The operand table (``OPERANDS``) says what each
instruction's operand names; the effect table (``EFFECTS``) says what each
instruction the interpreter runs pops and pushes, and the interpreter
writes its steps from it.
"""

import struct
from typing import NamedTuple

from . import constpool as cp
from . import descriptors as dsc
from .errors import BadOpcode, Truncated, VerifyError

# mnemonic -> opcode value, and the operand byte count (None = variable)
# fmt: off
_FIXED = {
    "nop": (0, 0), "aconst_null": (1, 0),
    "iconst_m1": (2, 0), "iconst_0": (3, 0), "iconst_1": (4, 0),
    "iconst_2": (5, 0), "iconst_3": (6, 0), "iconst_4": (7, 0), "iconst_5": (8, 0),
    "lconst_0": (9, 0), "lconst_1": (10, 0),
    "fconst_0": (11, 0), "fconst_1": (12, 0), "fconst_2": (13, 0),
    "dconst_0": (14, 0), "dconst_1": (15, 0),
    "bipush": (16, 1), "sipush": (17, 2),
    "ldc": (18, 1), "ldc_w": (19, 2), "ldc2_w": (20, 2),
    "iload": (21, 1), "lload": (22, 1), "fload": (23, 1), "dload": (24, 1), "aload": (25, 1),
    "iload_0": (26, 0), "iload_1": (27, 0), "iload_2": (28, 0), "iload_3": (29, 0),
    "lload_0": (30, 0), "lload_1": (31, 0), "lload_2": (32, 0), "lload_3": (33, 0),
    "fload_0": (34, 0), "fload_1": (35, 0), "fload_2": (36, 0), "fload_3": (37, 0),
    "dload_0": (38, 0), "dload_1": (39, 0), "dload_2": (40, 0), "dload_3": (41, 0),
    "aload_0": (42, 0), "aload_1": (43, 0), "aload_2": (44, 0), "aload_3": (45, 0),
    "iaload": (46, 0), "laload": (47, 0), "faload": (48, 0), "daload": (49, 0),
    "aaload": (50, 0), "baload": (51, 0), "caload": (52, 0), "saload": (53, 0),
    "istore": (54, 1), "lstore": (55, 1), "fstore": (56, 1), "dstore": (57, 1), "astore": (58, 1),
    "istore_0": (59, 0), "istore_1": (60, 0), "istore_2": (61, 0), "istore_3": (62, 0),
    "lstore_0": (63, 0), "lstore_1": (64, 0), "lstore_2": (65, 0), "lstore_3": (66, 0),
    "fstore_0": (67, 0), "fstore_1": (68, 0), "fstore_2": (69, 0), "fstore_3": (70, 0),
    "dstore_0": (71, 0), "dstore_1": (72, 0), "dstore_2": (73, 0), "dstore_3": (74, 0),
    "astore_0": (75, 0), "astore_1": (76, 0), "astore_2": (77, 0), "astore_3": (78, 0),
    "iastore": (79, 0), "lastore": (80, 0), "fastore": (81, 0), "dastore": (82, 0),
    "aastore": (83, 0), "bastore": (84, 0), "castore": (85, 0), "sastore": (86, 0),
    "pop": (87, 0), "pop2": (88, 0),
    "dup": (89, 0), "dup_x1": (90, 0), "dup_x2": (91, 0),
    "dup2": (92, 0), "dup2_x1": (93, 0), "dup2_x2": (94, 0), "swap": (95, 0),
    "iadd": (96, 0), "ladd": (97, 0), "fadd": (98, 0), "dadd": (99, 0),
    "isub": (100, 0), "lsub": (101, 0), "fsub": (102, 0), "dsub": (103, 0),
    "imul": (104, 0), "lmul": (105, 0), "fmul": (106, 0), "dmul": (107, 0),
    "idiv": (108, 0), "ldiv": (109, 0), "fdiv": (110, 0), "ddiv": (111, 0),
    "irem": (112, 0), "lrem": (113, 0), "frem": (114, 0), "drem": (115, 0),
    "ineg": (116, 0), "lneg": (117, 0), "fneg": (118, 0), "dneg": (119, 0),
    "ishl": (120, 0), "lshl": (121, 0), "ishr": (122, 0), "lshr": (123, 0),
    "iushr": (124, 0), "lushr": (125, 0),
    "iand": (126, 0), "land": (127, 0), "ior": (128, 0), "lor": (129, 0),
    "ixor": (130, 0), "lxor": (131, 0),
    "iinc": (132, 2),
    "i2l": (133, 0), "i2f": (134, 0), "i2d": (135, 0),
    "l2i": (136, 0), "l2f": (137, 0), "l2d": (138, 0),
    "f2i": (139, 0), "f2l": (140, 0), "f2d": (141, 0),
    "d2i": (142, 0), "d2l": (143, 0), "d2f": (144, 0),
    "i2b": (145, 0), "i2c": (146, 0), "i2s": (147, 0),
    "lcmp": (148, 0), "fcmpl": (149, 0), "fcmpg": (150, 0),
    "dcmpl": (151, 0), "dcmpg": (152, 0),
    "ifeq": (153, 2), "ifne": (154, 2), "iflt": (155, 2),
    "ifge": (156, 2), "ifgt": (157, 2), "ifle": (158, 2),
    "if_icmpeq": (159, 2), "if_icmpne": (160, 2), "if_icmplt": (161, 2),
    "if_icmpge": (162, 2), "if_icmpgt": (163, 2), "if_icmple": (164, 2),
    "if_acmpeq": (165, 2), "if_acmpne": (166, 2),
    "goto": (167, 2), "jsr": (168, 2), "ret": (169, 1),
    "ireturn": (172, 0), "lreturn": (173, 0), "freturn": (174, 0),
    "dreturn": (175, 0), "areturn": (176, 0), "return": (177, 0),
    "getstatic": (178, 2), "putstatic": (179, 2),
    "getfield": (180, 2), "putfield": (181, 2),
    "invokevirtual": (182, 2), "invokespecial": (183, 2), "invokestatic": (184, 2),
    "invokeinterface": (185, 4),
    "new": (187, 2), "newarray": (188, 1), "anewarray": (189, 2),
    "arraylength": (190, 0), "athrow": (191, 0),
    "checkcast": (192, 2), "instanceof": (193, 2),
    "monitorenter": (194, 0), "monitorexit": (195, 0),
    "multianewarray": (197, 3),
    "ifnull": (198, 2), "ifnonnull": (199, 2),
    "goto_w": (200, 4), "jsr_w": (201, 4),
    # quick forms (unassigned range)
    "ldc_quick_i": (203, 1), "ldc_quick_f": (204, 1), "ldc_quick_a": (205, 1),
    "ldc2_quick_l": (206, 2), "ldc2_quick_d": (207, 2),
    "anewarray_quick": (208, 2),
    "invokevirtual_quick": (209, 2),
    "getstatic_quick": (210, 2), "putstatic_quick": (211, 2),
    "getfield_quick": (212, 2), "putfield_quick": (213, 2),
    "ldc_quick_i_w": (214, 2), "ldc_quick_f_w": (215, 2), "ldc_quick_a_w": (216, 2),
}
# fmt: on

TABLESWITCH = 170
LOOKUPSWITCH = 171
WIDE = 196

BY_NAME = {}
NAME = {}
OPERAND_BYTES = {}
for _name, (_val, _nops) in _FIXED.items():
    BY_NAME[_name] = _val
    NAME[_val] = _name
    OPERAND_BYTES[_val] = _nops
NAME[TABLESWITCH] = "tableswitch"
NAME[LOOKUPSWITCH] = "lookupswitch"
NAME[WIDE] = "wide"
BY_NAME["tableswitch"] = TABLESWITCH
BY_NAME["lookupswitch"] = LOOKUPSWITCH
BY_NAME["wide"] = WIDE
FIRST_QUICK = BY_NAME["ldc_quick_i"]

# --- operand table -------------------------------------------------------
# What the operand field of each instruction names.  The shape's checks,
# load rewriting, the link checks, marking, relinking and branch_targets
# all read operands through this one table.  A class file gives the TABLE
# operand of a standard instruction (below FIRST_QUICK) as a raw
# constant-pool index; loading rewrites each one to its table index, so in
# loaded and linked code every TABLE operand is an atable or vtable index.
# A member instruction's is its member handle's atable index, as a quick
# string load's is its literal's: loading writes the table index where
# prelinking placed the constant the class file names.
TABLE = "table"            # atable or vtable index
LOCAL = "local"            # local variable slot
BRANCH = "branch"          # signed offset from the instruction start
IMMEDIATE = "immediate"    # (offset << 3) | type code of a quick field access
NARGS_SLOT = "nargs_slot"  # invokevirtual_quick: argument slots, dispatch slot


class Operand(NamedTuple):
    kind: str
    size: int               # bytes of the field at offset + 1; 0 = implied
    space: str = None       # TABLE: cp.ATABLE or cp.VTABLE
    want: object = None     # TABLE: kind of the entry named (None: any
                            # constant, resolved at load); LOCAL: slot width
    slot: int = None        # LOCAL of size 0: the implied slot


def _operand_table():
    V, A = cp.VTABLE, cp.ATABLE
    rows = (
        ("ldc", TABLE, 1, V),
        ("ldc_w ldc2_w", TABLE, 2, V),
        ("getstatic putstatic getfield putfield", TABLE, 2, A, cp.A_FIELD),
        ("invokevirtual invokespecial invokestatic invokeinterface", TABLE, 2,
         A, cp.A_METHOD),
        ("new anewarray checkcast instanceof multianewarray", TABLE, 2, A,
         cp.A_CLASS),
        ("ldc_quick_i", TABLE, 1, V, cp.V_INT),
        ("ldc_quick_i_w", TABLE, 2, V, cp.V_INT),
        ("ldc_quick_f", TABLE, 1, V, cp.V_FLOAT),
        ("ldc_quick_f_w", TABLE, 2, V, cp.V_FLOAT),
        ("ldc2_quick_l", TABLE, 2, V, cp.V_LONG_HI),
        ("ldc2_quick_d", TABLE, 2, V, cp.V_DBL_HI),
        ("ldc_quick_a", TABLE, 1, A, cp.A_STRING),
        ("ldc_quick_a_w", TABLE, 2, A, cp.A_STRING),
        ("anewarray_quick", TABLE, 2, A, cp.A_CLASS),
        ("iload fload aload istore fstore astore ret iinc", LOCAL, 1, None, 1),
        ("lload dload lstore dstore", LOCAL, 1, None, 2),
        ("ifeq ifne iflt ifge ifgt ifle if_icmpeq if_icmpne if_icmplt "
         "if_icmpge if_icmpgt if_icmple if_acmpeq if_acmpne goto jsr ifnull "
         "ifnonnull", BRANCH, 2),
        ("goto_w jsr_w", BRANCH, 4),
        ("getstatic_quick putstatic_quick getfield_quick putfield_quick",
         IMMEDIATE, 2),
        ("invokevirtual_quick", NARGS_SLOT, 2),
    )
    table = {}
    for names, *entry in rows:
        for name in names.split():
            table[BY_NAME[name]] = Operand(*entry)
    for op, entry in list(table.items()):      # xload_0 .. xstore_3
        if entry.kind == LOCAL and NAME[op] not in ("ret", "iinc"):
            for k in range(4):
                fixed = BY_NAME["%s_%d" % (NAME[op], k)]
                table[fixed] = entry._replace(size=0, slot=k)
    return table


OPERANDS = _operand_table()


# --- effect table --------------------------------------------------------
# What each instruction the interpreter runs pops and pushes (JVMS §6.5):
# the kinds of the values, bottom of the stack first.  i, j, f, d and a are
# an int, long, float, double and reference, and a long or double fills two
# slots.  A digit is one slot of any kind, named so that a stack shuffle can
# say where each copy goes.  A field access's row is a function of the
# field's type code, and an invoke's a function of the called method's
# descriptor (for invokevirtual_quick, the descriptor of the method at its
# dispatch slot).  wide has no row, since decode folds it into the opcode it
# modifies; neither has an opcode that loading rewrites (ldc, ldc_w, ldc2_w,
# anewarray) or that the interpreter does not run.

class Effect(NamedTuple):
    pops: str
    pushes: str


TYPE_KINDS = "aifjdiii"     # by descriptors.TC_* type code
# the kind a mnemonic's type letter names (iadd, l2f, baload)
_LETTER_KINDS = {"i": "i", "l": "j", "f": "f", "d": "d", "a": "a", "b": "i",
                 "c": "i", "s": "i"}


def _kind(descriptor):
    return TYPE_KINDS[dsc.type_code(descriptor)]


def _field_effect(pops, pushes):
    """A field access's row: the function of the field's type code that
    puts the field's kind for x."""
    return tuple(Effect(pops.replace("x", kind), pushes.replace("x", kind))
                 for kind in TYPE_KINDS).__getitem__


def _invoke_effect(receiver):
    """An invoke's row: the function of the called method's descriptor."""
    def effect(descriptor):
        params, ret = dsc.parse_method_descriptor(descriptor)
        return Effect(receiver + "".join(map(_kind, params)),
                      "" if ret == "V" else _kind(ret))
    return effect


def _effect_table():
    # (mnemonics, pops, pushes); x and y are the kinds a mnemonic's first
    # and third letters name (ladd: j; l2f: j and f)
    rows = (
        ("nop iinc goto goto_w return", "", ""),
        ("aconst_null new ldc_quick_a ldc_quick_a_w", "", "a"),
        ("iconst_m1 iconst_0 iconst_1 iconst_2 iconst_3 iconst_4 iconst_5 "
         "bipush sipush ldc_quick_i ldc_quick_i_w", "", "i"),
        ("lconst_0 lconst_1 ldc2_quick_l", "", "j"),
        ("fconst_0 fconst_1 fconst_2 ldc_quick_f ldc_quick_f_w", "", "f"),
        ("dconst_0 dconst_1 ldc2_quick_d", "", "d"),
        ("iload lload fload dload aload", "", "x"),
        ("istore lstore fstore dstore astore", "x", ""),
        ("iaload laload faload daload aaload baload caload saload", "ai", "x"),
        ("iastore lastore fastore dastore aastore bastore castore sastore",
         "aix", ""),
        ("iadd ladd fadd dadd isub lsub fsub dsub imul lmul fmul dmul "
         "idiv ldiv fdiv ddiv irem lrem frem drem iand land ior lor ixor "
         "lxor", "xx", "x"),
        ("ishl lshl ishr lshr iushr lushr", "xi", "x"),
        ("ineg lneg fneg dneg", "x", "x"),
        ("i2l i2f i2d l2i l2f l2d f2i f2l f2d d2i d2l d2f i2b i2c i2s",
         "x", "y"),
        ("lcmp fcmpl fcmpg dcmpl dcmpg", "xx", "i"),
        ("ifeq ifne iflt ifge ifgt ifle tableswitch lookupswitch", "i", ""),
        ("if_icmpeq if_icmpne if_icmplt if_icmpge if_icmpgt if_icmple",
         "ii", ""),
        ("if_acmpeq if_acmpne", "aa", ""),
        ("ifnull ifnonnull athrow", "a", ""),
        ("ireturn lreturn freturn dreturn areturn", "x", ""),
        ("arraylength instanceof", "a", "i"),
        ("newarray anewarray_quick", "i", "a"),
        ("checkcast", "a", "a"),
        ("pop", "1", ""), ("pop2", "21", ""), ("swap", "21", "12"),
        ("dup", "1", "11"), ("dup_x1", "21", "121"), ("dup_x2", "321", "1321"),
        ("dup2", "21", "2121"), ("dup2_x1", "321", "21321"),
        ("dup2_x2", "4321", "214321"),
    )
    table = {}
    for names, pops, pushes in rows:
        for name in names.split():
            x, y = (_LETTER_KINDS.get(name[k], "") for k in (0, 2))
            table[BY_NAME[name]] = Effect(
                pops.replace("x", x), pushes.replace("x", x).replace("y", y))
    for op, entry in OPERANDS.items():         # xload_0 .. xstore_3
        if entry.kind == LOCAL and entry.size == 0:
            table[op] = table[BY_NAME[NAME[op][:-2]]]
    for names, row in (
            ("getstatic getstatic_quick", _field_effect("", "x")),
            ("putstatic putstatic_quick", _field_effect("x", "")),
            ("getfield getfield_quick", _field_effect("a", "x")),
            ("putfield putfield_quick", _field_effect("ax", "")),
            ("invokestatic", _invoke_effect("")),
            ("invokevirtual invokespecial invokeinterface "
             "invokevirtual_quick", _invoke_effect("a"))):
        for name in names.split():
            table[BY_NAME[name]] = row
    return table


EFFECTS = _effect_table()

# opcodes legal under "wide": the one-byte local forms (iinc has 6 bytes)
_WIDE_OK = {op for op, e in OPERANDS.items() if e.kind == LOCAL and e.size == 1}
_IINC = BY_NAME["iinc"]


def size_at(code, offset):
    """Total byte length of the instruction at ``offset``.

    Raises BadOpcode for an unknown opcode and Truncated when the operands
    run past the end of the code array.
    """
    op = code[offset]
    if op == TABLESWITCH:
        base = _switch_base(offset)
        if base + 12 > len(code):
            raise Truncated("tableswitch header at %d" % offset)
        low, high = struct.unpack_from(">ii", code, base + 4)
        if high < low:
            raise BadOpcode("tableswitch high < low at %d" % offset)
        end = base + 12 + 4 * (high - low + 1)
        if end > len(code):
            raise Truncated("tableswitch entries at %d" % offset)
        return end - offset
    if op == LOOKUPSWITCH:
        base = _switch_base(offset)
        if base + 8 > len(code):
            raise Truncated("lookupswitch header at %d" % offset)
        npairs = struct.unpack_from(">i", code, base + 4)[0]
        if npairs < 0:
            raise BadOpcode("lookupswitch npairs < 0 at %d" % offset)
        end = base + 8 + 8 * npairs
        if end > len(code):
            raise Truncated("lookupswitch entries at %d" % offset)
        return end - offset
    if op == WIDE:
        if offset + 1 >= len(code):
            raise Truncated("wide at %d" % offset)
        sub = code[offset + 1]
        if sub == _IINC:
            length = 6
        elif sub in _WIDE_OK:
            length = 4
        else:
            raise BadOpcode("wide cannot modify 0x%02x at %d" % (sub, offset))
        if offset + length > len(code):
            raise Truncated("wide operands at %d" % offset)
        return length
    nops = OPERAND_BYTES.get(op)
    if nops is None:
        raise BadOpcode("unknown opcode 0x%02x at %d" % (op, offset))
    if offset + 1 + nops > len(code):
        raise Truncated("operands of %s at %d" % (NAME[op], offset))
    return 1 + nops


def walk(code):
    """Yield (offset, opcode, size) for each instruction in order."""
    offset = 0
    n = len(code)
    while offset < n:
        size = size_at(code, offset)
        yield offset, code[offset], size
        offset += size


def read_operand(code, offset, size):
    """Unsigned 1- or 2-byte operand field of the instruction at ``offset``."""
    if size == 1:
        return code[offset + 1]
    return (code[offset + 1] << 8) | code[offset + 2]


def write_operand(code, offset, size, value):
    if size == 1:
        code[offset + 1] = value
    else:
        struct.pack_into(">H", code, offset + 1, value)


def pool_operand(code, offset):
    """(Operand, table index) of the pool entry the instruction names, or
    None."""
    entry = OPERANDS.get(code[offset])
    if entry is None or entry.space is None:
        return None
    return entry, read_operand(code, offset, entry.size)


def local_slot(code, offset):
    """(slot, width) of the local variable the instruction names, or None."""
    op = code[offset]
    if op == WIDE:
        return (read_operand(code, offset + 1, 2),
                OPERANDS[code[offset + 1]].want)
    entry = OPERANDS.get(op)
    if entry is None or entry.kind != LOCAL:
        return None
    slot = code[offset + 1] if entry.slot is None else entry.slot
    return slot, entry.want


class Shape(NamedTuple):
    """What no rewrite of a method body changes, so every stage shares."""
    starts: tuple           # instruction start offsets, in code order
    targets: tuple          # each branch and switch target and handler pc,
                            # once (a tuple is a quarter of a small set)
    sites: tuple            # the starts whose instruction had a TABLE
                            # operand, or a quick opcode, when the shape
                            # was built


# the byte length of each fixed-length instruction by opcode, 0 for the
# ones whose length size_at works out (a switch, wide or an unknown opcode)
LENGTHS = bytes(1 + OPERAND_BYTES[op] if op in OPERAND_BYTES else 0
                for op in range(256))
# by opcode: 1 if it names the pool or is a quick opcode, which loading
# rejects, 2 if the shape checks its operands (a BRANCH or LOCAL operand, or
# a variable length), 0 otherwise
_ROLES = bytes(
    1 if op >= FIRST_QUICK or entry and entry.kind == TABLE
    else 2 if entry and entry.kind in (BRANCH, LOCAL) or not LENGTHS[op]
    else 0
    for op, entry in ((op, OPERANDS.get(op)) for op in range(256)))


def method_shape(code, method):
    """The Shape of a MethodCode, from one walk of its bytecode.

    Makes the structural checks that read no pool, raising VerifyError
    naming ``method``: each branch and switch target is an instruction
    start, each local slot is below max_locals, and each exception range
    lies inside the code on instruction boundaries, with its handler on
    one.  size_at raises for an unknown opcode or truncated operands.
    """
    bc = code.bytecode
    end = len(bc)
    starts, sites, checked = [], [], []
    offset = 0
    while offset < end:
        op = bc[offset]
        starts.append(offset)
        role = _ROLES[op]
        if role:
            (sites if role == 1 else checked).append(offset)
        offset += LENGTHS[op] or size_at(bc, offset)
    if offset > end:        # only the last instruction can run past the end
        size_at(bc, starts[-1])
    boundary = set(starts)
    targets = set()
    for offset in checked:
        for target in branch_targets(bc, offset):
            if target not in boundary:
                raise VerifyError("%s: branch from %d to non-boundary %d"
                                  % (method, offset, target))
            targets.add(target)
        local = local_slot(bc, offset)
        if local is not None and sum(local) > code.max_locals:
            raise VerifyError("%s: local %d out of range at %d"
                              % (method, local[0], offset))
    for start, stop, handler, _ in code.exception_table:
        if not start < stop <= end:
            raise VerifyError("%s: exception range [%d,%d) invalid"
                              % (method, start, stop))
        if start not in boundary or handler not in boundary:
            raise VerifyError("%s: exception boundary not on an instruction"
                              % method)
        if stop != end and stop not in boundary:
            raise VerifyError("%s: exception range end %d not on an "
                              "instruction" % (method, stop))
        targets.add(handler)
    return Shape(tuple(starts), tuple(targets), tuple(sites))


def branch_targets(code, offset):
    """Absolute branch targets of the instruction at ``offset`` (may be empty)."""
    op = code[offset]
    entry = OPERANDS.get(op)
    if entry is not None and entry.kind == BRANCH:
        rel = struct.unpack_from(">h" if entry.size == 2 else ">i",
                                 code, offset + 1)[0]
        return [offset + rel]
    if op in (TABLESWITCH, LOOKUPSWITCH):
        default, cases = switch_cases(code, offset)
        return [default] + [target for _, target in cases]
    return []


def switch_cases(code, offset):
    """(default, ((key, target), ...)) of the tableswitch or lookupswitch
    at ``offset``, in code order, with absolute targets."""
    base = _switch_base(offset)
    if code[offset] == TABLESWITCH:
        default, low, high = struct.unpack_from(">iii", code, base)
        rels = struct.unpack_from(">%di" % (high - low + 1), code, base + 12)
        keys = range(low, high + 1)
    else:
        default, npairs = struct.unpack_from(">ii", code, base)
        flat = struct.unpack_from(">%di" % (2 * npairs), code, base + 8)
        keys, rels = flat[::2], flat[1::2]
    return offset + default, tuple((key, offset + rel)
                                   for key, rel in zip(keys, rels))


def _switch_base(offset):
    """Offset of a switch's operands, padded to a multiple of four."""
    return offset + 1 + (4 - (offset + 1) % 4) % 4


def field_immediate(code, offset):
    """(field offset, type code) of a quick field access's IMMEDIATE operand."""
    imm = read_operand(code, offset, 2)
    return imm >> 3, imm & 7


def mnemonic(op):
    return NAME.get(op, "0x%02x" % op)
