"""Opcode tables, the operand table and instruction stream walking.

Covers the pre-Java-5 instruction set plus the quick forms introduced by the
load/link rewriters.  Quick opcodes live in the unassigned range starting at
203; the ``*_w`` variants exist because a quick replacement must keep the
exact byte length of the instruction it replaces, and ``ldc``/``ldc_w``
differ in operand width.
"""

import struct
from typing import NamedTuple

from . import constpool as cp
from .errors import BadOpcode, Truncated

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

# --- operand table -------------------------------------------------------
# What the operand field of each instruction names.  Load rewriting, the
# link checks, marking, relinking and branch_targets all read operands
# through this one table.
POOL = "pool"              # raw constant-pool index (symbolic forms)
QUICK = "quick"            # direct atable/vtable index (quick forms)
LOCAL = "local"            # local variable slot
BRANCH = "branch"          # signed offset from the instruction start
IMMEDIATE = "immediate"    # (offset << 3) | type code of a quick field access
NARGS_SLOT = "nargs_slot"  # invokevirtual_quick: argument slots, dispatch slot


class Operand(NamedTuple):
    kind: str
    size: int               # bytes of the field at offset + 1; 0 = implied
    space: str = None       # POOL, QUICK: cp.ATABLE or cp.VTABLE
    want: object = None     # POOL, QUICK: kind of the entry named (None: any
                            # constant, resolved at load); LOCAL: slot width
    slot: int = None        # LOCAL of size 0: the implied slot


def _operand_table():
    V, A = cp.VTABLE, cp.ATABLE
    rows = (
        ("ldc", POOL, 1, V),
        ("ldc_w ldc2_w", POOL, 2, V),
        ("getstatic putstatic getfield putfield", POOL, 2, V, cp.V_FIELDREF),
        ("invokevirtual invokespecial invokestatic", POOL, 2, V, cp.V_METHODREF),
        ("invokeinterface", POOL, 2, V, cp.V_IFACEREF),
        ("new anewarray checkcast instanceof multianewarray", POOL, 2, A,
         cp.A_CLASS),
        ("ldc_quick_i", QUICK, 1, V, cp.V_INT),
        ("ldc_quick_i_w", QUICK, 2, V, cp.V_INT),
        ("ldc_quick_f", QUICK, 1, V, cp.V_FLOAT),
        ("ldc_quick_f_w", QUICK, 2, V, cp.V_FLOAT),
        ("ldc2_quick_l", QUICK, 2, V, cp.V_LONG_HI),
        ("ldc2_quick_d", QUICK, 2, V, cp.V_DBL_HI),
        ("ldc_quick_a", QUICK, 1, A, cp.A_STRING),
        ("ldc_quick_a_w", QUICK, 2, A, cp.A_STRING),
        ("anewarray_quick", QUICK, 2, A, cp.A_CLASS),
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
    """(Operand, index) of the pool entry the instruction names, or None.

    The index is a raw pool index for POOL operands and a direct atable or
    vtable index for QUICK ones.
    """
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


def instruction_sizes(code):
    """offset -> size of every instruction, in code order."""
    return {offset: size for offset, _, size in walk(code)}


def branch_targets(code, offset):
    """Absolute branch targets of the instruction at ``offset`` (may be empty)."""
    op = code[offset]
    entry = OPERANDS.get(op)
    if entry is not None and entry.kind == BRANCH:
        rel = struct.unpack_from(">h" if entry.size == 2 else ">i",
                                 code, offset + 1)[0]
        return [offset + rel]
    if op in (TABLESWITCH, LOOKUPSWITCH):
        default, pairs = _switch_cases(code, offset)
        return [offset + default] + [offset + rel for _, rel in pairs]
    return []


def switch_target(code, offset, key):
    """Absolute target the tableswitch or lookupswitch at ``offset`` takes."""
    default, pairs = _switch_cases(code, offset)
    return offset + next((rel for match, rel in pairs if match == key), default)


def _switch_cases(code, offset):
    """(default, [(key, relative target), ...]) of a switch, in code order."""
    base = _switch_base(offset)
    if code[offset] == TABLESWITCH:
        default, low, high = struct.unpack_from(">iii", code, base)
        rels = struct.unpack_from(">%di" % (high - low + 1), code, base + 12)
        return default, list(zip(range(low, high + 1), rels))
    default, npairs = struct.unpack_from(">ii", code, base)
    flat = struct.unpack_from(">%di" % (2 * npairs), code, base + 8)
    return default, list(zip(flat[::2], flat[1::2]))


def _switch_base(offset):
    """Offset of a switch's operands, padded to a multiple of four."""
    return offset + 1 + (4 - (offset + 1) % 4) % 4


def field_immediate(code, offset):
    """(field offset, type code) of a quick field access's IMMEDIATE operand."""
    imm = read_operand(code, offset, 2)
    return imm >> 3, imm & 7


def mnemonic(op):
    return NAME.get(op, "0x%02x" % op)
