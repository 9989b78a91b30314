"""Operand table: every operand-carrying opcode has an entry that fits it."""

import re

from jrom import constpool as cp
from jrom import opcodes as ops


def _expected_kind(name):
    """Operand kind of a mnemonic, classified by name apart from the table."""
    if re.fullmatch(r"[ilfda](load|store)(_[0-3])?|ret|iinc", name):
        return ops.LOCAL
    if re.match(r"if|goto|jsr", name):
        return ops.BRANCH
    if re.fullmatch(r"(get|put)(static|field)_quick", name):
        return ops.IMMEDIATE
    if name == "invokevirtual_quick":
        return ops.NARGS_SLOT
    if re.match(r"ldc|get|put|invoke|new$|anewarray|multianewarray|checkcast"
                r"|instanceof", name):
        return ops.QUICK if "_quick" in name else ops.POOL
    return None


def test_every_operand_opcode_has_its_entry():
    for name, op in ops.BY_NAME.items():
        kind = _expected_kind(name)
        entry = ops.OPERANDS.get(op)
        if kind is None:
            assert entry is None, name
        else:
            assert entry is not None and entry.kind == kind, name


def test_entry_widths_agree_with_operand_bytes():
    extra = {"iinc", "invokeinterface", "multianewarray"}   # more than one field
    for op, entry in ops.OPERANDS.items():
        name = ops.NAME[op]
        nbytes = ops.OPERAND_BYTES[op]
        if name in extra:
            assert 0 < entry.size < nbytes, name
        else:
            assert entry.size == nbytes, name
        if entry.kind in (ops.POOL, ops.QUICK):
            assert entry.space in (cp.ATABLE, cp.VTABLE) and entry.size in (1, 2)
        elif entry.kind == ops.LOCAL:
            assert entry.want in (1, 2) and entry.space is None
            assert (entry.size == 0) == (entry.slot is not None), name
        elif entry.kind == ops.BRANCH:
            assert entry.size in (2, 4)
        else:
            assert entry.size == 2 and entry.space is None


def test_wide_operands_come_from_the_table():
    code = bytes([ops.WIDE, ops.BY_NAME["dload"], 0x01, 0x02,
                  ops.BY_NAME["lstore_3"], ops.BY_NAME["goto_w"], 0xFF, 0xFF,
                  0xFF, 0xFB])
    assert ops.local_slot(code, 0) == (0x102, 2)
    assert ops.local_slot(code, 4) == (3, 2)
    assert ops.branch_targets(code, 5) == [0]
    assert list(ops.instruction_sizes(code).items()) == [(0, 4), (4, 1), (5, 5)]
