"""Minimal .class file writer used to build the test corpus.

This is deliberately independent of the package under test: it encodes the
class file grammar directly (big-endian, pre-Java-5, major 48 by default)
and keeps its own bookkeeping of what it wrote, so tests can use a builder's
records as ground truth for what the parser must recover.
"""

import struct

ACC_PUBLIC = 0x0001
ACC_PRIVATE = 0x0002
ACC_PROTECTED = 0x0004
ACC_STATIC = 0x0008
ACC_FINAL = 0x0010
ACC_SUPER = 0x0020
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400

# opcode -> (value, operand byte count); mirrors the JVM spec tables
OPS = {
    "nop": (0, 0), "aconst_null": (1, 0),
    "iconst_m1": (2, 0), "iconst_0": (3, 0), "iconst_1": (4, 0),
    "iconst_2": (5, 0), "iconst_3": (6, 0), "iconst_4": (7, 0), "iconst_5": (8, 0),
    "lconst_0": (9, 0), "lconst_1": (10, 0),
    "fconst_0": (11, 0), "fconst_1": (12, 0), "fconst_2": (13, 0),
    "dconst_0": (14, 0), "dconst_1": (15, 0),
    "bipush": (16, 1), "sipush": (17, 2),
    "ldc": (18, 1), "ldc_w": (19, 2), "ldc2_w": (20, 2),
    "iload": (21, 1), "lload": (22, 1), "fload": (23, 1), "dload": (24, 1),
    "aload": (25, 1),
    "iload_0": (26, 0), "iload_1": (27, 0), "iload_2": (28, 0), "iload_3": (29, 0),
    "lload_0": (30, 0), "lload_1": (31, 0), "lload_2": (32, 0), "lload_3": (33, 0),
    "fload_0": (34, 0), "fload_1": (35, 0), "fload_2": (36, 0), "fload_3": (37, 0),
    "dload_0": (38, 0), "dload_1": (39, 0), "dload_2": (40, 0), "dload_3": (41, 0),
    "aload_0": (42, 0), "aload_1": (43, 0), "aload_2": (44, 0), "aload_3": (45, 0),
    "iaload": (46, 0), "laload": (47, 0), "faload": (48, 0), "daload": (49, 0),
    "aaload": (50, 0), "baload": (51, 0), "caload": (52, 0), "saload": (53, 0),
    "istore": (54, 1), "lstore": (55, 1), "fstore": (56, 1), "dstore": (57, 1),
    "astore": (58, 1),
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
    "goto": (167, 2),
    "ireturn": (172, 0), "lreturn": (173, 0), "freturn": (174, 0),
    "dreturn": (175, 0), "areturn": (176, 0), "return": (177, 0),
    "getstatic": (178, 2), "putstatic": (179, 2),
    "getfield": (180, 2), "putfield": (181, 2),
    "invokevirtual": (182, 2), "invokespecial": (183, 2), "invokestatic": (184, 2),
    "invokeinterface": (185, 4),
    "new": (187, 2), "newarray": (188, 1), "anewarray": (189, 2),
    "arraylength": (190, 0), "athrow": (191, 0),
    "checkcast": (192, 2), "instanceof": (193, 2),
    "ifnull": (198, 2), "ifnonnull": (199, 2),
    "goto_w": (200, 4),
    "jsr": (168, 2), "ret": (169, 1),
    "monitorenter": (194, 0), "monitorexit": (195, 0),
}

_BRANCHES = {n for n in OPS if n.startswith("if") or n in ("goto", "jsr")}

# net stack slot change per simple opcode (pool/invoke ops handled apart)
_DELTA = {}
for _n, _d in [
    ("nop", 0), ("aconst_null", 1),
    ("lconst_0", 2), ("lconst_1", 2), ("dconst_0", 2), ("dconst_1", 2),
    ("bipush", 1), ("sipush", 1),
    ("iaload", -1), ("faload", -1), ("aaload", -1), ("baload", -1),
    ("caload", -1), ("saload", -1), ("laload", 0), ("daload", 0),
    ("iastore", -3), ("fastore", -3), ("aastore", -3), ("bastore", -3),
    ("castore", -3), ("sastore", -3), ("lastore", -4), ("dastore", -4),
    ("pop", -1), ("pop2", -2), ("dup", 1), ("dup_x1", 1), ("dup_x2", 1),
    ("dup2", 2), ("dup2_x1", 2), ("dup2_x2", 2), ("swap", 0),
    ("iadd", -1), ("fadd", -1), ("isub", -1), ("fsub", -1),
    ("imul", -1), ("fmul", -1), ("idiv", -1), ("fdiv", -1),
    ("irem", -1), ("frem", -1),
    ("ladd", -2), ("dadd", -2), ("lsub", -2), ("dsub", -2),
    ("lmul", -2), ("dmul", -2), ("ldiv", -2), ("ddiv", -2),
    ("lrem", -2), ("drem", -2),
    ("ineg", 0), ("fneg", 0), ("lneg", 0), ("dneg", 0),
    ("ishl", -1), ("ishr", -1), ("iushr", -1),
    ("lshl", -1), ("lshr", -1), ("lushr", -1),
    ("iand", -1), ("ior", -1), ("ixor", -1),
    ("land", -2), ("lor", -2), ("lxor", -2),
    ("iinc", 0),
    ("i2l", 1), ("i2f", 0), ("i2d", 1), ("l2i", -1), ("l2f", -1), ("l2d", 0),
    ("f2i", 0), ("f2l", 1), ("f2d", 1), ("d2i", -1), ("d2l", 0), ("d2f", -1),
    ("i2b", 0), ("i2c", 0), ("i2s", 0),
    ("lcmp", -3), ("fcmpl", -1), ("fcmpg", -1), ("dcmpl", -3), ("dcmpg", -3),
    ("ifeq", -1), ("ifne", -1), ("iflt", -1), ("ifge", -1), ("ifgt", -1),
    ("ifle", -1), ("ifnull", -1), ("ifnonnull", -1),
    ("if_icmpeq", -2), ("if_icmpne", -2), ("if_icmplt", -2),
    ("if_icmpge", -2), ("if_icmpgt", -2), ("if_icmple", -2),
    ("if_acmpeq", -2), ("if_acmpne", -2),
    ("goto", 0), ("goto_w", 0),
    ("newarray", 0), ("arraylength", 0),
    ("checkcast", 0), ("instanceof", 0),
]:
    _DELTA[_n] = _d

for _base in ("iload", "fload", "aload"):
    _DELTA[_base] = 1
    for _k in range(4):
        _DELTA["%s_%d" % (_base, _k)] = 1
for _base in ("lload", "dload"):
    _DELTA[_base] = 2
    for _k in range(4):
        _DELTA["%s_%d" % (_base, _k)] = 2
for _base in ("istore", "fstore", "astore"):
    _DELTA[_base] = -1
    for _k in range(4):
        _DELTA["%s_%d" % (_base, _k)] = -1
for _base in ("lstore", "dstore"):
    _DELTA[_base] = -2
    for _k in range(4):
        _DELTA["%s_%d" % (_base, _k)] = -2
for _k in range(-1, 6):
    _DELTA["iconst_%s" % ("m1" if _k == -1 else _k)] = 1
for _k in range(3):
    _DELTA["fconst_%d" % _k] = 1

_FLOW_END = {"ireturn", "lreturn", "freturn", "dreturn", "areturn", "return",
             "athrow", "goto", "goto_w"}


def slot_width(d):
    return 2 if d[0] in "JD" else 1


def arg_slots(descriptor, static):
    """Argument slot count from a method descriptor."""
    slots = 0 if static else 1
    i = 1
    while descriptor[i] != ")":
        c = descriptor[i]
        if c in "JD":
            slots += 2
            i += 1
        elif c == "L":
            slots += 1
            i = descriptor.index(";", i) + 1
        elif c == "[":
            slots += 1
            while descriptor[i] == "[":
                i += 1
            if descriptor[i] == "L":
                i = descriptor.index(";", i) + 1
            else:
                i += 1
        else:
            slots += 1
            i += 1
    return slots


def ret_width(descriptor):
    r = descriptor[descriptor.index(")") + 1:]
    if r == "V":
        return 0
    return 2 if r in ("J", "D") else 1


def param_descs(descriptor):
    out = []
    i = 1
    while descriptor[i] != ")":
        start = i
        while descriptor[i] == "[":
            i += 1
        if descriptor[i] == "L":
            i = descriptor.index(";", i) + 1
        else:
            i += 1
        out.append(descriptor[start:i])
    return out


class PoolBuilder:
    """Constant pool with dedup; tracks entry count and byte size itself."""

    def __init__(self):
        self.entries = [None]       # (tag, data bytes) or None placeholder
        self._index = {}

    def _add(self, key, tag, payload, wide=False):
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.entries)
            self.entries.append((tag, payload))
            if wide:
                self.entries.append(None)
            self._index[key] = idx
        return idx

    def utf8(self, text):
        data = _mutf8(text)
        return self._add(("u", text), 1, struct.pack(">H", len(data)) + data)

    def integer(self, v):
        return self._add(("i", v), 3, struct.pack(">i", v))

    def float_(self, v):
        bits = struct.unpack(">I", struct.pack(">f", v))[0]
        return self._add(("f", bits), 4, struct.pack(">I", bits))

    def long_(self, v):
        return self._add(("j", v), 5, struct.pack(">q", v), wide=True)

    def double_(self, v):
        bits = struct.unpack(">Q", struct.pack(">d", v))[0]
        return self._add(("d", bits), 6, struct.pack(">Q", bits), wide=True)

    def klass(self, name):
        return self._add(("c", name), 7, struct.pack(">H", self.utf8(name)))

    def string(self, text):
        return self._add(("s", text), 8, struct.pack(">H", self.utf8(text)))

    def nat(self, name, descriptor):
        return self._add(("n", name, descriptor), 12,
                         struct.pack(">HH", self.utf8(name),
                                     self.utf8(descriptor)))

    def fieldref(self, cls, name, descriptor):
        return self._add(("fr", cls, name, descriptor), 9,
                         struct.pack(">HH", self.klass(cls),
                                     self.nat(name, descriptor)))

    def methodref(self, cls, name, descriptor):
        return self._add(("mr", cls, name, descriptor), 10,
                         struct.pack(">HH", self.klass(cls),
                                     self.nat(name, descriptor)))

    def iface_methodref(self, cls, name, descriptor):
        return self._add(("ir", cls, name, descriptor), 11,
                         struct.pack(">HH", self.klass(cls),
                                     self.nat(name, descriptor)))

    def entry_count(self):
        return sum(1 for e in self.entries[1:] if e is not None)

    def byte_size(self):
        return sum(1 + len(e[1]) for e in self.entries[1:] if e is not None)

    def build(self):
        out = [struct.pack(">H", len(self.entries))]
        for e in self.entries[1:]:
            if e is None:
                continue
            out.append(struct.pack(">B", e[0]))
            out.append(e[1])
        return b"".join(out)


def _mutf8(text):
    out = bytearray()
    for ch in text:
        cp = ord(ch)
        if cp > 0xFFFF:     # a surrogate pair, each half in the 3-byte form
            cp -= 0x10000
            out += _mutf8(chr(0xD800 + (cp >> 10)) + chr(0xDC00 + (cp & 0x3FF)))
        elif 1 <= cp <= 0x7F:
            out.append(cp)
        elif cp <= 0x7FF:
            out.extend((0xC0 | (cp >> 6), 0x80 | (cp & 0x3F)))
        else:
            out.extend((0xE0 | (cp >> 12), 0x80 | ((cp >> 6) & 0x3F),
                        0x80 | (cp & 0x3F)))
    return bytes(out)


class Code:
    """Bytecode builder with labels, computing max_stack by simulation."""

    def __init__(self, cb, descriptor, static):
        self.cb = cb
        self.pool = cb.pool
        self.items = []             # ("op", name, operands, meta) | ("label", name)
        self.handlers = []          # (from_lbl, to_lbl, target_lbl, class or None)
        self._arg_slots = arg_slots(descriptor, static)
        self._max_local = self._arg_slots
        self.explicit_stack = None
        self.explicit_locals = None
        self.stack_map = None       # opaque StackMapTable payload, if any

    # --- emission helpers ---

    def op(self, name, *operands):
        val, nops = OPS[name]
        if name in _BRANCHES:
            self.items.append(("op", name, operands[0], {"delta": _DELTA[name]}))
            return self
        if name == "iinc":
            raw = struct.pack(">Bb", operands[0], operands[1])
        elif name == "sipush":
            raw = struct.pack(">h", operands[0])
        elif name == "bipush":
            raw = struct.pack(">b", operands[0])
        elif nops == 2 and len(operands) == 1:
            raw = struct.pack(">H", operands[0])
        elif nops == 1 and len(operands) == 1:
            raw = struct.pack(">B", operands[0] & 0xFF)
        else:
            raw = bytes(operands)
        assert len(raw) == nops, (name, operands)
        self._touch_local(name, operands)
        self.items.append(("op", name, raw, {"delta": _DELTA.get(name, 0)}))
        return self

    def _touch_local(self, name, operands):
        base = name.split("_")[0]
        if base in ("iload", "fload", "aload", "istore", "fstore", "astore",
                    "iinc"):
            idx = operands[0] if operands else int(name.rsplit("_", 1)[1])
            self._max_local = max(self._max_local, idx + 1)
        elif base in ("lload", "dload", "lstore", "dstore"):
            idx = operands[0] if operands else int(name.rsplit("_", 1)[1])
            self._max_local = max(self._max_local, idx + 2)

    def label(self, name):
        self.items.append(("label", name, None, None))
        return self

    def ldc_int(self, v, wide=False):
        return self._ldc(self.pool.integer(v), 1, wide)

    def ldc_float(self, v, wide=False):
        return self._ldc(self.pool.float_(v), 1, wide)

    def ldc_str(self, text, wide=False):
        return self._ldc(self.pool.string(text), 1, wide)

    def ldc_long(self, v):
        idx = self.pool.long_(v)
        self.items.append(("op", "ldc2_w", struct.pack(">H", idx), {"delta": 2}))
        return self

    def ldc_double(self, v):
        idx = self.pool.double_(v)
        self.items.append(("op", "ldc2_w", struct.pack(">H", idx), {"delta": 2}))
        return self

    def _ldc(self, idx, delta, wide):
        if wide or idx > 255:
            self.items.append(("op", "ldc_w", struct.pack(">H", idx),
                               {"delta": delta}))
        else:
            self.items.append(("op", "ldc", struct.pack(">B", idx),
                               {"delta": delta}))
        return self

    def getstatic(self, cls, name, descriptor):
        return self._fieldop("getstatic", cls, name, descriptor,
                             slot_width(descriptor))

    def putstatic(self, cls, name, descriptor):
        return self._fieldop("putstatic", cls, name, descriptor,
                             -slot_width(descriptor))

    def getfield(self, cls, name, descriptor):
        return self._fieldop("getfield", cls, name, descriptor,
                             slot_width(descriptor) - 1)

    def putfield(self, cls, name, descriptor):
        return self._fieldop("putfield", cls, name, descriptor,
                             -slot_width(descriptor) - 1)

    def _fieldop(self, op, cls, name, descriptor, delta):
        idx = self.pool.fieldref(cls, name, descriptor)
        self.items.append(("op", op, struct.pack(">H", idx), {"delta": delta}))
        return self

    def invoke(self, op, cls, name, descriptor):
        static = op == "invokestatic"
        nargs = arg_slots(descriptor, static)
        delta = ret_width(descriptor) - nargs
        if op == "invokeinterface":
            idx = self.pool.iface_methodref(cls, name, descriptor)
            raw = struct.pack(">HBB", idx, nargs, 0)
        else:
            idx = self.pool.methodref(cls, name, descriptor)
            raw = struct.pack(">H", idx)
        self.items.append(("op", op, raw, {"delta": delta}))
        return self

    def new(self, cls):
        idx = self.pool.klass(cls)
        self.items.append(("op", "new", struct.pack(">H", idx), {"delta": 1}))
        return self

    def anewarray(self, cls):
        idx = self.pool.klass(cls)
        self.items.append(("op", "anewarray", struct.pack(">H", idx),
                           {"delta": 0}))
        return self

    def classop(self, op, cls):
        idx = self.pool.klass(cls)
        self.items.append(("op", op, struct.pack(">H", idx), {"delta": 0}))
        return self

    def tableswitch(self, default_lbl, low, labels):
        self.items.append(("tableswitch", None, (default_lbl, low, labels),
                           {"delta": -1}))
        return self

    def lookupswitch(self, default_lbl, pairs):
        self.items.append(("lookupswitch", None, (default_lbl, list(pairs)),
                           {"delta": -1}))
        return self

    def wide_op(self, name, index, const=None):
        if name == "iinc":
            raw = struct.pack(">BHh", OPS["iinc"][0], index, const)
        else:
            raw = struct.pack(">BH", OPS[name][0], index)
        width = 2 if name[0] in "ld" and "load" in name or name[0] in "ld" \
            and "store" in name else 1
        self._max_local = max(self._max_local, index + width)
        self.items.append(("wide", name, raw, {"delta": _DELTA.get(name, 0)}))
        return self

    def handler(self, start, end, target, catch_cls):
        self.handlers.append((start, end, target, catch_cls))
        return self

    # --- assembly ---

    def assemble(self):
        offsets = {}
        pos = 0
        for i, (kind, name, payload, meta) in enumerate(self.items):
            if kind == "label":
                offsets[name] = pos
                continue
            offsets[i] = pos
            if kind == "op":
                if name in _BRANCHES:
                    pos += 3
                else:
                    pos += 1 + len(payload)
            elif kind == "wide":
                pos += 1 + len(payload)
            elif kind == "tableswitch":
                pad = (4 - (pos + 1) % 4) % 4
                _, low, labels = payload
                pos += 1 + pad + 12 + 4 * len(labels)
            elif kind == "lookupswitch":
                pad = (4 - (pos + 1) % 4) % 4
                _, pairs = payload
                pos += 1 + pad + 8 + 8 * len(pairs)
        total = pos

        out = bytearray()
        for i, (kind, name, payload, meta) in enumerate(self.items):
            if kind == "label":
                continue
            at = offsets[i]
            if kind == "op" and name in _BRANCHES:
                out.append(OPS[name][0])
                out.extend(struct.pack(">h", offsets[payload] - at))
            elif kind == "op":
                out.append(OPS[name][0])
                out.extend(payload)
            elif kind == "wide":
                out.append(196)
                out.extend(payload)
            elif kind == "tableswitch":
                default_lbl, low, labels = payload
                out.append(170)
                out.extend(b"\x00" * ((4 - (at + 1) % 4) % 4))
                out.extend(struct.pack(">iii", offsets[default_lbl] - at,
                                       low, low + len(labels) - 1))
                for lbl in labels:
                    out.extend(struct.pack(">i", offsets[lbl] - at))
            elif kind == "lookupswitch":
                default_lbl, pairs = payload
                out.append(171)
                out.extend(b"\x00" * ((4 - (at + 1) % 4) % 4))
                out.extend(struct.pack(">ii", offsets[default_lbl] - at,
                                       len(pairs)))
                for key, lbl in sorted(pairs):
                    out.extend(struct.pack(">ii", key, offsets[lbl] - at))
        assert len(out) == total

        exc = []
        for start, end, target, catch_cls in self.handlers:
            catch_idx = 0 if catch_cls is None else self.pool.klass(catch_cls)
            exc.append((offsets[start], offsets[end], offsets[target], catch_idx))

        max_stack = self.explicit_stack
        if max_stack is None:
            max_stack = self._simulate(offsets, bytes(out), exc)
        max_locals = self.explicit_locals
        if max_locals is None:
            max_locals = self._max_local
        return bytes(out), max_stack, max_locals, exc

    def _simulate(self, offsets, code, exc):
        """Depth-only dataflow over items; enough for structured corpus code."""
        idx_at = {}
        item_offsets = []
        for i, item in enumerate(self.items):
            if item[0] != "label":
                idx_at[offsets[i]] = i
                item_offsets.append((offsets[i], i))
        depth_at = {}
        work = [(0, 0)]
        for start, _, target, _ in exc:
            work.append((target, 1))
        max_depth = 0
        while work:
            at, depth = work.pop()
            if at >= len(code):
                continue
            known = depth_at.get(at)
            if known is not None:
                if known != depth:
                    raise AssertionError("inconsistent stack depth at %d" % at)
                continue
            depth_at[at] = depth
            i = idx_at[at]
            kind, name, payload, meta = self.items[i]
            depth += meta["delta"]
            max_depth = max(max_depth, depth, depth_at[at])
            if depth < 0:
                raise AssertionError("stack underflow at %d in simulation" % at)
            nxt = None
            for off, j in item_offsets:
                if off > at:
                    nxt = off
                    break
            if kind == "op" and name in _BRANCHES:
                work.append((offsets[payload], depth))
                if name not in ("goto", "goto_w"):
                    if nxt is not None:
                        work.append((nxt, depth))
            elif kind == "tableswitch":
                default_lbl, low, labels = payload
                work.append((offsets[default_lbl], depth))
                for lbl in labels:
                    work.append((offsets[lbl], depth))
            elif kind == "lookupswitch":
                default_lbl, pairs = payload
                work.append((offsets[default_lbl], depth))
                for _, lbl in pairs:
                    work.append((offsets[lbl], depth))
            elif kind == "op" and name in _FLOW_END:
                pass
            else:
                if nxt is not None:
                    work.append((nxt, depth))
        return max_depth


class ClassBuilder:
    """One class under construction; build() returns the .class bytes."""

    def __init__(self, name, super_name="java/lang/Object", interfaces=(),
                 flags=ACC_PUBLIC | ACC_SUPER, major=48, source_file=None,
                 debug_attrs=True):
        self.name = name
        self.super_name = super_name
        self.interfaces = list(interfaces)
        self.flags = flags
        self.major = major
        self.pool = PoolBuilder()
        self.fields = []            # (flags, name, desc, constant_value idx)
        self.methods = []           # (flags, name, desc, Code or None)
        self.debug_attrs = debug_attrs
        self.source_file = source_file or name.rsplit("/", 1)[-1] + ".java"

    def field(self, name, descriptor, flags=ACC_PUBLIC, const=None):
        cv_idx = None
        if const is not None:
            kind, value = const
            cv_idx = {"i": self.pool.integer, "f": self.pool.float_,
                      "j": self.pool.long_, "d": self.pool.double_,
                      "s": self.pool.string}[kind](value)
        self.fields.append((flags, name, descriptor, cv_idx))
        return self

    def method(self, name, descriptor, flags=ACC_PUBLIC,
               max_stack=None, max_locals=None):
        """Returns a Code builder; pass flags without code for abstract."""
        if flags & ACC_ABSTRACT:
            self.methods.append((flags, name, descriptor, None))
            return None
        code = Code(self, descriptor, bool(flags & ACC_STATIC))
        code.explicit_stack = max_stack
        code.explicit_locals = max_locals
        self.methods.append((flags, name, descriptor, code))
        return code

    def default_init(self, super_name=None):
        c = self.method("<init>", "()V", ACC_PUBLIC)
        c.op("aload_0")
        c.invoke("invokespecial", super_name or self.super_name, "<init>", "()V")
        c.op("return")
        return self

    _LOCAL_NAMES = ("i", "j", "acc", "tmp", "value", "result", "entry", "next")

    def _local_var_table(self, flags, descriptor, max_locals, code_len):
        """Debug info the way a -g compile would record it.

        Parameters get their real descriptors; remaining local slots get
        plausible names.  The whole attribute is load-time discardable,
        which is exactly why it is here.
        """
        entries = []
        slot = 0
        if not flags & ACC_STATIC:
            entries.append((self.pool.utf8("this"),
                            self.pool.utf8("L%s;" % self.name), slot))
            slot += 1
        for k, p in enumerate(param_descs(descriptor)):
            entries.append((self.pool.utf8("arg%d" % k), self.pool.utf8(p),
                            slot))
            slot += 2 if p in ("J", "D") else 1
        extra = 0
        while slot < max_locals and extra < len(self._LOCAL_NAMES):
            entries.append((self.pool.utf8(self._LOCAL_NAMES[extra]),
                            self.pool.utf8("I"), slot))
            slot += 1
            extra += 1
        payload = struct.pack(">H", len(entries))
        for name_idx, desc_idx, index in entries:
            payload += struct.pack(">HHHHH", 0, code_len, name_idx, desc_idx,
                                   index)
        return (self.pool.utf8("LocalVariableTable"), payload)

    def build(self):
        # resolve all pool-dependent content before serializing the pool
        this_idx = self.pool.klass(self.name)
        super_idx = self.pool.klass(self.super_name) if self.super_name else 0
        iface_idx = [self.pool.klass(i) for i in self.interfaces]

        fields_out = []
        for flags, name, descriptor, cv_idx in self.fields:
            attrs = []
            if cv_idx is not None:
                attrs.append((self.pool.utf8("ConstantValue"),
                              struct.pack(">H", cv_idx)))
            fields_out.append((flags, self.pool.utf8(name),
                               self.pool.utf8(descriptor), attrs))

        methods_out = []
        for flags, name, descriptor, code in self.methods:
            attrs = []
            if code is not None:
                bytecode, max_stack, max_locals, exc = code.assemble()
                inner = []
                if code.stack_map is not None:
                    inner.append((self.pool.utf8("StackMapTable"),
                                  code.stack_map))
                if self.debug_attrs:
                    lnt = struct.pack(">HHH", 1, 0, 1)
                    inner.append((self.pool.utf8("LineNumberTable"), lnt))
                    inner.append(self._local_var_table(
                        flags, descriptor, max_locals, len(bytecode)))
                body = struct.pack(">HHI", max_stack, max_locals, len(bytecode))
                body += bytecode
                body += struct.pack(">H", len(exc))
                for s, e, h, c in exc:
                    body += struct.pack(">HHHH", s, e, h, c)
                body += struct.pack(">H", len(inner))
                for name_idx, payload in inner:
                    body += struct.pack(">HI", name_idx, len(payload)) + payload
                attrs.append((self.pool.utf8("Code"), body))
            methods_out.append((flags, self.pool.utf8(name),
                                self.pool.utf8(descriptor), attrs))

        class_attrs = []
        if self.debug_attrs:
            class_attrs.append((self.pool.utf8("SourceFile"),
                                struct.pack(">H", self.pool.utf8(self.source_file))))

        out = bytearray()
        out.extend(struct.pack(">IHH", 0xCAFEBABE, 0, self.major))
        out.extend(self.pool.build())
        out.extend(struct.pack(">HHH", self.flags, this_idx, super_idx))
        out.extend(struct.pack(">H", len(iface_idx)))
        for idx in iface_idx:
            out.extend(struct.pack(">H", idx))
        for group in (fields_out, methods_out):
            out.extend(struct.pack(">H", len(group)))
            for flags, name_idx, desc_idx, attrs in group:
                out.extend(struct.pack(">HHHH", flags, name_idx, desc_idx,
                                       len(attrs)))
                for attr_name_idx, payload in attrs:
                    out.extend(struct.pack(">HI", attr_name_idx, len(payload)))
                    out.extend(payload)
        out.extend(struct.pack(">H", len(class_attrs)))
        for attr_name_idx, payload in class_attrs:
            out.extend(struct.pack(">HI", attr_name_idx, len(payload)))
            out.extend(payload)
        return bytes(out)
