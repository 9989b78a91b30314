"""Minimal stack-machine interpreter used as a differential oracle.

It executes both the original (symbolic) and the quick-opcode dialects of a
method body against a snapshot world, so every pipeline rewrite can be
checked for semantic preservation: same outcome, same static-zone writes,
same created objects.  Breadth over the rewritten opcodes matters here, not
speed or VM completeness.
"""

import math
import random
import struct
import zlib
from dataclasses import dataclass

from . import classfile as cf
from . import constpool as cp
from . import descriptors as dsc
from . import lifecycle as lc
from . import opcodes as ops
from .errors import InterpError, StackOverflow, StackUnderflow, UnsupportedOpcode

_OP = ops.BY_NAME

PAD = ("~", None)
M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_FUEL = 1_000_000
MAX_CALL_DEPTH = 200


def i32(v):
    v &= M32
    return v - (1 << 32) if v >= (1 << 31) else v


def i64(v):
    v &= M64
    return v - (1 << 64) if v >= (1 << 63) else v


def u32(v):
    return v & M32


def f32(v):
    return struct.unpack(">f", struct.pack(">f", v))[0]


def float_bits(v):
    return struct.unpack(">I", struct.pack(">f", v))[0]


def bits_float(b):
    return struct.unpack(">f", struct.pack(">I", b & M32))[0]


def double_bits(v):
    return struct.unpack(">Q", struct.pack(">d", v))[0]


def bits_double(b):
    return struct.unpack(">d", struct.pack(">Q", b & M64))[0]


def _sign8(v):
    v &= 0xFF
    return v - 256 if v >= 128 else v


def _sign16(v):
    v &= 0xFFFF
    return v - 65536 if v >= 32768 else v


class Ref:
    """Heap reference; distinguishable from primitive slot values."""
    __slots__ = ("id",)

    def __init__(self, rid):
        self.id = rid

    def __eq__(self, other):
        return isinstance(other, Ref) and other.id == self.id

    def __hash__(self):
        return hash(("ref", self.id))

    def __repr__(self):
        return "@%d" % self.id


class Obj:
    __slots__ = ("cls", "cls_name", "slots")

    def __init__(self, cls, cls_name, slots):
        self.cls = cls
        self.cls_name = cls_name
        self.slots = slots


class Arr:
    __slots__ = ("comp", "elems")

    def __init__(self, comp, elems):
        self.comp = comp
        self.elems = elems


class Str:
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class MiniHeap:
    """Objects, arrays and interned strings; ids are never reused.

    Objects and arrays count up from 1 and interned strings down from -1,
    so object ids do not depend on which strings a run happened to intern.
    """

    def __init__(self):
        self.items = {}
        self._next = 1
        self._interned = {}

    def _add(self, item):
        rid = self._next
        self._next += 1
        self.items[rid] = item
        return Ref(rid)

    def new_object(self, cls):
        return self._add(Obj(cls, cls.name, cls.instance_defaults()))

    def new_pseudo(self, cls_name):
        return self._add(Obj(None, cls_name, []))

    def new_array(self, comp, length):
        if comp in ("F", "D"):
            elems = [0.0] * length
        elif comp[0] in "L[":
            elems = [None] * length
        else:
            elems = [0] * length
        return self._add(Arr(comp, elems))

    def intern(self, text):
        ref = self._interned.get(text)
        if ref is None:
            ref = Ref(-1 - len(self._interned))
            self.items[ref.id] = Str(text)
            self._interned[text] = ref
        return ref

    def get(self, ref):
        return self.items[ref.id]


def base_zones(cls, base):
    """The persisted (a_zone, v_zone) a world of this ``base`` starts from."""
    if base == "init" and cls.zones_initial is not None:
        return cls.zones_initial
    return cls.a_static_zone, cls.v_static_zone


class World:
    """Execution snapshot: copied static zones plus a fresh heap.

    ``base`` selects the persisted zone content to start from: "live" is
    the classes' current state, "init" the ConstantValue-only state saved
    before <clinit> ran.  Nothing is copied up front: ``zone`` copies a
    class's base content, interning its strings, the first time a run
    touches it, so a run costs only the zones it reads or writes.
    """

    def __init__(self, registry, stage, base="live", trace=None):
        self.registry = registry
        self.stage = stage
        self.base = base
        self.trace = trace
        self.heap = MiniHeap()
        self.zones = {}     # class name -> [a_zone, v_zone], once touched
        self.bases = {}     # class name -> the (a_zone, v_zone) copied

    def zone(self, cls):
        z = self.zones.get(cls.name)
        if z is None:
            c = self.registry.classes.get(cls.name)
            if c is None or c.state == lc.UNLOADED or c.synthetic:
                src = ([None] * len(cls.a_static_zone), cls.v_static_zone)
            else:
                src = base_zones(c, self.base)
            z = [[self.heap.intern(s[1]) if isinstance(s, tuple) else s
                  for s in src[0]], list(src[1])]
            self.zones[cls.name] = z
            self.bases[cls.name] = src
        return z

    def view(self, cls):
        return cls.view(self.stage)


@dataclass
class Outcome:
    kind: str               # "return" | "throw" | "fuel"
    value: object = None    # normalized typed slot, or None for void
    exception: str = None


class _Thrown(Exception):
    def __init__(self, ref, cls, cls_name):
        super().__init__(cls_name)
        self.ref = ref
        self.cls = cls
        self.cls_name = cls_name


class _FuelOut(Exception):
    pass


_UNSUPPORTED = {_OP[n] for n in ("jsr", "jsr_w", "ret", "monitorenter",
                                 "monitorexit", "multianewarray")}


def in_subset(code):
    """True when every opcode of a method body is one the machine executes."""
    if code is None:
        return False
    try:
        for off, op, size in ops.walk(code.bytecode):
            if op in _UNSUPPORTED:
                return False
            if op == ops.WIDE and code.bytecode[off + 1] == _OP["ret"]:
                return False
    except Exception:
        return False
    return True


class Machine:
    def __init__(self, world, fuel):
        self.world = world
        self.fuel = fuel
        self.depth = 0

    # --- helpers ---

    def class_of_ref(self, ref):
        item = self.world.heap.get(ref)
        if isinstance(item, Str):
            return self.world.registry.get("java/lang/String"), "java/lang/String"
        if isinstance(item, Arr):
            name = "[" + item.comp
            return self.world.registry.new_unloaded(name), name
        return item.cls, item.cls_name

    def throw_named(self, name):
        cls = self.world.registry.get(name)
        if cls is not None and cls.state != lc.UNLOADED:
            ref = self.world.heap.new_object(cls)
        else:
            cls = None
            ref = self.world.heap.new_pseudo(name)
        raise _Thrown(ref, cls, name)

    def assignable(self, src_name, src_cls, dst_cls):
        dst_name = dst_cls.name
        if dst_name == "java/lang/Object":
            return True
        if src_name == dst_name:
            return True
        if src_name.startswith("["):
            if not dst_name.startswith("["):
                return False
            sc, dc = src_name[1:], dst_name[1:]
            if sc == dc:
                return True
            if sc.startswith("L") or sc.startswith("["):
                s_cls = self.world.registry.new_unloaded(
                    sc[1:-1] if sc.startswith("L") else sc)
                d_inner = dc[1:-1] if dc.startswith("L") else dc
                d_cls = self.world.registry.get(d_inner)
                if d_cls is None:
                    return False
                return self.assignable(s_cls.name, s_cls, d_cls)
            return False
        if src_cls is None:
            return False
        return src_cls.is_subclass_of(dst_cls)

    def dispatch_table(self, cls):
        if cls.synthetic and not cls.dispatch_table and cls.super_cls is not None:
            return cls.super_cls.dispatch_table
        return cls.dispatch_table

    # --- invocation ---

    def call(self, method, args):
        """Run one frame; returns the (tag, value) result or None for void."""
        if method.code is None:
            raise InterpError("no bytecode for %s" % (method,))
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            self.depth -= 1
            self.throw_named("java/lang/StackOverflowError")
        try:
            return self._frame(method, args)
        finally:
            self.depth -= 1

    def _frame(self, method, args):
        view = self.world.view(method.owner)
        code = view.codes[method.key]
        pool = view.pool
        bc = code.bytecode
        relinked = view.relinked

        locals_ = list(args)
        if len(locals_) > code.max_locals:
            raise InterpError("%s: %d argument slots > max_locals %d"
                              % (method, len(locals_), code.max_locals))
        locals_.extend([PAD] * (code.max_locals - len(locals_)))
        stack = []
        pc = 0
        heap = self.world.heap
        sizes = code.instruction_sizes()

        def push(slot):
            stack.append(slot)
            if len(stack) > code.max_stack:
                raise StackOverflow("%s at %d" % (method, pc))

        def push2(slot):
            push(slot)
            push(PAD)

        def pop():
            if not stack:
                raise StackUnderflow("%s at %d" % (method, pc))
            return stack.pop()

        def need(n):
            if len(stack) < n:
                raise StackUnderflow("%s at %d" % (method, pc))

        def pop2():
            pop()
            return pop()

        def popi():
            return pop()[1]

        def ref_of(slot):
            return slot[1]

        def origin_chase(operand, want_space):
            if relinked:
                return operand
            placed = pool.origin.get(operand)
            if placed is None or placed[0] != want_space:
                raise InterpError("%s: operand %d unresolvable at %d"
                                  % (method, operand, pc))
            return placed[1]

        def member_at(operand):
            vidx = origin_chase(operand, cp.VTABLE)
            cell = pool.vtable[vidx]
            handle = pool.atable[cell.value & 0xFFFF].payload
            if handle.resolved is not None:
                return handle.resolved
            if handle.is_field:
                found = handle.owner.find_field(handle.name, handle.descriptor)
            else:
                found = handle.owner.find_method(handle.name, handle.descriptor)
            if found is None:
                raise InterpError("%s: unresolved %s.%s at %d"
                                  % (method, handle.owner.name, handle.name, pc))
            return found

        def class_at(operand):
            aidx = origin_chase(operand, cp.ATABLE)
            entry = pool.atable[aidx]
            if entry.kind != cp.A_CLASS:
                raise InterpError("%s: operand is not a class at %d" % (method, pc))
            return entry.payload

        def zone_read(owner_cls, zone, offset, tc):
            owner, local = owner_cls.static_slot(zone, offset)
            az, vz = self.world.zone(owner)
            if tc == dsc.TC_REF:
                return ("a", az[local])
            if tc == dsc.TC_FLOAT:
                return ("f", bits_float(vz[local]))
            if tc == dsc.TC_LONG:
                return ("j", i64((vz[local] << 32) | vz[local + 1]))
            if tc == dsc.TC_DOUBLE:
                return ("d", bits_double((vz[local] << 32) | vz[local + 1]))
            return ("i", i32(vz[local]))

        def zone_write(owner_cls, zone, offset, tc, slot):
            owner, local = owner_cls.static_slot(zone, offset)
            az, vz = self.world.zone(owner)
            if tc == dsc.TC_REF:
                az[local] = slot[1]
            elif tc == dsc.TC_FLOAT:
                vz[local] = float_bits(slot[1])
            elif tc == dsc.TC_LONG:
                bits = slot[1] & M64
                vz[local] = bits >> 32
                vz[local + 1] = bits & M32
            elif tc == dsc.TC_DOUBLE:
                bits = double_bits(slot[1])
                vz[local] = bits >> 32
                vz[local + 1] = bits & M32
            elif tc == dsc.TC_BYTE:
                vz[local] = u32(_sign8(slot[1]))
            elif tc == dsc.TC_CHAR:
                vz[local] = slot[1] & 0xFFFF
            elif tc == dsc.TC_SHORT:
                vz[local] = u32(_sign16(slot[1]))
            else:
                vz[local] = u32(slot[1])

        def obj_read(ref, offset, tc):
            if ref is None:
                self.throw_named("java/lang/NullPointerException")
            obj = heap.get(ref)
            v = obj.slots[offset]
            tag = {dsc.TC_REF: "a", dsc.TC_FLOAT: "f", dsc.TC_LONG: "j",
                   dsc.TC_DOUBLE: "d"}.get(tc, "i")
            return (tag, v)

        def obj_write(ref, offset, tc, slot):
            if ref is None:
                self.throw_named("java/lang/NullPointerException")
            obj = heap.get(ref)
            v = slot[1]
            if tc == dsc.TC_BYTE:
                v = _sign8(v)
            elif tc == dsc.TC_CHAR:
                v = v & 0xFFFF
            elif tc == dsc.TC_SHORT:
                v = _sign16(v)
            obj.slots[offset] = v
            if tc in (dsc.TC_LONG, dsc.TC_DOUBLE):
                obj.slots[offset + 1] = None

        def do_invoke(target, has_receiver, dispatch):
            n = target.nargs
            if n > len(stack):
                raise StackUnderflow("%s at %d" % (method, pc))
            call_args = stack[len(stack) - n:]
            del stack[len(stack) - n:]
            actual = target
            if has_receiver:
                recv = call_args[0]
                if recv[1] is None:
                    self.throw_named("java/lang/NullPointerException")
                if dispatch == "virtual":
                    rc, rc_name = self.class_of_ref(recv[1])
                    if rc is None or rc.state == lc.UNLOADED:
                        raise InterpError("receiver class %s not loaded" % rc_name)
                    actual = rc.find_method(target.name, target.descriptor)
                    if actual is None:
                        raise InterpError("no %s%s on %s"
                                          % (target.name, target.descriptor, rc_name))
            result = self.call(actual, call_args)
            if result is not None:
                if result[0] in ("j", "d"):
                    push2(result)
                else:
                    push(result)

        def do_invoke_quick(nargs, slot_idx):
            if nargs > len(stack):
                raise StackUnderflow("%s at %d" % (method, pc))
            call_args = stack[len(stack) - nargs:]
            del stack[len(stack) - nargs:]
            recv = call_args[0]
            if recv[1] is None:
                self.throw_named("java/lang/NullPointerException")
            rc, rc_name = self.class_of_ref(recv[1])
            if rc is None:
                raise InterpError("receiver class %s not loaded" % rc_name)
            table = self.dispatch_table(rc)
            if slot_idx >= len(table):
                raise InterpError("dispatch slot %d out of range on %s"
                                  % (slot_idx, rc_name))
            result = self.call(table[slot_idx], call_args)
            if result is not None:
                if result[0] in ("j", "d"):
                    push2(result)
                else:
                    push(result)

        while True:
            if pc >= len(bc):
                raise InterpError("%s: fell off the end of the code" % (method,))
            if self.fuel <= 0:
                raise _FuelOut()
            self.fuel -= 1
            op = bc[pc]
            size = sizes.get(pc)
            if size is None:
                raise InterpError("%s: pc %d not on an instruction boundary"
                                  % (method, pc))
            if self.world.trace is not None:
                self.world.trace("%5d %-20s depth=%d"
                                 % (pc, ops.mnemonic(op), len(stack)))
            try:
                next_pc = pc + size

                # constants
                if op == _OP["nop"]:
                    pass
                elif op == _OP["aconst_null"]:
                    push(("a", None))
                elif _OP["iconst_m1"] <= op <= _OP["iconst_5"]:
                    push(("i", op - _OP["iconst_0"]))
                elif op in (_OP["lconst_0"], _OP["lconst_1"]):
                    push2(("j", op - _OP["lconst_0"]))
                elif _OP["fconst_0"] <= op <= _OP["fconst_2"]:
                    push(("f", float(op - _OP["fconst_0"])))
                elif op in (_OP["dconst_0"], _OP["dconst_1"]):
                    push2(("d", float(op - _OP["dconst_0"])))
                elif op == _OP["bipush"]:
                    push(("i", _sign8(bc[pc + 1])))
                elif op == _OP["sipush"]:
                    push(("i", struct.unpack_from(">h", bc, pc + 1)[0]))
                elif op in (_OP["ldc"], _OP["ldc_w"]):
                    operand = bc[pc + 1] if op == _OP["ldc"] \
                        else struct.unpack_from(">H", bc, pc + 1)[0]
                    vidx = origin_chase(operand, cp.VTABLE)
                    cell = pool.vtable[vidx]
                    if cell.kind == cp.V_INT:
                        push(("i", i32(cell.value)))
                    elif cell.kind == cp.V_FLOAT:
                        push(("f", bits_float(cell.value)))
                    elif cell.kind == cp.V_STRING:
                        text = pool.atable[cell.value].payload
                        push(("a", heap.intern(text)))
                    else:
                        raise InterpError("%s: ldc of %s at %d"
                                          % (method, cell.kind, pc))
                elif op == _OP["ldc2_w"]:
                    operand = struct.unpack_from(">H", bc, pc + 1)[0]
                    vidx = origin_chase(operand, cp.VTABLE)
                    cell = pool.vtable[vidx]
                    bits = (cell.value << 32) | pool.vtable[vidx + 1].value
                    if cell.kind == cp.V_LONG_HI:
                        push2(("j", i64(bits)))
                    elif cell.kind == cp.V_DBL_HI:
                        push2(("d", bits_double(bits)))
                    else:
                        raise InterpError("%s: ldc2_w of %s at %d"
                                          % (method, cell.kind, pc))
                elif op in (_OP["ldc_quick_i"], _OP["ldc_quick_i_w"]):
                    idx = bc[pc + 1] if op == _OP["ldc_quick_i"] \
                        else struct.unpack_from(">H", bc, pc + 1)[0]
                    push(("i", i32(pool.vtable[idx].value)))
                elif op in (_OP["ldc_quick_f"], _OP["ldc_quick_f_w"]):
                    idx = bc[pc + 1] if op == _OP["ldc_quick_f"] \
                        else struct.unpack_from(">H", bc, pc + 1)[0]
                    push(("f", bits_float(pool.vtable[idx].value)))
                elif op in (_OP["ldc_quick_a"], _OP["ldc_quick_a_w"]):
                    idx = bc[pc + 1] if op == _OP["ldc_quick_a"] \
                        else struct.unpack_from(">H", bc, pc + 1)[0]
                    push(("a", heap.intern(pool.atable[idx].payload)))
                elif op in (_OP["ldc2_quick_l"], _OP["ldc2_quick_d"]):
                    idx = struct.unpack_from(">H", bc, pc + 1)[0]
                    bits = (pool.vtable[idx].value << 32) | pool.vtable[idx + 1].value
                    if op == _OP["ldc2_quick_l"]:
                        push2(("j", i64(bits)))
                    else:
                        push2(("d", bits_double(bits)))

                # locals
                elif op in (_OP["iload"], _OP["fload"], _OP["aload"]):
                    push(locals_[bc[pc + 1]])
                elif op in (_OP["lload"], _OP["dload"]):
                    push2(locals_[bc[pc + 1]])
                elif _OP["iload_0"] <= op <= _OP["aload_3"] and op < _OP["iaload"]:
                    base = (op - _OP["iload_0"]) // 4
                    k = (op - _OP["iload_0"]) % 4
                    if base in (1, 3):      # lload_n / dload_n
                        push2(locals_[k])
                    else:
                        push(locals_[k])
                elif op in (_OP["istore"], _OP["fstore"], _OP["astore"]):
                    locals_[bc[pc + 1]] = pop()
                elif op in (_OP["lstore"], _OP["dstore"]):
                    v = pop2()
                    locals_[bc[pc + 1]] = v
                    locals_[bc[pc + 1] + 1] = PAD
                elif _OP["istore_0"] <= op <= _OP["astore_3"] and op < _OP["iastore"]:
                    base = (op - _OP["istore_0"]) // 4
                    k = (op - _OP["istore_0"]) % 4
                    if base in (1, 3):      # lstore_n / dstore_n
                        v = pop2()
                        locals_[k] = v
                        locals_[k + 1] = PAD
                    else:
                        locals_[k] = pop()
                elif op == ops.WIDE:
                    sub = bc[pc + 1]
                    idx = struct.unpack_from(">H", bc, pc + 2)[0]
                    if sub in (_OP["iload"], _OP["fload"], _OP["aload"]):
                        push(locals_[idx])
                    elif sub in (_OP["lload"], _OP["dload"]):
                        push2(locals_[idx])
                    elif sub in (_OP["istore"], _OP["fstore"], _OP["astore"]):
                        locals_[idx] = pop()
                    elif sub in (_OP["lstore"], _OP["dstore"]):
                        v = pop2()
                        locals_[idx] = v
                        locals_[idx + 1] = PAD
                    elif sub == _OP["iinc"]:
                        delta = struct.unpack_from(">h", bc, pc + 4)[0]
                        locals_[idx] = ("i", i32(locals_[idx][1] + delta))
                    else:
                        raise UnsupportedOpcode(sub, pc)
                elif op == _OP["iinc"]:
                    idx = bc[pc + 1]
                    delta = _sign8(bc[pc + 2])
                    locals_[idx] = ("i", i32(locals_[idx][1] + delta))

                # array access
                elif op in (_OP["iaload"], _OP["laload"], _OP["faload"],
                            _OP["daload"], _OP["aaload"], _OP["baload"],
                            _OP["caload"], _OP["saload"]):
                    index = popi()
                    aref = pop()[1]
                    if aref is None:
                        self.throw_named("java/lang/NullPointerException")
                    arr = heap.get(aref)
                    if not 0 <= index < len(arr.elems):
                        self.throw_named("java/lang/ArrayIndexOutOfBoundsException")
                    v = arr.elems[index]
                    if op == _OP["laload"]:
                        push2(("j", v))
                    elif op == _OP["daload"]:
                        push2(("d", v))
                    elif op == _OP["faload"]:
                        push(("f", v))
                    elif op == _OP["aaload"]:
                        push(("a", v))
                    else:
                        push(("i", v))
                elif op in (_OP["iastore"], _OP["lastore"], _OP["fastore"],
                            _OP["dastore"], _OP["aastore"], _OP["bastore"],
                            _OP["castore"], _OP["sastore"]):
                    if op in (_OP["lastore"], _OP["dastore"]):
                        value = pop2()
                    else:
                        value = pop()
                    index = popi()
                    aref = pop()[1]
                    if aref is None:
                        self.throw_named("java/lang/NullPointerException")
                    arr = heap.get(aref)
                    if not 0 <= index < len(arr.elems):
                        self.throw_named("java/lang/ArrayIndexOutOfBoundsException")
                    v = value[1]
                    if op == _OP["bastore"]:
                        v = _sign8(v)
                    elif op == _OP["castore"]:
                        v = v & 0xFFFF
                    elif op == _OP["sastore"]:
                        v = _sign16(v)
                    elif op == _OP["fastore"]:
                        v = f32(v)
                    arr.elems[index] = v
                elif op == _OP["arraylength"]:
                    aref = pop()[1]
                    if aref is None:
                        self.throw_named("java/lang/NullPointerException")
                    push(("i", len(heap.get(aref).elems)))

                # stack shuffling (physical slot semantics)
                elif op == _OP["pop"]:
                    pop()
                elif op == _OP["pop2"]:
                    pop2()
                elif op == _OP["dup"]:
                    need(1)
                    push(stack[-1])
                elif op == _OP["dup_x1"]:
                    need(2)
                    stack.insert(-2, stack[-1])
                elif op == _OP["dup_x2"]:
                    need(3)
                    stack.insert(-3, stack[-1])
                elif op == _OP["dup2"]:
                    need(2)
                    a, b = stack[-2], stack[-1]
                    push(a)
                    push(b)
                elif op == _OP["dup2_x1"]:
                    need(3)
                    stack.insert(-3, stack[-2])
                    stack.insert(-3, stack[-1])
                elif op == _OP["dup2_x2"]:
                    need(4)
                    stack.insert(-4, stack[-2])
                    stack.insert(-4, stack[-1])
                elif op == _OP["swap"]:
                    need(2)
                    stack[-1], stack[-2] = stack[-2], stack[-1]

                # integer arithmetic
                elif op == _OP["iadd"]:
                    b, a = popi(), popi()
                    push(("i", i32(a + b)))
                elif op == _OP["isub"]:
                    b, a = popi(), popi()
                    push(("i", i32(a - b)))
                elif op == _OP["imul"]:
                    b, a = popi(), popi()
                    push(("i", i32(a * b)))
                elif op in (_OP["idiv"], _OP["irem"]):
                    b, a = popi(), popi()
                    if b == 0:
                        self.throw_named("java/lang/ArithmeticException")
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    push(("i", i32(q if op == _OP["idiv"] else a - q * b)))
                elif op == _OP["ineg"]:
                    push(("i", i32(-popi())))
                elif op == _OP["ishl"]:
                    b, a = popi(), popi()
                    push(("i", i32(a << (b & 31))))
                elif op == _OP["ishr"]:
                    b, a = popi(), popi()
                    push(("i", a >> (b & 31)))
                elif op == _OP["iushr"]:
                    b, a = popi(), popi()
                    push(("i", i32(u32(a) >> (b & 31))))
                elif op == _OP["iand"]:
                    b, a = popi(), popi()
                    push(("i", i32(u32(a) & u32(b))))
                elif op == _OP["ior"]:
                    b, a = popi(), popi()
                    push(("i", i32(u32(a) | u32(b))))
                elif op == _OP["ixor"]:
                    b, a = popi(), popi()
                    push(("i", i32(u32(a) ^ u32(b))))

                # long arithmetic
                elif op == _OP["ladd"]:
                    b, a = pop2()[1], pop2()[1]
                    push2(("j", i64(a + b)))
                elif op == _OP["lsub"]:
                    b, a = pop2()[1], pop2()[1]
                    push2(("j", i64(a - b)))
                elif op == _OP["lmul"]:
                    b, a = pop2()[1], pop2()[1]
                    push2(("j", i64(a * b)))
                elif op in (_OP["ldiv"], _OP["lrem"]):
                    b, a = pop2()[1], pop2()[1]
                    if b == 0:
                        self.throw_named("java/lang/ArithmeticException")
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    push2(("j", i64(q if op == _OP["ldiv"] else a - q * b)))
                elif op == _OP["lneg"]:
                    push2(("j", i64(-pop2()[1])))
                elif op in (_OP["lshl"], _OP["lshr"], _OP["lushr"]):
                    b = popi()
                    a = pop2()[1]
                    s = b & 63
                    if op == _OP["lshl"]:
                        push2(("j", i64(a << s)))
                    elif op == _OP["lshr"]:
                        push2(("j", a >> s))
                    else:
                        push2(("j", i64((a & M64) >> s)))
                elif op == _OP["land"]:
                    b, a = pop2()[1], pop2()[1]
                    push2(("j", i64((a & M64) & (b & M64))))
                elif op == _OP["lor"]:
                    b, a = pop2()[1], pop2()[1]
                    push2(("j", i64((a & M64) | (b & M64))))
                elif op == _OP["lxor"]:
                    b, a = pop2()[1], pop2()[1]
                    push2(("j", i64((a & M64) ^ (b & M64))))

                # float/double arithmetic
                elif op in (_OP["fadd"], _OP["fsub"], _OP["fmul"], _OP["fdiv"],
                            _OP["frem"]):
                    b, a = pop()[1], pop()[1]
                    push(("f", f32(_float_op(op - _OP["fadd"], a, b))))
                elif op == _OP["fneg"]:
                    push(("f", f32(-pop()[1])))
                elif op in (_OP["dadd"], _OP["dsub"], _OP["dmul"], _OP["ddiv"],
                            _OP["drem"]):
                    b, a = pop2()[1], pop2()[1]
                    push2(("d", _float_op(op - _OP["dadd"], a, b)))
                elif op == _OP["dneg"]:
                    push2(("d", -pop2()[1]))

                # conversions
                elif op == _OP["i2l"]:
                    push2(("j", popi()))
                elif op == _OP["i2f"]:
                    push(("f", f32(float(popi()))))
                elif op == _OP["i2d"]:
                    push2(("d", float(popi())))
                elif op == _OP["l2i"]:
                    push(("i", i32(pop2()[1])))
                elif op == _OP["l2f"]:
                    push(("f", f32(float(pop2()[1]))))
                elif op == _OP["l2d"]:
                    push2(("d", float(pop2()[1])))
                elif op == _OP["f2i"]:
                    push(("i", _to_int(pop()[1], 31)))
                elif op == _OP["f2l"]:
                    push2(("j", _to_int(pop()[1], 63)))
                elif op == _OP["f2d"]:
                    push2(("d", pop()[1]))
                elif op == _OP["d2i"]:
                    push(("i", _to_int(pop2()[1], 31)))
                elif op == _OP["d2l"]:
                    push2(("j", _to_int(pop2()[1], 63)))
                elif op == _OP["d2f"]:
                    push(("f", f32(pop2()[1])))
                elif op == _OP["i2b"]:
                    push(("i", _sign8(popi())))
                elif op == _OP["i2c"]:
                    push(("i", popi() & 0xFFFF))
                elif op == _OP["i2s"]:
                    push(("i", _sign16(popi())))

                # comparisons
                elif op == _OP["lcmp"]:
                    b, a = pop2()[1], pop2()[1]
                    push(("i", (a > b) - (a < b)))
                elif op in (_OP["fcmpl"], _OP["fcmpg"], _OP["dcmpl"], _OP["dcmpg"]):
                    wide2 = op in (_OP["dcmpl"], _OP["dcmpg"])
                    b = pop2()[1] if wide2 else pop()[1]
                    a = pop2()[1] if wide2 else pop()[1]
                    if math.isnan(a) or math.isnan(b):
                        push(("i", 1 if op in (_OP["fcmpg"], _OP["dcmpg"]) else -1))
                    else:
                        push(("i", (a > b) - (a < b)))

                # branches
                elif op in (_OP["ifeq"], _OP["ifne"], _OP["iflt"], _OP["ifge"],
                            _OP["ifgt"], _OP["ifle"]):
                    v = popi()
                    taken = ((op == _OP["ifeq"] and v == 0)
                             or (op == _OP["ifne"] and v != 0)
                             or (op == _OP["iflt"] and v < 0)
                             or (op == _OP["ifge"] and v >= 0)
                             or (op == _OP["ifgt"] and v > 0)
                             or (op == _OP["ifle"] and v <= 0))
                    if taken:
                        next_pc = pc + struct.unpack_from(">h", bc, pc + 1)[0]
                elif op in (_OP["if_icmpeq"], _OP["if_icmpne"], _OP["if_icmplt"],
                            _OP["if_icmpge"], _OP["if_icmpgt"], _OP["if_icmple"]):
                    b, a = popi(), popi()
                    taken = ((op == _OP["if_icmpeq"] and a == b)
                             or (op == _OP["if_icmpne"] and a != b)
                             or (op == _OP["if_icmplt"] and a < b)
                             or (op == _OP["if_icmpge"] and a >= b)
                             or (op == _OP["if_icmpgt"] and a > b)
                             or (op == _OP["if_icmple"] and a <= b))
                    if taken:
                        next_pc = pc + struct.unpack_from(">h", bc, pc + 1)[0]
                elif op in (_OP["if_acmpeq"], _OP["if_acmpne"]):
                    b, a = pop()[1], pop()[1]
                    same = (a == b)
                    if (op == _OP["if_acmpeq"]) == same:
                        next_pc = pc + struct.unpack_from(">h", bc, pc + 1)[0]
                elif op in (_OP["ifnull"], _OP["ifnonnull"]):
                    v = pop()[1]
                    if (v is None) == (op == _OP["ifnull"]):
                        next_pc = pc + struct.unpack_from(">h", bc, pc + 1)[0]
                elif op == _OP["goto"]:
                    next_pc = pc + struct.unpack_from(">h", bc, pc + 1)[0]
                elif op == _OP["goto_w"]:
                    next_pc = pc + struct.unpack_from(">i", bc, pc + 1)[0]
                elif op == ops.TABLESWITCH:
                    v = popi()
                    pad = (4 - (pc + 1) % 4) % 4
                    base = pc + 1 + pad
                    default, low, high = struct.unpack_from(">iii", bc, base)
                    if low <= v <= high:
                        rel = struct.unpack_from(">i", bc, base + 12 + 4 * (v - low))[0]
                    else:
                        rel = default
                    next_pc = pc + rel
                elif op == ops.LOOKUPSWITCH:
                    v = popi()
                    pad = (4 - (pc + 1) % 4) % 4
                    base = pc + 1 + pad
                    default, npairs = struct.unpack_from(">ii", bc, base)
                    rel = default
                    for k in range(npairs):
                        key, target = struct.unpack_from(">ii", bc, base + 8 + 8 * k)
                        if key == v:
                            rel = target
                            break
                    next_pc = pc + rel

                # returns
                elif op == _OP["ireturn"]:
                    return ("i", popi())
                elif op == _OP["lreturn"]:
                    return ("j", pop2()[1])
                elif op == _OP["freturn"]:
                    return ("f", pop()[1])
                elif op == _OP["dreturn"]:
                    return ("d", pop2()[1])
                elif op == _OP["areturn"]:
                    return ("a", pop()[1])
                elif op == _OP["return"]:
                    return None

                # field access
                elif op in (_OP["getstatic"], _OP["putstatic"]):
                    f = member_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    if op == _OP["getstatic"]:
                        slot = zone_read(f.owner, f.zone, f.offset, f.type_code)
                        push2(slot) if slot[0] in "jd" else push(slot)
                    else:
                        slot = pop2() if f.type_code in (dsc.TC_LONG, dsc.TC_DOUBLE) \
                            else pop()
                        zone_write(f.owner, f.zone, f.offset, f.type_code, slot)
                elif op in (_OP["getstatic_quick"], _OP["putstatic_quick"]):
                    imm = struct.unpack_from(">H", bc, pc + 1)[0]
                    offset, tc = imm >> 3, imm & 7
                    zone = "a" if tc == dsc.TC_REF else "v"
                    if op == _OP["getstatic_quick"]:
                        slot = zone_read(method.owner, zone, offset, tc)
                        push2(slot) if slot[0] in "jd" else push(slot)
                    else:
                        slot = pop2() if tc in (dsc.TC_LONG, dsc.TC_DOUBLE) else pop()
                        zone_write(method.owner, zone, offset, tc, slot)
                elif op in (_OP["getfield"], _OP["putfield"]):
                    f = member_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    if op == _OP["getfield"]:
                        ref = pop()[1]
                        slot = obj_read(ref, f.offset, f.type_code)
                        push2(slot) if slot[0] in "jd" else push(slot)
                    else:
                        slot = pop2() if f.type_code in (dsc.TC_LONG, dsc.TC_DOUBLE) \
                            else pop()
                        ref = pop()[1]
                        obj_write(ref, f.offset, f.type_code, slot)
                elif op in (_OP["getfield_quick"], _OP["putfield_quick"]):
                    imm = struct.unpack_from(">H", bc, pc + 1)[0]
                    offset, tc = imm >> 3, imm & 7
                    if op == _OP["getfield_quick"]:
                        ref = pop()[1]
                        slot = obj_read(ref, offset, tc)
                        push2(slot) if slot[0] in "jd" else push(slot)
                    else:
                        slot = pop2() if tc in (dsc.TC_LONG, dsc.TC_DOUBLE) else pop()
                        ref = pop()[1]
                        obj_write(ref, offset, tc, slot)

                # allocation
                elif op == _OP["new"]:
                    cls = class_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    if cls.state == lc.UNLOADED:
                        raise InterpError("new of unloaded class %s" % cls.name)
                    push(("a", heap.new_object(cls)))
                elif op == _OP["newarray"]:
                    comp = {4: "Z", 5: "C", 6: "F", 7: "D",
                            8: "B", 9: "S", 10: "I", 11: "J"}.get(bc[pc + 1])
                    if comp is None:
                        raise InterpError("bad newarray type %d" % bc[pc + 1])
                    length = popi()
                    if length < 0:
                        self.throw_named("java/lang/NegativeArraySizeException")
                    push(("a", heap.new_array(comp, length)))
                elif op in (_OP["anewarray"], _OP["anewarray_quick"]):
                    operand = struct.unpack_from(">H", bc, pc + 1)[0]
                    if op == _OP["anewarray"]:
                        cls = class_at(operand)
                    else:
                        cls = pool.atable[operand].payload
                    length = popi()
                    if length < 0:
                        self.throw_named("java/lang/NegativeArraySizeException")
                    comp = cls.name if cls.name.startswith("[") \
                        else "L%s;" % cls.name
                    push(("a", heap.new_array(comp, length)))

                # invocation
                elif op == _OP["invokevirtual"]:
                    target = member_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    do_invoke(target, has_receiver=True, dispatch="virtual")
                elif op == _OP["invokevirtual_quick"]:
                    do_invoke_quick(bc[pc + 1], bc[pc + 2])
                elif op == _OP["invokespecial"]:
                    target = member_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    do_invoke(target, has_receiver=True, dispatch="direct")
                elif op == _OP["invokestatic"]:
                    target = member_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    do_invoke(target, has_receiver=False, dispatch="direct")
                elif op == _OP["invokeinterface"]:
                    target = member_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    do_invoke(target, has_receiver=True, dispatch="virtual")

                # type tests and throwing
                elif op in (_OP["checkcast"], _OP["instanceof"]):
                    cls = class_at(struct.unpack_from(">H", bc, pc + 1)[0])
                    slot = pop()
                    ref = slot[1]
                    if ref is None:
                        ok = True
                        result = 0
                    else:
                        src_cls, src_name = self.class_of_ref(ref)
                        ok = self.assignable(src_name, src_cls, cls)
                        result = 1 if ok else 0
                    if op == _OP["checkcast"]:
                        if not ok:
                            self.throw_named("java/lang/ClassCastException")
                        push(slot)
                    else:
                        push(("i", result))
                elif op == _OP["athrow"]:
                    ref = pop()[1]
                    if ref is None:
                        self.throw_named("java/lang/NullPointerException")
                    cls, name = self.class_of_ref(ref)
                    raise _Thrown(ref, cls, name)

                else:
                    raise UnsupportedOpcode(op, pc)

                pc = next_pc

            except _Thrown as t:
                handler = self._find_handler(code, pool, pc, t)
                if handler is None:
                    raise
                del stack[:]
                stack.append(("a", t.ref))
                pc = handler

    def _find_handler(self, code, pool, pc, thrown):
        for start, end, handler, catch in code.exception_table:
            if not start <= pc < end:
                continue
            if catch is None:
                return handler
            catch_cls = pool.atable[catch].payload
            if thrown.cls is not None:
                if thrown.cls.is_subclass_of(catch_cls):
                    return handler
            elif thrown.cls_name == catch_cls.name:
                return handler
        return None


def _float_op(which, a, b):
    if which == 0:
        return a + b
    if which == 1:
        return a - b
    if which == 2:
        return a * b
    if which == 3:
        if b == 0:
            if a == 0 or math.isnan(a):
                return math.nan
            return math.inf if (a > 0) == (not _signbit(b)) else -math.inf
        return a / b
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or b == 0:
        return math.nan
    return math.fmod(a, b)


def _signbit(v):
    return math.copysign(1.0, v) < 0


def _to_int(v, bits):
    if math.isnan(v):
        return 0
    lo, hi = -(1 << bits), (1 << bits) - 1
    if v <= lo:
        return lo
    if v >= hi:
        return hi
    return int(v)


def execute(entry, args, world, fuel=DEFAULT_FUEL):
    """Run one method to completion; never raises for in-language faults.

    Returns an Outcome: a typed return value, a thrown exception class
    name, or fuel exhaustion.  Interpreter-level problems (unsupported
    opcodes, stack misuse) still raise, since they indicate either an
    out-of-subset method or a transformation bug.
    """
    machine = Machine(world, fuel)
    try:
        result = machine.call(entry, args)
    except _Thrown as t:
        return Outcome("throw", exception=t.cls_name)
    except _FuelOut:
        return Outcome("fuel")
    if result is None:
        return Outcome("return")
    return Outcome("return", value=normalize_slot(result, world.heap))


def normalize_slot(slot, heap):
    tag, v = slot
    if tag == "f":
        return (tag, float_bits(v))       # NaN-safe, bit-exact comparison
    if tag == "d":
        return (tag, double_bits(v))
    if tag != "a" or v is None:
        return (tag, v)
    item = heap.get(v)
    if isinstance(item, Str):
        return ("a", ("str", item.text))
    if isinstance(item, Arr):
        return ("a", ("arr", v.id, item.comp))
    return ("a", ("obj", v.id, item.cls_name))


def world_digest(world):
    """Canonical observable state: changed zones plus the created objects.

    Only touched zones that differ from their base after normalization are
    included, which keeps the equality of digesting every zone as long as
    both sides start from equal bases (``Pipeline.verify_all`` checks a
    reloaded image's zones against the source registry once per run).
    Interned strings compare by text and stay out of the heap part.
    """
    def norm(v):
        if isinstance(v, Ref):
            item = world.heap.get(v)
            if isinstance(item, Str):
                return ("str", item.text)
            return ("ref", v.id)
        if isinstance(v, float):
            return ("fp", double_bits(v))
        return v

    zones = {}
    for name in sorted(world.zones):
        a, v = world.zones[name]
        a_src, v_src = world.bases[name]
        a = [norm(s) for s in a]
        if a != list(a_src) or v != list(v_src):
            zones[name] = (tuple(a), tuple(v))
    heap = []
    for rid in sorted(world.heap.items):
        item = world.heap.items[rid]
        if isinstance(item, Arr):
            heap.append((rid, "arr", item.comp,
                         tuple(norm(e) for e in item.elems)))
        elif isinstance(item, Obj):
            heap.append((rid, "obj", item.cls_name,
                         tuple(norm(s) for s in item.slots)))
    return (zones, tuple(heap))


@dataclass
class ExecContext:
    """Where and at which pipeline stage a method body should run."""
    registry: object
    stage: str
    base: str = "live"


def run_method(ctx, cls_name, method_key, vector, fuel=DEFAULT_FUEL, trace=None):
    """Execute one method in a fresh world; returns (Outcome, digest)."""
    cls = ctx.registry.get(cls_name)
    method = next(m for m in cls.methods if m.key == method_key)
    world = World(ctx.registry, ctx.stage, base=ctx.base, trace=trace)
    args = materialize_args(method, vector, world)
    outcome = execute(method, args, world, fuel)
    return outcome, world_digest(world)


def _concrete_receiver_class(owner, registry):
    """A deterministic instantiable class for testing an instance method."""
    if not (owner.access_flags & cf.ACC_ABSTRACT) and not owner.is_interface:
        return owner
    candidates = sorted(
        (c for c in registry.classes.values()
         if not c.synthetic and c.state != lc.UNLOADED
         and not (c.access_flags & cf.ACC_ABSTRACT) and not c.is_interface
         and c.is_subclass_of(owner)),
        key=lambda c: c.name)
    return candidates[0] if candidates else owner


def materialize_args(method, vector, world):
    """Turn an abstract argument vector into typed slots in this world."""
    args = []
    if not method.is_static:
        recv_cls = _concrete_receiver_class(method.owner, world.registry)
        args.append(("a", world.heap.new_object(recv_cls)))
    for item in vector:
        kind = item[0]
        if kind == "null":
            args.append(("a", None))
        elif kind == "str":
            args.append(("a", world.heap.intern(item[1])))
        elif kind in ("j", "d"):
            args.append((kind, item[1]))
            args.append(PAD)
        else:
            args.append((kind, item[1]))
    return args


def seeded_vectors(method, seed, count=5):
    """Deterministic argument vectors derived from the method descriptor."""
    label = "%s.%s%s" % (method.owner.name, method.name, method.descriptor)
    rng = random.Random((zlib.crc32(label.encode()) << 1) ^ seed)
    params, _ = dsc.parse_method_descriptor(method.descriptor)
    vectors = []
    for _ in range(count):
        vec = []
        for p in params:
            c = p[0]
            if c == "I":
                vec.append(("i", rng.choice([0, 1, -1, 2, 7, -13, 100,
                                             rng.randint(-9999, 9999)])))
            elif c == "J":
                vec.append(("j", rng.choice([0, 1, -1, 2**33,
                                             rng.randint(-10**12, 10**12)])))
            elif c == "F":
                vec.append(("f", f32(rng.choice([0.0, 1.0, -2.5, 3.25,
                                                 float(rng.randint(-99, 99))]))))
            elif c == "D":
                vec.append(("d", rng.choice([0.0, 1.0, -2.5,
                                             float(rng.randint(-999, 999))])))
            elif c == "Z":
                vec.append(("i", rng.randint(0, 1)))
            elif c == "B":
                vec.append(("i", rng.randint(-128, 127)))
            elif c == "C":
                vec.append(("i", rng.randint(0, 255)))
            elif c == "S":
                vec.append(("i", rng.randint(-3000, 3000)))
            elif p == "Ljava/lang/String;":
                vec.append(("str", "s%d" % rng.randint(0, 9)))
            else:
                vec.append(("null",))
        vectors.append(vec)
    return vectors
