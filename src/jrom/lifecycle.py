"""Class lifecycle: unloaded -> loaded -> linked, plus the ready flag.

Loading parses the class file, builds and prelinks the runtime pool, lays
out fields, rewrites the constant-loading instructions to their quick forms
and builds the dispatch table.  The ready flag is orthogonal: a class
becomes ready once its statics are initialized, which may happen while it
is merely loaded.
"""

from dataclasses import dataclass, field as dc_field

from . import classfile as cf
from . import constpool as cp
from . import descriptors as desc
from . import opcodes as ops
from .errors import (BadPoolRef, ClassNotFound, HierarchyCycle, InvalidName,
                     InvalidTransition, NameMismatch, PoolOverflow,
                     StaticOverflow, UnsupportedClinit)

UNLOADED = "unloaded"
LOADED = "loaded"
LINKED = "linked"

_OP = ops.BY_NAME

MAX_STATIC_OFFSET = (1 << 13) - 1


@dataclass
class FieldRep:
    owner: object
    name: str
    descriptor: str
    access_flags: int
    is_static: bool
    type_code: int
    zone: str = None        # "a" or "v" when static
    offset: int = None      # hierarchy-wide slot offset (static or instance)
    constant_value: tuple = None

    @property
    def is_private(self):
        return bool(self.access_flags & cf.ACC_PRIVATE)

    @property
    def is_public(self):
        return bool(self.access_flags & cf.ACC_PUBLIC)

    @property
    def width(self):
        return desc.slot_width(self.descriptor)


@dataclass
class MethodCode:
    bytecode: bytearray
    max_stack: int
    max_locals: int
    exception_table: list   # (start, end, handler, catch atable index or None)
    stack_maps: bytes = None
    # (StageView, steps) of verify's decode; whoever rewrites the bytecode
    # in place sets it back to None
    decoded: tuple = dc_field(default=None, repr=False, compare=False)

    def clone(self):
        return MethodCode(bytearray(self.bytecode), self.max_stack,
                          self.max_locals,
                          [tuple(e) for e in self.exception_table],
                          self.stack_maps)


@dataclass
class MethodRep:
    owner: object
    name: str
    descriptor: str
    access_flags: int
    nargs: int
    code: MethodCode = None
    code_loaded: MethodCode = None
    dispatch_slot: int = None

    @property
    def key(self):
        return (self.name, self.descriptor)

    def code_at(self, stage):
        """The body run at a pipeline stage: as loaded, or as linked."""
        return self.code_loaded if stage == LOADED else self.code

    @property
    def is_static(self):
        return bool(self.access_flags & cf.ACC_STATIC)

    @property
    def is_private(self):
        return bool(self.access_flags & cf.ACC_PRIVATE)

    @property
    def is_virtual(self):
        return (not self.is_static and not self.is_private
                and self.name not in ("<init>", "<clinit>"))

    def __repr__(self):
        return "<method %s.%s%s>" % (self.owner.name if self.owner else "?",
                                     self.name, self.descriptor)


@dataclass
class StageView:
    """The pool a class's methods run against at one pipeline stage."""
    pool: cp.RuntimePool
    relinked: bool


class ClassRep:
    """A class known to the registry, in any lifecycle state."""

    def __init__(self, name, synthetic=False):
        self.name = name
        self.state = UNLOADED if not synthetic else LOADED
        self.ready = synthetic
        self.synthetic = synthetic
        self.access_flags = 0
        self.super_cls = None
        self.interfaces = []
        self.pool = None
        self.fields = []
        self.methods = []
        self.dispatch_table = []
        self.a_static_zone = []
        self.v_static_zone = []
        self.a_base = 0
        self.v_base = 0
        self.instance_base = 0
        self.instance_size = 0
        self.raw_stats = None
        self.loaded_view = None
        self.zones_initial = None
        self._defaults = None
        self._linked_view = None

    def __repr__(self):
        flag = "+ready" if self.ready else ""
        return "<class %s %s%s>" % (self.name, self.state, flag)

    @property
    def is_interface(self):
        return bool(self.access_flags & cf.ACC_INTERFACE)

    def view(self, stage):
        if stage == LOADED:
            if self.loaded_view is None:
                raise InvalidTransition("%s has no loaded snapshot" % self.name)
            return self.loaded_view
        if self._linked_view is None or self._linked_view.pool is not self.pool:
            self._linked_view = StageView(self.pool, relinked=True)
        return self._linked_view

    def find_method(self, name, descriptor):
        """JVM-style resolution: the class, its supers, then interfaces."""
        k = self
        while k is not None:
            for m in k.methods:
                if m.name == name and m.descriptor == descriptor:
                    return m
            k = k.super_cls
        seen = set()
        stack = []
        k = self
        while k is not None:
            stack.extend(k.interfaces)
            k = k.super_cls
        while stack:
            iface = stack.pop()
            if iface.name in seen:
                continue
            seen.add(iface.name)
            for m in iface.methods:
                if m.name == name and m.descriptor == descriptor:
                    return m
            stack.extend(iface.interfaces)
        return None

    def find_field(self, name, descriptor):
        """Resolution order: own fields, then interfaces, then superclass."""
        for f in self.fields:
            if f.name == name and f.descriptor == descriptor:
                return f
        for iface in self.interfaces:
            found = iface.find_field(name, descriptor)
            if found is not None:
                return found
        if self.super_cls is not None:
            return self.super_cls.find_field(name, descriptor)
        return None

    def hierarchy(self):
        k = self
        while k is not None:
            yield k
            k = k.super_cls

    def is_subclass_of(self, other):
        if other.name == "java/lang/Object":
            return True
        for k in self.hierarchy():
            if k is other:
                return True
            stack = list(k.interfaces)
            while stack:
                iface = stack.pop()
                if iface is other:
                    return True
                stack.extend(iface.interfaces)
        return False

    def static_slot(self, zone, offset):
        """Map a hierarchy-wide static offset to (owning class, local index)."""
        for k in self.hierarchy():
            base = k.a_base if zone == "a" else k.v_base
            size = len(k.a_static_zone if zone == "a" else k.v_static_zone)
            if base <= offset < base + size:
                return k, offset - base
        raise BadPoolRef("static offset %d not in %s-zone of %s hierarchy"
                         % (offset, zone, self.name))

    def instance_defaults(self):
        if self._defaults is None:
            slots = [0] * self.instance_size
            for k in self.hierarchy():
                for f in k.fields:
                    if f.is_static:
                        continue
                    if f.type_code == desc.TC_REF:
                        slots[f.offset] = None
                    elif f.type_code == desc.TC_FLOAT:
                        slots[f.offset] = 0.0
                    elif f.type_code == desc.TC_DOUBLE:
                        slots[f.offset] = 0.0
                        slots[f.offset + 1] = None
                    elif f.type_code == desc.TC_LONG:
                        slots[f.offset + 1] = None
            self._defaults = slots
        return list(self._defaults)


class Registry:
    """Name -> ClassRep map; the single shared structure of a pipeline."""

    PRIMITIVES = ("int", "long", "float", "double",
                  "byte", "short", "char", "boolean")

    def __init__(self):
        self.classes = {}
        self.image_flags = None     # an image's link flags, set by load_image
        self.shared_steps = {}      # verify.decoded keeps equal steps as one
        for p in self.PRIMITIVES:
            self.classes[p] = ClassRep(p, synthetic=True)

    def new_unloaded(self, name):
        if not name:
            raise InvalidName("empty class name")
        cls = self.classes.get(name)
        if cls is None:
            if name.startswith("["):
                cls = self._make_array(name)
            else:
                cls = ClassRep(name)
            self.classes[name] = cls
        return cls

    # the resolver handed to prelinking and loading
    def resolve(self, name):
        return self.new_unloaded(name)

    def get(self, name):
        return self.classes.get(name)

    def _make_array(self, name):
        cls = ClassRep(name, synthetic=True)
        cls.super_cls = self.new_unloaded("java/lang/Object")
        return cls

    def loadable(self):
        return [c for c in self.classes.values() if not c.synthetic]


class Classpath:
    """Ordered directories searched for <binary-name>.class files."""

    def __init__(self, paths):
        self.paths = list(paths)

    def find(self, name):
        import os
        rel = name.replace("/", os.sep) + ".class"
        for p in self.paths:
            full = os.path.join(p, rel)
            if os.path.isfile(full):
                with open(full, "rb") as fh:
                    return fh.read()
        return None


class Loader:
    """Loads classes from a classpath, superclasses first."""

    def __init__(self, classpath, registry):
        self.classpath = classpath
        self.registry = registry
        self._in_progress = []

    def ensure_loaded(self, name):
        cls = self.registry.new_unloaded(name)
        if cls.state != UNLOADED:
            return cls
        if name in self._in_progress:
            raise HierarchyCycle(" -> ".join(self._in_progress + [name]))
        data = self.classpath.find(name)
        if data is None:
            raise ClassNotFound(name)
        raw = cf.parse_class(data)
        if raw.name != name:
            raise NameMismatch("file declares %s, expected %s" % (raw.name, name))
        self._in_progress.append(name)
        try:
            if raw.super_name is not None:
                self.ensure_loaded(raw.super_name)
            load_parsed(cls, raw, data, self.registry.resolve)
        finally:
            self._in_progress.pop()
        return cls


def load(cls, data, resolver):
    """Bring an unloaded class to state loaded from raw .class bytes.

    The superclass must already be loaded (a Loader arranges that); the
    resolver provides handles for every other referenced class, created in
    state unloaded when unseen.
    """
    if cls.state != UNLOADED:
        raise InvalidTransition("%s is %s, cannot load" % (cls.name, cls.state))
    raw = cf.parse_class(data)
    if raw.name != cls.name:
        raise NameMismatch("file declares %s, expected %s" % (raw.name, cls.name))
    load_parsed(cls, raw, data, resolver)


def load_parsed(cls, raw, data, resolver):
    pool = cp.build_pool(raw)
    cp.prelink_pass1(pool, raw, resolver)
    cp.prelink_pass2(pool, raw)

    if raw.super_name is not None:
        sup = resolver(raw.super_name)
        if sup.state == UNLOADED:
            raise ClassNotFound("superclass %s of %s is not loaded"
                                % (raw.super_name, cls.name))
        if any(k is cls for k in sup.hierarchy()):
            raise HierarchyCycle("%s <- %s" % (cls.name, raw.super_name))
        cls.super_cls = sup
    cls.access_flags = raw.access_flags
    cls.interfaces = [resolver(raw.class_name(i)) for i in raw.interfaces]

    cls.pool = pool
    lay_out_class(
        cls,
        ((fm.name, fm.descriptor, fm.access_flags, cf.constant_value_of(raw, fm))
         for fm in raw.fields),
        ((mm.name, mm.descriptor, mm.access_flags, _loaded_code(mm, pool))
         for mm in raw.methods))
    for m in cls.methods:
        m.code_loaded = m.code
    cls.raw_stats = {
        "entries": cf.pool_entry_count(raw),
        "pool_bytes": raw.pool_end - raw.pool_entries_start,
        "file_bytes": len(data) if data is not None else 0,
    }
    cls.state = LOADED
    cls.loaded_view = StageView(pool, relinked=False)


def _loaded_code(raw_method, pool):
    """The method's code with its constant loads in quick form, or None."""
    code_attr = raw_method.attr("Code")
    if code_attr is None:
        return None
    raw_code = code_attr.code
    table = []
    for start, end, handler, catch in raw_code.exception_table:
        if catch == 0:
            aidx = None
        else:
            placed = pool.origin.get(catch)
            if placed is None or placed[0] != cp.ATABLE \
                    or pool.a_kind[placed[1]] != cp.A_CLASS:
                raise BadPoolRef("catch type index %d is not a class constant" % catch)
            aidx = placed[1]
        table.append((start, end, handler, aidx))
    stack_maps = None
    for a in raw_code.attributes:
        if a.retained:
            stack_maps = a.payload
            break
    return rewrite_load(MethodCode(bytearray(raw_code.code), raw_code.max_stack,
                                   raw_code.max_locals, table, stack_maps), pool)


def lay_out_class(cls, fields, methods):
    """Field offsets, static zones, methods and dispatch table of a class.

    Shared by class-file and image loading.  ``fields`` yields (name,
    descriptor, access flags, ConstantValue) and ``methods`` (name,
    descriptor, access flags, code) tuples; the superclass, if any, must
    already be laid out.
    """
    sup = cls.super_cls
    if sup is not None:
        cls.a_base = sup.a_base + len(sup.a_static_zone)
        cls.v_base = sup.v_base + len(sup.v_static_zone)
        cls.instance_base = sup.instance_size
    cls.fields = []
    instance_offset = cls.instance_base
    for name, descriptor, flags, constant in fields:
        f = FieldRep(cls, name, descriptor, flags, bool(flags & cf.ACC_STATIC),
                     desc.type_code(descriptor), constant_value=constant)
        if not f.is_static:
            f.offset = instance_offset
            instance_offset += f.width
        cls.fields.append(f)
    cls.instance_size = instance_offset
    lay_out_statics(cls)
    cls.methods = [
        MethodRep(cls, name, descriptor, flags,
                  desc.arg_slots(descriptor,
                                 include_receiver=not flags & cf.ACC_STATIC),
                  code=code)
        for name, descriptor, flags, code in methods]
    build_dispatch_table(cls)


def lay_out_statics(cls):
    """Assign zone slots to static fields, continuing the superclass layout.

    Reference statics take consecutive a-zone slots, primitives v-zone
    slots (two for long/double).  Offsets are hierarchy-wide so a 13-bit
    offset names a slot unambiguously along one superclass chain.
    """
    next_a = cls.a_base
    next_v = cls.v_base
    for f in cls.fields:
        if not f.is_static:
            continue
        if f.type_code == desc.TC_REF:
            f.zone = "a"
            f.offset = next_a
            next_a += 1
        else:
            f.zone = "v"
            f.offset = next_v
            next_v += f.width
        if f.offset > MAX_STATIC_OFFSET:
            raise StaticOverflow("static %s.%s needs offset %d"
                                 % (cls.name, f.name, f.offset))
    cls.a_static_zone = [None] * (next_a - cls.a_base)
    cls.v_static_zone = [0] * (next_v - cls.v_base)


_LDC_QUICK = {(cp.VTABLE, cp.V_INT): "ldc_quick_i",
              (cp.VTABLE, cp.V_FLOAT): "ldc_quick_f",
              (cp.VTABLE, cp.V_STRING): "ldc_quick_a"}
# symbolic opcode -> (fault message, {(space, kind of the entry named):
# quick form}); the quick form of ldc_w is the wide one
_LOAD_QUICK = {
    _OP["ldc"]: ("ldc operand %d is not an int/float/string", _LDC_QUICK),
    _OP["ldc_w"]: ("ldc operand %d is not an int/float/string",
                   {k: v + "_w" for k, v in _LDC_QUICK.items()}),
    _OP["ldc2_w"]: ("ldc2_w operand %d is not a long/double",
                    {(cp.VTABLE, cp.V_LONG_HI): "ldc2_quick_l",
                     (cp.VTABLE, cp.V_DBL_HI): "ldc2_quick_d"}),
    _OP["anewarray"]: ("anewarray operand %d is not a class constant",
                       {(cp.ATABLE, cp.A_CLASS): "anewarray_quick"}),
}


def rewrite_load(code, pool):
    """Replace constant-loading instructions with quick forms, in place.

    Every replacement keeps the original byte length, so offsets and branch
    targets never move.
    """
    bc = code.bytecode
    for off, op, size in ops.walk(bc):
        rule = _LOAD_QUICK.get(op)
        if rule is None:
            continue
        fault, forms = rule
        _, raw_idx = ops.pool_operand(bc, off)
        placed = pool.origin.get(raw_idx)
        if placed is None:
            raise BadPoolRef("operand %d at offset %d is not a pool constant"
                             % (raw_idx, off))
        space, idx = placed
        name = forms.get((space, pool.kinds(space)[idx]))
        if name is None:
            raise BadPoolRef(fault % raw_idx)
        quick = ops.OPERANDS[_OP[name]]
        if quick.space != space:        # a string cell names its literal
            idx = pool.v_value[idx]
        if idx >> (8 * quick.size):
            raise PoolOverflow("%s index %d does not fit %s" % (
                name, idx, "one byte" if quick.size == 1 else "two bytes"))
        bc[off] = _OP[name]
        ops.write_operand(bc, off, quick.size, idx)
    return code


def build_dispatch_table(cls):
    """Superclass table as a prefix, overrides in place, new methods appended."""
    table = list(cls.super_cls.dispatch_table) if cls.super_cls else []
    for m in cls.methods:
        if not m.is_virtual:
            continue
        for i, existing in enumerate(table):
            if existing.name == m.name and existing.descriptor == m.descriptor:
                table[i] = m
                m.dispatch_slot = i
                break
        else:
            table.append(m)
            m.dispatch_slot = len(table) - 1
    cls.dispatch_table = table


def make_ready(cls, interp):
    """Initialize static fields; ready stays false if <clinit> is unsupported.

    ConstantValue attributes are written first, then <clinit> runs under
    the supplied interpreter callback: interp(cls, method) must execute
    against the live zones and raise UnsupportedClinit on any opcode or
    effect it cannot honor.
    """
    if cls.ready:
        return
    if cls.state not in (LOADED, LINKED):
        raise InvalidTransition("%s is %s, cannot become ready"
                                % (cls.name, cls.state))
    for f in cls.fields:
        if not f.is_static or f.constant_value is None:
            continue
        kind, value = f.constant_value
        owner, local = cls.static_slot(f.zone, f.offset)
        if kind == "s":
            owner.a_static_zone[local] = ("str", value)
        elif kind == "i":
            owner.v_static_zone[local] = value & 0xFFFFFFFF
        elif kind == "f":
            owner.v_static_zone[local] = value
        elif kind == "j":
            bits = value & 0xFFFFFFFFFFFFFFFF
            owner.v_static_zone[local] = bits >> 32
            owner.v_static_zone[local + 1] = bits & 0xFFFFFFFF
        elif kind == "d":
            owner.v_static_zone[local] = value >> 32
            owner.v_static_zone[local + 1] = value & 0xFFFFFFFF
    cls.zones_initial = (list(cls.a_static_zone), list(cls.v_static_zone))

    clinit = next((m for m in cls.methods
                   if m.name == "<clinit>" and m.code is not None), None)
    if clinit is not None:
        try:
            interp(cls, clinit)
        except UnsupportedClinit:
            cls.a_static_zone = list(cls.zones_initial[0])
            cls.v_static_zone = list(cls.zones_initial[1])
            raise
    cls.ready = True
