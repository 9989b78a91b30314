"""End-to-end orchestration shared by the command line driver and tests."""

import itertools
from dataclasses import dataclass, field

from . import lifecycle as lc
from . import linker as lk
from . import opcodes as ops
from . import romizer as rz
from . import verify as vf
from .errors import JromError, UnsupportedClinit

CLINIT_FUEL = 2_000_000


@dataclass
class VerifyOutcome:
    checked: list = field(default_factory=list)     # (class, method) pairs
    skipped: list = field(default_factory=list)
    failures: list = field(default_factory=list)    # (class, method, detail)

    @property
    def ok(self):
        return not self.failures


def _slot_difference(zones, other):
    """"<zone>-zone slot <i>: <a> vs <b>" at the first differing slot."""
    for zone, mine, theirs in zip("av", zones, other):
        pairs = itertools.zip_longest(mine, theirs, fillvalue="absent")
        for i, (x, y) in enumerate(pairs):
            if x != y:
                return "%s-zone slot %d: %r vs %r" % (zone, i, x, y)
    return None


def _zone_difference(cls, other):
    """First slot at which ``other`` starts a world from different zones."""
    if other is None or other.state == lc.UNLOADED:
        return "missing from the reloaded registry"
    for base in ("live", "init"):
        detail = _slot_difference(vf.base_zones(cls, base),
                                  vf.base_zones(other, base))
        if detail is not None:
            return "%s %s" % (base, detail)
    return None


def _world_difference(before, dig_a, after, dig_b):
    """First static slot, else first heap object, where two digests differ.

    A digest leaves out zones equal to their base, so a zone one side
    left out is compared as that side's base.
    """
    def zones_of(ctx, digest, name):
        if name in digest[0]:
            return digest[0][name]
        cls = ctx.registry.get(name)
        return vf.base_zones(cls, ctx.base) if cls is not None else ((), ())

    for name in sorted(set(dig_a[0]) | set(dig_b[0])):
        detail = _slot_difference(zones_of(before, dig_a, name),
                                  zones_of(after, dig_b, name))
        if detail is not None:
            return "static %s %s" % (name, detail)
    heap_a = {obj[0]: obj[1:] for obj in dig_a[1]}
    heap_b = {obj[0]: obj[1:] for obj in dig_b[1]}
    for rid in sorted(set(heap_a) | set(heap_b)):
        obj_a, obj_b = heap_a.get(rid, "absent"), heap_b.get(rid, "absent")
        if obj_a != obj_b:
            return "heap object %d: %r vs %r" % (rid, obj_a, obj_b)
    return "world effects differ"


class Pipeline:
    def __init__(self, classpath_paths, introspection=True,
                 private_field_opt=False, closed_packages=(),
                 closed_world=False):
        self.registry = lc.Registry()
        self.classpath = lc.Classpath(classpath_paths)
        self.loader = lc.Loader(self.classpath, self.registry)
        self.ctx = lk.LinkContext(self.registry, loader=self.loader,
                                  introspection=introspection,
                                  private_field_opt=private_field_opt,
                                  closed_packages=set(closed_packages),
                                  closed_world=closed_world)

    def flags_desc(self):
        return ("introspection=%s private_field_opt=%s closed_packages=%s "
                "closed_world=%s"
                % ("on" if self.ctx.introspection else "off",
                   "on" if self.ctx.private_field_opt else "off",
                   sorted(self.ctx.closed_packages) or "[]",
                   "on" if self.ctx.closed_world else "off"))

    # --- loading ---

    def load_targets(self, names, closure=False):
        targets = [self.loader.ensure_loaded(n) for n in names]
        if closure:
            self.load_closure()
            targets = sorted(self.registry.loadable(), key=lambda c: c.name)
        return targets

    def load_closure(self):
        """Load until no referenced class remains unloaded."""
        while True:
            pending = [c for c in self.registry.loadable()
                       if c.state == lc.UNLOADED]
            if not pending:
                return
            for cls in pending:
                self.loader.ensure_loaded(cls.name)

    # --- ready (static initialization) ---

    def ready_all(self):
        """Initialize statics, superclasses first; returns per-class failures."""
        failures = []
        classes = [c for c in self.registry.loadable()
                   if c.state in (lc.LOADED, lc.LINKED) and not c.ready]
        classes.sort(key=lambda c: (sum(1 for _ in c.hierarchy()), c.name))
        for cls in classes:
            try:
                lc.make_ready(cls, self._clinit_interp)
            except UnsupportedClinit as e:
                failures.append((cls.name, str(e)))
        return failures

    def _clinit_interp(self, cls, method):
        if not vf.in_subset(method.code):
            raise UnsupportedClinit("%s.<clinit> uses unsupported opcodes"
                                    % cls.name)
        stage = lc.LINKED if cls.state == lc.LINKED else lc.LOADED
        world = vf.World(self.registry, stage, base="live")
        try:
            outcome = vf.execute(method, [], world, fuel=CLINIT_FUEL)
        except JromError as e:
            raise UnsupportedClinit("%s.<clinit>: %s" % (cls.name, e)) from None
        if outcome.kind != "return":
            raise UnsupportedClinit("%s.<clinit> did not complete: %s"
                                    % (cls.name, outcome.kind))
        # persist the touched zones; only null and string references survive
        persisted = {}
        for name, (a_rt, v_rt) in world.zones.items():
            new_a = []
            for slot in a_rt:
                if slot is None:
                    new_a.append(None)
                else:
                    item = world.heap.get(slot)
                    if isinstance(item, vf.Str):
                        new_a.append(("str", item.text))
                    else:
                        raise UnsupportedClinit(
                            "%s.<clinit> stored a non-string reference into "
                            "a static of %s" % (cls.name, name))
            persisted[name] = (new_a, list(v_rt))
        for name, (new_a, new_v) in persisted.items():
            target = self.registry.get(name)
            target.a_static_zone = new_a
            target.v_static_zone = new_v

    # --- linking ---

    def link_classes(self, targets):
        failures = []
        for cls in sorted(targets, key=lambda c: c.name):
            if cls.state != lc.LOADED:
                continue
            try:
                lk.link(cls, self.ctx)
            except JromError as e:
                failures.append((cls.name, "%s: %s" % (type(e).__name__, e)))
        return failures

    def link_all(self):
        """Link every loaded class, including ones pulled in while linking."""
        failures = []
        while True:
            todo = [c for c in self.registry.loadable() if c.state == lc.LOADED]
            if not todo:
                return failures
            failures.extend(self.link_classes(todo))
            failed = {name for name, _ in failures}
            if all(c.state != lc.LOADED or c.name in failed
                   for c in self.registry.loadable()):
                return failures

    # --- differential verification ---

    def _run_side(self, ctx, cls_name, key, vector, fuel, trace=None):
        try:
            return vf.run_method(ctx, cls_name, key, vector, fuel, trace=trace)
        except JromError as e:
            return vf.Outcome("error", exception=type(e).__name__), None

    VERIFY_FUEL = 100_000

    def verify_all(self, seed=0, vectors=5, fuel=VERIFY_FUEL,
                   after_registry=None, trace=None, only=None):
        """Differential check of every subset-supported method.

        Compares the post-load dialect against the post-link one, or against
        ``after_registry`` (a reloaded image) when given.  Worlds digest only
        the zones that differ from where they started, so a reloaded image's
        starting zones are first compared with the source registry's, once.
        """
        result = VerifyOutcome()
        if after_registry is not None:
            for cls in self.linked_classes():
                detail = _zone_difference(cls, after_registry.get(cls.name))
                if detail is not None:
                    result.failures.append((cls.name, "<static zones>", detail))
        for cls in sorted(self.registry.loadable(), key=lambda c: c.name):
            if cls.state != lc.LINKED or cls.loaded_view is None:
                continue
            for m in cls.methods:
                if only is not None and "%s.%s" % (cls.name, m.name) != only:
                    continue
                if m.code is None:
                    continue
                if not vf.in_subset(m.code_loaded) or not vf.in_subset(m.code):
                    result.skipped.append((cls.name, m.name + m.descriptor))
                    continue
                base = "init" if m.name == "<clinit>" else "live"
                before = vf.ExecContext(self.registry, lc.LOADED, base)
                if after_registry is not None:
                    after = vf.ExecContext(after_registry, lc.LINKED, base)
                else:
                    after = vf.ExecContext(self.registry, lc.LINKED, base)
                vecs = vf.seeded_vectors(m, seed, vectors)
                verdict = self._diff_method(cls.name, m.key, before, after,
                                            vecs, fuel, trace)
                if verdict is None:
                    result.checked.append((cls.name, m.name + m.descriptor))
                elif verdict == "skip":
                    result.skipped.append((cls.name, m.name + m.descriptor))
                else:
                    result.failures.append((cls.name, m.name + m.descriptor,
                                            verdict))
        return result

    def _diff_method(self, cls_name, key, before, after, vecs, fuel, trace):
        """None = equal, "skip" = unexecutable on both sides, str = failure."""
        for k, vec in enumerate(vecs):
            out_a, dig_a = self._run_side(before, cls_name, key, vec, fuel, trace)
            out_b, dig_b = self._run_side(after, cls_name, key, vec, fuel, trace)
            if out_a.kind == "error" or out_b.kind == "error":
                if (out_a.kind, out_a.exception) == (out_b.kind, out_b.exception):
                    return "skip"
                return ("vector %d: %s/%s vs %s/%s"
                        % (k, out_a.kind, out_a.exception,
                           out_b.kind, out_b.exception))
            if (out_a.kind, out_a.value, out_a.exception) != \
                    (out_b.kind, out_b.value, out_b.exception):
                return "vector %d: outcome %r vs %r" % (k, out_a, out_b)
            if dig_a != dig_b:
                return "vector %d: %s" % (k, _world_difference(before, dig_a,
                                                                after, dig_b))
        return None

    def corrupt(self, cls_name, method_name):
        """Test hook: flip one quick-form operand byte in post-link code."""
        cls = self.registry.get(cls_name)
        if cls is None:
            raise JromError("no such class %s" % cls_name)
        for m in cls.methods:
            if m.name != method_name or m.code is None:
                continue
            bc = m.code.bytecode
            for off, op, size in ops.walk(bc):
                if size > 1 and op != ops.BY_NAME["invokevirtual_quick"]:
                    bc[off + size - 1] ^= 0x01
                    m.code.decoded = None
                    return "%s.%s+%d" % (cls_name, method_name, off + size - 1)
        raise JromError("no corruptible operand in %s.%s"
                        % (cls_name, method_name))

    # --- romization ---

    def linked_classes(self):
        return sorted((c for c in self.registry.loadable()
                       if c.state == lc.LINKED), key=lambda c: c.name)

    def emit_image(self):
        return rz.emit_image(self.linked_classes(), self.ctx)

    def build_report(self, targets=None, errors=()):
        report = rz.FootprintReport(self.flags_desc())
        err_map = dict(errors)
        classes = targets if targets is not None else self.registry.loadable()
        for cls in sorted(classes, key=lambda c: c.name):
            if cls.state == lc.UNLOADED:
                continue
            report.add_class(cls, error=err_map.get(cls.name))
        return report
