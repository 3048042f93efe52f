"""Legacy-stats facades: dataclass-shaped views over registry counters.

The seed codebase grew ~a dozen ad-hoc ``*Stats`` dataclasses
(``ReporterStats``, ``LinkStats``, ``NicStats``...).  Call sites mutate
them with plain attribute arithmetic (``stats.reports_sent += 1``) and
tests read them back the same way.  :class:`InstrumentedStats` keeps
that exact surface — attribute reads/writes, defaulted construction,
``repr``/``==`` like a dataclass — while storing every field in a
:class:`~repro.obs.metrics.Counter` registered under
``<component>.<field>``.  One increment updates both worlds because
there is only one world.
"""

from __future__ import annotations

from repro.obs.registry import Registry, get_registry


class counter_field:
    """Declares one counter-backed attribute on an InstrumentedStats.

    Reads return the counter's value; writes set it (so ``+=`` works).
    """

    __slots__ = ("default", "name")

    def __init__(self, default=0) -> None:
        self.default = default
        self.name = ""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._metrics[self.name].value

    def __set__(self, obj, value) -> None:
        obj._metrics[self.name].set(value)


class InstrumentedStats:
    """Base for the legacy ``*Stats`` classes.

    Subclasses set ``component`` and declare fields with
    :class:`counter_field`; construction registers one counter per
    field under ``<component>.<field>`` with the given labels,
    replacing any previous binding for the same identity (components
    are rebuilt constantly in tests — last registration wins).

    Args:
        labels: Identifying labels (``node=...``, ``link=...``).
        registry: Target registry (default: the process registry).
        Field keyword arguments seed initial values, preserving the
        dataclass constructor surface.
    """

    component = "stats"
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = []
        for klass in reversed(cls.__mro__):
            for name, attr in vars(klass).items():
                if isinstance(attr, counter_field) and name not in fields:
                    fields.append(name)
        cls._fields = tuple(fields)

    def __init__(self, *, labels: dict | None = None,
                 registry: Registry | None = None, **values) -> None:
        reg = registry if registry is not None else get_registry()
        labels = labels or {}
        unknown = set(values) - set(self._fields)
        if unknown:
            raise TypeError(f"unexpected fields {sorted(unknown)}")
        self.registry = reg
        self.labels = dict(labels)
        self._metrics = {}
        for name in self._fields:
            counter = reg.declare_counter(f"{self.component}.{name}",
                                          **labels)
            default = values.get(name, getattr(type(self), name).default)
            if default:
                counter.set(default)
            self._metrics[name] = counter

    # -- dataclass-compatible surface ----------------------------------

    @classmethod
    def fields(cls) -> tuple:
        return cls._fields

    def as_dict(self) -> dict:
        return {name: self._metrics[name].value for name in self._fields}

    def __eq__(self, other) -> bool:
        if isinstance(other, InstrumentedStats):
            return (type(self) is type(other)
                    and self.as_dict() == other.as_dict())
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({body})"

