"""Table rules and transformations (Definition 2.2).

A transformation ``σ`` from XML to a relational schema ``R = (R1, ..., Rn)``
is a list of *table rules*, one per relation.  A table rule for ``Ri``
consists of:

* a set of variables containing the distinguished *root variable* ``xr``;
* *variable mappings* ``y ← w/P`` binding each non-root variable ``y`` to the
  nodes reached from its parent variable ``w`` via path expression ``P``;
* *field rules* ``A: value(y)`` populating each attribute ``A`` of ``Ri``
  with the ``value`` of the node bound to ``y``.

Well-formedness (checked by :mod:`repro.transform.validate`):

* every variable is connected to the root variable;
* the path of a mapping whose parent is not the root variable is *simple*
  (contains no ``//``);
* no field rule uses a variable that also has outgoing mappings (field
  variables are leaves of the table tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.xmlmodel.paths import PathExpression, PathLike

DEFAULT_ROOT_VARIABLE = "xr"


@dataclass(frozen=True)
class VariableMapping:
    """A mapping ``variable ← source/path``."""

    variable: str
    source: str
    path: PathExpression

    def __str__(self) -> str:
        return f"{self.variable} <- {self.source} : {self.path.text}"


@dataclass(frozen=True)
class FieldRule:
    """A field rule ``field: value(variable)``."""

    field: str
    variable: str

    def __str__(self) -> str:
        return f"{self.field}: value({self.variable})"


class TableRule:
    """The table rule ``Rule(R)`` for one relation ``R``."""

    def __init__(
        self,
        relation: str,
        fields: Optional[Mapping[str, str]] = None,
        mappings: Optional[Iterable[Tuple[str, str, PathLike]]] = None,
        root_variable: str = DEFAULT_ROOT_VARIABLE,
    ) -> None:
        self.relation = relation
        self.root_variable = root_variable
        self._fields: Dict[str, FieldRule] = {}
        # variable → the fields it populates, in declaration order.
        self._fields_by_variable: Dict[str, List[str]] = {}
        self._mappings: Dict[str, VariableMapping] = {}
        for variable, source, path in mappings or ():
            self.add_mapping(variable, source, path)
        for field, variable in (fields or {}).items():
            self.add_field(field, variable)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_mapping(self, variable: str, source: str, path: PathLike) -> VariableMapping:
        """Add ``variable ← source/path``."""
        if variable == self.root_variable:
            raise ValueError(f"the root variable {variable!r} cannot be re-mapped")
        if variable in self._mappings:
            raise ValueError(f"variable {variable!r} already has a mapping in Rule({self.relation})")
        mapping = VariableMapping(variable, source, PathExpression.of(path))
        self._mappings[variable] = mapping
        return mapping

    def add_field(self, field: str, variable: str) -> FieldRule:
        """Add ``field: value(variable)``."""
        if field in self._fields:
            raise ValueError(f"field {field!r} already defined in Rule({self.relation})")
        rule = FieldRule(field, variable)
        self._fields[field] = rule
        self._fields_by_variable.setdefault(variable, []).append(field)
        return rule

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fields(self) -> List[FieldRule]:
        return list(self._fields.values())

    @property
    def field_names(self) -> List[str]:
        return list(self._fields)

    @property
    def mappings(self) -> List[VariableMapping]:
        return list(self._mappings.values())

    @property
    def variables(self) -> List[str]:
        """All variables (root first, then in declaration order)."""
        return [self.root_variable] + list(self._mappings)

    def field_rule(self, field: str) -> FieldRule:
        try:
            return self._fields[field]
        except KeyError:
            raise KeyError(f"Rule({self.relation}) has no field {field!r}") from None

    def field_variable(self, field: str) -> str:
        return self.field_rule(field).variable

    def mapping(self, variable: str) -> VariableMapping:
        try:
            return self._mappings[variable]
        except KeyError:
            raise KeyError(f"Rule({self.relation}) has no variable {variable!r}") from None

    def has_variable(self, variable: str) -> bool:
        return variable == self.root_variable or variable in self._mappings

    def parent(self, variable: str) -> Optional[str]:
        """The parent variable (``None`` for the root variable)."""
        if variable == self.root_variable:
            return None
        return self.mapping(variable).source

    def fields_of_variable(self, variable: str) -> List[str]:
        """The fields populated by ``value(variable)``."""
        return list(self._fields_by_variable.get(variable, ()))

    def schema(self, keys: Iterable = ()) -> RelationSchema:
        """The relation schema induced by the field rules."""
        return RelationSchema(self.relation, self.field_names, keys=keys)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"TableRule({self.relation!r}, fields={self.field_names})"

    def describe(self) -> str:
        lines = [f"Rule({self.relation}) ="]
        lines.append("  {" + ", ".join(str(rule) for rule in self._fields.values()) + "},")
        for mapping in self._mappings.values():
            lines.append(f"  {mapping}")
        return "\n".join(lines)


class Transformation:
    """A transformation ``σ = (Rule(R1), ..., Rule(Rn))``."""

    def __init__(self, rules: Iterable[TableRule] = (), name: str = "sigma") -> None:
        self.name = name
        self._rules: Dict[str, TableRule] = {}
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: TableRule) -> TableRule:
        if rule.relation in self._rules:
            raise ValueError(f"duplicate table rule for relation {rule.relation!r}")
        self._rules[rule.relation] = rule
        return rule

    def rule(self, relation: str) -> TableRule:
        try:
            return self._rules[relation]
        except KeyError:
            raise KeyError(f"transformation {self.name!r} has no rule for {relation!r}") from None

    def __iter__(self) -> Iterator[TableRule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, relation: str) -> bool:
        return relation in self._rules

    @property
    def relation_names(self) -> List[str]:
        return list(self._rules)

    def target_schema(self, keys: Optional[Mapping[str, Iterable]] = None) -> DatabaseSchema:
        """The relational schema ``R`` targeted by the transformation."""
        keys = keys or {}
        schema = DatabaseSchema(name=self.name)
        for rule in self:
            schema.add(rule.schema(keys=keys.get(rule.relation, ())))
        return schema

    def describe(self) -> str:
        return "\n\n".join(rule.describe() for rule in self)

    def __repr__(self) -> str:
        return f"Transformation({self.name!r}, relations={self.relation_names})"
