"""Policy templates (§6: "it may be possible to come up with templates
(domain specific, if required) that can be later tweaked to get the set
of policies for an organization" — future work in the paper).

A :class:`PolicyTemplate` is a named SQL skeleton with typed, documented
slots. Instantiating a template validates the parameters, substitutes
them, and returns a ready :class:`~repro.core.policy.Policy`. The built-in
registry covers the survey's recurring restriction types (Table 1); new
domains register their own.

Because instances of one template share their SQL skeleton, the
unification optimization (§4.2.2) automatically collapses any number of
them into a single runtime policy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from ..errors import PolicyError
from .policy import Policy

#: Allowed slot value types.
SlotValue = Union[int, float, str]


@dataclass(frozen=True)
class Slot:
    """One template parameter."""

    name: str
    description: str
    type_name: str = "str"  # "str" | "int" | "float" | "identifier"
    default: Optional[SlotValue] = None

    def validate(self, value: SlotValue) -> SlotValue:
        if self.type_name == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise PolicyError(
                    f"slot {self.name!r} expects an int, got {value!r}"
                )
            return value
        if self.type_name == "float":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise PolicyError(
                    f"slot {self.name!r} expects a number, got {value!r}"
                )
            return value
        if self.type_name == "identifier":
            if not isinstance(value, str) or not re.fullmatch(
                r"[A-Za-z_][A-Za-z0-9_]*", value
            ):
                raise PolicyError(
                    f"slot {self.name!r} expects an identifier, got {value!r}"
                )
            return value.lower()
        if not isinstance(value, str):
            raise PolicyError(
                f"slot {self.name!r} expects a string, got {value!r}"
            )
        if "'" in value:
            # values land inside single-quoted SQL literals
            return value.replace("'", "''")
        return value


@dataclass(frozen=True)
class PolicyTemplate:
    """A named skeleton with ``{slot}`` placeholders."""

    name: str
    description: str
    sql_skeleton: str
    slots: tuple[Slot, ...] = ()

    def slot(self, name: str) -> Slot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise PolicyError(f"template {self.name!r} has no slot {name!r}")

    def instantiate(
        self, policy_name: Optional[str] = None, **params: SlotValue
    ) -> Policy:
        """Fill the slots and build the policy."""
        values: dict[str, SlotValue] = {}
        for slot in self.slots:
            if slot.name in params:
                values[slot.name] = slot.validate(params.pop(slot.name))
            elif slot.default is not None:
                values[slot.name] = slot.default
            else:
                raise PolicyError(
                    f"template {self.name!r}: missing required slot "
                    f"{slot.name!r}"
                )
        if params:
            unknown = ", ".join(sorted(params))
            raise PolicyError(
                f"template {self.name!r}: unknown slots: {unknown}"
            )
        sql = self.sql_skeleton.format(**values)
        name = policy_name or "{}-{}".format(
            self.name, "-".join(str(v) for v in values.values())
        )
        return Policy.from_sql(name, sql, description=self.description)


class TemplateRegistry:
    """Named collection of templates."""

    def __init__(self) -> None:
        self._templates: dict[str, PolicyTemplate] = {}

    def register(self, template: PolicyTemplate) -> PolicyTemplate:
        key = template.name.lower()
        if key in self._templates:
            raise PolicyError(f"template {template.name!r} already registered")
        self._templates[key] = template
        return template

    def get(self, name: str) -> PolicyTemplate:
        try:
            return self._templates[name.lower()]
        except KeyError:
            raise PolicyError(f"unknown template {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._templates)

    def instantiate(
        self, template_name: str, policy_name: Optional[str] = None, **params
    ) -> Policy:
        return self.get(template_name).instantiate(policy_name, **params)


#: The built-in templates: Table 1's restriction types.
BUILTIN_TEMPLATES = TemplateRegistry()

BUILTIN_TEMPLATES.register(
    PolicyTemplate(
        name="no-joins",
        description="Prohibit joining a relation with anything else "
        "(Navteq, Table 1 P1).",
        sql_skeleton=(
            "SELECT DISTINCT 'Joining {relation} with other data is "
            "prohibited' FROM schema p1, schema p2 "
            "WHERE p1.ts = p2.ts AND p1.irid = '{relation}' "
            "AND p2.irid <> '{relation}'"
        ),
        slots=(Slot("relation", "the protected relation", "identifier"),),
    )
)

BUILTIN_TEMPLATES.register(
    PolicyTemplate(
        name="rate-limit",
        description="Cap queries per user per window (Twitter, Table 1 P4).",
        sql_skeleton=(
            "SELECT DISTINCT 'Rate limit: user {uid} exceeded "
            "{max_requests} requests per window' "
            "FROM users u, clock c "
            "WHERE u.uid = {uid} AND u.ts > c.ts - {window} "
            "HAVING COUNT(DISTINCT u.ts) > {max_requests}"
        ),
        slots=(
            Slot("uid", "the rate-limited user id", "int"),
            Slot("max_requests", "requests allowed per window", "int"),
            Slot("window", "window length in clock units", "int"),
        ),
    )
)

BUILTIN_TEMPLATES.register(
    PolicyTemplate(
        name="k-anonymity",
        description="Every output tuple must draw on at least k tuples of "
        "the protected relation (MIMIC, Table 1 P5).",
        sql_skeleton=(
            "SELECT DISTINCT 'Fewer than {k} {relation} tuples contribute "
            "to an answer' FROM provenance p "
            "WHERE p.irid = '{relation}' "
            "GROUP BY p.ts, p.otid HAVING COUNT(DISTINCT p.itid) < {k}"
        ),
        slots=(
            Slot("relation", "the protected relation", "identifier"),
            Slot("k", "minimum contributing tuples", "int"),
        ),
    )
)

BUILTIN_TEMPLATES.register(
    PolicyTemplate(
        name="no-aggregation",
        description="Values of a relation may be shown but not aggregated "
        "(Yelp, Table 1 P7).",
        sql_skeleton=(
            "SELECT DISTINCT 'Aggregating {relation} data is prohibited' "
            "FROM schema s WHERE s.irid = '{relation}' AND s.agg = TRUE"
        ),
        slots=(Slot("relation", "the protected relation", "identifier"),),
    )
)

BUILTIN_TEMPLATES.register(
    PolicyTemplate(
        name="volume-quota",
        description="Cap output tuples derived from a relation per window "
        "(MS Translator free tier, Table 1 P3).",
        sql_skeleton=(
            "SELECT DISTINCT 'Quota exceeded for {relation}' "
            "FROM provenance p, clock c "
            "WHERE p.irid = '{relation}' AND p.ts > c.ts - {window} "
            "HAVING COUNT(DISTINCT p.ts || ':' || p.otid) > {max_tuples}"
        ),
        slots=(
            Slot("relation", "the metered relation", "identifier"),
            Slot("max_tuples", "output tuples allowed per window", "int"),
            Slot("window", "window length in clock units", "int"),
        ),
    )
)

BUILTIN_TEMPLATES.register(
    PolicyTemplate(
        name="user-volume-quota",
        description="Cap output tuples one user derives from a relation "
        "per window (the per-subscriber form of volume-quota; unlike the "
        "global form it is shard-local, so the sharded service accepts it).",
        sql_skeleton=(
            "SELECT DISTINCT 'Quota exceeded for {relation} (user {uid})' "
            "FROM provenance p, users u, clock c "
            "WHERE p.ts = u.ts AND u.uid = {uid} "
            "AND p.irid = '{relation}' AND p.ts > c.ts - {window} "
            "HAVING COUNT(DISTINCT p.ts || ':' || p.otid) > {max_tuples}"
        ),
        slots=(
            Slot("relation", "the metered relation", "identifier"),
            Slot("uid", "the metered user id", "int"),
            Slot("max_tuples", "output tuples allowed per window", "int"),
            Slot("window", "window length in clock units", "int"),
        ),
    )
)

BUILTIN_TEMPLATES.register(
    PolicyTemplate(
        name="group-access-window",
        description="At most n distinct users of a group may touch a "
        "relation per window (Table 1 P2 / experiment P1).",
        sql_skeleton=(
            "SELECT DISTINCT 'More than {max_users} {group} users queried "
            "{relation} in a window' "
            "FROM users u, schema s, groups g, clock c "
            "WHERE u.ts = s.ts AND s.irid = '{relation}' "
            "AND u.uid = g.uid AND g.gid = '{group}' "
            "AND u.ts > c.ts - {window} "
            "HAVING COUNT(DISTINCT u.uid) > {max_users}"
        ),
        slots=(
            Slot("relation", "the protected relation", "identifier"),
            Slot("group", "the restricted user group", "str"),
            Slot("max_users", "distinct users allowed per window", "int"),
            Slot("window", "window length in clock units", "int"),
        ),
    )
)
