"""Policy templates (§6 usability direction)."""

import pytest

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.core.templates import (
    BUILTIN_TEMPLATES,
    PolicyTemplate,
    Slot,
    TemplateRegistry,
)
from repro.engine import Database
from repro.errors import PolicyError
from repro.log import SimulatedClock


class TestSlotValidation:
    def test_int_slot(self):
        slot = Slot("n", "a count", "int")
        assert slot.validate(5) == 5
        with pytest.raises(PolicyError):
            slot.validate("five")
        with pytest.raises(PolicyError):
            slot.validate(True)

    def test_float_slot(self):
        slot = Slot("x", "a number", "float")
        assert slot.validate(2.5) == 2.5
        assert slot.validate(2) == 2

    def test_identifier_slot(self):
        slot = Slot("rel", "a relation", "identifier")
        assert slot.validate("My_Table") == "my_table"
        with pytest.raises(PolicyError):
            slot.validate("bad-name")
        with pytest.raises(PolicyError):
            slot.validate("x; DROP TABLE t")

    def test_string_slot_escapes_quotes(self):
        slot = Slot("s", "a string")
        assert slot.validate("it's") == "it''s"


class TestInstantiation:
    def test_builtin_names(self):
        assert "rate-limit" in BUILTIN_TEMPLATES.names()
        assert "k-anonymity" in BUILTIN_TEMPLATES.names()

    def test_rate_limit_instantiates(self):
        policy = BUILTIN_TEMPLATES.instantiate(
            "rate-limit", uid=7, max_requests=10, window=1000
        )
        assert isinstance(policy, Policy)
        assert "u.uid = 7" in policy.sql

    def test_default_name_from_values(self):
        policy = BUILTIN_TEMPLATES.instantiate(
            "no-joins", relation="navteq"
        )
        assert policy.name == "no-joins-navteq"

    def test_explicit_name(self):
        policy = BUILTIN_TEMPLATES.instantiate(
            "no-joins", policy_name="p1", relation="navteq"
        )
        assert policy.name == "p1"

    def test_missing_slot(self):
        with pytest.raises(PolicyError):
            BUILTIN_TEMPLATES.instantiate("rate-limit", uid=1, window=10)

    def test_unknown_slot(self):
        with pytest.raises(PolicyError):
            BUILTIN_TEMPLATES.instantiate(
                "no-joins", relation="x", bogus=True
            )

    def test_unknown_template(self):
        with pytest.raises(PolicyError):
            BUILTIN_TEMPLATES.get("nope")

    def test_slot_default(self):
        template = PolicyTemplate(
            "t",
            "test",
            "SELECT DISTINCT 'x' FROM users u WHERE u.uid = {uid}",
            (Slot("uid", "user", "int", default=0),),
        )
        policy = template.instantiate()
        assert "u.uid = 0" in policy.sql

    def test_registry_rejects_duplicates(self):
        registry = TemplateRegistry()
        template = PolicyTemplate("t", "d", "SELECT 'x' FROM users u")
        registry.register(template)
        with pytest.raises(PolicyError):
            registry.register(template)


class TestTemplatesEndToEnd:
    def test_instances_unify_and_enforce(self):
        db = Database()
        db.load_table("items", ["k"], [(1,), (2,)])
        policies = [
            BUILTIN_TEMPLATES.instantiate(
                "rate-limit", uid=uid, max_requests=2, window=1000
            )
            for uid in (1, 2, 3)
        ]
        enforcer = Enforcer(
            db,
            policies,
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(),
        )
        # Same skeleton → one unified runtime policy for all three users.
        unified = [r for r in enforcer.runtime_policies() if r.member_names]
        assert len(unified) == 1
        assert len(unified[0].member_names) == 3

        for _ in range(2):
            assert enforcer.submit("SELECT * FROM items", uid=1).allowed
        decision = enforcer.submit("SELECT * FROM items", uid=1)
        assert not decision.allowed
        assert "user 1" in decision.violations[0].message
        # other users unaffected
        assert enforcer.submit("SELECT * FROM items", uid=2).allowed

    def test_every_builtin_parses_and_classifies(self):
        sample_params = {
            "no-joins": dict(relation="alpha"),
            "rate-limit": dict(uid=1, max_requests=5, window=100),
            "k-anonymity": dict(relation="alpha", k=4),
            "no-aggregation": dict(relation="alpha"),
            "volume-quota": dict(relation="alpha", max_tuples=10, window=100),
            "user-volume-quota": dict(
                relation="alpha", uid=1, max_tuples=10, window=100
            ),
            "group-access-window": dict(
                relation="alpha", group="students", max_users=3, window=100
            ),
        }
        from repro.analysis import analyze_structure, is_time_independent
        from repro.log import standard_registry

        registry = standard_registry()
        expected_ti = {
            "no-joins": True,
            "rate-limit": False,
            "k-anonymity": True,
            "no-aggregation": True,
            "volume-quota": False,
            "user-volume-quota": False,
            "group-access-window": False,
        }
        for name in BUILTIN_TEMPLATES.names():
            policy = BUILTIN_TEMPLATES.instantiate(name, **sample_params[name])
            assert (
                is_time_independent(analyze_structure(policy.select, registry))
                is expected_ti[name]
            ), name
