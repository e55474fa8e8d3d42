"""The value classes against their dataclass twins, and what importing the
package loads."""

import json
import os
import pickle
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from jumpramsey import certify, cli, construct, core, detect, family, search
from jumpramsey.certify import beta_table, profile_table, verify_profile_property
from jumpramsey.construct import known_value, lift, pentagon_coloring
from jumpramsey.core import Color, Embedding, Witness, record
from jumpramsey.detect import alpha_table, find_blue_embedding
from jumpramsey.family import associated_graph, jump_min, monotone_path, validate_jump_member
from jumpramsey.search import AvoidanceProblem, JumpsFamily, bracket, decide
from oracles import dataclass_twin

MODULES = (core, family, construct, detect, certify, search, cli)


def record_classes():
    """Every class the package's modules define with the record decorator,
    by name; the decorator is what sets __match_args__ here."""
    return {obj.__qualname__: obj
            for mod in MODULES for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and "__match_args__" in vars(obj)}


def samples():
    """Instances of every record class, most of them from real runs."""
    chi = pentagon_coloring()
    c = lift(chi)
    table = beta_table(c)
    chains = [ch for ch in table.chains if ch is not None]
    pattern, spec = jump_min(2)
    outcome = decide(AvoidanceProblem(6, monotone_path(4), monotone_path(4)))
    unsat = decide(AvoidanceProblem(7, monotone_path(4), monotone_path(4)))
    climb = bracket(monotone_path(4), monotone_path(4), 7)
    return [
        chi, known_value(3, 3).witness(), c, lift(known_value(3, 3).witness()),
        monotone_path(4), pattern, spec, jump_min(1)[1],
        associated_graph(5, spec), associated_graph(3, jump_min(1)[1]),
        validate_jump_member(pattern, spec), validate_jump_member(monotone_path(5), spec),
        known_value(3, 1), known_value(3, 2),
        alpha_table(c, Color.RED), alpha_table(c, Color.BLUE),
        *chains[:2], table, beta_table(outcome.witness),
        *list(profile_table(c).values())[:2],
        verify_profile_property(c, 1), verify_profile_property(c, 2),
        Embedding((1, 3, 4)), find_blue_embedding(c, monotone_path(3)),
        Witness((1, 2, 3)), Witness((1, 3, 4, 6, 7), (3,), (1, 2)),
        JumpsFamily(2), JumpsFamily(3),
        AvoidanceProblem(6, monotone_path(4), JumpsFamily(2)),
        AvoidanceProblem(6, monotone_path(4), monotone_path(4)),
        outcome, outcome.stats, unsat, unsat.stats, *climb.levels[-2:], climb,
        bracket(monotone_path(3), JumpsFamily(1), 5),
    ]


def by_class():
    groups = {}
    for x in samples():
        groups.setdefault(type(x).__qualname__, []).append(x)
    return groups


def test_every_record_class_has_samples():
    found = record_classes()
    assert len(found) == 20
    assert set(by_class()) == set(found)
    assert all(len(xs) >= 2 for xs in by_class().values())


@record
class Defaults:
    """Distinct defaults, so that each is seen to land on its own field."""

    a: int
    b: str = "b"
    c: tuple = ()
    d: None = None


@pytest.mark.parametrize("name", sorted(record_classes()))
def test_record_agrees_with_its_dataclass_twin(name):
    check_against_twin(record_classes()[name], by_class()[name])


def test_record_fills_defaults_in_field_order():
    check_against_twin(Defaults, [Defaults(1), Defaults(2, "x", (3,), None)])
    assert Defaults(1, c=(2,)) == Defaults(1, "b", (2,), None)


def check_against_twin(cls, xs):
    twin = dataclass_twin(cls)
    fields = cls.__match_args__
    assert fields == twin.__match_args__ == tuple(cls.__annotations__)
    required = sum(f not in vars(cls) for f in fields)

    def values(x):
        return [getattr(x, f) for f in fields]

    for x in xs:
        t = twin(*values(x))
        assert repr(x) == repr(t)
        assert hash(x) == hash(t)
        assert x != t and t != x
        assert cls(*values(x)) == x
        assert cls(**dict(zip(fields, values(x)))) == x
        for k in range(required, len(fields) + 1):
            head = values(x)[:k]
            assert repr(cls(*head)) == repr(twin(*head))
            assert repr(cls(*head[:-1], **{fields[k - 1]: head[-1]})) == repr(twin(*head))
        head = values(x)[:required]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(x, protocol))
            assert type(back) is cls and back == x and hash(back) == hash(x)
        for f in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(TypeError, match=f"missing argument '{fields[required - 1]}'"):
            cls(*head[:-1])
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values(x), bogus=1)
        with pytest.raises(TypeError, match=f"takes {len(fields)} arguments but "
                                            f"{len(fields) + 1} were given"):
            cls(*values(x), None)
        with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
            cls(*values(x), **{fields[0]: values(x)[0]})
    for x, y in product(xs, repeat=2):
        assert (x == y) == (twin(*values(x)) == twin(*values(y)))
        assert (x != y) == (twin(*values(x)) != twin(*values(y)))


def test_import_loads_no_multiprocessing_and_no_dataclass():
    # multiprocessing is imported when a search starts a pool, not before;
    # dataclasses itself may come in with the standard library on some
    # versions, so only the package's own classes are checked
    src = str(Path(core.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import jumpramsey.cli\n"
        "from jumpramsey import core, family, construct, detect, certify, search, cli\n"
        "mods = (core, family, construct, detect, certify, search, cli)\n"
        "print(json.dumps({\n"
        "    'loaded': sorted(set(sys.modules) - before),\n"
        "    'dataclasses': sorted(obj.__qualname__ for mod in mods\n"
        "                          for obj in vars(mod).values()\n"
        "                          if isinstance(obj, type)\n"
        "                          and hasattr(obj, '__dataclass_fields__')),\n"
        "}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    seen = json.loads(proc.stdout)
    assert "jumpramsey.search" in seen["loaded"]
    assert not [m for m in seen["loaded"] if m.split(".")[0] == "multiprocessing"]
    assert seen["dataclasses"] == []
