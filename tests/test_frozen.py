"""The value-type contract every class on delayedmarkets.frozen.Frozen keeps,
and what importing the package leaves out of the interpreter."""

from __future__ import annotations

import inspect
import subprocess
import sys
from fractions import Fraction as rat
from pathlib import Path

import pytest

import delayedmarkets
from delayedmarkets.arbitrage import FreeLunch, FreeLunchCertificate, MartingaleMeasureCertificate, NoFreeLunch
from delayedmarkets.delays import ExecutionDelayFamily, InformationDelayFamily
from delayedmarkets.documents import MarketDocument
from delayedmarkets.frozen import Frozen
from delayedmarkets.lp import LpOutcome, LpProblem
from delayedmarkets.markets import GainGenerator, Market, Strategy
from delayedmarkets.probability import Filtration, FiniteSpace, Partition, StoppingProcess
from delayedmarkets.scenarios import ExperimentReport, ScenarioConfig, TrialRecord

SRC = Path(delayedmarkets.__file__).resolve().parent.parent
STATES = ("u", "d")
STOCK = frozenset({"stock"})


def space():
    return FiniteSpace(states=STATES, probability={"u": rat(1, 2), "d": rat(1, 2)}, horizon=1, extended_horizon=1)


def partition():
    return Partition(states=STATES, labels=(0, 1))


def filtration():
    return Filtration(partitions=(Partition.trivial(STATES), partition()))


def stopping():
    return StoppingProcess(values=((0, 0), (1, 1)), info=filtration())


def market():
    return Market(space=space(), assets={"stock": ((rat(1), rat(1)), (rat(2), rat(1, 2)))}, index_system=(STOCK,),
                  trading_filtrations={STOCK: filtration()}, grand_filtration=filtration())


def strategy():
    return Strategy(index_set=STOCK, dates=(0, 1), holdings=({"stock": (rat(1), rat(1))},))


def free_lunch_certificate():
    return FreeLunchCertificate(strategy=strategy(), terminal_wealth=(rat(1), rat(0)))


def measure_certificate():
    return MartingaleMeasureCertificate(q={"u": rat(1, 3), "d": rat(2, 3)})


def information_family():
    return InformationDelayFamily(delays={STOCK: stopping()})


def execution_family():
    return ExecutionDelayFamily(delays={"stock": StoppingProcess(values=((0, 0), (1, 1)), info=filtration())},
                                caps={"stock": 2})


# one keyword-built instance per value type; each call builds a new one
BUILDERS = {
    FiniteSpace: space,
    Partition: partition,
    Filtration: filtration,
    StoppingProcess: stopping,
    Market: market,
    Strategy: strategy,
    GainGenerator: lambda: GainGenerator(index_set=STOCK, asset="stock", step=0, atom=("u",), deltas=((0, 2),)),
    FreeLunchCertificate: free_lunch_certificate,
    MartingaleMeasureCertificate: measure_certificate,
    FreeLunch: lambda: FreeLunch(certificate=free_lunch_certificate()),
    NoFreeLunch: lambda: NoFreeLunch(certificate=measure_certificate()),
    InformationDelayFamily: information_family,
    ExecutionDelayFamily: execution_family,
    MarketDocument: lambda: MarketDocument(market=market(), info_delays=information_family(),
                                           exec_delays=execution_family()),
    LpProblem: lambda: LpProblem(num_vars=2, objective=((0, 1),), inequalities=((((0, 1), (1, -1)), 0),)),
    LpOutcome: lambda: LpOutcome(status="optimal", solution=(rat(1), rat(0)), objective=rat(1), duals=(rat(1),)),
    ScenarioConfig: lambda: ScenarioConfig(seed=7, num_states=4, grid=2, extension=3, num_assets=2,
                                           max_index_sets=3, brokers=2),
    TrialRecord: lambda: TrialRecord(index=0, label="information", ok=True, detail="inherited", reproduction=None),
    ExperimentReport: lambda: ExperimentReport(kind="information", seed=7,
                                               records=(TrialRecord(index=0, label="information", ok=True),)),
}

# the attributes a type keeps outside its compared fields, with a value that
# differs from what __init__ put there
DERIVED = {
    FiniteSpace: {"state_index": {}},
    Partition: {"atoms": (), "atom_positions": ()},
}

# instances built with only the required arguments, and the defaults they get
DEFAULTS = [
    (lambda: ExecutionDelayFamily(delays={}), {"caps": {}}),
    (lambda: MarketDocument(market=market()), {"info_delays": None, "exec_delays": None}),
    (lambda: LpProblem(num_vars=1, objective=()), {"inequalities": ()}),
    (lambda: LpOutcome(status="unbounded"), {"solution": None, "objective": None, "duals": None}),
    (lambda: ScenarioConfig(), {"seed": 0, "num_states": 10, "grid": 3, "extension": 5, "num_assets": 2,
                                "max_index_sets": 4, "brokers": 3}),
    (lambda: TrialRecord(index=1, label="broker", ok=False), {"detail": "", "reproduction": None}),
]

TYPES = list(BUILDERS)
IDS = [t.__name__ for t in TYPES]


def test_every_value_type_is_covered():
    assert set(Frozen.__subclasses__()) == set(TYPES)
    assert len(TYPES) == 19


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_fields_are_the_constructor_arguments(cls):
    assert cls._fields == tuple(inspect.signature(cls).parameters)
    value = BUILDERS[cls]()
    assert repr(value).startswith(f"{cls.__qualname__}({cls._fields[0]}=")


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(cls):
    value = BUILDERS[cls]()
    for name in (*cls._fields, *DERIVED.get(cls, ()), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in (*cls._fields, *DERIVED.get(cls, ())):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == BUILDERS[cls]()


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equality_and_hash_read_only_the_fields(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a == b and not a != b
    for name, other in DERIVED.get(cls, {}).items():
        assert name in vars(a) and name not in cls._fields
        vars(a)[name] = other
    assert a == b
    try:
        hashed = hash(b)
    except TypeError:  # a field holds a dict
        return
    assert hash(a) == hashed


def test_a_computed_price_scale_is_not_compared():
    a, b = market(), market()
    assert a.price_scale == 2 and "price_scale" in vars(a) and "price_scale" not in vars(b)
    assert a == b
    assert "price_scale" not in repr(a)


def test_different_fields_or_types_are_unequal():
    assert partition() != Partition.trivial(STATES)
    assert FreeLunch(certificate=measure_certificate()) != NoFreeLunch(certificate=measure_certificate())
    assert partition().__eq__(partition().labels) is NotImplemented


@pytest.mark.parametrize("build, defaults", DEFAULTS, ids=[type(b()).__name__ for b, _ in DEFAULTS])
def test_keyword_construction_keeps_its_defaults(build, defaults):
    value = build()
    assert {name: getattr(value, name) for name in defaults} == defaults


def test_the_package_imports_without_dataclasses_or_inspect():
    """In a fresh interpreter with no site hooks, importing the package and
    every submodule loads neither dataclasses nor inspect."""
    names = sorted(p.stem for p in (SRC / "delayedmarkets").glob("*.py") if p.stem != "__main__")
    probe = ("import importlib, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "for name in sys.argv[2:]:\n"
             "    importlib.import_module('delayedmarkets' + ('' if name == '__init__' else '.' + name))\n"
             "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC), *names],
                         capture_output=True, text=True, check=True, timeout=60)
    assert len(names) >= 10
    assert out.stdout.split() == []
