"""``==`` and ``hash`` on the package's dataclasses.

A dataclass whose fields hold an array compares and hashes by identity
(``eq=False``): the generated ``__eq__`` would compare field tuples and take
the truth of an elementwise array ``==``, which raises.  A dataclass of plain
values keeps value equality.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import fields

import numpy as np
import pytest

import uwbnav
from uwbnav.liegroup import NavState, Rotation, TangentElement
from uwbnav.observer import ErrorMetrics, Gains, GainReport, ObserverState, validate_gains
from uwbnav.replay import LoadedDataset, LoadReport
from uwbnav.sensors import ImuSample, ReferenceVectors, TriadPair
from uwbnav.sim import (
    RunResult,
    Scenario,
    SensorNoise,
    SimResult,
    TruthModel,
    TruthTrack,
    default_anchors,
    preset_scenario,
    run_scenario,
    truth_track,
)
from uwbnav.tdoa import Anchor, AnchorSet, TdoaFrame


def short_scenario():
    return preset_scenario("static", duration=0.1)


def run():
    return run_scenario(short_scenario(), Gains())


def run_result():
    sim = run()
    return RunResult(*(getattr(sim, f.name) for f in fields(RunResult)))


# Each factory makes a new instance on every call, equal in value to the last.
FACTORIES = {
    Rotation: Rotation.identity,
    NavState: NavState.identity,
    TangentElement: lambda: TangentElement(np.zeros(3), np.ones(3), np.zeros(3), 1.0),
    ImuSample: lambda: ImuSample(0.0, np.zeros(3), (0.0, 0.0, 9.8), (1.0, 0.0, 0.0)),
    ReferenceVectors: ReferenceVectors,
    TriadPair: lambda: TriadPair(np.eye(3), np.eye(3)),
    Anchor: lambda: Anchor(1, (0.0, 1.0, 2.0)),
    AnchorSet: default_anchors,
    TdoaFrame: lambda: TdoaFrame(0.0, np.arange(7.0)),
    ObserverState: ObserverState.cold_start,
    GainReport: lambda: validate_gains(Gains(), 0.01),
    TruthModel: lambda: TruthModel(NavState.identity()),
    TruthTrack: lambda: truth_track(short_scenario()),
    Scenario: short_scenario,
    RunResult: run_result,
    SimResult: run,
    LoadedDataset: lambda: LoadedDataset(np.zeros((2, 7)), np.zeros((0, 9)), np.zeros((0, 8)), LoadReport()),
    Gains: Gains,
    SensorNoise: SensorNoise,
    ErrorMetrics: lambda: ErrorMetrics(0.1, 0.2, 0.3),
    LoadReport: LoadReport,
}


def holds_array(value) -> bool:
    """True for an array, or a dataclass, tuple or list with one inside."""
    if isinstance(value, np.ndarray):
        return True
    if dataclasses.is_dataclass(value):
        return any(holds_array(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return any(holds_array(x) for x in value)
    return False


def test_every_dataclass_of_the_package_has_a_factory():
    found = set()
    for info in pkgutil.iter_modules(uwbnav.__path__):
        module = importlib.import_module(f"uwbnav.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found.add(obj)
    assert found == set(FACTORIES)


@pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda c: c.__name__)
def test_equality_is_by_identity_exactly_where_a_field_holds_an_array(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls and a is not b
    assert type(a == b) is bool and type(a != b) is bool
    assert a == a
    if holds_array(a):
        # Identity: two instances of equal value are two objects, and both hash.
        assert not cls.__dataclass_params__.eq
        assert a != b
        assert len({a, b}) == 2 and hash(a) == hash(a)
    else:
        assert a == b
        if cls.__dataclass_params__.frozen:
            assert hash(a) == hash(b)
